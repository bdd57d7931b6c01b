"""E25 — the matrix-product-state engine on bounded-entanglement patterns.

Ring- and line-MaxCut QAOA patterns entangle each compiled slot with at
most two register neighbors: their compile-time ``interaction_width`` is
0–1, so site tensors stay small however many nodes the pattern measures.
The dense engines pay ``2^max_live`` amplitudes per shot regardless — a
ring-40 pattern (peak live register 41 qubits) costs ~35 TB per shot
dense, and ~100 KiB on the MPS engine at the default bond cap.

Acceptance claims:

* **Exactness.**  On small patterns the MPS engine agrees with the dense
  statevector engine to ≤ 1e-10: forced-branch weights and output states,
  and *bit-identical* seeded sample records (both engines consume the
  same per-measurement draw convention).
* **Chunk invariance.**  Seeded records are bit-identical across shot
  chunk sizes, down to one resident shot (``max_block_bytes=1``) — the
  chunk-invariance contract on the fourth engine.
* **Scaling.**  Line and ring patterns with ≥ 100 measured non-Clifford
  nodes sample within the default byte budget; auto-dispatch routes them
  to the MPS engine off ``interaction_width``, and reported truncation
  error stays at machine noise (the entanglement really is bounded).

Emits ``BENCH_E25.json`` in the working directory for downstream
tracking.  Set ``REPRO_BENCH_QUICK=1`` for the trimmed CI smoke variant.
"""

import json
import os
import time

import numpy as np

from repro.core import compile_qaoa_pattern
from repro.mbqc import get_backend, select_backend
from repro.mbqc.backend import PEAK_BYTE_BUDGET
from repro.problems import MaxCut

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

ATOL = 1e-10
EXACT_SIZES = [3, 4] if QUICK else [3, 4, 5, 6]
SCALE_RINGS = [40] if QUICK else [40, 60, 80]
SCALE_LINES = [51] if QUICK else [51, 101]
SCALE_SHOTS = 4 if QUICK else 16

_RESULTS = {"exact_points": [], "scale_points": []}


def ring_pattern(n, gamma=0.37, beta=0.81):
    return compile_qaoa_pattern(
        MaxCut.ring(n).to_qubo(), [gamma], [beta]
    ).executable()


def line_pattern(n, gamma=0.42, beta=0.63):
    line = MaxCut(n, [(i, i + 1) for i in range(n - 1)])
    return compile_qaoa_pattern(line.to_qubo(), [gamma], [beta]).executable()


def test_e25_exactness_vs_statevector():
    """Small rings: forced-branch states/weights within 1e-10 of the dense
    engine, and seeded sample records bit-identical to it."""
    print("\nE25 — MPS engine exactness vs dense statevector")
    print(f"{'pattern':>10} {'measured':>9} {'branch diff':>12} "
          f"{'weight rel':>11} {'records':>9}")
    mps = get_backend("mps")
    sv = get_backend("statevector")
    for n in EXACT_SIZES:
        compiled = ring_pattern(n)
        inputs = np.ones((1, 1), dtype=complex)
        rng = np.random.default_rng(n)
        worst_state = 0.0
        worst_weight = 0.0
        for _ in range(4 if QUICK else 8):
            branch = {
                node: int(b)
                for node, b in zip(
                    compiled.measured_nodes,
                    rng.integers(0, 2, size=len(compiled.measured_nodes)),
                )
            }
            a = mps.run_branch_batch(compiled, inputs, branch)
            b = sv.run_branch_batch(compiled, inputs, branch)
            psi_a, psi_b = a.raw[0].to_statevector(), b.dense_states()[0]
            phase = np.vdot(psi_b, psi_a)
            if abs(phase) > 0:
                psi_a = psi_a * (phase.conjugate() / abs(phase))
            worst_state = max(worst_state, float(np.abs(psi_a - psi_b).max()))
            worst_weight = max(
                worst_weight,
                abs(a.weights[0] - b.weights[0]) / max(b.weights[0], 1e-300),
            )
        ra = mps.sample_batch(compiled, 64, rng=7)
        rb = sv.sample_batch(compiled, 64, rng=7)
        identical = bool(np.array_equal(ra.outcomes, rb.outcomes))
        _RESULTS["exact_points"].append(
            {
                "ring": n,
                "measured": len(compiled.measured_nodes),
                "max_state_diff": worst_state,
                "max_weight_rel": worst_weight,
                "records_bit_identical": identical,
            }
        )
        print(f"{'ring-' + str(n):>10} {len(compiled.measured_nodes):>9} "
              f"{worst_state:>12.1e} {worst_weight:>11.1e} "
              f"{'same' if identical else 'DIFFER':>9}")
        assert worst_state <= ATOL, (n, worst_state)
        assert worst_weight <= ATOL, (n, worst_weight)
        assert identical, n


def test_e25_chunk_and_scalar_bit_identity():
    """Records invariant to the shot chunking, down to one resident shot."""
    compiled = ring_pattern(6)
    eng = get_backend("mps")
    ref = eng.sample_batch(compiled, 48, rng=13, max_block_bytes=1)
    for chunk_mult in (1, 3, 7):
        run = eng.sample_batch(
            compiled, 48, rng=13,
            max_block_bytes=chunk_mult * eng.bytes_per_shot(compiled),
        )
        assert np.array_equal(run.outcomes, ref.outcomes), chunk_mult
    _RESULTS["chunk_bit_identity"] = True


def _scale_point(label, compiled):
    eng = select_backend(compiled)
    assert eng.name == "mps", (label, eng.name)
    per_shot = eng.bytes_per_shot(compiled)
    assert per_shot <= PEAK_BYTE_BUDGET, (label, per_shot)
    t0 = time.perf_counter()
    run = eng.sample_batch(compiled, SCALE_SHOTS, rng=1, keep_raw=True)
    dt = time.perf_counter() - t0
    trunc = max(out.truncation_error for out in run.raw)
    bond = max(out.mps.max_bond for out in run.raw)
    point = {
        "label": label,
        "measured": len(compiled.measured_nodes),
        "max_live": compiled.max_live,
        "interaction_width": compiled.interaction_width,
        "bytes_per_shot": per_shot,
        "shots": SCALE_SHOTS,
        "time_s": dt,
        "max_bond": bond,
        "max_truncation_error": trunc,
    }
    _RESULTS["scale_points"].append(point)
    print(f"{label:>10} {point['measured']:>9} {compiled.max_live:>9} "
          f"{compiled.interaction_width:>6} {bond:>5} "
          f"{1e3 * dt / SCALE_SHOTS:>9.1f} {trunc:>10.1e}")
    assert trunc < 1e-8, (label, trunc)
    return point


def test_e25_scaling_sweep():
    """Line/ring patterns past dense reach: ≥ 100 measured non-Clifford
    nodes, sampled within the default byte budget."""
    print("\nE25 — bounded-width scaling past dense reach")
    print(f"{'pattern':>10} {'measured':>9} {'max_live':>9} {'width':>6} "
          f"{'bond':>5} {'ms/shot':>9} {'trunc':>10}")
    points = []
    for n in SCALE_RINGS:
        points.append(_scale_point(f"ring-{n}", ring_pattern(n)))
    for n in SCALE_LINES:
        points.append(_scale_point(f"line-{n}", line_pattern(n)))
    big = max(points, key=lambda p: p["measured"])
    assert big["measured"] >= 100, big
    # Past any dense engine: 2^max_live amplitudes would exceed the budget.
    assert 16 * (1 << big["max_live"]) > PEAK_BYTE_BUDGET


def test_e25_emit_json():
    with open("BENCH_E25.json", "w") as fh:
        json.dump(_RESULTS, fh, indent=2)
    print("  wrote BENCH_E25.json")
