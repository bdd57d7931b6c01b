"""E22 — bit-packed batched stabilizer tableau vs one shot per call.

The Clifford fast path reaches the paper's large ring-QAOA patterns
(γ = β = 0: graph state + Pauli measurements, ≥ 72 measured nodes at
ring-24).  ``StabilizerBackend.sample_batch`` runs the whole shot block
through one compiled-op sweep over a ``BatchedTableau`` — one shared
bit-packed GF(2) structure, per-shot packed sign bits.

Two acceptance claims:

1. **Exactness.**  Every shot's output equals the scalar tableau's
   forced-branch run on the record that shot drew: branch weights and
   canonical stabilizer forms agree output for output.  (Bit-identity of
   the batched tableau with scalar replicas is certified by
   ``tests/test_stab_batched.py::TestBatchedVsScalarReplicas``, and the
   record distribution by the oracle harness
   ``tests/test_oracle_differential.py``.)

2. **Speed.**  At 256 shots on the ring-24 Clifford QAOA pattern, the
   batched sweep beats 256 one-shot ``sample_batch`` calls by at least
   ``ACCEPT_SPEEDUP``.  The gate was first ≥ 5x against a retained
   per-shot tableau loop; re-based on the one-shot-call baseline it is
   ``5 × (t_one_shot_calls / t_loop)`` with the ratio (2.44) calibrated
   from medians of 7 alternating runs on a 2-core x86 box.

Emits ``BENCH_E22.json`` in the working directory for downstream tracking.
Set ``REPRO_BENCH_QUICK=1`` for the trimmed CI smoke variant.
"""

import json
import os
import time

import numpy as np

from repro.core import compile_qaoa_pattern
from repro.mbqc import compile_pattern, get_backend
from repro.problems import MaxCut

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

RING = 24
SHOT_SWEEP = [64, 256] if QUICK else [32, 64, 128, 256, 512]
ACCEPT_SHOTS = 256
ACCEPT_SPEEDUP = 12.2

_RESULTS = {"ring": RING, "sweep": []}


def clifford_ring_compiled(n):
    pattern = compile_qaoa_pattern(MaxCut.ring(n).to_qubo(), [0.0], [0.0]).pattern
    return compile_pattern(pattern)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def one_shot_calls(backend, compiled, shots, rng):
    """The baseline: ``shots`` one-shot ``sample_batch`` calls sharing one
    generator, records stacked."""
    return np.concatenate(
        [backend.sample_batch(compiled, 1, rng).outcomes for _ in range(shots)]
    )


def test_e22_batched_vs_loop_sweep():
    """Shots-vs-wall-time sweep: one batched call vs one call per shot."""
    c = clifford_ring_compiled(RING)
    sb = get_backend("stabilizer")
    print("\nE22 — batched stabilizer tableau vs one-shot calls "
          f"(ring-{RING}, {len(c.measured_nodes)} measured nodes)")
    print(f"{'shots':>6} {'batched ms':>11} {'1-shot ms':>10} {'speedup':>8}")
    for shots in SHOT_SWEEP:
        run_b, t_b = _timed(
            lambda: sb.sample_batch(c, shots, rng=np.random.default_rng(7))
        )
        recs_l, t_l = _timed(
            lambda: one_shot_calls(sb, c, shots, np.random.default_rng(7))
        )
        assert run_b.outcomes.shape == recs_l.shape
        speedup = t_l / t_b
        _RESULTS["sweep"].append(
            {
                "shots": shots,
                "t_batched_s": t_b,
                "t_one_shot_calls_s": t_l,
                "speedup": speedup,
            }
        )
        print(f"{shots:>6} {1e3 * t_b:>11.1f} {1e3 * t_l:>10.1f} "
              f"{speedup:>7.1f}x")

    at_accept = [r for r in _RESULTS["sweep"] if r["shots"] == ACCEPT_SHOTS]
    assert at_accept and at_accept[0]["speedup"] >= ACCEPT_SPEEDUP, at_accept


def test_e22_outputs_agree_with_branch_runs():
    """Beyond outcome bits: each shot's branch weight and canonical
    stabilizer form equal the scalar forced-branch run on its record
    (small ring so the per-shot branch runs stay cheap)."""
    c = clifford_ring_compiled(6)
    sb = get_backend("stabilizer")
    run = sb.sample_batch(c, 48, rng=np.random.default_rng(3), keep_raw=True)
    inputs = np.ones((1, 1), dtype=complex)
    for record, out in zip(run.outcome_dicts(), run.raw):
        ref = sb.run_branch_batch(c, inputs, record).raw[0]
        assert out.log2_weight == ref.log2_weight
        assert out.canonical_key() == ref.canonical_key()
    _RESULTS["output_agreement_shots"] = 48


def test_e22_emit_json():
    with open("BENCH_E22.json", "w") as fh:
        json.dump(_RESULTS, fh, indent=2)
    print("  wrote BENCH_E22.json")
