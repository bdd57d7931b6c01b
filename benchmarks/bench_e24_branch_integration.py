"""E24 — frontier exact integration vs branch-by-branch baselines.

``DensityMatrixBackend.integrate`` enumerates every measurement-outcome
branch of a noisy pattern and sums the unnormalized post-measurement
density matrices — the exact reference the trajectory samplers (E21/E23)
certify against.  A branch-by-branch integration pays one simulator
descent per *leaf*: ``2^m`` for ``m`` live measurements.  The frontier
engine pays per *distinct future* instead:

1. **Live-parity merging.**  Two branches whose recorded outcomes agree on
   every parity any *future* op can still read are indistinguishable from
   here on; their unnormalized tensors sum into one frontier element.  The
   peak frontier width is the merged bound reported by
   ``repro.analysis.estimate_compiled`` (``2^rank``, often ≪ ``2^m``), and
   flip children share their recorded bit, so flips no longer quadruple
   anything.
2. **Cross-branch batching.**  The whole frontier advances as one
   ``(B, 2, ..., 2)`` batched density tensor through each compiled op —
   the E23 kernels, pointed across branches instead of shots — chunked
   against the same byte budget.

Baselines.  Every point sums the density engine's ``run_branch_batch``
over every outcome branch, weighted — the per-branch baseline (one forced
sweep per leaf).  That costs minutes at the full-mode acceptance size
(``m = 16``, 65536 forced runs), so there — and only there — the speed
gate keeps the scalar depth-first recursion it was first set against as
the private :func:`_scalar_recursion` below (it lives in no library
module).

Acceptance claims:

* **Exactness.**  The frontier output ρ matches the per-branch baseline at
  every benchmarked point (and the recursion at the full-mode gate), and
  chunkings of the batched sweep are *bit-identical* to each other (pure
  reassociation-free slicing).
* **Merging pays.**  Peak merged width is strictly below the raw ``2^m``
  leaf count at every point.
* **Speed.**  At the acceptance size the frontier beats its baseline by at
  least ``ACCEPT_SPEEDUP``.  The gate was ≥ 4x over the recursion; the
  quick variant (``m = 12``) now times the per-branch baseline, which
  took 8.85x the recursion's time (medians of 7 alternating runs on a
  2-core x86 box), so its calibrated threshold is ``4 × 8.85``; the
  full-mode gate (``m = 16``) keeps the recursion and the threshold 4.

Emits ``BENCH_E24.json`` in the working directory for downstream tracking.
Set ``REPRO_BENCH_QUICK=1`` for the trimmed CI smoke variant.
"""

import itertools
import json
import os
import time

import numpy as np

from repro.core import compile_qaoa_pattern
from repro.linalg.gates import CZ
from repro.mbqc import Pattern, compile_pattern, get_backend
from repro.mbqc.channels import Channel, ChannelNoiseModel
from repro.mbqc.compile import (
    ChannelOp,
    ConditionalOp,
    EntangleOp,
    PrepOp,
    UnitaryOp,
    lower_noise,
    signal_liveness,
    signal_parity,
)
from repro.problems import MaxCut
from repro.sim.density import DensityMatrix

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

GADGET_SIZES = [10, 12] if QUICK else [10, 12, 16]
ACCEPT_SIZE = GADGET_SIZES[-1]
# Calibrated per baseline (see the module docstring).
ACCEPT_SPEEDUP = 35.5 if QUICK else 4.0
# Past this many measured nodes the per-branch baseline takes minutes.
PER_BRANCH_MAX_MEASURED = 12
ATOL = 1e-11

_RESULTS = {"gadget_sizes": GADGET_SIZES, "points": []}


def gadget_ring(m, seed=5):
    """A ring of ``m`` phase gadgets hanging off one bus qubit: every
    measurement's correction lands on a later node, so each parity dies as
    soon as it is consumed and the merged frontier stays narrow while the
    raw leaf count is the full ``2^m``."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-np.pi, np.pi, size=m)
    p = Pattern(input_nodes=[0], output_nodes=[m])
    p.n(1).e(0, 1)
    for i in range(1, m):
        p.n(i + 1).e(i, i + 1)
        p.m(i, "XY", -float(a[i])).x(i + 1, {i})
    p.e(0, m)
    p.m(0, "XY", -float(a[0])).x(m, {0})
    return p


NOISE = ChannelNoiseModel(
    prep=Channel.amplitude_damping(0.05), ent=Channel.dephasing(0.02)
)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def per_branch_sum(program):
    """The per-branch baseline: the density engine's forced run of every
    outcome branch, weighted by its probability and summed (output-order
    little-endian matrix)."""
    dm = get_backend("density")
    nodes = program.measured_nodes
    k = program.num_inputs
    row = np.ones((1, 1 << k), dtype=complex) / np.sqrt(1 << k)
    acc = None
    for bits in itertools.product((0, 1), repeat=len(nodes)):
        out = dm.run_branch_batch(program, row, dict(zip(nodes, bits))).raw[0]
        term = out.rho.to_matrix() * out.weight
        acc = term if acc is None else acc + term
    return acc, 2 ** len(nodes)


def _scalar_recursion(program):
    """The scalar depth-first branch recursion the full-mode speed gate was
    first set against: one :class:`DensityMatrix` descent per leaf, dead
    records retired by partial trace.  Kept here, for that gate only."""
    ops = program.ops
    dead = signal_liveness(ops).dead
    leaves = []

    def rec(start, rho, outcomes, live):
        for idx in range(start, len(ops)):
            op = ops[idx]
            tp = type(op)
            if tp is PrepOp:
                rho.add_qubit(op.state, position=live)
                live += 1
            elif tp is EntangleOp:
                rho.apply_2q(CZ, *op.slots)
            elif tp is ChannelOp:
                rho.apply_kraus(op.kraus, op.slot, check=False)
            elif tp is ConditionalOp:
                if signal_parity(outcomes, op.domain):
                    rho.apply_1q(op.matrix, op.slot)
            elif tp is UnitaryOp:
                rho.apply_1q(op.matrix, op.slot)
            else:  # MeasureOp
                if dead[idx]:
                    rho.partial_trace(op.slot)
                    outcomes[op.node] = 0  # dead record, never read
                    live -= 1
                    continue
                s = signal_parity(outcomes, op.s_domain)
                t = signal_parity(outcomes, op.t_domain)
                for o in (0, 1):
                    dm, p = rho.measure_project(op.slot, op.bases[s + 2 * t], o)
                    if p >= 1e-12:
                        rec(idx + 1, dm, {**outcomes, op.node: o}, live - 1)
                return
        rho.permute(program.out_perm)
        leaves.append(rho.to_matrix())

    k = program.num_inputs
    row = np.ones(1 << k, dtype=complex) / np.sqrt(1 << k)
    rec(0, DensityMatrix.from_pure(row), {}, k)
    return sum(leaves), len(leaves)


def _bench_point(label, program):
    dm = get_backend("density")
    m = len(program.measured_nodes)
    baseline = (
        per_branch_sum if m <= PER_BRANCH_MAX_MEASURED else _scalar_recursion
    )
    (ref, leaves), t_s = _timed(lambda: baseline(program))
    frontier, t_f = _timed(lambda: dm.integrate(program))
    # merged-only ablation: single-element chunks keep the merge but strip
    # the cross-branch batching out of every kernel sweep
    merged_only, t_m = _timed(lambda: dm.integrate(program, max_block_bytes=1))

    diff = float(np.abs(frontier.rho.to_matrix() - ref).max())
    assert diff < ATOL, (label, diff)
    assert np.array_equal(frontier.rho._t, merged_only.rho._t), label
    assert frontier.branches < 2 ** m, (label, frontier.branches, m)

    speedup = t_s / t_f
    _RESULTS["points"].append(
        {
            "label": label,
            "measured": m,
            "baseline": baseline.__name__.lstrip("_"),
            "raw_leaves": leaves,
            "merged_peak": frontier.branches,
            "t_baseline_s": t_s,
            "t_merged_only_s": t_m,
            "t_frontier_s": t_f,
            "speedup": speedup,
            "max_abs_diff": diff,
        }
    )
    print(
        f"{label:>12} {m:>4} {leaves:>9} {frontier.branches:>7} "
        f"{1e3 * t_s:>10.1f} {1e3 * t_m:>12.1f} {1e3 * t_f:>11.1f} "
        f"{speedup:>7.1f}x {diff:>9.1e}"
    )
    return speedup


def test_e24_gadget_ring_sweep():
    """Branch-by-branch baseline vs frontier across gadget-ring sizes, with
    the exactness and merged-width checks at every point."""
    print("\nE24 — frontier exact integration vs branch-by-branch baseline "
          "(amplitude-damping + dephasing noise)")
    print(f"{'pattern':>12} {'m':>4} {'leaves':>9} {'merged':>7} "
          f"{'base ms':>10} {'merged-only':>12} {'frontier ms':>11} "
          f"{'speedup':>8} {'max diff':>9}")
    accept = None
    for m in GADGET_SIZES:
        program = lower_noise(compile_pattern(gadget_ring(m)), NOISE)
        speedup = _bench_point(f"gadget({m})", program)
        if m == ACCEPT_SIZE:
            accept = speedup
    assert accept is not None and accept >= ACCEPT_SPEEDUP, accept


def test_e24_qaoa_ring_point():
    """A wide-frontier shape: ring-QAOA's parities stay live much longer
    (merged peak 256 vs 4096 leaves), so the win here comes mostly from
    cross-branch batching rather than merging."""
    program = lower_noise(
        compile_qaoa_pattern(MaxCut.ring(4).to_qubo(), [0.4], [0.7])
        .executable(),
        NOISE,
    )
    _bench_point("qaoa-ring(4)", program)


def test_e24_emit_json():
    with open("BENCH_E24.json", "w") as fh:
        json.dump(_RESULTS, fh, indent=2)
    print("  wrote BENCH_E24.json")
