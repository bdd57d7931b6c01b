"""E23 — batched density-matrix trajectory sampling vs one resident shot.

The density engine is the only backend that executes *non-Pauli* channels
(amplitude damping, dephasing mixtures) — exactly, per trajectory.
``DensityMatrixBackend.sample_batch`` advances one
``(B, 2, ..., 2, 2, ..., 2)`` batched density tensor through a single
compiled-op sweep, chunked against a byte budget (``B · 4^max_live``
complex amplitudes resident).  The baseline is the same call with
``max_block_bytes=1``: one resident shot per chunk, the per-shot shape of
the same kernels.

Two acceptance claims:

1. **Exactness.**  Every chunking consumes the parent generator through
   the same whole-block draw schedule, so seeded outcome records are
   **bit-identical** between the batched sweep and the one-shot baseline:
   the speedup carries no statistical caveats.

2. **Speed.**  ≥ 3x at 256 shots on a noisy ring-QAOA pattern under an
   amplitude-damping + dephasing + readout-flip channel model (the win is
   memory-bounded by design: each shot carries a whole density tensor, so
   the batch chunk — unlike the stabilizer engine's shared-structure
   block — cannot amortize O(n²) structure across shots).  The gate was
   first set against a retained scalar per-shot loop; the one-shot
   baseline measured 0.57x that loop's time (medians of 7 alternating runs
   on a 2-core x86 box), so the calibrated threshold
   ``3 × max(1, 0.57)`` stays 3.

Emits ``BENCH_E23.json`` in the working directory for downstream tracking.
Set ``REPRO_BENCH_QUICK=1`` for the trimmed CI smoke variant.
"""

import json
import os
import time

import numpy as np

from repro.core import compile_qaoa_pattern
from repro.mbqc import compile_pattern, get_backend
from repro.mbqc.channels import Channel, ChannelNoiseModel
from repro.mbqc.compile import lower_noise
from repro.problems import MaxCut

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

RING = 4
SHOT_SWEEP = [64, 256] if QUICK else [32, 64, 128, 256]
ACCEPT_SHOTS = 256
ACCEPT_SPEEDUP = 3.0

_RESULTS = {"ring": RING, "sweep": []}


def noisy_ring_program():
    pattern = compile_qaoa_pattern(
        MaxCut.ring(RING).to_qubo(), [0.4], [0.7]
    ).pattern
    model = ChannelNoiseModel(
        prep=Channel.amplitude_damping(0.05),
        ent=Channel.dephasing(0.02),
        meas_flip=0.02,
    )
    return lower_noise(compile_pattern(pattern), model)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_e23_batched_vs_loop_sweep():
    """Shots-vs-wall-time sweep: batched vs one resident shot, with the
    bit-identity check on every point."""
    program = noisy_ring_program()
    dm = get_backend("density")
    print("\nE23 — batched density trajectories vs one resident shot "
          f"(ring-{RING}, {len(program.measured_nodes)} measured nodes, "
          f"max_live {program.max_live}, amplitude-damping noise)")
    print(f"{'shots':>6} {'batched ms':>11} {'1-shot ms':>10} {'speedup':>8} {'identical':>10}")
    for shots in SHOT_SWEEP:
        run_b, t_b = _timed(
            lambda: dm.sample_batch(
                program, shots, rng=np.random.default_rng(7)
            )
        )
        run_l, t_l = _timed(
            lambda: dm.sample_batch(
                program, shots, rng=np.random.default_rng(7), max_block_bytes=1
            )
        )
        identical = bool(np.array_equal(run_b.outcomes, run_l.outcomes))
        assert identical, f"seeded outcome records diverged at {shots} shots"
        speedup = t_l / t_b
        _RESULTS["sweep"].append(
            {
                "shots": shots,
                "t_batched_s": t_b,
                "t_one_shot_s": t_l,
                "speedup": speedup,
                "bit_identical": identical,
            }
        )
        print(f"{shots:>6} {1e3 * t_b:>11.1f} {1e3 * t_l:>10.1f} "
              f"{speedup:>7.1f}x {'yes' if identical else 'NO':>10}")

    # Acceptance: >= 3x at 256 shots.
    at_accept = [r for r in _RESULTS["sweep"] if r["shots"] == ACCEPT_SHOTS]
    assert at_accept and at_accept[0]["speedup"] >= ACCEPT_SPEEDUP, at_accept


def test_e23_chunking_is_invisible_in_records():
    """The memory-budget fallback: forcing small shot chunks (down to one
    shot's tensor) must leave seeded records and per-shot output mixtures
    identical to the unchunked block."""
    program = noisy_ring_program()
    dm = get_backend("density")
    per_shot = 16 * 4 ** program.max_live
    ref = dm.sample_batch(
        program, 48, rng=np.random.default_rng(3), keep_raw=True
    )
    for chunk_shots in (1, 7):
        run = dm.sample_batch(
            program, 48, rng=np.random.default_rng(3), keep_raw=True,
            max_block_bytes=chunk_shots * per_shot,
        )
        assert np.array_equal(ref.outcomes, run.outcomes)
        for a, b in zip(ref.raw, run.raw):
            assert np.allclose(a.rho.to_matrix(), b.rho.to_matrix(), atol=1e-12)
    _RESULTS["chunking_shots"] = 48


def test_e23_emit_json():
    with open("BENCH_E23.json", "w") as fh:
        json.dump(_RESULTS, fh, indent=2)
    print("  wrote BENCH_E23.json")
