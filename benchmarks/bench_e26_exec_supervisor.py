"""E26 — overhead and exactness of the resilient execution supervisor.

The robustness layer (`repro.exec`) must be effectively free when nothing
fails: checkpointing only adds a seed spawn, a hash, and one small file
write per shot block, and shard supervision only adds schedule lookups
and a report around the same worker function the raw sharded integrator
runs.  This benchmark certifies both directions at once:

* **Bit-identity.**  A checkpointed job's merged record stream equals the
  direct per-block ``sample_batch`` concatenation (the supervisor adds no
  randomness), a resumed job reproduces the uninterrupted digest while
  re-running only the missing blocks, and a supervised sharded
  integration equals the raw sharded integrator's density matrix bitwise.
  The raw integrator (an unsupervised process pool over the same shard
  worker) is the private :func:`_raw_sharded_integrate` below; it lives
  in no library module, because the library has one sharded path.
* **Overhead.**  Checkpointed execution stays within 5x of the direct
  per-block loop (dominated by block-file I/O), and supervised
  integration stays within 3x of the raw sharded path (both pay the same
  process-pool startup).

Emits ``BENCH_E26.json`` in the working directory.  Set
``REPRO_BENCH_QUICK=1`` for the trimmed CI smoke variant.
"""

import json
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.core import compile_qaoa_pattern
from repro.exec import (
    Fault,
    FaultSchedule,
    InjectedCrash,
    plan_blocks,
    records_digest,
    run_checkpointed,
    supervised_integrate,
)
from repro.mbqc import get_backend
from repro.mbqc.density_backend import (
    _ZERO_PROB,
    _frontier_advance,
    _frontier_collapse,
    _frontier_root,
    _integrate_shard,
)
from repro.mbqc.noise import NoiseModel
from repro.problems import MaxCut
from repro.utils.rng import ensure_rng, spawn_seeds

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

SHOTS = 256 if QUICK else 1024
BLOCK_SHOTS = 64
SEED = 11
CHECKPOINT_OVERHEAD_BOUND = 5.0
SUPERVISION_OVERHEAD_BOUND = 3.0

_RESULTS = {}


def qaoa_pattern(n=6, gamma=0.37, beta=0.81):
    return compile_qaoa_pattern(
        MaxCut.ring(n).to_qubo(), [gamma], [beta]
    ).executable()


def _direct_blocks(compiled, n_shots, block_shots, seed):
    """The no-supervision baseline: the same per-block seeded calls the
    checkpoint runner makes, without directories, hashing, or manifests."""
    engine = get_backend("statevector")
    plans = plan_blocks(n_shots, block_shots)
    seeds = spawn_seeds(seed, len(plans))
    return np.concatenate(
        [
            engine.sample_batch(
                compiled, p.shots, ensure_rng(seeds[p.index])
            ).outcomes
            for p in plans
        ]
    )


def _raw_sharded_integrate(compiled, noise, shards):
    """The supervision gate's baseline: the shared frontier prefix
    in-process, then contiguous slices of the ``shards``-wide frontier
    finished by the shard worker in a plain process pool, partial sums
    joined in slice order.  No timeout, retry, re-split or fallback — any
    worker failure is fatal.  Kept here, for that gate only."""
    density = get_backend("density")
    compiled, plan, row = density._integration_setup(compiled, noise, None)
    state = _frontier_advance(
        compiled, plan, _frontier_root(compiled, plan, row), _ZERO_PROB,
        None, stop_width=shards,
    )
    if state.op_index >= len(compiled.ops):
        acc = _frontier_collapse(compiled, state.tensor)
        return density._finish_run(compiled, acc, state.peak, state.dropped)
    cuts = [
        c for c in np.array_split(np.arange(state.tensor.shape[0]), shards)
        if c.size
    ]
    with ProcessPoolExecutor(max_workers=len(cuts)) as pool:
        futures = [
            pool.submit(
                _integrate_shard, compiled, state.op_index, state.tensor[c],
                state.bits[c], state.live, _ZERO_PROB, None,
            )
            for c in cuts
        ]
        results = [f.result() for f in futures]
    acc = results[0][0]
    for part, _, _ in results[1:]:
        acc = acc + part
    branches = max(state.peak, sum(peak for _, peak, _ in results))
    dropped = state.dropped + sum(d for _, _, d in results)
    return density._finish_run(compiled, acc, branches, dropped)


def test_e26_checkpoint_overhead_and_bit_identity():
    print("\nE26 — checkpointed shot blocks vs direct per-block baseline")
    compiled = qaoa_pattern()
    t0 = time.perf_counter()
    direct = _direct_blocks(compiled, SHOTS, BLOCK_SHOTS, SEED)
    t_direct = time.perf_counter() - t0
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        result = run_checkpointed(
            compiled, SHOTS, job_dir=os.path.join(tmp, "job"),
            seed=SEED, backend="statevector", block_shots=BLOCK_SHOTS,
        )
        t_job = time.perf_counter() - t0
    ratio = t_job / max(t_direct, 1e-9)
    identical = bool(np.array_equal(result.run.outcomes, direct))
    _RESULTS["checkpoint"] = {
        "shots": SHOTS,
        "block_shots": BLOCK_SHOTS,
        "n_blocks": result.n_blocks,
        "direct_s": t_direct,
        "checkpointed_s": t_job,
        "overhead_ratio": ratio,
        "records_bit_identical": identical,
    }
    print(f"  direct {1e3 * t_direct:8.1f} ms   "
          f"checkpointed {1e3 * t_job:8.1f} ms   "
          f"ratio {ratio:4.2f}x   records "
          f"{'same' if identical else 'DIFFER'}")
    assert identical
    assert ratio <= CHECKPOINT_OVERHEAD_BOUND, ratio


def test_e26_resume_runs_only_missing_blocks():
    print("\nE26 — resume after crash re-runs only the missing blocks")
    compiled = qaoa_pattern()
    kw = dict(seed=SEED, backend="statevector", block_shots=BLOCK_SHOTS)
    n_blocks = len(plan_blocks(SHOTS, BLOCK_SHOTS))
    crash_at = n_blocks // 2
    with tempfile.TemporaryDirectory() as tmp:
        ref = run_checkpointed(
            compiled, SHOTS, job_dir=os.path.join(tmp, "ref"), **kw
        )
        sched = FaultSchedule([Fault("crash", "block", crash_at, 0)])
        try:
            run_checkpointed(
                compiled, SHOTS, job_dir=os.path.join(tmp, "job"),
                faults=sched, **kw
            )
        except InjectedCrash:
            pass
        t0 = time.perf_counter()
        resumed = run_checkpointed(
            compiled, SHOTS, job_dir=os.path.join(tmp, "job"), **kw
        )
        t_resume = time.perf_counter() - t0
    same = records_digest(resumed.run) == records_digest(ref.run)
    _RESULTS["resume"] = {
        "n_blocks": n_blocks,
        "crash_at_block": crash_at,
        "blocks_reused": len(resumed.blocks_reused),
        "blocks_rerun": len(resumed.blocks_run),
        "resume_s": t_resume,
        "digest_identical": same,
    }
    print(f"  {len(resumed.blocks_reused)}/{n_blocks} blocks reused, "
          f"{len(resumed.blocks_run)} re-run in {1e3 * t_resume:.1f} ms   "
          f"digest {'same' if same else 'DIFFER'}")
    assert resumed.blocks_reused == tuple(range(crash_at))
    assert same


def test_e26_supervised_integration_overhead_and_bit_identity():
    print("\nE26 — supervised sharded integration vs raw integrate")
    compiled = qaoa_pattern(4)
    noise = NoiseModel(p_prep=0.02, p_ent=0.02, p_meas=0.02)
    t0 = time.perf_counter()
    raw = _raw_sharded_integrate(compiled, noise, shards=2)
    t_raw = time.perf_counter() - t0
    t0 = time.perf_counter()
    sup = supervised_integrate(compiled, noise=noise, shards=2, backoff=0.0)
    t_sup = time.perf_counter() - t0
    ratio = t_sup / max(t_raw, 1e-9)
    identical = bool(np.array_equal(sup.rho._t, raw.rho._t))
    _RESULTS["supervision"] = {
        "shards": 2,
        "branches": sup.branches,
        "raw_s": t_raw,
        "supervised_s": t_sup,
        "overhead_ratio": ratio,
        "clean": sup.supervision.clean,
        "rho_bit_identical": identical,
    }
    print(f"  raw {1e3 * t_raw:8.1f} ms   supervised {1e3 * t_sup:8.1f} ms   "
          f"ratio {ratio:4.2f}x   rho "
          f"{'same' if identical else 'DIFFER'}")
    assert identical
    assert sup.supervision.clean
    assert ratio <= SUPERVISION_OVERHEAD_BOUND, ratio


def test_e26_emit_json():
    with open("BENCH_E26.json", "w") as fh:
        json.dump(_RESULTS, fh, indent=2)
    print("  wrote BENCH_E26.json")
