"""The benchmark's four workloads, their seeded inputs and output checks.

Every workload runs in *rounds*.  A round starts from the state a new
process would have (:func:`cold_start`), builds its own solver or a
fresh :class:`~repro.serve.JobServer` on a fresh ``cache_dir``, runs a
fixed amount of work and returns a :class:`RoundResult`; the driver in
``run.py`` repeats rounds until its time is up.  The inputs are a pure
function of the workload seed, so every round of a run is the same work
and two runs with one seed are the same work.

Why each workload exists, and which layers it loads, is in its ``WHY``
and ``LAYERS`` attributes, printed at the top of every run.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import sys
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.compiler import compile_qaoa_pattern
from repro.core.solver import MBQCQAOASolver
from repro.exec.checkpoint import records_digest, run_checkpointed
from repro.mbqc.backend import get_backend
from repro.mbqc.noise import NoiseModel
from repro.mbqc.pattern import PatternError
from repro.problems.maxcut import MaxCut
from repro.qaoa.simulator import qaoa_expectation
from repro.serve import JobServer, JobSpec, PatternCache
from repro.utils.rng import ensure_rng

#: Longest a serve round may wait for its burst before counting the
#: outstanding jobs as failed.
SERVE_TIMEOUT_S = 120.0

#: A job on its own digest, run before t0 so the pool's workers exist.
WARMUP_JOB = {
    "id": "warmup", "kind": "run", "problem": "ring:3",
    "gammas": [0.1], "betas": [0.1], "shots": 1, "seed": 0,
}


def noise_model(p: float) -> NoiseModel:
    return NoiseModel(p_prep=p, p_ent=p, p_meas=p)


def cold_start() -> None:
    """Empty the program's in-process memos (``lru_cache`` tables and the
    serving layer's serialization memos), as a new process starts."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for value in list(vars(module).values()):
            if getattr(value, "__module__", None) == name and callable(
                getattr(value, "cache_clear", None)
            ):
                value.cache_clear()
    from repro.serve import cache

    with cache._JSON_MEMO_LOCK:
        cache._PATTERN_JSON_MEMO.clear()
        cache._NOISE_JSON_MEMO.clear()
    with cache._CACHES_LOCK:
        cache._CACHES.clear()


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


@dataclass
class RoundResult:
    """What one round measured (times from ``perf_counter_ns``)."""

    latencies_ms: List[float]
    attempted: int
    failed: int
    executions: int  # pattern executions (shots) completed
    busy_s: float  # from the round's first op becoming due to its last completion
    extra: Dict[str, object] = field(default_factory=dict)


def _ms(ns: int) -> float:
    return ns / 1e6


# -- output checks (pure functions, so tests can feed them tampered data) ----


def check_sampled_expectation(
    costs: np.ndarray, reference: float, sigmas: float = 4.0
) -> Check:
    """Sampled ``<C>`` within ``sigmas`` standard errors of the reference."""
    mean = float(np.mean(costs))
    sem = float(np.std(costs, ddof=1) / math.sqrt(len(costs)))
    ok = abs(mean - reference) <= max(sigmas * sem, 1e-9)
    return Check(
        "solve.sampled_expectation",
        ok,
        f"sampled <C> {mean:.6f} vs gate model {reference:.6f} "
        f"(|diff| {abs(mean - reference):.2e}, {sigmas:g} sigma = {sigmas * sem:.2e})",
    )


def check_exact_value(value: float, reference: float, tol: float = 1e-9) -> Check:
    ok = abs(value - reference) <= tol
    return Check(
        "exact.noiseless_matches_gate_model",
        ok,
        f"integrated <C> {value:.12f} vs gate model {reference:.12f} "
        f"(|diff| {abs(value - reference):.1e}, tol {tol:g})",
    )


def check_trace(trace: float, dropped: float, tol: float = 1e-9) -> Check:
    ok = abs(trace + dropped - 1.0) <= tol
    return Check(
        "exact.trace_plus_dropped",
        ok,
        f"trace {trace:.15f} + dropped {dropped:.3e} - 1 = {trace + dropped - 1:.1e}",
    )


def check_receipt(job_id: str, served: Optional[str], standalone: str) -> Check:
    return Check(
        f"serve.receipt[{job_id}]",
        served == standalone,
        f"served {served} vs standalone run_checkpointed {standalone}",
    )


def check_receipts_repeat(receipts: Sequence[Dict[str, str]]) -> Check:
    """Every round served the same jobs; each job's receipt must repeat."""
    first = receipts[0] if receipts else {}
    bad = sorted(
        job for r in receipts for job, digest in r.items() if first.get(job) != digest
    )
    return Check(
        "serve.receipts_repeat_across_rounds",
        not bad,
        f"{len(receipts)} rounds, differing jobs: {bad or 'none'}",
    )


# -- solve --------------------------------------------------------------------


@dataclass(frozen=True)
class SolveInstance:
    label: str
    maxcut: MaxCut
    p: int
    runs_per_batch: int
    noise: Optional[float]
    seed: int


class SolveWorkload:
    NAME = "solve"
    WHY = (
        "The paper's variational loop: one caller runs MBQCQAOASolver.solve "
        "in a closed loop, so the fixed costs of every small evaluation "
        "(compile, lower_noise, select_backend, resample) stay visible."
    )
    LAYERS = (
        "core.compiler, mbqc.compile (compile_pattern, lower_noise), "
        "mbqc.backend.select + analysis.resources.estimate, "
        "engine.statevector.sample, mbqc.backend.resample, optimizer self time"
    )
    SIZES = {
        # ring-10 p=2 noiseless, and a seeded 3-regular-8 p=1 at 1% noise.
        "full": dict(ring=10, ring_p=2, ring_rpb=8, reg=8, reg_p=1, reg_rpb=64,
                     noise=0.01, shots=256, maxiter=20, check_shots=4096),
        "tiny": dict(ring=4, ring_p=1, ring_rpb=4, reg=4, reg_p=1, reg_rpb=8,
                     noise=0.01, shots=32, maxiter=4, check_shots=512),
    }

    def __init__(self, seed: int, scale: str, tmp: str) -> None:
        size = self.SIZES[scale]
        self.seed = seed
        self.shots = size["shots"]
        self.maxiter = size["maxiter"]
        self.check_shots = size["check_shots"]
        graph_seed = int(ensure_rng(seed).integers(2**31))
        self.instances = (
            SolveInstance(f"ring-{size['ring']}", MaxCut.ring(size["ring"]),
                          size["ring_p"], size["ring_rpb"], None, seed),
            SolveInstance(f"3-regular-{size['reg']}",
                          MaxCut.random_regular(3, size["reg"], seed=graph_seed),
                          size["reg_p"], size["reg_rpb"], size["noise"], seed + 1),
        )

    def _solver(self, inst: SolveInstance, shots: int, seed: int) -> MBQCQAOASolver:
        return MBQCQAOASolver(
            inst.maxcut.to_qubo(),
            p=inst.p,
            shots=shots,
            runs_per_batch=inst.runs_per_batch,
            noise=noise_model(inst.noise) if inst.noise else None,
            seed=seed,
        )

    def setup(self) -> None:
        for inst in self.instances:
            self._solver(inst, self.shots, inst.seed)

    def round(self, index: int, tracer=None) -> RoundResult:
        cold_start()
        latencies: List[float] = []
        failed = executions = 0
        ratios: List[float] = []
        solved = []
        start = time.perf_counter_ns()
        for inst in self.instances:
            solver = self._solver(inst, self.shots, inst.seed)
            sample = solver.sample

            def timed(gammas, betas, _sample=sample):
                t = time.perf_counter_ns()
                out = _sample(gammas, betas)
                latencies.append(_ms(time.perf_counter_ns() - t))
                return out

            solver.sample = timed  # the loop calls self.sample per evaluation
            try:
                result = solver.solve(restarts=1, maxiter=self.maxiter)
            except PatternError as exc:  # a failed evaluation ends this solve
                print(f"solve {inst.label} failed: {exc}", file=sys.stderr)
                failed += 1
                continue
            finally:
                executions += solver.evaluations * solver.runs_per_batch
            cut = inst.maxcut.cut_value(result.best_bitstring)
            ratios.append(cut / inst.maxcut.max_cut_value())
            solved.append((inst, result))
        busy = (time.perf_counter_ns() - start) / 1e9
        return RoundResult(
            latencies, len(latencies) + failed, failed, executions, busy,
            {"approx_ratios": ratios, "solved": solved},
        )

    def approx_ratio(self, rounds: Sequence[RoundResult]) -> float:
        ratios = [r for rr in rounds for r in rr.extra["approx_ratios"]]
        return float(np.mean(ratios)) if ratios else 0.0

    def checks(self, rounds: Sequence[RoundResult]) -> List[Check]:
        for inst, result in rounds[-1].extra["solved"]:
            if inst.noise is None:
                break
        else:
            return [Check("solve.sampled_expectation", False, "noiseless solve failed")]
        solver = self._solver(inst, self.check_shots, self.seed + 2)
        batch = solver.sample(result.gammas, result.betas)
        reference = qaoa_expectation(
            inst.maxcut.to_qubo().cost_vector(), result.gammas, result.betas
        )
        return [check_sampled_expectation(batch.costs, reference)]


# -- exact --------------------------------------------------------------------


class ExactWorkload:
    NAME = "exact"
    WHY = (
        "Exact noisy <C> over a (gamma, beta) grid in a closed loop: the only "
        "workload that runs the density frontier integrator, whose 2^rank "
        "branch width is what Pauli elimination should shrink; it calls "
        "neither select_backend nor a trajectory engine."
    )
    LAYERS = "core.compiler, mbqc.compile.compile_pattern, engine.density.integrate"
    SIZES = {
        # ring-4 p=1 has the same 256-branch frontier as ring-4 p=2 at a
        # sixth of the cost, so a run holds the >= 100 points a p90 needs.
        "full": dict(ring=4, p=1, noise=0.01, grid=4),
        "tiny": dict(ring=3, p=1, noise=0.01, grid=2),
    }

    def __init__(self, seed: int, scale: str, tmp: str) -> None:
        size = self.SIZES[scale]
        self.seed = seed
        self.maxcut = MaxCut.ring(size["ring"])
        self.p = size["p"]
        self.noise = noise_model(size["noise"])
        rng = ensure_rng(seed)
        g0, b0 = rng.uniform(0.05, 0.1), rng.uniform(0.05, 0.1)
        n = size["grid"]
        self.grid = [
            ([g0 + 1.0 * i / n] * self.p, [b0 + 0.6 * j / n] * self.p)
            for i in range(n)
            for j in range(n)
        ]

    def setup(self) -> None:
        MBQCQAOASolver(self.maxcut.to_qubo(), p=self.p, noise=self.noise, seed=self.seed)

    def round(self, index: int, tracer=None) -> RoundResult:
        cold_start()
        solver = MBQCQAOASolver(
            self.maxcut.to_qubo(), p=self.p, noise=self.noise, seed=self.seed
        )
        latencies: List[float] = []
        values: List[float] = []
        failed = 0
        start = time.perf_counter_ns()
        for gammas, betas in self.grid:
            t = time.perf_counter_ns()
            try:
                values.append(solver.exact_expectation(gammas, betas))
            except PatternError as exc:
                print(f"exact point {gammas}/{betas} failed: {exc}", file=sys.stderr)
                failed += 1
                continue
            latencies.append(_ms(time.perf_counter_ns() - t))
        busy = (time.perf_counter_ns() - start) / 1e9
        # One integration is one execution of the pattern over all branches.
        return RoundResult(
            latencies, len(self.grid), failed, len(latencies), busy, {"values": values}
        )

    def approx_ratio(self, rounds: Sequence[RoundResult]) -> float:
        """Best expected cut on the grid over the max cut (cost is -cut)."""
        values = rounds[-1].extra["values"]
        if not values:
            return 0.0
        return -min(values) / self.maxcut.max_cut_value()

    def checks(self, rounds: Sequence[RoundResult]) -> List[Check]:
        gammas, betas = self.grid[0]
        qubo = self.maxcut.to_qubo()
        noiseless = MBQCQAOASolver(qubo, p=self.p, seed=self.seed)
        value = noiseless.exact_expectation(gammas, betas)
        reference = qaoa_expectation(qubo.cost_vector(), gammas, betas)
        program = compile_qaoa_pattern(qubo.to_ising(), gammas, betas).executable()
        run = get_backend("density").integrate(program, noise=self.noise)
        return [
            check_exact_value(value, reference),
            check_trace(run.trace, run.dropped_weight),
        ]


# -- serve-repeat / serve-sweep ----------------------------------------------


class _EventLog(threading.Thread):
    """Reads the server's event stream and stamps each event on arrival,
    as a client reading the stream would; stops at a ``None``."""

    def __init__(self, queue) -> None:
        super().__init__(name="perfbench-events", daemon=True)
        self.queue = queue
        self.events: List[Tuple[int, dict]] = []

    def run(self) -> None:
        while True:
            event = self.queue.get()
            if event is None:
                return
            self.events.append((time.perf_counter_ns(), event))


class _ServeWorkload:
    """One client submits a burst of jobs, all due at t0, to a default
    process-pool ``JobServer`` (2 workers, coalescing on)."""

    NAME = ""
    WHY = ""
    LAYERS = (
        "serve.server.submit (core.compiler, serve.cache.lookup, mbqc.compile, "
        "mbqc.backend.select + analysis.resources.estimate), queue wait, "
        "pool batches timed at the block boundary (engine.*.sample), coalescing"
    )
    SIZES: Dict[str, dict] = {}

    def __init__(self, seed: int, scale: str, tmp: str) -> None:
        self.seed = seed
        self.tmp = tmp
        self.jobs = self.make_jobs(ensure_rng(seed), **self.SIZES[scale])

    def make_jobs(self, rng, **size) -> List[dict]:
        raise NotImplementedError

    def _server(self) -> Tuple[JobServer, str]:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.tmp)
        return JobServer(cache_dir=cache_dir, workers=2), cache_dir

    def setup(self) -> None:
        server, cache_dir = self._server()
        try:
            server.result(server.submit(dict(WARMUP_JOB)), timeout=SERVE_TIMEOUT_S)
        finally:
            server.close()
            shutil.rmtree(cache_dir, ignore_errors=True)

    def round(self, index: int, tracer=None) -> RoundResult:
        server, cache_dir = self._server()
        queue = server.subscribe()
        log = _EventLog(queue)
        log.start()
        lags: List[float] = []
        submitted: List[str] = []
        failed = 0
        try:
            # The warm-up forks the pool's workers before t0.
            with tracer.suspend() if tracer else nullcontext():
                server.result(server.submit(dict(WARMUP_JOB)), timeout=SERVE_TIMEOUT_S)
            stats0 = dataclasses.replace(server.cache.stats)
            cold_start()
            t0 = time.perf_counter_ns()
            for job in self.jobs:
                lags.append(_ms(time.perf_counter_ns() - t0))
                try:
                    submitted.append(server.submit(dict(job)))
                except (PatternError, ValueError) as exc:
                    print(f"submit {job['id']} refused: {exc}", file=sys.stderr)
                    failed += 1
            try:
                server.drain(timeout=SERVE_TIMEOUT_S)
            except TimeoutError:
                pass  # outstanding jobs count as failed below
            stats = server.cache.stats
        finally:
            server.close()
            queue.put(None)
            log.join(timeout=30)
            shutil.rmtree(cache_dir, ignore_errors=True)

        accepted: Dict[str, int] = {}
        first_block: Dict[str, int] = {}
        done: Dict[str, Tuple[int, dict]] = {}
        coalesced: List[bool] = []
        batch_shots: List[int] = []
        for ts, event in log.events:
            job = event.get("job")
            if job not in submitted:
                continue
            kind = event.get("event")
            if kind == "accepted":
                accepted[job] = ts
            elif kind == "block":
                first_block.setdefault(job, ts)
                coalesced.append(bool(event["coalesced"]))
                batch_shots.append(int(event["batch_shots"]))
            elif kind == "done":
                done[job] = (ts, event)
        failed += len(submitted) - len(done)
        latencies = [_ms(ts - t0) for ts, _ in done.values()]
        end = max((ts for ts, _ in done.values()), default=time.perf_counter_ns())
        lookups = (stats.hits - stats0.hits) + (stats.misses - stats0.misses)
        return RoundResult(
            latencies,
            len(self.jobs),
            failed,
            sum(int(ev["shots"]) for _, ev in done.values()),
            (end - t0) / 1e9,
            {
                "lag_ms": lags,
                "queue_wait_ms": [
                    _ms(first_block[j] - accepted[j]) for j in first_block if j in accepted
                ],
                "coalesced": coalesced,
                "batch_shots": batch_shots,
                "hit_ratio": (stats.hits - stats0.hits) / lookups if lookups else 0.0,
                "receipts": {j: ev.get("records_sha256") for j, (_, ev) in done.items()},
                "backends": {j: ev.get("backend") for j, (_, ev) in done.items()},
            },
        )

    def approx_ratio(self, rounds: Sequence[RoundResult]) -> float:
        """Served jobs return measurement records, not cut bitstrings; the
        metric is fixed at 1 here so the column exists on every workload."""
        return 1.0

    def checks(self, rounds: Sequence[RoundResult], n_checked: int = 2) -> List[Check]:
        receipts = [r.extra["receipts"] for r in rounds]
        backends = rounds[-1].extra["backends"]
        by_id = {job["id"]: job for job in self.jobs}
        served = sorted(receipts[-1])
        rng = ensure_rng(self.seed + 3)
        picks = sorted(rng.choice(len(served), min(n_checked, len(served)), replace=False))
        out = [check_receipts_repeat(receipts)]
        for i in picks:
            job_id = served[int(i)]
            spec = JobSpec.from_dict(by_id[job_id], default_id=job_id)
            compiled = PatternCache().get_or_compile(spec.build_pattern(), noise=spec.noise)
            job_dir = tempfile.mkdtemp(prefix="job-", dir=self.tmp)
            try:
                standalone = run_checkpointed(
                    compiled,
                    spec.shots,
                    job_dir=job_dir,
                    seed=spec.seed,
                    backend=backends[job_id],
                    block_shots=spec.block_shots,
                )
            finally:
                shutil.rmtree(job_dir, ignore_errors=True)
            out.append(check_receipt(job_id, receipts[-1][job_id], records_digest(standalone.run)))
        if not served:
            out.append(Check("serve.receipt", False, "no job finished"))
        return out


class ServeRepeatWorkload(_ServeWorkload):
    NAME = "serve-repeat"
    WHY = (
        "Repeat traffic: 16 noisy ring-8 p=2 jobs over 4 (gamma, beta) points, "
        "so the memory-tier cache hits, same-digest jobs coalesce into fused "
        "statevector Pauli-trajectory batches, and every job finishes together."
    )
    # 4 blocks per job as in a 1024/256 job, shrunk so a run holds >= 100 jobs.
    SIZES = {
        "full": dict(ring=8, p=2, noise=0.01, shots=128, block_shots=32, jobs=16, points=4),
        "tiny": dict(ring=4, p=1, noise=0.01, shots=8, block_shots=4, jobs=4, points=2),
    }

    def make_jobs(self, rng, ring, p, noise, shots, block_shots, jobs, points):
        params = [
            (list(rng.uniform(0.1, 1.0, p)), list(rng.uniform(0.1, 0.6, p)))
            for _ in range(points)
        ]
        base = int(rng.integers(2**31))
        return [
            {"id": f"r{i}", "kind": "run", "problem": f"ring:{ring}",
             "gammas": params[i % points][0], "betas": params[i % points][1],
             "noise": noise, "shots": shots, "block_shots": block_shots,
             "seed": base + i}
            for i in range(jobs)
        ]


class ServeSweepWorkload(_ServeWorkload):
    NAME = "serve-sweep"
    WHY = (
        "Sweep traffic: 16 ring-32 p=1 jobs, each with its own gamma and auto "
        "routing, so every cache lookup misses, nothing fuses, the MPS engine "
        "runs, and each submit pays compile plus select_backend synchronously."
    )
    # 4 shots a job (not 64) so a run holds >= 100 jobs.
    SIZES = {
        "full": dict(ring=32, shots=4, jobs=16),
        "tiny": dict(ring=17, shots=1, jobs=2),
    }

    def make_jobs(self, rng, ring, shots, jobs):
        gammas = rng.uniform(0.1, 1.0, jobs)
        beta = float(rng.uniform(0.1, 0.6))
        base = int(rng.integers(2**31))
        return [
            {"id": f"s{i}", "kind": "run", "problem": f"ring:{ring}",
             "gammas": [float(g)], "betas": [beta], "shots": shots,
             "seed": base + i, "backend": "auto"}
            for i, g in enumerate(gammas)
        ]


WORKLOADS = {
    w.NAME: w
    for w in (SolveWorkload, ServeRepeatWorkload, ServeSweepWorkload, ExactWorkload)
}
