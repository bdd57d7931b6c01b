"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Runs rounds of the workload (see ``workloads.py``) for ``--seconds``,
checks the program's outputs outside the timed phase, prints a table of
every metric with its unit and, as the last line, one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` spends the first half of the time untraced and the second
half with spans installed (``trace.py``), prints a per-layer table, and
reports the per-layer metrics plus the tracing overhead between the two
halves; the spans are written to ``.perfbench/``.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Subprocess set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 3

#: Per-layer metrics: name -> (unit, how it is computed).  ``*_ms`` time
#: metrics are milliseconds of inclusive span time per op unless noted.
PER_LAYER = {
    "core.compiler.compile_ms": ("ms/op", "core.compiler.compile"),
    "mbqc.compile.compile_pattern_ms": ("ms/op", "mbqc.compile.compile_pattern"),
    "mbqc.compile.lower_noise_ms": ("ms/op", "mbqc.compile.lower_noise"),
    "mbqc.backend.select_ms": ("ms/op", "mbqc.backend.select"),
    "analysis.resources.estimate_ms": ("ms/op", "analysis.resources.estimate"),
    "analysis.resources.estimate_calls": ("count/op", "calls:analysis.resources.estimate"),
    "engine.statevector.sample_ms": ("ms/op", "engine.statevector.sample"),
    "engine.statevector.shots": ("count/op", "counter:engine.statevector.shots"),
    "engine.mps.sample_ms": ("ms/op", "engine.mps.sample"),
    "engine.mps.shots": ("count/op", "counter:engine.mps.shots"),
    "engine.density.integrate_ms": ("ms/op", "engine.density.integrate"),
    "engine.density.branches": ("count", "branches"),
    "mbqc.backend.resample_ms": ("ms/op", "mbqc.backend.resample"),
    "core.solver.optimizer_self_ms": ("ms/op", "self:core.solver.solve"),
    "serve.server.submit_ms": ("ms/op", "serve.server.submit"),
    "serve.server.generator_lag_ms": ("ms", "mean:lag_ms"),
    "serve.server.queue_wait_ms": ("ms", "mean:queue_wait_ms"),
    "serve.cache.lookup_ms": ("ms/op", "self:serve.cache.lookup"),
    "serve.cache.hit_ratio": ("ratio", "hit_ratio"),
    "serve.batching.coalesced_ratio": ("ratio", "mean:coalesced"),
    "serve.batching.batch_shots_mean": ("count", "mean:batch_shots"),
    "trace.overhead_pct": ("%", "overhead"),
}


def _mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


def measure(workload, seconds: float, tracer=None) -> list:
    """Rounds of ``workload`` until ``seconds`` have passed (at least one)."""
    deadline = time.monotonic() + seconds
    rounds = [workload.round(0, tracer)]
    while time.monotonic() < deadline:
        rounds.append(workload.round(len(rounds), tracer))
    return rounds


def end_to_end(workload, rounds: list) -> dict:
    import numpy as np

    lat = np.array([x for r in rounds for x in r.latencies_ms], dtype=float)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    busy = sum(r.busy_s for r in rounds)
    return {
        "op_p50_ms": (float(np.percentile(lat, 50)) if lat.size else 0.0, "ms"),
        "op_p90_ms": (float(np.percentile(lat, 90)) if lat.size else 0.0, "ms"),
        "ops_per_s": (lat.size / busy if busy > 0 else 0.0, "1/s"),
        "shots_per_s": (sum(r.executions for r in rounds) / busy if busy > 0 else 0.0, "1/s"),
        "approx_ratio": (workload.approx_ratio(rounds), "ratio"),
        "ok_ratio": (1.0 - failed / attempted if attempted else 0.0, "ratio"),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child
    (the job server's pool workers, read after the server closed)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_seconds(workload: str, seed: int, scale: str) -> list:
    """Wall time of fresh processes that import the program and set the
    workload up (inputs, solver or server with its pool), then exit."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--scale", scale, "--setup-probe"],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120,
        )
        times.append(time.perf_counter() - start)
    return times


def per_layer(workload, rounds: list, tracer, overhead_pct: float) -> dict:
    ops = sum(len(r.latencies_ms) for r in rounds) or 1
    totals = tracer.layer_totals()
    out = {}
    for name, (unit, source) in PER_LAYER.items():
        kind, _, key = source.rpartition(":")
        if source == "overhead":
            value = overhead_pct
        elif source == "branches":
            n = tracer.counters.get("engine.density.integrations", 0)
            value = tracer.counters.get("engine.density.branches", 0) / n if n else 0.0
        elif source == "hit_ratio":
            value = _mean(r.extra["hit_ratio"] for r in rounds if "hit_ratio" in r.extra)
        elif kind == "mean":
            value = _mean(x for r in rounds for x in r.extra.get(key, ()))
        elif kind == "counter":
            value = tracer.counters.get(key, 0) / ops
        elif kind == "calls":
            value = totals.get(key, (0, 0.0, 0.0))[0] / ops
        elif kind == "self":
            value = totals.get(key, (0, 0.0, 0.0))[2] / ops
        else:
            value = totals.get(key, (0, 0.0, 0.0))[1] / ops
        out[name] = (float(value), unit)
    return out


def print_layer_table(name: str, tracer, ops: int) -> None:
    totals = tracer.layer_totals()
    print(f"\nper-layer spans, {name}, traced phase ({ops} ops)")
    print(f"  {'span':34s} {'calls':>7s} {'calls/op':>9s} {'total ms':>11s} "
          f"{'self ms':>11s} {'ms/op':>9s} {'self ms/op':>11s}")
    for span, (calls, total, self_ms) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        print(f"  {span:34s} {calls:7d} {calls / ops:9.2f} {total:11.1f} "
              f"{self_ms:11.1f} {total / ops:9.3f} {self_ms / ops:11.3f}")
    for counter, value in sorted(tracer.counters.items()):
        print(f"  counter {counter:26s} {value:12.0f} ({value / ops:.2f}/op)")
    select = totals.get("mbqc.backend.select")
    if select:
        engines = sum(v[1] for k, v in totals.items() if k.startswith("engine."))
        line = (f"  select_backend + estimate_compiled tax: {select[1] / ops:.3f} ms/op, "
                f"against {engines / ops:.3f} ms/op in the engines")
        submit = totals.get("serve.server.submit")
        if submit:
            line += f" and {submit[1] / ops:.3f} ms/op in submit"
        print(line)


def print_metrics(title: str, metrics: dict) -> None:
    print(f"\n{title}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:34s} {value:14.4f} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    work_dir = ROOT / ".perfbench"
    tmp = work_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scale, str(tmp))
        if args.setup_probe:
            workload.setup()
            return 0
        print(f"workload {workload.NAME} (seed {args.seed}, {args.scale}): {workload.WHY}")
        print(f"layers: {workload.LAYERS}")

        if args.trace:
            untraced = measure(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                rounds = measure(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            tracer.dump(str(work_dir / f"spans-{workload.NAME}-seed{args.seed}.jsonl"))
            base = end_to_end(workload, untraced)
            traced = end_to_end(workload, rounds)
            p50_off, p50_on = base["op_p50_ms"][0], traced["op_p50_ms"][0]
            overhead = 100.0 * (p50_on / p50_off - 1.0) if p50_off else 0.0
            ops = sum(len(r.latencies_ms) for r in rounds)
            print_metrics("untraced half", base)
            print_metrics("traced half", traced)
            print(f"\ntracing overhead on op_p50_ms: {overhead:+.2f}%")
            print_layer_table(workload.NAME, tracer, max(ops, 1))
            metrics = per_layer(workload, rounds, tracer, overhead)
            all_rounds = untraced + rounds
        else:
            rounds = measure(workload, args.seconds)
            metrics = end_to_end(workload, rounds)
            metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
            all_rounds = rounds

        checks = workload.checks(rounds)
        if not args.trace:
            probes = setup_seconds(args.workload, args.seed, args.scale)
            metrics["setup_s"] = (statistics.median(probes), "s")
        n = sum(len(r.latencies_ms) for r in all_rounds)
        print_metrics(f"metrics ({len(all_rounds)} rounds, {n} ops)", metrics)
        if not args.trace:
            lat = sorted(x for r in rounds for x in r.latencies_ms)
            beyond = sum(1 for x in lat if x > metrics["op_p90_ms"][0])
            note = "" if beyond >= 10 else " (fewer than 10: p90 is not resolved)"
            print(f"  op latency samples: {len(lat)}, beyond p90: {beyond}{note}")
        print("\noutput checks")
        for check in checks:
            print(f"  {'ok  ' if check.ok else 'FAIL'} {check.name}: {check.detail}")
        correct = all(c.ok for c in checks)
        result = {
            "correct": correct,
            "attempted": sum(r.attempted for r in all_rounds),
            "failed": sum(r.failed for r in all_rounds),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        return 0 if correct else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
