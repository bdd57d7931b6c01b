"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``compile``    compile MBQC-QAOA for a problem and print the protocol summary
``run``        compile, execute, and sample solutions: one trajectory of a
               noiseless program (``min(shots, 32)`` under ``--noise``)
               on the chosen engine, resampled to ``--shots`` bitstrings
``verify``     branch-exhaustive determinism check of the compiled pattern
``resources``  print the Section III.A resource table for a problem at
               several depths
``solve``      run the iterative (Section V) solver to a concrete assignment
``lint``       static analysis: verify the compiled IR, print the resource
               estimate, and/or run the seeded-stream contract linter over
               a source tree (``--contracts``); exits 1 on error-severity
               diagnostics (see README's diagnostic code table)
``serve``      async job server: accept run/verify/sample jobs as JSON
               lines (stdin by default, or a local TCP socket with
               ``--port``), coalesce same-pattern jobs into fused
               ``sample_batch`` calls across a worker pool, and stream
               per-block events plus a final records-sha256 receipt per
               job; ``--cache-dir`` adds the content-addressed
               compiled-pattern cache (shared with ``run --cache-dir``)

``run``, ``verify``, and ``lint`` take ``--backend`` with choices drawn
from the engine registry at parse time (``auto`` plus every registered
engine — ``density``, ``mps``, ``stabilizer``, ``statevector``), resolved
by ``select_backend``: ``auto`` dispatches Clifford-angle patterns (e.g.
``--gamma 0 --beta 0``) to the stabilizer-tableau engine once the live
register outgrows dense reach, and bounded-interaction-width
non-Clifford patterns to the matrix-product-state engine; a named engine
that cannot execute the pattern (``stabilizer`` on a non-Clifford
pattern) or would exceed the byte budget (R101) fails with a clear error
before any work starts.  ``lint --backend NAME`` additionally
pre-flights the choice: it reports whether that engine supports the
pattern and fits ``--budget``, failing with the R101 diagnostic when not.  ``run`` additionally takes ``--noise RATE``
(uniform per-operation depolarizing + readout flips, the E15 model) and
``--exact``, which integrates the channels exactly on the density-matrix
engine — the reported ``<cost>`` is then the true noisy expectation, no
sampling anywhere.  ``verify --backend density`` compares branch *Choi
states*: exact map equality with no phase bookkeeping.

``run`` also exposes the :mod:`repro.exec` supervision layer:
``--job-dir DIR`` turns the shots into a checkpointed job (completed shot
blocks persist; re-running — or ``--resume JOBDIR`` with no problem
argument — finishes only the missing blocks, bit-identically, and prints
a ``records sha256`` receipt); ``--exact --shards N`` integrates under
the shard supervisor (``--retries``, ``--shard-timeout``); and
``--fallback CHAIN`` routes sampling through a backend degradation chain
(``'mps->density->statevector'``), reporting every link skipped as an
R105 diagnostic.  ``lint --fallback-chain CHAIN`` pre-flights such a
chain statically.

Problems are specified as ``kind:args``:

- ``ring:N``            MaxCut on the N-cycle
- ``regular:D,N[,SEED]``  MaxCut on a random D-regular graph
- ``complete:N``        MaxCut on K_N
- ``mis-ring:N``        maximum independent set on the N-cycle (penalty QUBO)
- ``partition:N[,SEED]`` random number partitioning
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core import compile_qaoa_pattern, estimate_resources
from repro.core.resources import format_table, resource_table
from repro.core.reuse import reuse_summary
from repro.core.verify import check_pattern_determinism
from repro.mbqc import (
    PatternError,
    available_backends,
    lower_noise,
    select_backend,
)
from repro.mbqc.noise import NoiseModel
from repro.problems import MaxCut, MaximumIndependentSet, NumberPartitioning
from repro.problems.qubo import QUBO
from repro.qaoa import grid_search_p1, optimize_qaoa
from repro.qaoa.iterative import iterative_quantum_optimize
from repro.utils import int_to_bitstring
from repro.utils.rng import ensure_rng


def parse_problem(spec: str) -> Tuple[str, QUBO, object]:
    """Parse a ``kind:args`` spec into ``(name, qubo, problem_object)``."""
    if ":" not in spec:
        raise ValueError(f"problem spec {spec!r} must look like kind:args")
    kind, _, args = spec.partition(":")
    parts = [p for p in args.split(",") if p]
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise ValueError(f"non-integer arguments in {spec!r}") from None
    if kind == "ring":
        (n,) = nums
        mc = MaxCut.ring(n)
        return f"maxcut-ring-{n}", mc.to_qubo(), mc
    if kind == "regular":
        if len(nums) == 2:
            d, n = nums
            seed = 0
        else:
            d, n, seed = nums
        mc = MaxCut.random_regular(d, n, seed=seed)
        return f"maxcut-{d}regular-{n}", mc.to_qubo(), mc
    if kind == "complete":
        (n,) = nums
        mc = MaxCut.complete(n)
        return f"maxcut-K{n}", mc.to_qubo(), mc
    if kind == "mis-ring":
        (n,) = nums
        from repro.utils import cycle_graph

        mis = MaximumIndependentSet(*cycle_graph(n))
        return f"mis-ring-{n}", mis.to_penalty_qubo(), mis
    if kind == "partition":
        if len(nums) == 1:
            n, seed = nums[0], 0
        else:
            n, seed = nums
        npart = NumberPartitioning.random(n, seed=seed)
        return f"partition-{n}", npart.to_qubo(), npart
    raise ValueError(f"unknown problem kind {kind!r}")


def _resolve_params(
    qubo: QUBO, p: int, gammas: Optional[List[float]], betas: Optional[List[float]],
    optimize: bool, seed: int,
) -> Tuple[List[float], List[float]]:
    if gammas and betas:
        if len(gammas) != p or len(betas) != p:
            raise ValueError("need p gammas and p betas")
        return gammas, betas
    if qubo.num_variables > 20:
        raise ValueError("parameter optimization needs <= 20 variables; pass --gamma/--beta")
    cost = qubo.cost_vector()
    if p == 1 and not optimize:
        res = grid_search_p1(cost, resolution=20)
    else:
        res = optimize_qaoa(cost, p=p, restarts=4, seed=seed)
    return list(res.gammas), list(res.betas)


def cmd_compile(args: argparse.Namespace) -> int:
    name, qubo, _ = parse_problem(args.problem)
    gammas, betas = _resolve_params(qubo, args.p, args.gamma, args.beta, args.optimize, args.seed)
    compiled = compile_qaoa_pattern(qubo, gammas, betas, schedule=args.schedule)
    rep = estimate_resources(compiled)
    total, peak, factor = reuse_summary(compiled.pattern)
    print(f"problem           {name}")
    print(f"depth p           {compiled.p}")
    print(f"gammas            {[round(g, 4) for g in gammas]}")
    print(f"betas             {[round(b, 4) for b in betas]}")
    print(f"schedule          {compiled.schedule}")
    print(f"graph-state nodes {compiled.num_nodes()}")
    print(f"entangling CZs    {compiled.num_entanglers()}")
    print(f"measurements      {len(compiled.pattern.measured_nodes())}")
    print(f"peak live qubits  {peak}  (reuse factor {factor:.2f})")
    print(f"paper bounds      N_Q<={rep.bound_ancilla_qubits} ancillas, N_E<={rep.bound_entanglers}")
    print(f"gate model        {rep.gate_model_qubits} qubits, {rep.gate_model_entanglers} entanglers")
    return 0


def _resume_args(args: argparse.Namespace) -> argparse.Namespace:
    """Rebuild the original ``run`` arguments from a job directory's
    manifest (``repro run --resume JOBDIR``)."""
    from repro.exec import load_manifest
    from repro.mbqc.pattern import PatternError

    manifest = load_manifest(args.resume)
    if manifest is None:
        raise ValueError(f"no checkpoint manifest in {args.resume}")
    meta = manifest.get("cli")
    if not meta:
        raise PatternError(
            f"job directory {args.resume} was not started by the CLI "
            f"(no cli block in its manifest); resume it with "
            f"repro.exec.run_checkpointed on the original program"
        )
    for key, value in meta.items():
        setattr(args, key, value)
    args.job_dir = args.resume
    return args


def _compile_program(compiled_qaoa, cache_dir: Optional[str]):
    """The executable form of a compiled QAOA protocol, optionally via the
    content-addressed compiled-pattern cache (``--cache-dir``)."""
    if cache_dir is None:
        return compiled_qaoa.executable()
    from repro.mbqc.compile import compile_pattern

    return compile_pattern(compiled_qaoa.pattern, cache_dir=cache_dir)


def _print_cache_stats(cache_dir: Optional[str]) -> None:
    if cache_dir is None:
        return
    from repro.serve.cache import get_cache

    for diag in get_cache(cache_dir).stats.diagnostics():
        print(diag.format())


def _print_solution(problem: object, best_idx: int, n: int) -> None:
    """The solution lines every non-checkpointed ``repro run`` mode ends
    its report with."""
    bits = int_to_bitstring(best_idx, n)
    print(f"best solution  {''.join(map(str, bits))}")
    if isinstance(problem, MaxCut):
        print(f"best cut       {problem.cut_value(bits):.0f} "
              f"(optimum {problem.max_cut_value():.0f})")


def _cmd_run_job(args: argparse.Namespace) -> int:
    """The checkpointed records-only job path of ``repro run``."""
    from repro.exec import records_digest, run_checkpointed

    name, qubo, _ = parse_problem(args.problem)
    gammas, betas = _resolve_params(
        qubo, args.p, args.gamma, args.beta, args.optimize, args.seed
    )
    program = _compile_program(
        compile_qaoa_pattern(qubo, gammas, betas), getattr(args, "cache_dir", None)
    )
    noise = NoiseModel(p_prep=args.noise, p_ent=args.noise, p_meas=args.noise) \
        if args.noise else None
    # Persist the resolved parameters (not the unresolved flags) so a
    # resume replays the identical program even if the optimizer changes.
    meta = dict(
        problem=args.problem, p=args.p, gamma=list(gammas), beta=list(betas),
        optimize=False, seed=args.seed, noise=args.noise,
        backend=args.backend, shots=args.shots, block_shots=args.block_shots,
    )
    result = run_checkpointed(
        program,
        args.shots,
        job_dir=args.job_dir,
        seed=args.seed,
        backend=args.backend,
        block_shots=args.block_shots,
        noise=noise,
        retries=args.retries,
        cli_meta=meta,
    )
    print(f"problem        {name}")
    print(f"backend        {result.backend} (checkpointed job)")
    print(f"job dir        {result.job_dir}")
    print(f"shots          {args.shots} in {result.n_blocks} blocks of "
          f"{args.block_shots}")
    print(f"blocks reused  {len(result.blocks_reused)}")
    print(f"blocks run     {len(result.blocks_run)}")
    print(f"records sha256 {records_digest(result.run)}")
    _print_cache_stats(getattr(args, "cache_dir", None))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.resume:
        args = _resume_args(args)
    if args.job_dir:
        if args.problem is None:
            raise ValueError("a checkpointed job needs a problem spec")
        if args.exact:
            raise ValueError(
                "--job-dir checkpoints sampling jobs; --exact does not "
                "sample (nothing to checkpoint)"
            )
        return _cmd_run_job(args)
    if args.problem is None:
        raise ValueError("the following arguments are required: problem")
    name, qubo, problem = parse_problem(args.problem)
    gammas, betas = _resolve_params(qubo, args.p, args.gamma, args.beta, args.optimize, args.seed)
    compiled = compile_qaoa_pattern(qubo, gammas, betas)
    program = _compile_program(compiled, getattr(args, "cache_dir", None))
    noise = NoiseModel(p_prep=args.noise, p_ent=args.noise, p_meas=args.noise) \
        if args.noise else None
    cost = qubo.cost_vector()
    n = qubo.num_variables
    measured = len(compiled.pattern.measured_nodes())
    rng = ensure_rng(args.seed)

    if args.exact:
        if args.backend not in ("auto", "density"):
            raise ValueError(
                f"--exact integrates on the density engine; it cannot be "
                f"combined with --backend {args.backend}"
            )
        engine = select_backend(program, "density")
        if args.shards > 1:
            from repro.exec import supervised_integrate

            run = supervised_integrate(
                program,
                noise=noise,
                shards=args.shards,
                retries=args.retries,
                shard_timeout=args.shard_timeout,
            )
        else:
            run = engine.integrate(program, noise=noise)
        probs = run.probabilities()
        exact_cost = float(probs @ cost)
        support = probs > 1e-12
        best_idx = int(np.flatnonzero(support)[np.argmin(cost[support])])
        print(f"problem        {name}")
        print(f"backend        {engine.name} (exact channel integration)")
        print(f"pattern        {compiled.num_nodes()} nodes, {measured} measured, "
              f"{run.branches} merged outcome branches integrated")
        supervision = getattr(run, "supervision", None)
        if supervision is not None:
            print(f"supervision    {args.shards} shards, "
                  f"{supervision.retries} retries, "
                  f"{supervision.timeouts} timeouts, "
                  f"{supervision.resplits} re-splits, "
                  f"{supervision.in_process} in-process fallbacks")
            for diag in supervision.events:
                print(f"               {diag.format()}")
        if noise is not None:
            print(f"noise          uniform rate {args.noise:g} (prep/ent depolarizing"
                  f" + readout flips)")
        print(f"<cost>         {exact_cost:.4f}  (exact, no sampling)")
        print(f"best cost      {cost[best_idx]:.4f}  (reachable support)")
        _print_solution(problem, best_idx, n)
        return 0

    if noise is not None:
        program = lower_noise(program, noise)
    # A noiseless deterministic pattern has one output state on every
    # branch, so one trajectory carries the whole distribution; under
    # noise, up to 32 trajectories are resampled.
    runs = min(args.shots, 32) if program.has_noise else 1
    if args.fallback:
        from repro.exec import FallbackPolicy, sample_with_fallback

        policy = FallbackPolicy.parse(args.fallback)
        batch, degradation = sample_with_fallback(
            program, runs, policy, args.seed, keep_raw=True
        )
        backend = f"{degradation.selected} (fallback chain {policy.format()})"
        notes = [event.as_diagnostic().format() for event in degradation.events]
    else:
        engine = select_backend(program, args.backend, dense_outputs=True)
        batch = engine.sample_batch(program, runs, rng, keep_raw=True)
        backend, notes = engine.name, []
    samples = batch.sample_bitstrings(args.shots, rng)
    costs = cost[samples]
    print(f"problem        {name}")
    print(f"backend        {backend}")
    for note in notes:
        print(f"               {note}")
    print(f"pattern        {compiled.num_nodes()} nodes, "
          f"{measured * runs} measurement outcomes consumed")
    if noise is not None:
        print(f"noise          uniform rate {args.noise:g}")
    print(f"shots          {args.shots}")
    print(f"<cost>         {costs.mean():.4f}")
    print(f"best cost      {costs.min():.4f}")
    _print_solution(problem, int(samples[np.argmin(costs)]), n)
    _print_cache_stats(getattr(args, "cache_dir", None))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    name, qubo, _ = parse_problem(args.problem)
    gammas, betas = _resolve_params(qubo, args.p, args.gamma, args.beta, args.optimize, args.seed)
    compiled = compile_qaoa_pattern(qubo, gammas, betas)
    program = compiled.executable()
    engine = select_backend(program, args.backend)
    ok = check_pattern_determinism(
        compiled.pattern,
        max_branches=args.max_branches,
        seed=args.seed,
        backend=engine,
        compiled=program,
    )
    m = len(compiled.pattern.measured_nodes())
    print(f"problem        {name}")
    print(f"pattern        {compiled.num_nodes()} nodes, {m} measured, "
          f"peak live {program.max_live}")
    print(f"clifford       {'yes' if program.is_clifford else 'no'}")
    print(f"backend        {engine.name}")
    if args.max_branches and args.max_branches < (1 << m):
        # The budget bounds the sample; the stabilizer path additionally
        # skips unreachable branches and may substitute trajectory draws.
        print(f"branch budget  {args.max_branches} of {1 << m}")
    else:
        print(f"branches       all {1 << m}")
    print(f"deterministic  {'yes' if ok else 'NO'}")
    return 0 if ok else 1


def cmd_resources(args: argparse.Namespace) -> int:
    name, qubo, _ = parse_problem(args.problem)
    rows = resource_table([(name, qubo)], depths=args.depths)
    print(format_table(rows))
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    name, qubo, problem = parse_problem(args.problem)
    res = iterative_quantum_optimize(qubo.to_ising(), stop_at=args.stop_at)
    bits = res.bits()
    print(f"problem      {name}")
    print(f"rounds       {len(res.steps)}")
    print(f"assignment   {''.join(map(str, bits))}")
    print(f"cost         {qubo.cost(bits):.4f}")
    if isinstance(problem, MaxCut):
        print(f"cut          {problem.cut_value(bits):.0f} "
              f"(optimum {problem.max_cut_value():.0f})")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import analyze, format_contract_report, lint_tree

    failed = False
    ran = False

    if args.problem is not None or args.pattern_json is not None:
        ran = True
        if args.pattern_json is not None:
            from repro.mbqc.compile import compile_pattern
            from repro.mbqc.serialize import pattern_from_json

            with open(args.pattern_json, encoding="utf-8") as fh:
                pattern = pattern_from_json(fh.read())
            program = compile_pattern(pattern)
            name = args.pattern_json
        else:
            name, qubo, _ = parse_problem(args.problem)
            gammas, betas = _resolve_params(
                qubo, args.p, args.gamma, args.beta, args.optimize, args.seed
            )
            program = compile_qaoa_pattern(qubo, gammas, betas).executable()
        if args.noise:
            noise = NoiseModel(
                p_prep=args.noise, p_ent=args.noise, p_meas=args.noise
            )
            program = lower_noise(program, noise)
        report = analyze(program)
        print(f"lint           {name}")
        print(report.format(budget=args.budget))
        if not report.ok or (args.strict and report.warnings):
            failed = True
        try:
            engine = select_backend(
                program, prefer=args.backend, max_bytes=args.budget
            )
            print(f"backend        {engine.name} fits the budget")
        except PatternError as exc:
            print(f"backend        {args.backend}: {exc}")
            failed = True
        if args.fallback_chain:
            from repro.exec import FallbackPolicy, validate_fallback_chain

            policy = FallbackPolicy.parse(args.fallback_chain)
            validation = validate_fallback_chain(
                program, policy, args.budget
            )
            print(validation.format(args.budget))
            if not validation.ok:
                failed = True

    if args.fallback_chain and not (
        args.problem is not None or args.pattern_json is not None
    ):
        raise ValueError(
            "--fallback-chain pre-flights a chain against a compiled "
            "pattern; pass a problem spec or --pattern-json"
        )

    if args.contracts is not None:
        ran = True
        diags = lint_tree(args.contracts)
        print(f"contracts      {args.contracts}")
        print(format_contract_report(diags))
        if diags:
            failed = True

    if not ran:
        raise ValueError(
            "nothing to lint: pass a problem spec, --pattern-json, or "
            "--contracts [PATH]"
        )
    return 1 if failed else 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import JobServer, serve_socket, serve_stdin

    server = JobServer(
        cache_dir=args.cache_dir,
        workers=args.workers,
        max_batch_shots=args.max_batch_shots,
        coalesce=not args.no_coalesce,
        executor=args.executor,
    )
    try:
        if args.port is not None:
            import time

            tcp = serve_socket(server, host=args.host, port=args.port)
            host, port = tcp.server_address[:2]
            print(f"serving on {host}:{port}", file=sys.stderr)
            try:
                while True:
                    time.sleep(3600)
            except KeyboardInterrupt:
                pass
            finally:
                tcp.shutdown()
            return 0
        failures = serve_stdin(server, sys.stdin, sys.stdout)
        server.drain(timeout=600)
        for diag in server.cache.stats.diagnostics():
            print(diag.format(), file=sys.stderr)
        return 1 if failures else 0
    finally:
        server.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Measurement-based QAOA (Stollenwerk & Hadfield, 2024) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(
        p: argparse.ArgumentParser, problem_optional: bool = False
    ) -> None:
        if problem_optional:
            p.add_argument("problem", nargs="?", default=None,
                           help="problem spec, e.g. ring:6 or regular:3,8 "
                           "(optional with --resume)")
        else:
            p.add_argument("problem",
                           help="problem spec, e.g. ring:6 or regular:3,8")
        p.add_argument("--p", type=int, default=1, help="QAOA depth")
        p.add_argument("--gamma", type=float, nargs="*", default=None)
        p.add_argument("--beta", type=float, nargs="*", default=None)
        p.add_argument("--optimize", action="store_true",
                       help="local-optimize parameters instead of grid search")
        p.add_argument("--seed", type=int, default=0)

    pc = sub.add_parser("compile", help="compile and summarize the MBQC protocol")
    add_common(pc)
    pc.add_argument("--schedule", choices=["eager", "graph-first"], default="eager")
    pc.set_defaults(func=cmd_compile)

    backend_kwargs = dict(
        choices=["auto", *available_backends()],
        default="auto",
        help="pattern-execution engine (auto dispatches Clifford patterns "
        "to the stabilizer tableau beyond dense reach and bounded-"
        "interaction-width non-Clifford patterns to the mps engine; "
        "density evolves the full density operator, integrating channels "
        "exactly)",
    )

    pr = sub.add_parser("run", help="compile, execute, and sample")
    add_common(pr, problem_optional=True)
    pr.add_argument("--shots", type=int, default=256)
    pr.add_argument("--backend", **backend_kwargs)
    pr.add_argument("--noise", type=float, default=0.0,
                    help="uniform per-operation error rate (depolarizing "
                    "prep/ent + readout flips, the E15 model)")
    pr.add_argument("--exact", action="store_true",
                    help="integrate noise channels exactly on the density "
                    "engine: <cost> is the true noisy expectation, no "
                    "sampling anywhere")
    pr.add_argument("--shards", type=int, default=1,
                    help="with --exact: fork the frontier integration "
                    "across this many supervised worker processes")
    pr.add_argument("--retries", type=int, default=2,
                    help="bounded retries for a failed shard or shot block "
                    "before escalating (re-split / in-process fallback)")
    pr.add_argument("--shard-timeout", type=float, default=None,
                    dest="shard_timeout", metavar="SECS",
                    help="per-shard wall-clock budget in seconds; an "
                    "overrun is retried (diagnostic R103)")
    pr.add_argument("--fallback", default=None, metavar="CHAIN",
                    help="backend degradation chain, e.g. "
                    "'mps->density->statevector': links that cannot serve "
                    "the pattern are routed past with an R105 diagnostic")
    pr.add_argument("--job-dir", default=None, dest="job_dir", metavar="DIR",
                    help="run the shots as a checkpointed job in DIR: each "
                    "completed shot block is persisted, and re-running the "
                    "same command resumes from the surviving blocks "
                    "bit-identically")
    pr.add_argument("--block-shots", type=int, default=1024,
                    dest="block_shots",
                    help="shots per checkpoint block (part of the job's "
                    "record-stream identity, like --seed)")
    pr.add_argument("--resume", default=None, metavar="JOBDIR",
                    help="finish the checkpointed job in JOBDIR using the "
                    "parameters persisted in its manifest (the problem "
                    "spec argument is then not needed)")
    pr.add_argument("--cache-dir", default=None, dest="cache_dir", metavar="DIR",
                    help="compile through the content-addressed pattern "
                    "cache rooted at DIR: repeat traffic for the same "
                    "pattern skips compilation (R106 diagnostics report "
                    "hit/miss counts)")
    pr.set_defaults(func=cmd_run)

    pd = sub.add_parser("verify", help="branch-exhaustive determinism check")
    add_common(pd)
    pd.add_argument("--max-branches", type=int, default=64, dest="max_branches",
                    help="sample at most this many outcome branches")
    pd.add_argument("--backend", **backend_kwargs)
    pd.set_defaults(func=cmd_verify)

    ps = sub.add_parser("resources", help="Section III.A resource table")
    ps.add_argument("problem")
    ps.add_argument("--depths", type=int, nargs="+", default=[1, 2, 4])
    ps.set_defaults(func=cmd_resources)

    pv = sub.add_parser("solve", help="iterative quantum optimization (Sec. V)")
    pv.add_argument("problem")
    pv.add_argument("--stop-at", type=int, default=3, dest="stop_at")
    pv.set_defaults(func=cmd_solve)

    pl = sub.add_parser(
        "lint",
        help="static IR verification, resource estimate, contract linter",
    )
    pl.add_argument("problem", nargs="?", default=None,
                    help="problem spec to compile and analyze (optional "
                    "when --pattern-json or --contracts is given)")
    pl.add_argument("--p", type=int, default=1, help="QAOA depth")
    pl.add_argument("--gamma", type=float, nargs="*", default=None)
    pl.add_argument("--beta", type=float, nargs="*", default=None)
    pl.add_argument("--optimize", action="store_true",
                    help="local-optimize parameters instead of grid search")
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--noise", type=float, default=0.0,
                    help="lower this uniform error rate into the channel IR "
                    "before analyzing (exercises the noise-IR checks)")
    pl.add_argument("--pattern-json", default=None, dest="pattern_json",
                    help="analyze a serialized pattern file instead of "
                    "compiling a problem")
    pl.add_argument("--budget", type=int, default=1 << 26,
                    help="byte budget for the shot-chunk row of the "
                    "resource report (default 64 MiB)")
    pl.add_argument("--backend", **backend_kwargs)
    pl.add_argument("--fallback-chain", default=None, dest="fallback_chain",
                    metavar="CHAIN",
                    help="pre-flight a backend degradation chain (e.g. "
                    "'mps->density->statevector') against the compiled "
                    "pattern: per-link support and byte-cost rows, a "
                    "cost-ordering check, and which link would serve "
                    "under --budget")
    pl.add_argument("--contracts", nargs="?", const="src", default=None,
                    metavar="PATH",
                    help="also run the seeded-stream contract linter over "
                    "PATH (default: src)")
    pl.add_argument("--strict", action="store_true",
                    help="treat warning-severity diagnostics as failures")
    pl.set_defaults(func=cmd_lint)

    pj = sub.add_parser(
        "serve",
        help="async job server: JSON jobs over stdin or a local socket, "
        "coalesced across a worker pool, streamed receipts",
    )
    pj.add_argument("--cache-dir", default=None, dest="cache_dir", metavar="DIR",
                    help="content-addressed compiled-pattern cache directory "
                    "(shared with `repro run --cache-dir`)")
    pj.add_argument("--workers", type=int, default=2,
                    help="worker pool size for block execution")
    pj.add_argument("--max-batch-shots", type=int, default=4096,
                    dest="max_batch_shots",
                    help="ceiling on one fused sample_batch call; queued "
                    "same-pattern blocks are coalesced up to this many shots")
    pj.add_argument("--no-coalesce", action="store_true", dest="no_coalesce",
                    help="run every block standalone (receipts are "
                    "bit-identical either way; this trades throughput for "
                    "per-job latency)")
    pj.add_argument("--executor", choices=["process", "thread", "inline"],
                    default="process",
                    help="worker pool kind (process = real parallelism; "
                    "inline = single-threaded, for debugging)")
    pj.add_argument("--port", type=int, default=None,
                    help="listen on a local TCP socket instead of stdin "
                    "(0 picks a free port, printed to stderr)")
    pj.add_argument("--host", default="127.0.0.1",
                    help="bind address for --port (default localhost only)")
    pj.set_defaults(func=cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
