"""repro — Measurement-Based Quantum Approximate Optimization.

A full-stack reproduction of Stollenwerk & Hadfield, *Measurement-Based
Quantum Approximate Optimization* (IPPS 2024, arXiv:2403.11514): a
ZX-calculus engine, an MBQC measurement-calculus runtime, gate-model QAOA,
and — the paper's contribution — a compiler that turns QAOA on arbitrary
QUBO (and constrained) problems into deterministic measurement patterns on
graph states, with resource accounting.

Quickstart::

    from repro import maxcut, compile_qaoa_pattern, run_pattern
    problem = maxcut.MaxCut.ring(5)
    compiled = compile_qaoa_pattern(problem.to_qubo(), gammas=[0.4], betas=[0.7])
    state = run_pattern(compiled.pattern, seed=7).state_array()

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-vs-measured record.

The subpackage imports below are intentionally lazy-tolerant during the
bootstrap of the package itself; all public names are re-exported here.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

# Re-exports are appended as subsystems come online; guarded so that partial
# installs (e.g. docs builds) still import the package metadata.
try:  # pragma: no cover - import plumbing
    from repro.analysis import analyze
    from repro.core.compiler import compile_qaoa_pattern
    from repro.core.resources import ResourceReport, estimate_resources
    from repro.mbqc.runner import run_pattern
    from repro.problems import maxcut, mis, qubo
    from repro.qaoa.simulator import qaoa_expectation, qaoa_state

    __all__ += [
        "analyze",
        "compile_qaoa_pattern",
        "ResourceReport",
        "estimate_resources",
        "run_pattern",
        "maxcut",
        "mis",
        "qubo",
        "qaoa_expectation",
        "qaoa_state",
    ]
except ImportError:  # pragma: no cover
    pass
