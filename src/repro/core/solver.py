"""End-to-end measurement-based QAOA solver.

The paper's full workflow (Sections II.C + III): prepare the QAOA state —
*as a measurement pattern* — measure in the computational basis, estimate
``<C>`` from samples, optionally update the 2p parameters, and return the
best solution found.  Nothing in the variational loop touches the
gate-model simulator: every sample comes from executing the compiled
pattern with its adaptive measurements (optionally under a
:class:`~repro.mbqc.noise.NoiseModel`, giving a noisy-hardware rehearsal).

All ``runs_per_batch`` pattern executions of one parameter evaluation run
as a single batched-trajectory sweep on the pattern-execution backend
(:meth:`~repro.mbqc.backend.PatternBackend.sample_batch`): the pattern is
compiled once and the fresh executions — each realizing its own random
outcome branch, its own adaptive corrections, and (if configured) its own
Pauli fault pattern — ride one vectorized block instead of a Python shot
loop (benchmarked in ``benchmarks/bench_e20_stabilizer_backend.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import optimize as spopt

from repro.core.compiler import compile_qaoa_pattern
from repro.mbqc.backend import PatternBackend, select_backend
from repro.mbqc.compile import lower_noise
from repro.mbqc.noise import NoiseModel
from repro.problems.qubo import QUBO, IsingModel
from repro.utils.bits import int_to_bitstring
from repro.utils.rng import SeedLike, ensure_rng


@dataclass
class SampleBatch:
    """Samples from one parameter setting."""

    bitstrings: np.ndarray  # integer-encoded, little-endian
    costs: np.ndarray

    def expectation(self) -> float:
        return float(self.costs.mean())

    def best(self) -> Tuple[int, float]:
        i = int(np.argmin(self.costs))
        return int(self.bitstrings[i]), float(self.costs[i])


@dataclass
class SolveResult:
    """Outcome of the variational loop."""

    best_bitstring: Tuple[int, ...]
    best_cost: float
    gammas: List[float]
    betas: List[float]
    expectation: float
    evaluations: int


class MBQCQAOASolver:
    """Variational QAOA executed entirely through measurement patterns.

    Parameters
    ----------
    problem:
        QUBO or Ising cost model (Ising offsets included in reported costs).
    p:
        QAOA depth.
    shots:
        Computational-basis samples per parameter evaluation.
    runs_per_batch:
        Fresh pattern executions per batch.  Each execution realizes a
        random outcome branch; determinism makes the output state identical
        across branches, so several samples may share one execution —
        ``runs_per_batch < shots`` amortizes simulation cost, while
        ``runs_per_batch = shots`` is the fully honest one-shot-per-run
        protocol.
    noise:
        Optional Pauli noise model applied during pattern execution.
    backend:
        Pattern-execution engine for the batched trajectory sweep: a
        registry name (``"auto"``/``"statevector"``/``"stabilizer"``), an
        engine instance, or ``None`` for automatic dispatch.
    """

    def __init__(
        self,
        problem: Union[QUBO, IsingModel],
        p: int = 1,
        shots: int = 256,
        runs_per_batch: int = 8,
        noise: Optional[NoiseModel] = None,
        seed: SeedLike = 0,
        backend: Union[str, PatternBackend, None] = None,
    ) -> None:
        if p < 1:
            raise ValueError("p must be at least 1")
        if shots < 1 or runs_per_batch < 1:
            raise ValueError("shots and runs_per_batch must be positive")
        self.qubo = problem if isinstance(problem, QUBO) else problem.to_qubo()
        self.ising = self.qubo.to_ising()
        self.p = p
        self.shots = shots
        self.runs_per_batch = min(runs_per_batch, shots)
        self.noise = noise
        self.backend = backend
        self.rng = ensure_rng(seed)
        self.evaluations = 0
        self._cost_vector = self.qubo.cost_vector()

    # -- sampling ------------------------------------------------------------
    def sample(self, gammas: Sequence[float], betas: Sequence[float]) -> SampleBatch:
        """Compile for (γ, β), execute, and sample ``shots`` solutions.

        The ``runs_per_batch`` fresh executions run as one batched sweep
        through :meth:`PatternBackend.sample_batch` — the pattern is
        compiled once and every trajectory draws its own outcomes, its own
        corrections, and (under ``noise``) its own Pauli faults.
        """
        compiled = compile_qaoa_pattern(self.ising, gammas, betas)
        # Lower the noise program *before* selecting the engine: automatic
        # dispatch inspects the lowered channels (non-Pauli ones route to
        # the density engine, which no trajectory backend can replace).
        program = lower_noise(compiled.executable(), self.noise)
        engine = select_backend(program, self.backend, dense_outputs=True)
        # keep_raw: the resampling step below reads per-trajectory output
        # distributions, so the engine must retain its per-shot outputs.
        run = engine.sample_batch(
            program, self.runs_per_batch, self.rng, keep_raw=True
        )
        # Resample bitstrings from the per-trajectory distributions: |ψ|²
        # rows on pure-state engines, exact density diagonals on the
        # density engine (whose noisy trajectory outputs are mixed and
        # have no state vector).
        arr = run.sample_bitstrings(self.shots, self.rng)
        self.evaluations += 1
        return SampleBatch(arr, self._cost_vector[arr])

    def expectation(self, gammas: Sequence[float], betas: Sequence[float]) -> float:
        return self.sample(gammas, betas).expectation()

    def exact_expectation(
        self, gammas: Sequence[float], betas: Sequence[float]
    ) -> float:
        """Exact noisy ``<C>`` — no sampling anywhere.

        The compiled pattern (with the solver's noise model lowered onto
        it) is integrated on the density-matrix engine over every outcome
        branch, and the cost expectation is read off the exact output
        distribution.  The Monte-Carlo :meth:`expectation` converges to
        this value as ``shots`` and ``runs_per_batch`` grow (certified in
        benchmark E21)."""
        from repro.mbqc.backend import get_backend

        compiled = compile_qaoa_pattern(self.ising, gammas, betas)
        program = compiled.executable()
        run = get_backend("density").integrate(program, noise=self.noise)
        self.evaluations += 1
        return run.expectation_diagonal(self._cost_vector)

    # -- optimization ----------------------------------------------------------
    def solve(
        self,
        restarts: int = 3,
        maxiter: int = 40,
        initial: Optional[Tuple[Sequence[float], Sequence[float]]] = None,
    ) -> SolveResult:
        """COBYLA over the sampled expectation; returns the best solution
        seen across *all* batches (the paper's 'best overall solution
        found is returned')."""
        p = self.p
        best_seen: Tuple[int, float] = (-1, np.inf)

        def objective(theta: np.ndarray) -> float:
            nonlocal best_seen
            batch = self.sample(theta[:p], theta[p:])
            b, c = batch.best()
            if c < best_seen[1]:
                best_seen = (b, c)
            return batch.expectation()

        starts: List[np.ndarray] = []
        if initial is not None:
            starts.append(np.concatenate([np.asarray(initial[0]), np.asarray(initial[1])]))
        for _ in range(restarts):
            starts.append(
                np.concatenate(
                    [self.rng.uniform(-np.pi, np.pi, p), self.rng.uniform(-np.pi / 2, np.pi / 2, p)]
                )
            )

        best_res: Optional[spopt.OptimizeResult] = None
        for x0 in starts:
            res = spopt.minimize(
                objective, x0, method="COBYLA", options={"maxiter": maxiter, "rhobeg": 0.4}
            )
            if best_res is None or res.fun < best_res.fun:
                best_res = res
        assert best_res is not None
        theta = best_res.x
        n = self.qubo.num_variables
        return SolveResult(
            best_bitstring=int_to_bitstring(best_seen[0], n) if best_seen[0] >= 0 else (0,) * n,
            best_cost=best_seen[1],
            gammas=list(theta[:p]),
            betas=list(theta[p:]),
            expectation=float(best_res.fun),
            evaluations=self.evaluations,
        )
