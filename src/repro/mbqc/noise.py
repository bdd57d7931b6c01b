"""Noise models for measurement patterns: channels + trajectory sampling.

The paper's opening motivation: gate-model algorithms are limited by the
number of high-fidelity *gates*, while "MBQC algorithms are primarily
limited by the size of the entangled resource state one can prepare", with
potentially "much less demanding" coherence requirements on platforms that
prepare resource states probabilistically.  This module provides the
simulation substrate to study that trade-off (experiment E15).

Noise is specified as a channel model
(:class:`~repro.mbqc.channels.ChannelNoiseModel`: Kraus channels per
operation type plus readout flips) and lowered onto the compiled pattern as
explicit channel ops (:func:`repro.mbqc.compile.lower_noise`), so every
execution engine runs the *same* noise program.  :class:`NoiseModel` is the
thin back-compat probability bag over that IR:

- qubit preparation (``p_prep`` — depolarizing on the fresh ``|+>``),
- entangling CZs (``p_ent`` — depolarizing on both qubits),
- measurements (``p_meas`` — classical outcome flip, equivalent to a Pauli
  error in the measured basis).

:func:`average_fidelity` estimates fidelity by trajectories — all shots in
one batched sweep on the pattern-execution backend (per-element Pauli fault
masks) — or, with ``exact=True``, integrates the channels exactly on the
density-matrix engine (``E[|<ideal|noisy>|²] = <ideal|ρ|ideal>``), which is
the convergence reference certifying the Monte-Carlo estimator (E21).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.mbqc.backend import get_backend, resolve_backend
from repro.mbqc.channels import (
    Channel,
    ChannelNoiseModel,
    as_channel_model,
)
from repro.mbqc.compile import compile_pattern, lower_noise
from repro.mbqc.pattern import Pattern
from repro.mbqc.runner import run_pattern
from repro.utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class NoiseModel:
    """Independent error probabilities per operation type.

    Back-compat shim over the channel IR: :meth:`channels` lowers the
    probability bag to depolarizing Kraus channels plus readout flips
    (matching the historical Monte-Carlo semantics); everything downstream
    consumes the lowered :class:`~repro.mbqc.channels.ChannelNoiseModel`.
    """

    p_prep: float = 0.0
    p_ent: float = 0.0
    p_meas: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p_prep", "p_ent", "p_meas"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be a probability, got {v}")

    def is_trivial(self) -> bool:
        return self.p_prep == self.p_ent == self.p_meas == 0.0

    def channels(self) -> ChannelNoiseModel:
        """Lower to the channel IR: depolarizing per noisy op + flips."""
        return ChannelNoiseModel(
            prep=Channel.depolarizing(self.p_prep) if self.p_prep > 0.0 else None,
            ent=Channel.depolarizing(self.p_ent) if self.p_ent > 0.0 else None,
            meas_flip=self.p_meas,
        )


def average_fidelity(
    pattern: Pattern,
    noise: NoiseModel,
    trajectories: int = 50,
    seed: SeedLike = 0,
    reference: Optional[np.ndarray] = None,
    backend=None,
    exact: bool = False,
) -> float:
    """Mean ``|<ideal|noisy>|^2`` over noise trajectories — or its exact
    channel-integrated value.

    ``reference`` defaults to one (noise-free) run of the pattern — valid
    for deterministic patterns, which all compiled protocols are.  All
    trajectories run in one batched sweep on the pattern-execution backend
    (per-element fault masks and per-element adaptive corrections); pass
    ``backend`` (name or instance) to override the automatic dispatch.

    With ``exact=True`` the channels are integrated exactly on the
    density-matrix engine — no Monte-Carlo variance — returning
    ``<ideal|ρ_noisy|ideal>``, the value the trajectory estimate converges
    to (the E21 certification).  ``noise`` may then be any channel model,
    including non-Pauli channels no trajectory engine can sample.  A
    trivial noise model short-circuits: no shot loop runs, and without an
    explicit ``reference`` the fidelity is exactly 1.
    """
    rng = ensure_rng(seed)
    compiled = compile_pattern(pattern)
    model = as_channel_model(noise)
    trivial = model is None or model.is_trivial()
    if trivial and reference is None:
        return 1.0  # deterministic pattern vs its own ideal run
    if reference is None:
        reference = run_pattern(pattern, seed=rng, compiled=compiled).state_array()
    ref = np.asarray(reference, dtype=complex)
    ref = ref / np.linalg.norm(ref)
    if trivial:
        ideal = run_pattern(pattern, seed=rng, compiled=compiled).state_array()
        return float(np.abs(np.vdot(ref, ideal)) ** 2)
    if exact:
        if backend is None or backend == "auto":
            engine = get_backend("density")
        elif isinstance(backend, str):
            engine = get_backend(backend)
        else:
            engine = backend
        if not hasattr(engine, "integrate"):
            raise ValueError(
                f"exact=True needs an engine with exact channel integration "
                f"(the 'density' backend), got {getattr(engine, 'name', engine)!r}"
            )
        return engine.integrate(compiled, noise=model).fidelity_with_pure(ref)
    # Lower the noise program before dispatch: non-Pauli channels route
    # automatic selection to the density engine (trajectories with exact
    # channels); an explicit trajectory backend then fails with a clear
    # error rather than silently dropping the channels.
    lowered = lower_noise(compiled, model)
    engine = resolve_backend(backend, lowered, dense_outputs=True)
    # keep_raw: fidelities are read off per-trajectory outputs below.
    run = engine.sample_batch(lowered, trajectories, rng, keep_raw=True)
    if run.states is None and run.raw and hasattr(run.raw[0], "rho"):
        # Density-engine trajectories are mixed states: fidelity per shot.
        return float(np.mean([out.rho.fidelity_with_pure(ref) for out in run.raw]))
    states = run.dense_states()  # (trajectories, 2**n_out), normalized rows
    overlaps = states @ ref.conj()
    return float(np.mean(np.abs(overlaps) ** 2))
