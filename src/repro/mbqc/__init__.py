"""Measurement-based quantum computing substrate (Section II.B).

Implements the *measurement calculus* (Danos–Kashefi–Panangaden): patterns
are sequences of commands

- ``N(i)``      prepare node ``i`` (default ``|+>``),
- ``E(i, j)``   entangle with CZ,
- ``M(i, plane, angle, s_domain, t_domain)``  adaptive single-qubit
  measurement — the actual angle is ``(-1)^s * angle + t*π`` with ``s, t``
  the parities of earlier outcomes in the two domains,
- ``X(i, domain)`` / ``Z(i, domain)``  conditional Pauli corrections,

with the paper's notation ``M_i^P -> n`` and ``Λ_i^n(U)`` mapping onto
``M``/``X``/``Z`` commands.  Patterns are pre-compiled to slot-resolved ops
(:mod:`repro.mbqc.compile`) and executed on the dynamic statevector
simulator, supporting exhaustive outcome-branch enumeration — the
determinism checks of Sections II.B/III are run over *all* branches.  Branch
map extraction runs on a pluggable batched engine
(:mod:`repro.mbqc.backend`): all ``2^k`` input columns in one vectorized
sweep.

:mod:`repro.mbqc.flow` implements causal flow and (extended, three-plane)
generalized flow, the graph-theoretic determinism criterion the paper cites
([32], [33]).
"""

from repro.mbqc.pattern import (
    CommandC,
    CommandE,
    CommandM,
    CommandN,
    CommandX,
    CommandZ,
    Pattern,
    PatternError,
    standardize,
)
from repro.mbqc.channels import Channel, ChannelNoiseModel, as_channel_model
from repro.mbqc.compile import (
    ChannelOp,
    CompiledPattern,
    compile_pattern,
    lower_noise,
)
from repro.mbqc.backend import (
    BranchRun,
    PackedStabilizerOutput,
    PatternBackend,
    SampleRun,
    StabilizerBackend,
    StabilizerOutput,
    StatevectorBackend,
    draw_pauli_fault,
    draw_pauli_fault_batch,
    available_backends,
    default_backend,
    get_backend,
    list_backends,
    register_backend,
    select_backend,
)
from repro.mbqc.mps_backend import MPSBackend, MPSOutput
from repro.mbqc.density_backend import (
    DensityMatrixBackend,
    DensityOutput,
    DensityRun,
)
from repro.mbqc.runner import (
    PatternResult,
    pattern_to_matrix,
    run_pattern,
)
from repro.mbqc.flow import OpenGraph, find_causal_flow, find_gflow
from repro.mbqc.noise import NoiseModel, average_fidelity
from repro.mbqc.extract import ExtractionError, extract_circuit, extractable
from repro.mbqc.serialize import (
    channel_from_dict,
    channel_to_dict,
    noise_model_from_dict,
    noise_model_from_json,
    noise_model_to_dict,
    noise_model_to_json,
    pattern_from_dict,
    pattern_from_json,
    pattern_to_dict,
    pattern_to_json,
)

__all__ = [
    "CommandC",
    "CommandE",
    "CommandM",
    "CommandN",
    "CommandX",
    "CommandZ",
    "Pattern",
    "PatternError",
    "standardize",
    "PatternResult",
    "Channel",
    "ChannelNoiseModel",
    "as_channel_model",
    "ChannelOp",
    "CompiledPattern",
    "compile_pattern",
    "lower_noise",
    "BranchRun",
    "SampleRun",
    "PatternBackend",
    "StatevectorBackend",
    "StabilizerBackend",
    "StabilizerOutput",
    "PackedStabilizerOutput",
    "draw_pauli_fault",
    "draw_pauli_fault_batch",
    "DensityMatrixBackend",
    "DensityOutput",
    "DensityRun",
    "MPSBackend",
    "MPSOutput",
    "available_backends",
    "default_backend",
    "get_backend",
    "list_backends",
    "register_backend",
    "select_backend",
    "pattern_to_matrix",
    "run_pattern",
    "OpenGraph",
    "find_causal_flow",
    "find_gflow",
    "NoiseModel",
    "average_fidelity",
    "ExtractionError",
    "extract_circuit",
    "extractable",
    "channel_from_dict",
    "channel_to_dict",
    "noise_model_from_dict",
    "noise_model_from_json",
    "noise_model_to_dict",
    "noise_model_to_json",
    "pattern_from_dict",
    "pattern_from_json",
    "pattern_to_dict",
    "pattern_to_json",
]
