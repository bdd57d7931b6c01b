"""Differential harness: every engine entry point against the one oracle.

Generated inputs — J-gadget chains with random angles and input states,
random Clifford state-preparation patterns, and p=1 QAOA on ring-3 and
path-3 with random (γ, β) — run under four channel models (none, a Pauli
mixture, amplitude damping plus dephasing, readout flips) on every engine
that supports them, and are checked against :func:`oracle.oracle_run`:

- ``integrate`` (density engine) reproduces the oracle's exact ``ρ``;
- ``run_branch_batch`` on a drawn full record reproduces the oracle's
  branch output (pure engines up to global phase, compared as ``|ψ><ψ|``);
- seeded ``sample_batch`` record statistics, and the per-shot output
  states averaged over shots, agree with the oracle's exact record
  distribution and output state within 4 standard errors.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, assume, example, given, settings
from hypothesis import strategies as st
from oracle import oracle_run
from patterns import j_chain, random_clifford_pattern
from stat_helpers import assert_rows_within_sigma

from repro.core import compile_qaoa_pattern
from repro.linalg.gates import PAULI_X, PAULI_Y, PAULI_Z
from repro.mbqc import compile_pattern, get_backend
from repro.mbqc.channels import Channel, ChannelNoiseModel
from repro.mbqc.compile import lower_noise
from repro.problems import MaxCut

HARNESS = settings(
    derandomize=True,
    max_examples=12,
    deadline=None,
    # Examples cost up to a second; report a failure without shrinking it.
    phases=(Phase.explicit, Phase.generate),
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
# Sampling costs shots · 4^max_live on the density engine: fewer examples.
SAMPLING = settings(HARNESS, max_examples=8)

ANGLE = st.floats(-np.pi, np.pi, allow_nan=False, allow_infinity=False)

MODELS = {
    "none": None,
    "pauli": ChannelNoiseModel(
        prep=Channel.from_kraus(
            [
                np.sqrt(p) * np.asarray(m, dtype=complex)
                for p, m in zip(
                    (0.91, 0.04, 0.03, 0.02),
                    (np.eye(2), PAULI_X, PAULI_Y, PAULI_Z),
                )
            ],
            name="pauli-mix",
        ),
        ent=Channel.dephasing(0.05),
    ),
    "damping": ChannelNoiseModel(
        prep=Channel.amplitude_damping(0.15), ent=Channel.dephasing(0.05)
    ),
    "flips": ChannelNoiseModel(meas_flip=0.1),
}

# The oracle enumerates 4^m (true, recorded) pairs under readout flips.
FLIP_MAX_MEASURED = 5


def make_case(kind, model, *, alphas=(0.3,), seed=0, graph="ring",
              gamma=0.4, beta=0.7):
    """``(label, program, input_row)`` — a noise-lowered compiled program
    and the input state every engine and the oracle run on."""
    row = None
    if kind == "chain":
        compiled = compile_pattern(j_chain(list(alphas)))
        rng = np.random.default_rng(seed)
        row = rng.normal(size=2) + 1j * rng.normal(size=2)
        row = row / np.linalg.norm(row)
    elif kind == "clifford":
        compiled = compile_pattern(random_clifford_pattern(seed))
    else:
        maxcut = MaxCut.ring(3) if graph == "ring" else MaxCut(3, [(0, 1), (1, 2)])
        compiled = compile_qaoa_pattern(
            maxcut.to_qubo(), [gamma], [beta]
        ).executable()
    program = lower_noise(compiled, MODELS[model]) if MODELS[model] else compiled
    return f"{kind}/{model}", program, row


@st.composite
def programs(draw):
    kind = draw(st.sampled_from(["chain", "clifford", "qaoa"]))
    model = draw(st.sampled_from(sorted(MODELS)))
    if kind == "chain":
        case = make_case(
            kind, model,
            alphas=draw(st.lists(ANGLE, min_size=1, max_size=4)),
            seed=draw(st.integers(0, 2**16)),
        )
    elif kind == "clifford":
        case = make_case(kind, model, seed=draw(st.integers(0, 2**16)))
    else:
        case = make_case(
            kind, model, graph=draw(st.sampled_from(["ring", "path"])),
            gamma=draw(ANGLE), beta=draw(ANGLE),
        )
    if model == "flips":
        assume(len(case[1].measured_nodes) <= FLIP_MAX_MEASURED)
    return case


# Pinned examples so every engine and channel model is exercised on every
# entry point regardless of what generation draws.
CLIFFORD_NONE = make_case("clifford", "none", seed=24)
CLIFFORD_PAULI = make_case("clifford", "pauli", seed=24)
CHAIN_FLIPS = make_case("chain", "flips", alphas=(0.4, -1.1, 2.0), seed=1)
QAOA_DAMPING = make_case("qaoa", "damping", graph="path", gamma=0.9, beta=-0.3)
QAOA_PAULI = make_case("qaoa", "pauli", gamma=0.4, beta=0.7)
QAOA_NONE = make_case("qaoa", "none", gamma=1.1, beta=-0.6)


def _sampling_engines(program):
    names = ["density"]
    if not program.has_non_pauli_channel:
        names += ["statevector", "mps"]
    if program.is_clifford and program.num_inputs == 0:
        names.append("stabilizer")
    return names


def _branch_engines(program):
    names = ["density"]
    if not program.has_noise:
        names += ["statevector", "mps"]
        if program.is_clifford and program.num_inputs == 0:
            names.append("stabilizer")
    return names


def _input_block(program, row):
    if row is None:
        k = program.num_inputs
        row = np.ones(1 << k, dtype=complex) / np.sqrt(1 << k)
    return np.asarray(row, dtype=complex)[None, :]


def _output_rows(run) -> np.ndarray:
    """Per-shot output density matrices as ``(shots, 2·4^n_out)`` rows of
    real and imaginary parts (trace-normalized)."""
    if run.raw is not None and hasattr(run.raw[0], "rho"):
        mats = np.stack([out.rho.to_matrix() for out in run.raw])
    else:
        psi = run.dense_states()
        mats = psi[:, :, None] * psi[:, None, :].conj()
    mats = mats / np.trace(mats, axis1=1, axis2=2).real[:, None, None]
    flat = mats.reshape(len(mats), -1)
    return np.concatenate([flat.real, flat.imag], axis=1)


def _record_features(records: np.ndarray) -> np.ndarray:
    """Per-bit indicators plus every pairwise parity: ``(shots, f)``."""
    records = np.asarray(records, dtype=np.int64)
    m = records.shape[1]
    cols = [records[:, i] for i in range(m)]
    cols += [records[:, i] ^ records[:, j] for i, j in itertools.combinations(range(m), 2)]
    return np.stack(cols, axis=1).astype(float) if cols else np.zeros((len(records), 0))


class TestOracleDifferential:
    @given(case=programs())
    @example(case=CHAIN_FLIPS)
    @example(case=QAOA_DAMPING)
    @HARNESS
    def test_integrate_matches_oracle(self, case):
        label, program, row = case
        ref = oracle_run(program, row)
        run = get_backend("density").integrate(program, input_state=row)
        assert np.abs(run.rho.to_matrix() - ref.rho).max() < 1e-10, label
        assert sum(ref.distribution.values()) == pytest.approx(1.0, abs=1e-10)

    @given(case=programs(), pick=st.integers(0, 2**16))
    @example(case=CLIFFORD_NONE, pick=5)
    @example(case=CHAIN_FLIPS, pick=3)
    @example(case=QAOA_DAMPING, pick=7)
    @example(case=QAOA_NONE, pick=300)
    @HARNESS
    def test_branch_runs_match_oracle(self, case, pick):
        label, program, row = case
        ref = oracle_run(program, row)
        support = sorted(r for r, p in ref.distribution.items() if p > 1e-6)
        record = support[pick % len(support)]
        branch = dict(zip(program.measured_nodes, record))
        expect = ref.branches[record]
        inputs = _input_block(program, row)
        for name in _branch_engines(program):
            run = get_backend(name).run_branch_batch(program, inputs, branch)
            if name == "density":
                out = run.raw[0]
                got = out.rho.to_matrix() * out.weight
            else:
                psi = run.dense_states()[0]
                got = np.outer(psi, psi.conj())
            assert np.abs(got - expect).max() < 1e-10, (label, name, record)

    @given(case=programs(), seed=st.integers(0, 2**16))
    @example(case=CLIFFORD_PAULI, seed=1)
    @example(case=CHAIN_FLIPS, seed=2)
    @example(case=QAOA_PAULI, seed=3)
    @SAMPLING
    def test_sampled_records_match_oracle_distribution(self, case, seed):
        label, program, row = case
        ref = oracle_run(program, row)
        dist = ref.distribution
        rho = ref.rho.reshape(-1)
        exact_output = np.concatenate([rho.real, rho.imag])
        records = np.array(sorted(dist), dtype=np.int64)
        probs = np.array([dist[tuple(r)] for r in records])
        exact = (
            probs @ _record_features(records)
            if program.measured_nodes else np.zeros(0)
        )
        n_shots = 200
        for name in _sampling_engines(program):
            run = get_backend(name).sample_batch(
                program, n_shots, rng=seed, input_state=row, keep_raw=True
            )
            assert run.outcomes.shape == (n_shots, len(program.measured_nodes))
            # Per-shot output states average to the exact output state:
            # catches wrong corrections that leave the records fair coins.
            assert_rows_within_sigma(
                _output_rows(run), exact_output, k=4.0,
                tol=5.0 / n_shots, context=f"{label} outputs on {name}",
            )
            if program.measured_nodes:
                assert_rows_within_sigma(
                    _record_features(run.outcomes), exact, k=4.0,
                    tol=5.0 / n_shots, context=f"{label} records on {name}",
                )
