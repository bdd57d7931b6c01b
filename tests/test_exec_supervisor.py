"""Supervised sharded integration (`repro.exec.supervisor`).

Certification claims: a clean supervised run is bit-identical to the
unsupervised ``integrate(shards=N)``; same-slice retries after injected
crashes / OOM / timeouts recover bit-identically (R104/R103 events
recorded); a re-split run agrees to ~1e-12 relative (summation
re-association); the in-process fallback is bit-identical; exhausted
recovery raises a :class:`PatternError` naming the shard and its branch
mass; and the plain (unsupervised) sharded path now raises an actionable
:class:`PatternError` on ``BrokenProcessPool`` instead of leaking the raw
traceback — the satellite bugfix.
"""

import numpy as np
import pytest
from patterns import j_chain

from repro.core import compile_qaoa_pattern
from repro.exec import Fault, FaultSchedule, supervised_integrate
from repro.exec.faults import _exit_now
from repro.mbqc import compile_pattern, get_backend
from repro.mbqc.noise import NoiseModel
from repro.mbqc.pattern import PatternError
from repro.problems import MaxCut


@pytest.fixture(scope="module")
def chain():
    """A small program whose frontier forks at width 2."""
    return compile_pattern(j_chain([0.3, 0.7, 1.1, 0.2]))


@pytest.fixture(scope="module")
def qaoa():
    """A program whose frontier jumps past width 3 to width 4 — with
    shards=3, shard 0 gets a 2-branch slice, wide enough to re-split."""
    return compile_qaoa_pattern(
        MaxCut.ring(4).to_qubo(), [0.6], [0.4]
    ).executable()


@pytest.fixture(scope="module")
def chain_ref(chain):
    return get_backend("density").integrate(chain, shards=2)


@pytest.fixture(scope="module")
def qaoa_ref(qaoa):
    return get_backend("density").integrate(qaoa, shards=3)


def assert_same_rho(a, b):
    assert np.array_equal(a.rho._t, b.rho._t)
    assert a.branches == b.branches
    assert a.dropped_weight == b.dropped_weight


class TestCleanRuns:
    def test_matches_unsupervised_bitwise(self, chain, chain_ref):
        sup = supervised_integrate(chain, shards=2, backoff=0.0)
        assert sup.supervision.clean
        assert_same_rho(sup, chain_ref)

    def test_single_shard_runs_in_process(self, chain):
        ref = get_backend("density").integrate(chain)
        sup = supervised_integrate(chain, shards=1, backoff=0.0)
        assert sup.supervision.clean
        assert np.array_equal(sup.rho._t, ref.rho._t)

    def test_narrow_frontier_never_forks(self, chain):
        # The chain's frontier never reaches width 8: the whole run
        # completes in-process with no pool at all.
        ref = get_backend("density").integrate(chain)
        sup = supervised_integrate(chain, shards=8, backoff=0.0)
        assert sup.supervision.clean
        assert np.array_equal(sup.rho._t, ref.rho._t)

    def test_noisy_program(self, chain):
        noise = NoiseModel(p_prep=0.02, p_ent=0.02, p_meas=0.02)
        ref = get_backend("density").integrate(chain, noise=noise, shards=2)
        sup = supervised_integrate(chain, noise=noise, shards=2, backoff=0.0)
        assert sup.supervision.clean
        assert np.array_equal(sup.rho._t, ref.rho._t)

    def test_invalid_args(self, chain):
        with pytest.raises(ValueError):
            supervised_integrate(chain, shards=0)
        with pytest.raises(ValueError):
            supervised_integrate(chain, retries=-1)


class TestRecovery:
    def test_crash_retried_bit_identical(self, chain, chain_ref):
        sched = FaultSchedule([Fault("crash", "shard", 0, 0)])
        sup = supervised_integrate(
            chain, shards=2, backoff=0.0, faults=sched
        )
        assert "R104" in sup.supervision.codes()
        assert sup.supervision.retries >= 1
        assert len(sched.fired) == 1
        assert_same_rho(sup, chain_ref)

    def test_memory_error_retried_bit_identical(self, chain, chain_ref):
        sched = FaultSchedule([Fault("memory", "shard", 1, 0)])
        sup = supervised_integrate(
            chain, shards=2, backoff=0.0, faults=sched
        )
        assert "R104" in sup.supervision.codes()
        assert_same_rho(sup, chain_ref)

    def test_timeout_retried_bit_identical(self, chain, chain_ref):
        sched = FaultSchedule(
            [Fault("timeout", "shard", 0, 0, seconds=30.0)]
        )
        sup = supervised_integrate(
            chain, shards=2, backoff=0.0, shard_timeout=0.5, faults=sched
        )
        assert "R103" in sup.supervision.codes()
        assert sup.supervision.timeouts == 1
        assert_same_rho(sup, chain_ref)

    def test_repeated_crashes_then_success(self, chain, chain_ref):
        sched = FaultSchedule([
            Fault("crash", "shard", 0, 0),
            Fault("crash", "shard", 0, 1),
        ])
        sup = supervised_integrate(
            chain, shards=2, retries=2, backoff=0.0, faults=sched
        )
        assert len(sched.fired) == 2
        assert_same_rho(sup, chain_ref)

    def test_resplit_close_to_unsupervised(self, qaoa, qaoa_ref):
        """Exhausting retries on a 2-branch slice re-splits it; the
        re-associated partial sums agree to ~1e-12 relative."""
        sched = FaultSchedule(
            [Fault("memory", "shard", 0, a) for a in range(3)]
        )
        sup = supervised_integrate(
            qaoa, shards=3, retries=2, backoff=0.0, faults=sched,
        )
        assert sup.supervision.resplits == 1
        scale = np.abs(qaoa_ref.rho._t).max()
        assert np.allclose(
            sup.rho._t, qaoa_ref.rho._t, atol=1e-12 * scale, rtol=1e-12
        )
        assert sup.trace == pytest.approx(qaoa_ref.trace, rel=1e-12)

    def test_in_process_fallback_bit_identical(self, chain, chain_ref):
        """With re-splitting off, a persistently failing shard finishes
        in-process — same computation, bit-identical result."""
        sched = FaultSchedule(
            [Fault("crash", "shard", 0, a) for a in range(3)]
        )
        sup = supervised_integrate(
            chain, shards=2, retries=2, backoff=0.0, resplit=False,
            faults=sched,
        )
        # The crashing shard falls back in-process; its sibling may or may
        # not have been poisoned by the broken pool (a race), so >= 1.
        assert sup.supervision.in_process >= 1
        assert_same_rho(sup, chain_ref)

    def test_exhausted_recovery_names_shard_and_mass(self, chain):
        sched = FaultSchedule(
            [Fault("crash", "shard", 0, a) for a in range(2)]
        )
        with pytest.raises(PatternError) as err:
            supervised_integrate(
                chain, shards=2, retries=1, backoff=0.0, resplit=False,
                in_process_fallback=False, faults=sched,
            )
        msg = str(err.value)
        assert "shard 0" in msg
        assert "probability mass" in msg
        assert "retries=" in msg


class TestUnsupervisedDiagnostic:
    """Satellite: plain integrate(shards=N) raises an actionable
    PatternError on BrokenProcessPool instead of the raw traceback."""

    def test_broken_pool_becomes_pattern_error(self, chain, monkeypatch):
        import repro.mbqc.density_backend as db

        monkeypatch.setattr(db, "_integrate_shard", _exit_now)
        with pytest.raises(PatternError) as err:
            get_backend("density").integrate(chain, shards=2)
        msg = str(err.value)
        assert "shard 0/2" in msg
        assert "frontier branches" in msg
        assert "supervised_integrate" in msg
