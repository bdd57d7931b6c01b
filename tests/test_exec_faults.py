"""Deterministic fault-injection harness (`repro.exec.faults`).

Certification claims: a `FaultSchedule` is declarative data — each fault
fires exactly once at its (site, index, attempt) step, and the seeded
constructor replays the same schedule for the same seed on any machine;
combined crash + file-corruption schedules recover to bit-identical
records across resume invocations; a job killed by a *real* SIGKILL
(subprocess smoke test) resumes bit-identically; and the degradation
chain, with its preferred engine deliberately failed, still produces a
statistically correct result — cross-engine-verified against exact
density-matrix integration at 3 standard errors.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from patterns import j_chain

from repro.core import compile_qaoa_pattern
from repro.exec import (
    Fault,
    FaultSchedule,
    FallbackPolicy,
    InjectedCrash,
    corrupt_block_file,
    records_digest,
    run_checkpointed,
    sample_with_fallback,
)
from repro.exec.faults import raise_in_process
from repro.mbqc import compile_pattern, get_backend
from repro.mbqc.backend import _REGISTRY, register_backend
from repro.mbqc.mps_backend import MPSBackend
from repro.mbqc.noise import NoiseModel
from repro.problems import MaxCut

from stat_helpers import assert_rows_within_sigma


@pytest.fixture
def compiled():
    return compile_pattern(j_chain([0.3, 0.7, 1.1, 0.2]))


def run_job(compiled, job_dir, **kw):
    kw.setdefault("seed", 7)
    kw.setdefault("backend", "statevector")
    kw.setdefault("block_shots", 16)
    return run_checkpointed(compiled, 50, job_dir=str(job_dir), **kw)


class TestFaultSchedule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("meteor", "block", 0)

    def test_take_fires_once(self):
        f = Fault("crash", "block", 2, 0)
        sched = FaultSchedule([f])
        assert sched.take("block", 2, 0) is f
        assert sched.take("block", 2, 0) is None
        assert sched.fired == [f]
        assert sched.pending == ()

    def test_take_matches_site_index_attempt(self):
        sched = FaultSchedule([Fault("crash", "block", 2, 1)])
        assert sched.take("shard", 2, 1) is None
        assert sched.take("block", 1, 1) is None
        assert sched.take("block", 2, 0) is None
        assert sched.take("block", 2, 1) is not None

    def test_repeated_faults_model_retry_storms(self):
        sched = FaultSchedule([
            Fault("memory", "block", 0, 0),
            Fault("memory", "block", 0, 1),
        ])
        assert sched.take("block", 0, 0).attempt == 0
        assert sched.take("block", 0, 1).attempt == 1
        assert len(sched.fired) == 2

    def test_seeded_is_reproducible(self):
        a = FaultSchedule.seeded(42, 6, max_index=4)
        b = FaultSchedule.seeded(42, 6, max_index=4)
        assert a.pending == b.pending
        assert len(a) == 6
        for f in a.pending:
            assert f.kind in ("crash", "memory")
            assert f.site == "block"
            assert 0 <= f.index < 4
            assert f.attempt in (0, 1)

    def test_seeded_differs_across_seeds(self):
        assert (
            FaultSchedule.seeded(1, 8).pending
            != FaultSchedule.seeded(2, 8).pending
        )


class TestDelivery:
    def test_crash_raises_injected_crash(self):
        with pytest.raises(InjectedCrash, match="block 3"):
            raise_in_process(Fault("crash", "block", 3, 0))

    def test_memory_raises_memory_error(self):
        with pytest.raises(MemoryError, match="injected"):
            raise_in_process(Fault("memory", "block", 0, 0))

    def test_file_kind_cannot_raise_in_process(self):
        with pytest.raises(ValueError, match="in-process"):
            raise_in_process(Fault("bitflip", "block", 0, 0))

    def test_unknown_corruption_mode(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"data")
        with pytest.raises(ValueError, match="corruption mode"):
            corrupt_block_file(str(path), "shred")


class TestCombinedRecovery:
    def test_crash_plus_corruption_recovers_bit_identical(
        self, compiled, tmp_path
    ):
        """One schedule delivers a torn write on block 0's file AND a
        crash before block 2: the next invocation re-runs exactly the
        damaged and missing blocks and the merged stream is bit-identical
        to the fault-free reference."""
        ref = run_job(compiled, tmp_path / "ref")
        sched = FaultSchedule([
            Fault("truncate", "block-file", 0, 0),
            Fault("crash", "block", 2, 0),
        ])
        with pytest.raises(InjectedCrash):
            run_job(compiled, tmp_path / "j", faults=sched)
        assert len(sched.fired) == 2
        resumed = run_job(compiled, tmp_path / "j")
        assert set(resumed.blocks_run) == {0, 2, 3}
        assert resumed.blocks_reused == (1,)
        assert np.array_equal(resumed.run.outcomes, ref.run.outcomes)

    def test_seeded_storm_converges_to_reference(self, compiled, tmp_path):
        """The CI stress contract: under a seeded random schedule of
        crashes and OOMs, repeatedly re-invoking the job eventually
        completes with the fault-free digest."""
        ref = run_job(compiled, tmp_path / "ref")
        sched = FaultSchedule.seeded(
            2024, 5, max_index=4, kinds=("crash", "memory"), max_attempt=0
        )
        result = None
        for _ in range(len(sched) + 1):
            try:
                result = run_job(
                    compiled, tmp_path / "j", faults=sched, retries=3
                )
                break
            except InjectedCrash:
                continue
        assert result is not None, "job never completed under the storm"
        assert records_digest(result.run) == records_digest(ref.run)


_KILL_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {tests!r})
from test_exec_faults import j_chain, run_job
from repro.exec import Fault, FaultSchedule
from repro.mbqc import compile_pattern

compiled = compile_pattern(j_chain([0.3, 0.7, 1.1, 0.2]))
sched = FaultSchedule([Fault("sigkill", "block", 2, 0)])
run_job(compiled, {job!r}, faults=sched)
raise SystemExit("unreachable: the SIGKILL fault never fired")
"""


class TestSigkillResume:
    def test_resume_after_real_sigkill(self, compiled, tmp_path):
        """The resume path against *real* process death, not a stand-in:
        a subprocess SIGKILLs itself mid-job (exit code -9), and the
        in-process resume completes bit-identically to the fault-free
        reference."""
        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        tests = str(Path(__file__).resolve().parent)
        job = str(tmp_path / "j")
        script = _KILL_SCRIPT.format(src=src, tests=tests, job=job)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == -9, (
            proc.returncode, proc.stdout, proc.stderr
        )
        ref = run_job(compiled, tmp_path / "ref")
        resumed = run_job(compiled, job)
        assert resumed.blocks_reused == (0, 1)
        assert resumed.blocks_run == (2, 3)
        assert np.array_equal(resumed.run.outcomes, ref.run.outcomes)


class TestDegradationCorrectness:
    """The acceptance gate for graceful degradation: with the preferred
    engine deliberately failed, the chain's served result is still
    statistically correct — certified cross-engine against exact
    density-matrix branch integration (3 standard errors, per basis
    state)."""

    @pytest.fixture
    def qaoa(self):
        return compile_qaoa_pattern(
            MaxCut.ring(4).to_qubo(), [0.6], [0.4]
        ).executable()

    def test_truncation_degrade_is_cross_engine_correct(self, qaoa):
        register_backend(MPSBackend(chi_max=1), name="mps-tight")
        try:
            policy = FallbackPolicy(
                chain=("mps-tight", "statevector"), truncation_tol=1e-6
            )
            run, report = sample_with_fallback(qaoa, 1024, policy, seed=17)
            assert report.degraded and report.selected == "statevector"
            exact = get_backend("density").integrate(qaoa).probabilities()
            assert_rows_within_sigma(
                run.probability_rows(), exact,
                context="truncation degrade -> statevector",
            )
        finally:
            _REGISTRY.pop("mps-tight", None)

    def test_runtime_degrade_is_cross_engine_correct_under_noise(self, qaoa):
        class _OOM:
            name = "oom"

            def supports(self, compiled):
                return True

            def sample_batch(self, *a, **kw):
                raise MemoryError("deliberate")

        register_backend(_OOM())
        try:
            noise = NoiseModel(p_prep=0.02, p_ent=0.02, p_meas=0.02)
            policy = FallbackPolicy(chain=("oom", "statevector"))
            run, report = sample_with_fallback(
                qaoa, 1024, policy, seed=17, noise=noise
            )
            assert report.degraded and report.selected == "statevector"
            exact = get_backend("density").integrate(
                qaoa, noise=noise
            ).probabilities()
            assert_rows_within_sigma(
                run.probability_rows(), exact,
                context="runtime degrade under noise",
            )
        finally:
            _REGISTRY.pop("oom", None)
