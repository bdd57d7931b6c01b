"""Checkpointed shot-block execution (`repro.exec.checkpoint`).

The certification claims: a resumed job's record stream is bit-identical
to the uninterrupted run; each block is bit-identical to a direct
``sample_batch`` call on its spawned child seed (the supervisor adds no
randomness); block files failing any integrity check — truncation, bit
flips, version skew — are re-run, never silently merged; and a job
directory refuses to resume under changed parameters.
"""

import os

import numpy as np
import pytest
from patterns import j_chain

from repro.exec import (
    CheckpointResult,
    Fault,
    FaultSchedule,
    InjectedCrash,
    block_path,
    corrupt_block_file,
    load_block,
    load_manifest,
    plan_blocks,
    records_digest,
    run_checkpointed,
)
from repro.core import compile_qaoa_pattern
from repro.exec.checkpoint import BlockPlan
from repro.mbqc import compile_pattern, get_backend
from repro.mbqc.noise import NoiseModel
from repro.mbqc.pattern import PatternError
from repro.problems import MaxCut
from repro.utils.rng import ensure_rng, spawn_seeds


@pytest.fixture
def compiled():
    return compile_pattern(j_chain([0.3, 0.7, 1.1, 0.2]))


def run_job(compiled, job_dir, **kw):
    kw.setdefault("seed", 7)
    kw.setdefault("backend", "statevector")
    kw.setdefault("block_shots", 16)
    return run_checkpointed(compiled, 50, job_dir=str(job_dir), **kw)


class TestPlanning:
    def test_even_split(self):
        plans = plan_blocks(64, 16)
        assert [(p.lo, p.hi) for p in plans] == [
            (0, 16), (16, 32), (32, 48), (48, 64)
        ]

    def test_ragged_tail(self):
        plans = plan_blocks(50, 16)
        assert plans[-1] == BlockPlan(index=3, lo=48, hi=50)
        assert sum(p.shots for p in plans) == 50

    def test_zero_shots_is_empty_job(self):
        assert plan_blocks(0, 16) == ()

    def test_block_larger_than_job(self):
        assert plan_blocks(5, 100) == (BlockPlan(0, 0, 5),)

    def test_invalid(self):
        with pytest.raises(ValueError):
            plan_blocks(-1, 16)
        with pytest.raises(ValueError):
            plan_blocks(10, 0)


class TestDeterminism:
    def test_rerun_reuses_every_block_and_matches(self, compiled, tmp_path):
        r1 = run_job(compiled, tmp_path / "a")
        r2 = run_job(compiled, tmp_path / "a")
        assert r1.blocks_run == (0, 1, 2, 3)
        assert r2.blocks_reused == (0, 1, 2, 3) and r2.blocks_run == ()
        assert np.array_equal(r1.run.outcomes, r2.run.outcomes)

    def test_fresh_directory_reproduces_stream(self, compiled, tmp_path):
        r1 = run_job(compiled, tmp_path / "a")
        r2 = run_job(compiled, tmp_path / "b")
        assert records_digest(r1.run) == records_digest(r2.run)

    def test_block_equals_direct_sample_batch(self, compiled, tmp_path):
        """The supervisor adds no randomness: block i IS a direct
        sample_batch call on child seed i."""
        r = run_job(compiled, tmp_path / "a")
        engine = get_backend("statevector")
        seeds = spawn_seeds(r.seed_entropy, r.n_blocks)
        plans = plan_blocks(50, 16)
        for plan in plans:
            direct = engine.sample_batch(
                compiled, plan.shots, ensure_rng(seeds[plan.index])
            )
            assert np.array_equal(
                r.run.outcomes[plan.lo:plan.hi], direct.outcomes
            )

    def test_resume_after_crash_bit_identical(self, compiled, tmp_path):
        ref = run_job(compiled, tmp_path / "ref")
        crashing = FaultSchedule([Fault("crash", "block", 2, 0)])
        with pytest.raises(InjectedCrash):
            run_job(compiled, tmp_path / "j", faults=crashing)
        # Blocks 0 and 1 survived the crash on disk; 2 and 3 did not run.
        resumed = run_job(compiled, tmp_path / "j")
        assert resumed.blocks_reused == (0, 1)
        assert resumed.blocks_run == (2, 3)
        assert np.array_equal(resumed.run.outcomes, ref.run.outcomes)

    def test_chunk_size_invariance(self, compiled, tmp_path):
        """Per-engine chunking (max_block_bytes) does not change records,
        so neither does it change a checkpointed job's stream."""
        ref = run_job(
            compiled, tmp_path / "a", backend="density",
        )
        small_chunks = run_job(
            compiled, tmp_path / "b", backend="density",
            sample_kwargs={"max_block_bytes": 1},
        )
        assert np.array_equal(ref.run.outcomes, small_chunks.run.outcomes)

    def test_noisy_job_resumes_bit_identically(self, compiled, tmp_path):
        noise = NoiseModel(p_prep=0.05, p_ent=0.05, p_meas=0.05)
        ref = run_job(
            compiled, tmp_path / "ref", backend="statevector", noise=noise
        )
        crashing = FaultSchedule([Fault("crash", "block", 1, 0)])
        with pytest.raises(InjectedCrash):
            run_job(
                compiled, tmp_path / "j", backend="statevector",
                noise=noise, faults=crashing,
            )
        resumed = run_job(
            compiled, tmp_path / "j", backend="statevector", noise=noise
        )
        assert np.array_equal(resumed.run.outcomes, ref.run.outcomes)

    def test_memory_fault_retried_in_place(self, compiled, tmp_path):
        ref = run_job(compiled, tmp_path / "ref")
        sched = FaultSchedule([Fault("memory", "block", 1, 0)])
        r = run_job(compiled, tmp_path / "j", faults=sched, retries=2)
        assert np.array_equal(r.run.outcomes, ref.run.outcomes)
        assert len(sched.fired) == 1
        assert len(r.events) == 1

    def test_memory_retries_exhausted_raises(self, compiled, tmp_path):
        sched = FaultSchedule(
            [Fault("memory", "block", 0, a) for a in range(3)]
        )
        with pytest.raises(PatternError, match="MemoryError"):
            run_job(compiled, tmp_path / "j", faults=sched, retries=2)


class TestIntegrity:
    """Corrupted block files are detected and re-run, not merged."""

    @pytest.mark.parametrize("mode", ["truncate", "bitflip", "version"])
    def test_corrupted_block_detected_and_rerun(
        self, compiled, tmp_path, mode
    ):
        ref = run_job(compiled, tmp_path / "ref")
        r1 = run_job(compiled, tmp_path / "j")
        path = block_path(str(tmp_path / "j"), 1)
        corrupt_block_file(path, mode)
        plans = plan_blocks(50, 16)
        assert load_block(str(tmp_path / "j"), r1.fingerprint, plans[1],
                          len(compiled.measured_nodes)) is None
        r2 = run_job(compiled, tmp_path / "j")
        assert 1 in r2.blocks_run
        assert set(r2.blocks_reused) == {0, 2, 3}
        assert np.array_equal(r2.run.outcomes, ref.run.outcomes)

    def test_injected_file_fault_roundtrip(self, compiled, tmp_path):
        """The block-file fault site corrupts the just-written file; the
        in-flight run still returns correct records, and the next
        invocation re-runs exactly the corrupted block."""
        ref = run_job(compiled, tmp_path / "ref")
        sched = FaultSchedule([Fault("truncate", "block-file", 2, 0)])
        r1 = run_job(compiled, tmp_path / "j", faults=sched)
        assert np.array_equal(r1.run.outcomes, ref.run.outcomes)
        r2 = run_job(compiled, tmp_path / "j")
        assert r2.blocks_run == (2,)
        assert np.array_equal(r2.run.outcomes, ref.run.outcomes)

    def test_missing_block_file(self, compiled, tmp_path):
        r1 = run_job(compiled, tmp_path / "j")
        os.remove(block_path(str(tmp_path / "j"), 0))
        r2 = run_job(compiled, tmp_path / "j")
        assert r2.blocks_run == (0,)
        assert np.array_equal(r2.run.outcomes, r1.run.outcomes)


class TestManifest:
    def test_changed_parameters_refused(self, compiled, tmp_path):
        run_job(compiled, tmp_path / "j")
        with pytest.raises(PatternError, match="different job"):
            run_checkpointed(
                compiled, 60, job_dir=str(tmp_path / "j"), seed=7,
                backend="statevector", block_shots=16,
            )
        with pytest.raises(PatternError, match="different job"):
            run_job(compiled, tmp_path / "j", block_shots=8)

    def test_changed_angle_refused(self, tmp_path):
        """Regression: the fingerprint once hashed op type names only, so a
        job directory resumed under a different γ reused foreign blocks."""
        qubo = MaxCut.ring(3).to_qubo()
        first = compile_qaoa_pattern(qubo, [0.4], [0.7]).executable()
        moved = compile_qaoa_pattern(qubo, [0.9], [0.7]).executable()
        assert [type(op) for op in first.ops] == [type(op) for op in moved.ops]
        ref = run_job(first, tmp_path / "j")
        with pytest.raises(PatternError, match="different job"):
            run_job(moved, tmp_path / "j")
        again = run_job(first, tmp_path / "j")
        assert again.blocks_reused == tuple(range(ref.n_blocks))
        assert not again.blocks_run
        assert np.array_equal(again.run.outcomes, ref.run.outcomes)

    def test_changed_noise_refused(self, compiled, tmp_path):
        """A job started under p=0.01 noise refuses to resume under p=0.3."""
        ref = run_job(
            compiled, tmp_path / "j", noise=NoiseModel(0.01, 0.01, 0.01)
        )
        with pytest.raises(PatternError, match="different job"):
            run_job(compiled, tmp_path / "j", noise=NoiseModel(0.3, 0.3, 0.3))
        with pytest.raises(PatternError, match="different job"):
            run_job(compiled, tmp_path / "j")
        again = run_job(
            compiled, tmp_path / "j", noise=NoiseModel(0.01, 0.01, 0.01)
        )
        assert again.blocks_reused == tuple(range(ref.n_blocks))
        assert np.array_equal(again.run.outcomes, ref.run.outcomes)

    def test_changed_seed_refused(self, compiled, tmp_path):
        run_job(compiled, tmp_path / "j", seed=7)
        with pytest.raises(PatternError, match="different seed"):
            run_job(compiled, tmp_path / "j", seed=8)

    def test_seed_none_is_persisted(self, compiled, tmp_path):
        r1 = run_checkpointed(
            compiled, 30, job_dir=str(tmp_path / "j"), seed=None,
            backend="statevector", block_shots=16,
        )
        manifest = load_manifest(str(tmp_path / "j"))
        assert int(manifest["seed_entropy"]) == r1.seed_entropy
        # Omitting the seed on resume reuses the persisted entropy.
        r2 = run_checkpointed(
            compiled, 30, job_dir=str(tmp_path / "j"), seed=None,
            backend="statevector", block_shots=16,
        )
        assert r2.blocks_reused == (0, 1)
        assert np.array_equal(r1.run.outcomes, r2.run.outcomes)

    def test_generator_seed_rejected(self, compiled, tmp_path):
        with pytest.raises(ValueError, match="Generator"):
            run_job(compiled, tmp_path / "j", seed=ensure_rng(0))

    def test_keep_raw_rejected(self, compiled, tmp_path):
        with pytest.raises(ValueError, match="records-only"):
            run_job(compiled, tmp_path / "j",
                    sample_kwargs={"keep_raw": True})

    def test_zero_shot_job(self, compiled, tmp_path):
        r = run_checkpointed(
            compiled, 0, job_dir=str(tmp_path / "j"), seed=3,
            backend="statevector",
        )
        assert isinstance(r, CheckpointResult)
        assert r.n_blocks == 0
        assert r.run.outcomes.shape == (0, len(compiled.measured_nodes))


def _race_writer(path, tag, n_rounds):
    from repro.exec import atomic_write_bytes

    payload = (tag * 4096).encode()
    for _ in range(n_rounds):
        atomic_write_bytes(path, payload)


class TestAtomicWrite:
    """Regression for the torn-tmp race: the old fixed `<path>.tmp`
    staging name let two concurrent writers interleave into one tmp file
    and publish garbage.  `mkstemp` staging gives each writer a private
    file, so every published state is one writer's complete payload."""

    def test_two_process_stress_never_tears(self, tmp_path):
        import multiprocessing

        from repro.exec import atomic_write_bytes

        target = str(tmp_path / "contested.bin")
        atomic_write_bytes(target, ("c" * 4096).encode())
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_race_writer, args=(target, tag, 40))
            for tag in ("a", "b")
        ]
        for p in procs:
            p.start()
        valid = {("%s" % t * 4096).encode() for t in "abc"}
        reads = 0
        while any(p.is_alive() for p in procs):
            with open(target, "rb") as fh:
                blob = fh.read()
            assert blob in valid, f"torn read of {len(blob)} bytes"
            reads += 1
        for p in procs:
            p.join()
            assert p.exitcode == 0
        assert reads > 0
        with open(target, "rb") as fh:
            assert fh.read() in valid
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert leftovers == []

    def test_failed_write_cleans_its_tmp(self, tmp_path):
        from repro.exec import atomic_write_bytes

        target = str(tmp_path / "x.bin")
        # Simulate a writer dying mid-stage: patch os.replace to fail.
        real_replace = os.replace
        try:
            def boom(src, dst):
                raise OSError("disk full")

            os.replace = boom
            with pytest.raises(OSError, match="disk full"):
                atomic_write_bytes(target, b"payload")
        finally:
            os.replace = real_replace
        assert not os.path.exists(target)
        assert [n for n in os.listdir(tmp_path) if n.endswith(".tmp")] == []
