"""Content-addressed compiled-pattern cache (`repro.serve.cache`).

The certification claims: the digest is a pure function of the
compilation inputs — stable across process restarts and independent of
dict ordering; a cache hit yields records bit-identical to a fresh
compile on every engine; any poisoned entry (truncated, bit-flipped,
version-skewed) is detected, treated as a miss, and healed by the
recompile's re-store; and concurrent writers on one cache directory
never publish a torn entry.
"""

import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from patterns import j_chain

from repro.mbqc import compile_pattern, get_backend
from repro.mbqc.noise import NoiseModel
from repro.serve import CacheStats, PatternCache, get_cache, pattern_digest
from repro.utils.rng import ensure_rng

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@pytest.fixture
def pattern():
    return j_chain([0.3, 0.7, 1.1, 0.2])


@pytest.fixture
def clifford_pattern():
    """Clifford angles so the stabilizer engine can run it too."""
    return j_chain([0.0, np.pi / 2, np.pi, np.pi / 2])


class TestDigest:
    def test_deterministic_in_process(self, pattern):
        assert pattern_digest(pattern) == pattern_digest(j_chain([0.3, 0.7, 1.1, 0.2]))

    def test_sensitive_to_inputs(self, pattern):
        base = pattern_digest(pattern)
        assert pattern_digest(j_chain([0.3, 0.7, 1.1, 0.3])) != base
        assert pattern_digest(pattern, noise=NoiseModel(p_prep=0.01)) != base
        assert pattern_digest(pattern, options={"verify_ir": True}) != base

    def test_noise_none_vs_trivial_model_distinct_from_noisy(self, pattern):
        noisy = pattern_digest(pattern, noise=NoiseModel(p_prep=0.02))
        assert pattern_digest(pattern, noise=None) != noisy

    def test_stable_across_process_restarts(self, pattern):
        """The content address survives interpreter restarts (no
        PYTHONHASHSEED / id() / dict-order leakage)."""
        script = (
            "from tests.patterns import j_chain\n"
            "from repro.serve import pattern_digest\n"
            "from repro.mbqc.noise import NoiseModel\n"
            "print(pattern_digest(j_chain([0.3, 0.7, 1.1, 0.2]),"
            " noise=NoiseModel(p_prep=0.02)))\n"
        )
        digests = set()
        for hashseed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONPATH"] = SRC + os.pathsep + ROOT
            env["PYTHONHASHSEED"] = hashseed
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True, env=env, cwd=ROOT,
            )
            digests.add(out.stdout.strip())
        digests.add(pattern_digest(pattern, noise=NoiseModel(p_prep=0.02)))
        assert len(digests) == 1


class TestHitIdentity:
    @pytest.mark.parametrize(
        "backend", ["statevector", "stabilizer", "density", "mps"]
    )
    def test_cache_hit_records_bit_identical(
        self, clifford_pattern, tmp_path, backend
    ):
        """A disk-tier hit (fresh process-like cache, empty memory tier)
        samples bit-identically to a fresh compile on every engine."""
        noise = NoiseModel(p_prep=0.02, p_ent=0.02, p_meas=0.02)
        writer = PatternCache(str(tmp_path))
        compiled_fresh = writer.get_or_compile(clifford_pattern, noise=noise)
        assert writer.stats.misses == 1 and writer.stats.stores == 1

        reader = PatternCache(str(tmp_path), memory_entries=0)
        compiled_hit = reader.get_or_compile(clifford_pattern, noise=noise)
        assert reader.stats.disk_hits == 1 and reader.stats.misses == 0

        engine = get_backend(backend)
        a = engine.sample_batch(compiled_fresh, 64, ensure_rng(7))
        b = engine.sample_batch(compiled_hit, 64, ensure_rng(7))
        assert np.array_equal(a.outcomes, b.outcomes)

    def test_memory_tier_hit(self, pattern, tmp_path):
        cache = PatternCache(str(tmp_path))
        first = cache.get_or_compile(pattern)
        second = cache.get_or_compile(pattern)
        assert second is first
        assert cache.stats.memory_hits == 1

    def test_memory_only_cache(self, pattern):
        cache = PatternCache(None)
        cache.get_or_compile(pattern)
        cache.get_or_compile(pattern)
        assert cache.stats.memory_hits == 1
        assert cache.stats.stores == 0

    def test_memory_fifo_bound(self, tmp_path):
        cache = PatternCache(str(tmp_path), memory_entries=2)
        for a in (0.1, 0.2, 0.3):
            cache.get_or_compile(j_chain([a]))
        assert len(cache._memory) == 2


class TestPoisoning:
    def _seed_entry(self, pattern, tmp_path):
        cache = PatternCache(str(tmp_path), memory_entries=0)
        compiled = cache.get_or_compile(pattern)
        digest = cache.digest_for(pattern)
        return cache, compiled, digest, cache.entry_path(digest)

    @pytest.mark.parametrize("damage", ["truncate", "bitflip", "version", "garbage"])
    def test_poisoned_entry_detected_and_recompiled(
        self, pattern, tmp_path, damage
    ):
        cache, compiled, digest, path = self._seed_entry(pattern, tmp_path)
        blob = open(path, "rb").read()
        if damage == "truncate":
            poisoned = blob[: len(blob) // 2]
        elif damage == "bitflip":
            mid = len(blob) // 2
            poisoned = blob[:mid] + bytes([blob[mid] ^ 0x40]) + blob[mid + 1:]
        elif damage == "version":
            header = json.loads(blob.split(b"\n", 1)[0])
            header["version"] = 999
            poisoned = json.dumps(header).encode() + b"\n" + blob.split(b"\n", 1)[1]
        else:
            poisoned = b"not a cache entry at all"
        with open(path, "wb") as fh:
            fh.write(poisoned)

        assert cache.load(digest) is None
        assert cache.stats.poisoned == 1
        # The compile-through path treats it as a miss and heals the file.
        healed = cache.get_or_compile(pattern)
        assert cache.stats.misses == 2
        assert cache.load(digest) is not None
        engine = get_backend("statevector")
        assert np.array_equal(
            engine.sample_batch(compiled, 16, ensure_rng(3)).outcomes,
            engine.sample_batch(healed, 16, ensure_rng(3)).outcomes,
        )

    def test_missing_entry_is_plain_miss_not_poisoned(self, pattern, tmp_path):
        cache = PatternCache(str(tmp_path))
        assert cache.load(cache.digest_for(pattern)) is None
        assert cache.stats.poisoned == 0

    def test_wrong_digest_file_rejected(self, pattern, tmp_path):
        cache, _, digest, path = self._seed_entry(pattern, tmp_path)
        other = cache.digest_for(j_chain([0.9]))
        other_path = cache.entry_path(other)
        os.makedirs(os.path.dirname(other_path), exist_ok=True)
        os.replace(path, other_path)  # valid file filed under the wrong name
        assert cache.load(other) is None
        assert cache.stats.poisoned == 1


class TestConcurrentWriters:
    def test_parallel_writers_never_tear(self, tmp_path):
        """Several processes repeatedly publishing the same digest: every
        observable file state is a complete, valid entry."""
        cache_dir = str(tmp_path)
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_hammer_store, args=(cache_dir, 0.3, 6))
            for _ in range(3)
        ]
        for p in procs:
            p.start()
        # Read concurrently with the writers: a torn entry would load as
        # poisoned; atomic publication means we only ever see None (not
        # yet published) or a valid compiled pattern.
        reader = PatternCache(cache_dir, memory_entries=0)
        pattern = j_chain([0.3])
        digest = reader.digest_for(pattern)
        while any(p.is_alive() for p in procs):
            reader.load(digest)
        for p in procs:
            p.join()
            assert p.exitcode == 0
        assert reader.stats.poisoned == 0
        assert reader.load(digest) is not None


def _hammer_store(cache_dir, alpha, n_rounds):
    from repro.mbqc.compile import compile_pattern
    from repro.serve import PatternCache
    from tests.test_serve_cache import j_chain

    pattern = j_chain([alpha])
    compiled = compile_pattern(pattern)
    cache = PatternCache(cache_dir, memory_entries=0)
    digest = cache.digest_for(pattern)
    for _ in range(n_rounds):
        cache.store(digest, compiled)


class TestStatsAndDiagnostics:
    def test_stats_dict(self):
        stats = CacheStats(memory_hits=2, disk_hits=1, misses=3, stores=3)
        assert stats.hits == 3
        assert stats.as_dict()["misses"] == 3

    def test_r106_rows(self, pattern, tmp_path):
        cache = PatternCache(str(tmp_path))
        cache.get_or_compile(pattern)
        cache.get_or_compile(pattern)
        rows = cache.stats.diagnostics()
        assert any(d.code == "R106" for d in rows)
        assert "1/2 hits" in rows[0].message

    def test_poisoned_warning_row(self):
        stats = CacheStats(misses=1, stores=1, poisoned=2)
        rows = stats.diagnostics()
        assert any(
            d.code == "R106" and d.severity.name.lower() == "warning"
            for d in rows
        )

    def test_get_cache_shared_per_directory(self, tmp_path):
        a = get_cache(str(tmp_path))
        b = get_cache(str(tmp_path) + os.sep)
        assert a is b


class TestCompilePatternIntegration:
    def test_compile_pattern_cache_dir_round_trip(self, pattern, tmp_path):
        first = compile_pattern(pattern, cache_dir=str(tmp_path))
        second = compile_pattern(pattern, cache_dir=str(tmp_path))
        assert second is first
        assert get_cache(str(tmp_path)).stats.hits >= 1
