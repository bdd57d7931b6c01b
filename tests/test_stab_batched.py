"""Bit-packed batched tableau substrate: packed kernels vs the unpacked
helpers, and the batched engine vs per-shot scalar tableau replicas.

The contract under test is the structural invariant the whole batched
layout rests on: per-shot divergence (masked Paulis, forced outcomes)
touches sign bits only, so one shared packed GF(2) structure plus per-shot
packed sign words reproduces ``n_shots`` independent
:class:`~repro.stab.tableau.StabilizerState` evolutions bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stab import (
    BatchedTableau,
    StabilizerState,
    pack_bits,
    packed_g,
    packed_g2,
    packed_rows_mul,
    unpack_bits,
    unpack_shot_bits,
)
from repro.stab.tableau import _g_vec, rows_mul


class TestPacking:
    @given(
        n=st.integers(min_value=1, max_value=200),
        rows=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, n, rows, seed):
        bits = np.random.default_rng(seed).random((rows, n)) < 0.5
        packed = pack_bits(bits)
        assert packed.dtype == np.uint64
        assert packed.shape == (rows, max(1, -(-n // 64)))
        assert np.array_equal(unpack_bits(packed, n), bits)

    def test_word_boundaries(self):
        for n in (63, 64, 65, 127, 128, 129):
            bits = np.zeros(n, dtype=bool)
            bits[n - 1] = True
            assert np.array_equal(unpack_bits(pack_bits(bits), n), bits)


class TestPackedKernels:
    @given(
        n=st.integers(min_value=1, max_value=130),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_packed_g_matches_unpacked(self, n, seed):
        """The packed bit-plane ``g`` sum equals the scalar ``_g_vec``."""
        rng = np.random.default_rng(seed)
        x1, z1, x2, z2 = (rng.random((4, n)) < 0.5)
        g_ref = _g_vec(x1, z1, x2, z2)
        g_packed = int(packed_g(pack_bits(x1), pack_bits(z1), pack_bits(x2), pack_bits(z2)))
        assert g_packed == g_ref
        assert int(
            packed_g2(pack_bits(x1), pack_bits(z1), pack_bits(x2), pack_bits(z2))
        ) == (g_ref % 4) >> 1

    @given(
        n=st.integers(min_value=1, max_value=130),
        n_shots=st.integers(min_value=1, max_value=130),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_packed_rows_mul_matches_rows_mul(self, n, n_shots, seed):
        """The batched phase-tracked row product agrees with the scalar
        ``rows_mul`` for every shot's sign assignment — the mod-4 CHP
        arithmetic really does collapse to XORs."""
        rng = np.random.default_rng(seed)
        x = rng.random((3, n)) < 0.5
        z = rng.random((3, n)) < 0.5
        r = rng.random((3, n_shots)) < 0.5
        xp, zp, rp = pack_bits(x), pack_bits(z), pack_bits(r)
        packed_rows_mul(xp, zp, rp, 0, 1)
        assert np.array_equal(unpack_bits(xp, n)[1:], x[1:])  # src untouched
        for j in range(n_shots):
            xs, zs = x.copy(), z.copy()
            rs = r[:, j].astype(np.int8).copy()
            rows_mul(xs, zs, rs, 0, 1)
            assert np.array_equal(unpack_bits(xp[0], n), xs[0])
            assert np.array_equal(unpack_bits(zp[0], n), zs[0])
            assert int(unpack_bits(rp[0], n_shots)[j]) == int(rs[0] % 2)


def _random_program(rng, n, n_steps):
    """A random mixed program: unconditional Cliffords, per-shot masked
    Paulis, and Pauli measurements with shared outcome draws."""
    steps = []
    for _ in range(n_steps):
        kind = int(rng.integers(4))
        if kind == 0:
            steps.append(("gate", str(rng.choice(["h", "s", "sdg", "x", "y", "z"])),
                          int(rng.integers(n))))
        elif kind == 1 and n >= 2:
            a, b = rng.choice(n, size=2, replace=False)
            steps.append(("gate2", str(rng.choice(["cnot", "cz"])), int(a), int(b)))
        elif kind == 2:
            steps.append(("masked", str(rng.choice(["x", "y", "z"])),
                          int(rng.integers(n))))
        else:
            steps.append(("measure", str(rng.choice(["X", "Y", "Z"])),
                          int(rng.integers(n))))
    return steps


class TestBatchedVsScalarReplicas:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_programs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        n_shots = int(rng.integers(1, 70))
        bt = BatchedTableau(n, n_shots)
        reps = [StabilizerState(n) for _ in range(n_shots)]
        for step in _random_program(rng, n, 25):
            if step[0] == "gate":
                bt.apply_named(step[1], (step[2],))
                for rep in reps:
                    rep.apply_named(step[1], (step[2],))
            elif step[0] == "gate2":
                bt.apply_named(step[1], (step[2], step[3]))
                for rep in reps:
                    rep.apply_named(step[1], (step[2], step[3]))
            elif step[0] == "masked":
                fire = rng.random(n_shots) < 0.5
                bt.apply_pauli_masked(step[1], step[2], pack_bits(fire))
                for j, rep in enumerate(reps):
                    if fire[j]:
                        rep.apply_named(step[1], (step[2],))
            else:
                _, label, q = step
                bits = rng.random(n_shots) < 0.5
                out_words, random_ = bt.measure_pauli(
                    q, label, outcome_provider=lambda: pack_bits(bits)
                )
                outs = unpack_shot_bits(out_words, n_shots)
                for j, rep in enumerate(reps):
                    o, prob = rep.measure_pauli_info(
                        q, label, force=int(bits[j]) if random_ else None
                    )
                    assert prob == (0.5 if random_ else 1.0)
                    assert o == outs[j]
        for j, rep in enumerate(reps):
            shot = bt.to_stabilizer_state(j)
            assert np.array_equal(shot.x, rep.x)
            assert np.array_equal(shot.z, rep.z)
            assert np.array_equal(shot.r % 2, rep.r % 2)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_extraction_matches_scalar(self, seed):
        """One shared Gaussian elimination reproduces every shot's
        ``extract_substate`` — generators and per-shot signs."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        n_shots = int(rng.integers(1, 70))
        bt = BatchedTableau(n, n_shots)
        reps = [StabilizerState(n) for _ in range(n_shots)]
        for q in range(n):
            label = str(rng.choice(["plus", "minus", "zero", "one"]))
            bt.prep_column(q, label)
            for rep in reps:
                if label in ("plus", "minus"):
                    rep.h(q)
                    if label == "minus":
                        rep.z_gate(q)
                elif label == "one":
                    rep.x_gate(q)
        for _ in range(15):
            if rng.random() < 0.6 and n >= 2:
                a, b = rng.choice(n, size=2, replace=False)
                bt.cz(int(a), int(b))
                for rep in reps:
                    rep.cz(int(a), int(b))
            else:
                g = str(rng.choice(["x", "y", "z"]))
                q = int(rng.integers(n))
                fire = rng.random(n_shots) < 0.5
                bt.apply_pauli_masked(g, q, pack_bits(fire))
                for j, rep in enumerate(reps):
                    if fire[j]:
                        rep.apply_named(g, (q,))
        keep = sorted(
            int(c) for c in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        )
        for q in range(n):
            if q in keep:
                continue
            bits = rng.random(n_shots) < 0.5
            _, random_ = bt.measure_pauli(
                q, "Z", outcome_provider=lambda: pack_bits(bits)
            )
            for j, rep in enumerate(reps):
                rep.measure_z(q, force=int(bits[j]) if random_ else None)
        xb, zb, rb = bt.extract_substate(keep)
        assert rb.shape == (n_shots, len(keep))
        for j, rep in enumerate(reps):
            xs, zs, rs = rep.extract_substate(keep)
            assert np.array_equal(xb, xs)
            assert np.array_equal(zb, zs)
            assert np.array_equal(rb[j], rs)


class TestValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError, match="qubit"):
            BatchedTableau(-1, 4)
        with pytest.raises(ValueError, match="shot"):
            BatchedTableau(3, 0)
        # The empty register is a valid tableau (the stabilizer engine
        # samples empty patterns on it): no rows, one weight per shot.
        bt = BatchedTableau(0, 4)
        assert bt.x.shape == bt.z.shape == (0, 0)
        assert bt.r.shape == (0, 1)
        assert np.array_equal(bt.log2_weight, np.zeros(4))
        with pytest.raises(ValueError, match="range"):
            bt.h(0)

    def test_rejects_out_of_range(self):
        bt = BatchedTableau(3, 4)
        with pytest.raises(ValueError, match="range"):
            bt.h(3)
        with pytest.raises(ValueError, match="range"):
            bt.apply_pauli_masked("x", -1, pack_bits(np.ones(4, dtype=bool)))

    def test_random_measure_needs_provider(self):
        bt = BatchedTableau(1, 4)
        bt.h(0)
        with pytest.raises(ValueError, match="provider"):
            bt.measure_z(0)

    def test_extract_rejects_entangled_split(self):
        bt = BatchedTableau(2, 3)
        bt.h(0)
        bt.h(1)
        bt.cz(0, 1)
        with pytest.raises(ValueError, match="factor"):
            bt.extract_substate([0])

    def test_prep_column_rejects_unknown_label(self):
        with pytest.raises(ValueError, match="preparation"):
            BatchedTableau(2, 2).prep_column(0, "bell")
