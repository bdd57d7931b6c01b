"""Bit-packed batched stabilizer tableau: one GF(2) structure, many shots.

A per-shot trajectory sampler would advance one Aaronson–Gottesman tableau
per shot, repeating identical O(n²) boolean sweeps ``n_shots`` times.  This
module removes the redundancy by exploiting a structural fact of compiled
Clifford measurement patterns:

**Every per-shot-divergent operation is a Pauli (or a classical bit).**
Adaptive X/Z corrections, sampled Pauli channel faults, and readout flips
are the only things that differ between trajectories — and conjugating a
Pauli row by a Pauli never changes its X/Z bits, only its sign.  Whether a
measurement outcome is random or deterministic depends only on the X/Z
bits, so the whole GF(2) structure of the tableau (and the row operations
each measurement performs) evolves *identically* across shots; trajectories
diverge purely in sign bits and recorded outcomes.

:class:`BatchedTableau` therefore stores:

- ``x``, ``z``: one shared bit-packed block of ``2n`` Pauli rows
  (``(2n, Wc)`` ``uint64`` words, column ``q`` -> word ``q >> 6``, bit
  ``q & 63``), rows ``0..n-1`` destabilizers, ``n..2n-1`` stabilizers;
- ``r``: per-shot sign bits packed along the *shot* axis
  (``(2n, Wb)`` ``uint64`` words, shot ``j`` -> word ``j >> 6``, bit
  ``j & 63``);
- ``log2_weight``: exact per-shot log-2 branch weights (each random
  measurement contributes -1; kept in the log domain so ~1000-measurement
  patterns cannot underflow).

Row operations then cost one packed-word sweep for the structure plus pure
XOR updates on the shot words: the CHP phase arithmetic
``r_dst' = ((2 r_dst + 2 r_src + g) mod 4) / 2`` collapses to
``r_dst ^ r_src ^ g2`` with ``g2 = ((Σg) mod 4) >> 1`` shared across shots
(see :func:`packed_rows_mul`), so a 64-shot block updates with one word op.
Masked per-shot gate application (:meth:`BatchedTableau.apply_pauli_masked`)
XORs a packed fire-mask into the sign words of the affected rows — the
tableau analogue of ``BatchedStateVector.apply_1q_masked``.

The scalar :class:`~repro.stab.tableau.StabilizerState` remains the
reference engine (``run``/``run_branch``/determinism checks); the
equivalence of the two is property-tested bit for bit in
``tests/test_stab_batched.py``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

_WORD = 64
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

try:  # numpy >= 2.0
    _bitcount = np.bitwise_count
except AttributeError:  # pragma: no cover - exercised only on old numpy
    _POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def _bitcount(a: np.ndarray) -> np.ndarray:
        by = np.ascontiguousarray(a).view(np.uint8)
        return _POP8[by].reshape(a.shape + (8,)).sum(axis=-1).astype(np.uint8)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack booleans along the last axis into little-endian ``uint64`` words.

    Bit ``i`` of the packed row lands in word ``i >> 6`` at position
    ``i & 63``; the tail of the last word is zero-padded.
    """
    bits = np.asarray(bits, dtype=bool)
    n = bits.shape[-1]
    w = max(1, -(-n // _WORD))
    pad = w * _WORD - n
    if pad:
        bits = np.concatenate(
            [bits, np.zeros(bits.shape[:-1] + (pad,), dtype=bool)], axis=-1
        )
    packed = np.packbits(bits, axis=-1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64)


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: ``(..., W)`` words -> ``(..., n)`` bools."""
    by = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(by, axis=-1, bitorder="little")
    return bits[..., :n].astype(bool)


def _g_planes(
    xs: np.ndarray, zs: np.ndarray, xd: np.ndarray, zd: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Bit planes of the CHP ``g`` exponent for src row (1) times dst row (2).

    Per column, multiplying ``(x1 z1)`` by ``(x2 z2)`` picks up ``i^g`` with
    ``g ∈ {-1, 0, +1}``; the +1 columns are ``X·Y | Y·Z | Z·X`` and the -1
    columns ``X·Z | Y·X | Z·Y`` (src Pauli first).  Packed-word analogue of
    :func:`repro.stab.tableau._g_vec`.
    """
    x1 = xs & ~zs
    y1 = xs & zs
    w1 = zs & ~xs
    x2 = xd & ~zd
    y2 = xd & zd
    w2 = zd & ~xd
    pos = (x1 & y2) | (y1 & w2) | (w1 & x2)
    neg = (x1 & w2) | (y1 & x2) | (w1 & y2)
    return pos, neg


def packed_g(xs: np.ndarray, zs: np.ndarray, xd: np.ndarray, zd: np.ndarray):
    """Summed ``g`` exponent (src times dst) over packed columns.

    ``xd``/``zd`` may carry leading row axes; the column-word axis is the
    last one.  Returns an ``int64`` array (or scalar) of ``Σ_col g``.
    """
    pos, neg = _g_planes(xs, zs, xd, zd)
    p = _bitcount(pos).sum(axis=-1, dtype=np.int64)
    n = _bitcount(neg).sum(axis=-1, dtype=np.int64)
    return p - n


def packed_g2(xs: np.ndarray, zs: np.ndarray, xd: np.ndarray, zd: np.ndarray):
    """The single phase bit ``((Σg) mod 4) >> 1`` of :func:`packed_g`.

    The CHP sign update ``r_dst' = ((2 r_dst + 2 r_src + Σg) mod 4) / 2``
    is identically ``r_dst ^ r_src ^ g2`` for *any* sign bits (write
    ``Σg mod 4 = 2c + d``; the total is ``2(r_dst + r_src + c) + d`` and
    halving mod 4 discards ``d``), which is what lets a whole block of
    per-shot signs update with two XORs.
    """
    return (packed_g(xs, zs, xd, zd) % 4) >> 1


def packed_rows_mul(
    x: np.ndarray, z: np.ndarray, r: np.ndarray, dst: int, src: int
) -> None:
    """Row ``dst`` <- ``dst * src`` on packed rows with batched sign bits.

    The packed-and-batched generalization of
    :func:`repro.stab.tableau.rows_mul`: ``x``/``z`` are ``(R, Wc)`` packed
    column words, ``r`` is ``(R, Wb)`` packed *shot* words — every shot's
    sign updates in the same two XORs because the ``g`` phase bit is a
    property of the shared X/Z bits alone.
    """
    g2 = int(packed_g2(x[src], z[src], x[dst], z[dst]))
    r[dst] ^= r[src]
    if g2:
        r[dst] ^= _ONES
    x[dst] ^= x[src]
    z[dst] ^= z[src]


class BatchedTableau:
    """``n_shots`` stabilizer tableaus over one shared bit-packed structure.

    All shots start in ``|0...0>``.  Unconditional Clifford gates update the
    shared X/Z words once and the packed sign words vectorized across shots;
    per-shot divergence enters only through :meth:`apply_pauli_masked`
    (masked sign flips), per-shot measurement outcomes, and per-shot forced
    bits — exactly the operations a compiled Clifford pattern needs.
    """

    def __init__(self, num_qubits: int, n_shots: int):
        if num_qubits < 0:
            raise ValueError("need a non-negative qubit count")
        if n_shots < 1:
            raise ValueError("need at least one shot")
        n = num_qubits
        self.n = n
        self.n_shots = n_shots
        self.wc = -(-n // _WORD)
        self.wb = -(-n_shots // _WORD)
        self.x = np.zeros((2 * n, self.wc), dtype=np.uint64)
        self.z = np.zeros((2 * n, self.wc), dtype=np.uint64)
        self.r = np.zeros((2 * n, self.wb), dtype=np.uint64)
        self.log2_weight = np.zeros(n_shots, dtype=np.float64)
        for q in range(n):
            w, m = q >> 6, np.uint64(1 << (q & 63))
            self.x[q, w] |= m          # destabilizers X_q
            self.z[n + q, w] |= m      # stabilizers Z_q
        # Valid-shot mask: the tail bits of the last shot word are scratch.
        self.shot_mask = pack_bits(np.ones(n_shots, dtype=bool))

    # -- bit helpers ---------------------------------------------------------
    def _col(self, mat: np.ndarray, q: int) -> np.ndarray:
        """Column ``q`` of a packed block as a ``(2n,)`` bool vector."""
        return (mat[:, q >> 6] & np.uint64(1 << (q & 63))) != 0

    def _chk(self, *qs: int) -> None:
        for q in qs:
            if not 0 <= q < self.n:
                raise ValueError(f"qubit {q} out of range")

    # -- Clifford gates ------------------------------------------------------
    def h(self, q: int) -> None:
        self._chk(q)
        w, m = q >> 6, np.uint64(1 << (q & 63))
        xb = (self.x[:, w] & m) != 0
        zb = (self.z[:, w] & m) != 0
        self.r[xb & zb] ^= _ONES
        diff = (self.x[:, w] ^ self.z[:, w]) & m
        self.x[:, w] ^= diff
        self.z[:, w] ^= diff

    def s(self, q: int) -> None:
        self._chk(q)
        w, m = q >> 6, np.uint64(1 << (q & 63))
        xb = (self.x[:, w] & m) != 0
        zb = (self.z[:, w] & m) != 0
        self.r[xb & zb] ^= _ONES
        self.z[:, w] ^= self.x[:, w] & m

    def sdg(self, q: int) -> None:
        self.s(q)
        self.z_gate(q)

    def x_gate(self, q: int) -> None:
        self._chk(q)
        self.r[self._col(self.z, q)] ^= _ONES

    def z_gate(self, q: int) -> None:
        self._chk(q)
        self.r[self._col(self.x, q)] ^= _ONES

    def y_gate(self, q: int) -> None:
        self.z_gate(q)
        self.x_gate(q)

    def cnot(self, control: int, target: int) -> None:
        self._chk(control, target)
        if control == target:
            raise ValueError("control equals target")
        wc_, mc = control >> 6, np.uint64(1 << (control & 63))
        wt, mt = target >> 6, np.uint64(1 << (target & 63))
        xc = (self.x[:, wc_] & mc) != 0
        zc = (self.z[:, wc_] & mc) != 0
        xt = (self.x[:, wt] & mt) != 0
        zt = (self.z[:, wt] & mt) != 0
        self.r[xc & zt & ~(xt ^ zc)] ^= _ONES
        self.x[:, wt] ^= np.where(xc, mt, np.uint64(0))
        self.z[:, wc_] ^= np.where(zt, mc, np.uint64(0))

    def cz(self, q0: int, q1: int) -> None:
        """CZ = (I⊗H) CNOT (I⊗H), mirroring the scalar tableau."""
        self.h(q1)
        self.cnot(q0, q1)
        self.h(q1)

    def apply_named(self, name: str, qubits: Sequence[int]) -> None:
        """Apply an unconditional Clifford gate by circuit-IR name."""
        table = {
            "h": self.h, "s": self.s, "sdg": self.sdg,
            "x": self.x_gate, "y": self.y_gate, "z": self.z_gate,
            "cnot": self.cnot, "cz": self.cz,
        }
        if name == "i":
            return
        if name not in table:
            raise ValueError(f"gate {name!r} is not Clifford-supported")
        table[name](*qubits)

    # -- masked per-shot Paulis ---------------------------------------------
    def apply_pauli_masked(self, name: str, q: int, fire: np.ndarray) -> None:
        """Apply Pauli ``name`` on column ``q`` to the shots set in ``fire``.

        ``fire`` is a ``(Wb,)`` packed shot mask (:func:`pack_bits` of the
        per-shot fire booleans).  A Pauli only flips the sign of rows it
        anticommutes with at ``q`` — the X/Z bits stay shared, which is the
        invariant the whole batched layout rests on.
        """
        self._chk(q)
        xb = self._col(self.x, q)
        zb = self._col(self.z, q)
        if name == "x":
            sel = zb                    # anticommutes with Z and Y rows
        elif name == "z":
            sel = xb                    # anticommutes with X and Y rows
        elif name == "y":
            sel = xb ^ zb               # anticommutes with X and Z rows
        else:
            raise ValueError(f"{name!r} is not a Pauli gate")
        self.r[sel] ^= fire[None, :]

    # -- pattern preparation -------------------------------------------------
    def prep_column(self, col: int, label: str) -> None:
        """Rotate the *fresh* column ``col`` from ``|0>`` into a prep state.

        Valid only while the column is untouched (its destabilizer/stabilizer
        rows still hold the solitary init bits) — exactly the situation at a
        ``PrepOp`` in the preallocated-tableau execution scheme.  Direct bit
        surgery replaces one or two full-column gate sweeps per prepared
        node (``O(1)`` words instead of ``O(n)`` row flips).
        """
        self._chk(col)
        if label not in ("plus", "minus", "zero", "one"):
            raise ValueError(f"unknown preparation state {label!r}")
        w, m = col >> 6, np.uint64(1 << (col & 63))
        d, st = col, self.n + col
        if label in ("plus", "minus"):
            self.x[d, w] &= ~m
            self.z[d, w] |= m           # destabilizer Z
            self.z[st, w] &= ~m
            self.x[st, w] |= m          # stabilizer ±X
            if label == "minus":
                self.r[st] ^= _ONES
        elif label == "one":
            self.r[st] ^= _ONES         # stabilizer -Z
        # "zero" is the init state.

    # -- measurement ---------------------------------------------------------
    def measure_z(
        self,
        q: int,
        outcome_provider=None,
        force_words: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, bool]:
        """Measure Z on column ``q`` for every shot at once.

        Returns ``(outcome_words, random)``: packed per-shot outcome bits
        and whether the outcome was random (shared across shots — it is a
        property of the X/Z bits alone).  For a random outcome the bits
        come from ``force_words`` if given, else from ``outcome_provider()``
        (a zero-argument callable returning packed bits, invoked only when
        randomness is actually consumed — so the draw schedule is a
        property of the shared X/Z structure).  For a
        deterministic outcome the actual bits are returned and ``force``
        handling (zero-probability branches) is the caller's business.
        """
        self._chk(q)
        n = self.n
        xcol = self._col(self.x, q)
        stab_rows = np.nonzero(xcol[n:])[0]
        if stab_rows.size:
            p = int(stab_rows[0]) + n
            others = np.nonzero(xcol)[0]
            others = others[others != p]
            if others.size:
                g2 = packed_g2(self.x[p], self.z[p], self.x[others], self.z[others])
                self.r[others] ^= self.r[p][None, :]
                flip = others[g2 == 1]
                if flip.size:
                    self.r[flip] ^= _ONES
                self.x[others] ^= self.x[p][None, :]
                self.z[others] ^= self.z[p][None, :]
            self.x[p - n] = self.x[p]
            self.z[p - n] = self.z[p]
            self.r[p - n] = self.r[p]
            self.x[p] = np.uint64(0)
            self.z[p] = np.uint64(0)
            self.z[p, q >> 6] = np.uint64(1 << (q & 63))
            if force_words is not None:
                out = force_words.copy()
            else:
                if outcome_provider is None:
                    raise ValueError("random outcome needs an outcome provider")
                out = np.asarray(outcome_provider(), dtype=np.uint64).copy()
            self.r[p] = out
            self.log2_weight -= 1.0
            return out, True
        # Deterministic: accumulate the stabilizer product into a scratch
        # row.  The scratch X/Z bits are shared, so the mod-4 phase sum per
        # shot reduces to an XOR over the involved sign words plus one
        # shared correction bit (see packed_g2's docstring).
        rows = np.nonzero(xcol[:n])[0]
        sx = np.zeros(self.wc, dtype=np.uint64)
        sz = np.zeros(self.wc, dtype=np.uint64)
        g_total = 0
        out = np.zeros(self.wb, dtype=np.uint64)
        for i in rows:
            srow = int(i) + n
            g_total += int(packed_g(self.x[srow], self.z[srow], sx, sz))
            sx ^= self.x[srow]
            sz ^= self.z[srow]
            out ^= self.r[srow]
        if (g_total % 4) >> 1:
            out = ~out
        return out, False

    def measure_pauli(
        self,
        q: int,
        label: str,
        outcome_provider=None,
        force_words: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, bool]:
        """Pauli measurement via the scalar engine's H/S conjugations."""
        if label == "Z":
            return self.measure_z(q, outcome_provider, force_words)
        if label == "X":
            self.h(q)
            try:
                return self.measure_z(q, outcome_provider, force_words)
            finally:
                self.h(q)
        if label == "Y":
            self.sdg(q)
            self.h(q)
            try:
                return self.measure_z(q, outcome_provider, force_words)
            finally:
                self.h(q)
                self.s(q)
        raise ValueError(f"unknown Pauli label {label!r}")

    # -- extraction ----------------------------------------------------------
    def extract_substate(
        self, cols: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Marginal-state generators on ``cols`` for *every* shot at once.

        The packed/batched port of
        :meth:`repro.stab.tableau.StabilizerState.extract_substate`: the
        Gaussian elimination runs once on the shared X/Z bits (identical
        row operations apply to every shot), with sign bits carried along
        per shot.  Returns ``(x, z, r)`` where ``x``/``z`` are
        ``(k, len(cols))`` bools shared across shots and ``r`` is
        ``(n_shots, k)`` ``int8`` sign bits.  Raises :class:`ValueError`
        when the state does not factor over ``cols``.
        """
        n = self.n
        cols = [int(c) for c in cols]
        col_set = set(cols)
        if len(col_set) != len(cols):
            raise ValueError("duplicate columns")
        for c in cols:
            if not 0 <= c < n:
                raise ValueError(f"column {c} out of range")
        other = [c for c in range(n) if c not in col_set]
        gx = self.x[n:].copy()
        gz = self.z[n:].copy()
        gr = self.r[n:].copy()
        taken = np.zeros(n, dtype=bool)
        for col in other:
            w, m = col >> 6, np.uint64(1 << (col & 63))
            for mat in (gx, gz):
                bits = (mat[:, w] & m) != 0
                cand = np.nonzero(bits & ~taken)[0]
                if cand.size == 0:
                    continue
                piv = int(cand[0])
                taken[piv] = True
                rows2 = np.nonzero(bits)[0]
                rows2 = rows2[rows2 != piv]
                if rows2.size:
                    g2 = packed_g2(gx[piv], gz[piv], gx[rows2], gz[rows2])
                    gr[rows2] ^= gr[piv][None, :]
                    flip = rows2[g2 == 1]
                    if flip.size:
                        gr[flip] ^= _ONES
                    gx[rows2] ^= gx[piv]
                    gz[rows2] ^= gz[piv]
        keep = np.nonzero(~taken)[0]
        xb = unpack_bits(gx[keep], n)
        zb = unpack_bits(gz[keep], n)
        if len(keep) != len(cols) or (
            other and (xb[:, other].any() or zb[:, other].any())
        ):
            raise ValueError("state does not factor over the requested columns")
        rbits = unpack_bits(gr[keep], self.n_shots)  # (k, n_shots)
        return (
            xb[:, cols],
            zb[:, cols],
            rbits.T.astype(np.int8),
        )

    # -- inspection (tests/cross-checks) ------------------------------------
    def to_stabilizer_state(self, shot: int):
        """Shot ``shot`` as an independent scalar :class:`StabilizerState`."""
        from repro.stab.tableau import StabilizerState

        if not 0 <= shot < self.n_shots:
            raise ValueError(f"shot {shot} out of range")
        st = StabilizerState(self.n)
        st.x = unpack_bits(self.x, self.n)
        st.z = unpack_bits(self.z, self.n)
        st.r = unpack_bits(self.r, self.n_shots)[:, shot].astype(np.int8)
        return st


def unpack_shot_bits(words: np.ndarray, n_shots: int) -> np.ndarray:
    """Packed shot words ``(Wb,)`` -> per-shot bits ``(n_shots,)`` (int8)."""
    return unpack_bits(words, n_shots).astype(np.int8)


__all__ = [
    "BatchedTableau",
    "pack_bits",
    "packed_g",
    "packed_g2",
    "packed_rows_mul",
    "unpack_bits",
    "unpack_shot_bits",
]
