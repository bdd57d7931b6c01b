"""Aaronson–Gottesman CHP tableau simulator.

State of ``n`` qubits is tracked by ``2n`` Pauli rows: rows ``0..n-1`` are
destabilizers, rows ``n..2n-1`` stabilizers.  Row ``i`` stores X/Z bits in
packed boolean numpy arrays; phases in ``r`` (0 -> +1, 1 -> -1).  All row
operations are vectorized across the ``n`` columns per the hpc guides.

Reference: S. Aaronson, D. Gottesman, "Improved simulation of stabilizer
circuits", PRA 70, 052328 (2004).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.linalg.paulis import PauliString
from repro.utils.rng import SeedLike, ensure_rng


class ForcedOutcomeContradiction(ValueError):
    """Forcing the opposite of a deterministic measurement outcome.

    The branch being forced has probability zero; branch-enumerating
    callers (e.g. the stabilizer pattern backend) treat this as a
    zero-weight branch rather than an error.
    """


_PREP_LABELS = ("plus", "minus", "zero", "one")


def _g_vec(x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray) -> int:
    """Summed exponent-of-i contribution when multiplying Pauli rows.

    Vectorized version of the CHP ``g`` function: for each column, g in
    {-1, 0, +1} is the power of i picked up multiplying (x1 z1) by (x2 z2).
    """
    # Cases: (x1,z1) = I: 0 ; X: z2*(2*x2-1) ; Y: z2-x2 ; Z: x2*(1-2*z2)
    x1i, z1i = x1.astype(np.int64), z1.astype(np.int64)
    x2i, z2i = x2.astype(np.int64), z2.astype(np.int64)
    gx = x1i * (1 - z1i) * (z2i * (2 * x2i - 1))     # row1 = X
    gy = x1i * z1i * (z2i - x2i)                     # row1 = Y
    gz = (1 - x1i) * z1i * (x2i * (1 - 2 * z2i))     # row1 = Z
    return int((gx + gy + gz).sum())


def rows_mul(x: np.ndarray, z: np.ndarray, r: np.ndarray, dst: int, src: int) -> None:
    """Row ``dst`` <- row ``dst`` * row ``src`` with CHP phase tracking.

    ``r`` holds sign bits (0 -> +1, 1 -> -1).  The single place the
    phase-tracked GF(2) row multiplication lives — the tableau's
    ``_rowsum``, membership testing, substate extraction, and canonical
    forms all delegate here so the phase convention cannot diverge.
    """
    two = 2 * int(r[dst]) + 2 * int(r[src]) + _g_vec(x[src], z[src], x[dst], z[dst])
    r[dst] = (two % 4) // 2
    x[dst] ^= x[src]
    z[dst] ^= z[src]


class StabilizerState:
    """An n-qubit stabilizer state, initialized to ``|0...0>``."""

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        n = num_qubits
        self.n = n
        self.x = np.zeros((2 * n, n), dtype=bool)
        self.z = np.zeros((2 * n, n), dtype=bool)
        self.r = np.zeros(2 * n, dtype=np.int8)
        idx = np.arange(n)
        self.x[idx, idx] = True          # destabilizers X_i
        self.z[n + idx, idx] = True      # stabilizers Z_i

    # -- constructors --------------------------------------------------------
    @staticmethod
    def plus_state(n: int) -> "StabilizerState":
        st = StabilizerState(n)
        for q in range(n):
            st.h(q)
        return st

    @staticmethod
    def graph_state(n: int, edges: Sequence[Tuple[int, int]]) -> "StabilizerState":
        """``prod CZ_{uv} |+>^n`` — Eq. (5) of the paper."""
        st = StabilizerState.plus_state(n)
        for u, v in edges:
            st.cz(u, v)
        return st

    # -- Clifford gates --------------------------------------------------------
    def h(self, q: int) -> None:
        """Hadamard: swap X/Z columns, phase picks up x&z."""
        self._chk(q)
        xq = self.x[:, q].copy()
        zq = self.z[:, q].copy()
        self.r ^= (xq & zq).astype(np.int8)
        self.x[:, q], self.z[:, q] = zq, xq

    def s(self, q: int) -> None:
        """Phase gate S."""
        self._chk(q)
        xq, zq = self.x[:, q], self.z[:, q]
        self.r ^= (xq & zq).astype(np.int8)
        self.z[:, q] = zq ^ xq

    def sdg(self, q: int) -> None:
        self.s(q)
        self.z_gate(q)
        # S† = Z S  (S† = S Z also works since Z commutes with S)

    def x_gate(self, q: int) -> None:
        """Pauli X (as Clifford conjugation): flips phase of rows with Z_q."""
        self._chk(q)
        self.r ^= self.z[:, q].astype(np.int8)

    def z_gate(self, q: int) -> None:
        """Pauli Z: flips phase of rows with X_q."""
        self._chk(q)
        self.r ^= self.x[:, q].astype(np.int8)

    def y_gate(self, q: int) -> None:
        self.z_gate(q)
        self.x_gate(q)

    def cnot(self, control: int, target: int) -> None:
        self._chk(control, target)
        if control == target:
            raise ValueError("control equals target")
        xc, zc = self.x[:, control], self.z[:, control]
        xt, zt = self.x[:, target], self.z[:, target]
        self.r ^= (xc & zt & (xt ^ zc ^ True)).astype(np.int8)
        self.x[:, target] = xt ^ xc
        self.z[:, control] = zc ^ zt

    def cz(self, q0: int, q1: int) -> None:
        """CZ = (I⊗H) CNOT (I⊗H)."""
        self.h(q1)
        self.cnot(q0, q1)
        self.h(q1)

    def apply_named(self, name: str, qubits: Sequence[int]) -> None:
        """Apply a Clifford gate by circuit-IR name."""
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

    # -- register management -------------------------------------------------
    def add_qubit(self, state: str = "plus") -> int:
        """Append a fresh qubit in product state ``state``; returns its column.

        Mirrors :meth:`repro.sim.statevector.StateVector.add_qubit` for the
        four pattern preparation states, so the stabilizer pattern backend
        can map ``PrepOp`` slots onto tableau columns.
        """
        if state not in _PREP_LABELS:
            raise ValueError(f"unknown preparation state {state!r}")
        n = self.n
        x = np.zeros((2 * n + 2, n + 1), dtype=bool)
        z = np.zeros((2 * n + 2, n + 1), dtype=bool)
        r = np.zeros(2 * n + 2, dtype=np.int8)
        x[:n, :n] = self.x[:n]
        z[:n, :n] = self.z[:n]
        r[:n] = self.r[:n]
        x[n + 1 : 2 * n + 1, :n] = self.x[n:]
        z[n + 1 : 2 * n + 1, :n] = self.z[n:]
        r[n + 1 : 2 * n + 1] = self.r[n:]
        # Row n is the new destabilizer, row 2n+1 the new stabilizer.
        if state in ("zero", "one"):
            x[n, n] = True          # destabilizer X
            z[2 * n + 1, n] = True  # stabilizer ±Z
            r[2 * n + 1] = 1 if state == "one" else 0
        else:
            z[n, n] = True          # destabilizer Z
            x[2 * n + 1, n] = True  # stabilizer ±X
            r[2 * n + 1] = 1 if state == "minus" else 0
        self.n = n + 1
        self.x, self.z, self.r = x, z, r
        return n

    # -- internals ---------------------------------------------------------
    def _chk(self, *qs: int) -> None:
        for q in qs:
            if not 0 <= q < self.n:
                raise ValueError(f"qubit {q} out of range")

    def _rowsum(self, h: int, i: int) -> None:
        """Row h <- row h * row i with correct phase (vectorized)."""
        rows_mul(self.x, self.z, self.r, h, i)

    # -- measurement ---------------------------------------------------------
    def _measure_z_info(
        self, q: int, rng: SeedLike = None, force: Optional[int] = None
    ) -> Tuple[int, float]:
        """Measure Z on ``q``; returns ``(outcome, probability)``.

        The probability is exactly 0.5 for a random outcome and 1.0 for a
        deterministic one; forcing against a deterministic outcome raises
        :class:`ForcedOutcomeContradiction` (that branch has weight zero).
        """
        self._chk(q)
        n = self.n
        rows_p = np.nonzero(self.x[n:, q])[0]
        if rows_p.size:
            # Random outcome.
            p = int(rows_p[0]) + n
            for i in list(np.nonzero(self.x[:, q])[0]):
                if i != p:
                    self._rowsum(int(i), p)
            self.x[p - n] = self.x[p].copy()
            self.z[p - n] = self.z[p].copy()
            self.r[p - n] = self.r[p]
            self.x[p] = False
            self.z[p] = False
            self.z[p, q] = True
            if force is not None:
                outcome = int(force)
            elif callable(rng):
                # A zero-argument draw source (e.g. the pattern backend's
                # per-shot generator draws) — invoked only when randomness
                # is actually consumed, so deterministic outcomes draw
                # nothing from the stream.
                outcome = int(rng())
            else:
                outcome = int(ensure_rng(rng).integers(2))
            self.r[p] = outcome
            return outcome, 0.5
        # Deterministic outcome: accumulate into scratch row.
        sx = np.zeros(self.n, dtype=bool)
        sz = np.zeros(self.n, dtype=bool)
        two_r = 0
        for i in np.nonzero(self.x[:n, q])[0]:
            s = int(i) + n
            two_r += 2 * int(self.r[s]) + _g_vec(self.x[s], self.z[s], sx, sz)
            sx ^= self.x[s]
            sz ^= self.z[s]
        outcome = (two_r % 4) // 2
        if force is not None and force != outcome:
            raise ForcedOutcomeContradiction(
                "forced outcome contradicts deterministic measurement"
            )
        return outcome, 1.0

    def measure_z(self, q: int, rng: SeedLike = None, force: Optional[int] = None) -> int:
        """Measure Z on qubit ``q``; returns the outcome bit.

        Deterministic outcomes ignore ``force`` mismatches by raising, so
        branch enumeration stays honest.
        """
        return self._measure_z_info(q, rng=rng, force=force)[0]

    def measure_x(self, q: int, rng: SeedLike = None, force: Optional[int] = None) -> int:
        # try/finally: a ForcedOutcomeContradiction from the inner Z
        # measurement must not leave the tableau H-conjugated.
        self.h(q)
        try:
            out = self.measure_z(q, rng=rng, force=force)
        finally:
            self.h(q)
        return out

    def measure_y(self, q: int, rng: SeedLike = None, force: Optional[int] = None) -> int:
        self.sdg(q)
        try:
            out = self.measure_x(q, rng=rng, force=force)
        finally:
            self.s(q)
        return out

    def measure_pauli(self, q: int, label: str, rng: SeedLike = None, force: Optional[int] = None) -> int:
        return {"X": self.measure_x, "Y": self.measure_y, "Z": self.measure_z}[label](q, rng=rng, force=force)

    def measure_pauli_info(
        self, q: int, label: str, rng: SeedLike = None, force: Optional[int] = None
    ) -> Tuple[int, float]:
        """Pauli measurement reporting its probability: ``(outcome, p)``.

        ``p`` is 0.5 when the outcome was random, 1.0 when deterministic.
        Forcing against a deterministic outcome raises
        :class:`ForcedOutcomeContradiction` with the tableau left intact —
        the pattern backend maps this to a zero-weight branch.
        """
        if label == "Z":
            return self._measure_z_info(q, rng=rng, force=force)
        if label == "X":
            self.h(q)
            try:
                return self._measure_z_info(q, rng=rng, force=force)
            finally:
                self.h(q)
        if label == "Y":
            self.sdg(q)
            self.h(q)
            try:
                return self._measure_z_info(q, rng=rng, force=force)
            finally:
                self.h(q)
                self.s(q)
        raise ValueError(f"unknown Pauli label {label!r}")

    # -- inspection ---------------------------------------------------------
    def stabilizer_rows(self) -> List[PauliString]:
        """The n stabilizer generators as :class:`PauliString` objects."""
        return stab_rows_to_paulis(self.x[self.n:], self.z[self.n:], self.r[self.n:])

    def stabilizes(self, pauli: PauliString) -> bool:
        """True iff ``pauli`` is in the stabilizer group (with its phase).

        Works by Gaussian elimination over GF(2) on the generator tableau.
        """
        # Build target bits.
        tx = np.zeros(self.n, dtype=bool)
        tz = np.zeros(self.n, dtype=bool)
        for q, p in pauli.ops.items():
            if q >= self.n:
                raise ValueError("qubit out of range")
            if p in ("X", "Y"):
                tx[q] = True
            if p in ("Z", "Y"):
                tz[q] = True
        # Accumulate a product of generators matching the X/Z bit pattern.
        gx = self.x[self.n:].copy()
        gz = self.z[self.n:].copy()
        gr = self.r[self.n:].copy().astype(np.int64)
        sx = np.zeros(self.n, dtype=bool)
        sz = np.zeros(self.n, dtype=bool)
        two_r = 0
        # Eliminate column by column (X part then Z part).
        rows = list(range(self.n))
        # Forward elimination to row-echelon over the symplectic bits.
        pivots: List[Tuple[int, Tuple[str, int]]] = []
        taken = np.zeros(self.n, dtype=bool)
        for kind, mat in (("x", gx), ("z", gz)):
            for col in range(self.n):
                cand = [r for r in rows if not taken[r] and mat[r, col]]
                if not cand:
                    continue
                piv = cand[0]
                taken[piv] = True
                pivots.append((piv, (kind, col)))
                for r in rows:
                    if r != piv and mat[r, col]:
                        rows_mul(gx, gz, gr, r, piv)
        # Now express target in terms of pivot rows greedily.
        for piv, (kind, col) in pivots:
            bit = tx[col] if kind == "x" else tz[col]
            # Current accumulated value at that pivot position:
            cur = sx[col] if kind == "x" else sz[col]
            if bit != cur:
                two_r += 2 * int(gr[piv]) + _g_vec(gx[piv], gz[piv], sx, sz)
                sx ^= gx[piv]
                sz ^= gz[piv]
        if not (np.array_equal(sx, tx) and np.array_equal(sz, tz)):
            return False
        sign = -1 if (two_r % 4) // 2 else 1
        want = 1 if pauli.phase == 1 else (-1 if pauli.phase == -1 else None)
        if want is None:
            return False  # Hermitian stabilizers have real phase
        return sign == want

    def to_statevector(self) -> np.ndarray:
        """Dense statevector (little-endian), for cross-checks at small n.

        Projects ``|0...0>``-seeded maximally mixed basis onto the stabilizer
        group by averaging projectors; implemented as repeated projector
        application ``(I + g)/2`` on a random state to stay simple.
        """
        return statevector_from_generators(self.stabilizer_rows(), self.n)

    def extract_substate(
        self, cols: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stabilizer generators of the marginal pure state on ``cols``.

        Requires the state to factor as (pure state on ``cols``) ⊗ (rest) —
        true once every column outside ``cols`` has been projectively
        measured, which is how the pattern backend leaves measured nodes.
        Returns ``(x, z, r)`` with ``len(cols)`` generator rows, columns
        reordered to ``cols`` order, and phase bits ``r`` (0 → +1, 1 → -1).
        Raises :class:`ValueError` if the split is entangled.
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
        gr = self.r[n:].astype(np.int64).copy()
        taken = np.zeros(n, dtype=bool)
        # Eliminate support on the non-kept columns: one pivot row per
        # (column, X/Z) bit, consumed rows are dropped from the output.
        for col in other:
            for mat in (gx, gz):
                cand = np.nonzero(mat[:, col] & ~taken)[0]
                if cand.size == 0:
                    continue
                piv = int(cand[0])
                taken[piv] = True
                for row in np.nonzero(mat[:, col])[0]:
                    row = int(row)
                    if row != piv:
                        rows_mul(gx, gz, gr, row, piv)
        keep = np.nonzero(~taken)[0]
        if len(keep) != len(cols) or (
            other and (gx[np.ix_(keep, other)].any() or gz[np.ix_(keep, other)].any())
        ):
            raise ValueError("state does not factor over the requested columns")
        return (
            gx[np.ix_(keep, cols)],
            gz[np.ix_(keep, cols)],
            (gr[keep] % 2).astype(np.int8),
        )


def canonical_stabilizer_key(
    x: np.ndarray, z: np.ndarray, r: np.ndarray
) -> bytes:
    """Hashable canonical form of a stabilizer generator set.

    Two generator sets describe the same stabilizer state iff their keys are
    equal: the rows are brought to the unique phase-tracked reduced
    row-echelon form over GF(2) (X block first, then Z block) and packed.
    Used to compare outcome branches without densifying.
    """
    x = x.copy()
    z = z.copy()
    r = np.asarray(r, dtype=np.int64).copy()
    k, m = x.shape
    row = 0
    for kind in ("x", "z"):
        mat = x if kind == "x" else z
        for col in range(m):
            if row >= k:
                break
            cand = np.nonzero(mat[row:, col])[0]
            if cand.size == 0:
                continue
            piv = row + int(cand[0])
            if piv != row:
                for arr in (x, z):
                    arr[[row, piv]] = arr[[piv, row]]
                r[[row, piv]] = r[[piv, row]]
            for other in np.nonzero(mat[:, col])[0]:
                other = int(other)
                if other != row:
                    rows_mul(x, z, r, other, row)
            row += 1
    bits = np.concatenate([x.ravel(), z.ravel(), (r % 2).astype(bool)])
    return np.packbits(bits).tobytes() + k.to_bytes(4, "little") + m.to_bytes(4, "little")


def stab_rows_to_paulis(
    x: np.ndarray, z: np.ndarray, r: np.ndarray
) -> List[PauliString]:
    """Generator rows (as packed bits) to :class:`PauliString` objects."""
    out = []
    for i in range(x.shape[0]):
        ops: Dict[int, str] = {}
        for q in range(x.shape[1]):
            xb, zb = bool(x[i, q]), bool(z[i, q])
            if xb and zb:
                ops[q] = "Y"
            elif xb:
                ops[q] = "X"
            elif zb:
                ops[q] = "Z"
        out.append(PauliString(ops, -1 if r[i] else 1))
    return out


def apply_pauli_string(pauli: PauliString, vec: np.ndarray, n: int) -> np.ndarray:
    """``P|vec>`` without materializing the ``2^n x 2^n`` matrix.

    A Pauli string maps basis state ``|j>`` to ``phase(j) |j XOR xmask>``
    with ``phase(j) = i^{#Y} · (-1)^{popcount(j AND zmask)}`` — one index
    permutation plus a sign vector, ``O(n·2^n)`` instead of ``O(4^n)``.
    """
    xmask = 0
    zmask = 0
    n_y = 0
    for q, p in pauli.ops.items():
        if q >= n:
            raise ValueError("qubit index out of range")
        if p in ("X", "Y"):
            xmask |= 1 << q
        if p in ("Z", "Y"):
            zmask |= 1 << q
        if p == "Y":
            n_y += 1
    src = np.arange(1 << n) ^ xmask  # (P vec)[k] = phase(src_k) vec[src_k]
    parity = np.zeros(1 << n, dtype=np.int8)
    for q in range(n):
        if (zmask >> q) & 1:
            parity ^= ((src >> q) & 1).astype(np.int8)
    phase = complex(pauli.phase) * (1j ** (n_y % 4))
    signs = np.where(parity, -phase, phase)
    return signs * vec[src]


def statevector_from_generators(
    gens: Sequence[PauliString], n: int, seed: SeedLike = 12345
) -> np.ndarray:
    """Dense unit statevector stabilized by ``gens`` (little-endian).

    Projector-product construction (``(I + g)/2`` per generator, applied
    matrix-free via :func:`apply_pauli_string`); ``n`` is capped at 20
    because the vector itself is ``2^n`` amplitudes.  ``seed`` randomizes
    the pre-projection vector; the fixed default keeps extraction
    bit-reproducible (any seed yields the same state up to global phase).
    """
    if n > 20:
        raise ValueError("dense extraction is for small n only")
    if n == 0:
        return np.ones(1, dtype=complex)
    rng = ensure_rng(seed)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    for g in gens:
        vec = (vec + apply_pauli_string(g, vec, n)) / 2.0
    nrm = np.linalg.norm(vec)
    if nrm < 1e-9:
        # Unlucky random seed component; retry deterministically.
        vec = np.ones(1 << n, dtype=complex)
        for g in gens:
            vec = (vec + apply_pauli_string(g, vec, n)) / 2.0
        nrm = np.linalg.norm(vec)
        if nrm < 1e-9:
            raise RuntimeError("failed to extract statevector")
    return vec / nrm


def graph_state_stabilizers(n: int, edges: Sequence[Tuple[int, int]]) -> List[PauliString]:
    """Canonical graph-state generators ``K_v = X_v prod_{w~v} Z_w``."""
    adj: Dict[int, List[int]] = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    gens = []
    for v in range(n):
        ops = {v: "X"}
        for w in adj[v]:
            ops[w] = "Z"
        gens.append(PauliString(ops, 1))
    return gens
