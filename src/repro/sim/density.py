"""Dense density-matrix simulator with Kraus channels.

Complements the trajectory-sampled Pauli noise of :mod:`repro.mbqc.noise`
with *exact* open-system evolution: channels are applied as Kraus maps, so
noisy expectation values need no Monte-Carlo averaging.  The cross-check
between the two (exact channel vs trajectory average) is part of the test
suite — it validates the E15 noise experiment's sampling.

:class:`DensityMatrix` is the substrate of the registered ``"density"``
execution engine (:mod:`repro.mbqc.density_backend`): its register grows and
shrinks with the compiled pattern's slot lifetimes (``add_qubit`` at a
position, ``measure``/``measure_project`` removing the measured axis,
``partial_trace`` retiring a qubit whose record is dead), and Kraus maps of
any arity apply exactly to the live register.

The state is an ndarray of shape ``(2,)*2n``: axes ``0..n-1`` are row
(ket) qubit indices, ``n..2n-1`` column (bra) indices, little-endian
flattening as everywhere else in the library.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.linalg.gates import IDENTITY, PAULI_X, PAULI_Y, PAULI_Z
from repro.sim.statevector import KET_PLUS, MeasurementBasis, StateVector
from repro.utils.rng import SeedLike, ensure_rng

#: Tolerance for the trace-preservation check ``sum K† K ≈ I``.
KRAUS_ATOL = 1e-8


def validate_kraus(
    kraus: Sequence[np.ndarray], where: str = "Kraus set", atol: float = KRAUS_ATOL
) -> Tuple[np.ndarray, ...]:
    """Coerce ``kraus`` to complex arrays and check it is a channel.

    Every operator must be square with a power-of-two dimension, all of one
    arity, and the set must be trace-preserving: ``sum_k K†K ≈ I`` within
    ``atol``.  Violations raise :class:`ValueError` naming the offending
    operator (by index) or the completeness deviation.  The returned
    operators are fresh copies, so callers may freeze them without
    aliasing the caller's arrays.
    """
    if len(kraus) == 0:
        raise ValueError(f"{where} needs at least one Kraus operator")
    ops = []
    dim = None
    for i, k in enumerate(kraus):
        op = np.array(k, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError(
                f"{where}: operator {i} has shape {op.shape}, expected square"
            )
        d = op.shape[0]
        if d < 2 or d & (d - 1):
            raise ValueError(
                f"{where}: operator {i} has dimension {d}, expected a power of 2"
            )
        if dim is None:
            dim = d
        elif d != dim:
            raise ValueError(
                f"{where}: operator {i} has dimension {d}, others have {dim}"
            )
        ops.append(op)
    acc = sum(op.conj().T @ op for op in ops)
    dev = float(np.max(np.abs(acc - np.eye(dim))))
    if dev > atol:
        raise ValueError(
            f"{where} is not trace-preserving: ‖sum K†K − I‖_max = {dev:.3e} "
            f"(tolerance {atol:.0e})"
        )
    return tuple(ops)


def depolarizing_kraus(p: float) -> List[np.ndarray]:
    """Single-qubit depolarizing channel: identity w.p. 1−p, else a
    uniformly random Pauli."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    return [
        np.sqrt(1.0 - p) * IDENTITY,
        np.sqrt(p / 3.0) * PAULI_X,
        np.sqrt(p / 3.0) * PAULI_Y,
        np.sqrt(p / 3.0) * PAULI_Z,
    ]


def dephasing_kraus(p: float) -> List[np.ndarray]:
    """Phase-flip channel: Z w.p. p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    return [np.sqrt(1.0 - p) * IDENTITY, np.sqrt(p) * PAULI_Z]


def amplitude_damping_kraus(gamma: float) -> List[np.ndarray]:
    """Amplitude damping with decay probability ``gamma``."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must be a probability")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return [k0, k1]


class DensityMatrix:
    """Mutable n-qubit density operator."""

    def __init__(self, num_qubits: int = 0, tensor: Optional[np.ndarray] = None):
        if tensor is not None:
            tensor = np.asarray(tensor, dtype=complex)
            if tensor.shape == (1, 1):
                self._t = tensor
                self._n = 0
                return
            n = tensor.ndim // 2
            if tensor.shape != (2,) * (2 * n):
                raise ValueError("tensor must have shape (2,)*2n")
            self._t = tensor
            self._n = n
        else:
            if num_qubits < 0:
                raise ValueError("num_qubits must be non-negative")
            self._n = num_qubits
            if num_qubits == 0:
                self._t = np.ones((1, 1), dtype=complex)
            else:
                t = np.zeros((2,) * (2 * num_qubits), dtype=complex)
                t[(0,) * (2 * num_qubits)] = 1.0
                self._t = t

    # -- constructors --------------------------------------------------------
    @staticmethod
    def plus(num_qubits: int) -> "DensityMatrix":
        """The pure ``|+>^n`` product state (the default pattern input)."""
        dm = DensityMatrix(0)
        for _ in range(num_qubits):
            dm.add_qubit(KET_PLUS)
        return dm

    @staticmethod
    def from_pure(vec: np.ndarray) -> "DensityMatrix":
        """From a little-endian amplitude column (not necessarily unit)."""
        v = np.asarray(vec, dtype=complex).reshape(-1)
        n = int(np.log2(v.size))
        if v.size != 1 << n:
            raise ValueError("amplitude count must be a power of 2")
        return DensityMatrix.from_matrix(np.outer(v, v.conj()), n)

    @staticmethod
    def from_statevector(sv: StateVector) -> "DensityMatrix":
        vec = sv.to_array()
        n = sv.num_qubits
        rho = np.outer(vec, vec.conj())
        return DensityMatrix.from_matrix(rho, n)

    @staticmethod
    def from_matrix(rho: np.ndarray, num_qubits: int) -> "DensityMatrix":
        """From a little-endian ``2^n x 2^n`` matrix."""
        n = num_qubits
        if rho.shape != (1 << n, 1 << n):
            raise ValueError("matrix size mismatch")
        if n == 0:
            return DensityMatrix(tensor=rho.reshape(1, 1))
        t = rho.reshape((2,) * (2 * n))
        # Little-endian: reverse each index group.
        perm = list(reversed(range(n))) + [n + i for i in reversed(range(n))]
        return DensityMatrix(tensor=np.ascontiguousarray(t.transpose(perm)))

    # -- inspection ----------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return self._n

    def to_matrix(self) -> np.ndarray:
        """Little-endian dense matrix (copy)."""
        n = self._n
        if n == 0:
            return self._t.copy()
        perm = list(reversed(range(n))) + [n + i for i in reversed(range(n))]
        return self._t.transpose(perm).reshape(1 << n, 1 << n).copy()

    def trace(self) -> float:
        return float(np.real(np.trace(self.to_matrix())))

    def purity(self) -> float:
        m = self.to_matrix()
        return float(np.real(np.trace(m @ m)))

    def fidelity_with_pure(self, vec: np.ndarray) -> float:
        """``<ψ|ρ|ψ>`` for a (normalized) pure reference."""
        v = np.asarray(vec, dtype=complex)
        v = v / np.linalg.norm(v)
        m = self.to_matrix()
        return float(np.real(v.conj() @ m @ v))

    def probabilities(self) -> np.ndarray:
        """Computational-basis probabilities (the little-endian diagonal)."""
        return np.clip(np.real(np.diagonal(self.to_matrix())), 0.0, None)

    def expectation_diagonal(self, diag: np.ndarray) -> float:
        """``Tr(ρ D)`` for a real little-endian diagonal ``D``."""
        p = self.probabilities()
        diag = np.asarray(diag, dtype=float)
        if diag.shape != p.shape:
            raise ValueError("diagonal length mismatch")
        return float(np.dot(p, diag))

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(tensor=self._t.copy())

    # -- dynamics ------------------------------------------------------------
    def _check(self, *qs: int) -> None:
        for q in qs:
            if not 0 <= q < self._n:
                raise ValueError(f"qubit {q} out of range")

    def apply_1q(self, u: np.ndarray, q: int) -> None:
        """``ρ ← U ρ U†`` on one qubit."""
        self._check(q)
        n = self._n
        t = np.tensordot(u, self._t, axes=([1], [q]))
        t = np.moveaxis(t, 0, q)
        t = np.tensordot(u.conj(), t, axes=([1], [n + q]))
        self._t = np.moveaxis(t, 0, n + q)

    def apply_2q(self, u: np.ndarray, q0: int, q1: int) -> None:
        self._check(q0, q1)
        n = self._n
        op = np.asarray(u, dtype=complex).reshape(2, 2, 2, 2)
        t = np.tensordot(op, self._t, axes=([2, 3], [q1, q0]))
        t = np.moveaxis(t, [0, 1], [q1, q0])
        t = np.tensordot(op.conj(), t, axes=([2, 3], [n + q1, n + q0]))
        self._t = np.moveaxis(t, [0, 1], [n + q1, n + q0])

    def apply_kraus(
        self,
        kraus: Sequence[np.ndarray],
        qubits: Union[int, Sequence[int]],
        check: bool = True,
    ) -> None:
        """``ρ ← Σ_k K ρ K†`` on one or more qubits (little-endian).

        ``qubits`` is an int or a sequence matching the operators' arity.
        With ``check=True`` (default) the set is validated as a channel
        (square power-of-two operators, ``Σ K†K ≈ I``) — non-trace-
        preserving sets raise :class:`ValueError` naming the offence; pass
        ``check=False`` only for pre-validated sets on a hot path.
        """
        qs = (qubits,) if isinstance(qubits, (int, np.integer)) else tuple(qubits)
        self._check(*qs)
        if len(set(qs)) != len(qs):
            raise ValueError(f"duplicate qubits in {qs}")
        if check:
            ops = validate_kraus(kraus, where=f"Kraus set on qubits {qs}")
        else:
            ops = tuple(np.asarray(k, dtype=complex) for k in kraus)
        a = len(qs)
        if ops[0].shape[0] != 1 << a:
            raise ValueError(
                f"Kraus operators act on {ops[0].shape[0].bit_length() - 1} "
                f"qubits, got {a} targets"
            )
        n = self._n
        # Row-major reshape puts the high (last) qubit first in each index
        # group, so the tensor axes pair with the targets reversed.
        rq = list(reversed(qs))
        bq = [n + q for q in rq]
        total = None
        for k in ops:
            km = k.reshape((2,) * (2 * a))
            t = np.tensordot(km, self._t, axes=(list(range(a, 2 * a)), rq))
            t = np.moveaxis(t, list(range(a)), rq)
            t = np.tensordot(km.conj(), t, axes=(list(range(a, 2 * a)), bq))
            t = np.moveaxis(t, list(range(a)), bq)
            total = t if total is None else total + t
        self._t = total

    def add_qubit(self, state: np.ndarray, position: Optional[int] = None) -> int:
        """Insert a fresh qubit in pure ``state``; returns its index.

        ``position`` defaults to the end of the register.  The density
        engine inserts prepared nodes *before* any spectator qubits (the
        Choi-state ancillas of the exact determinism check) so compiled
        slot indices stay valid.
        """
        state = np.asarray(state, dtype=complex)
        if state.shape != (2,):
            raise ValueError("single-qubit state must have shape (2,)")
        pure = np.outer(state, state.conj())  # (ket, bra)
        n = self._n
        pos = n if position is None else int(position)
        if not 0 <= pos <= n:
            raise ValueError(f"position {pos} out of range for {n} qubits")
        if n == 0:
            self._t = self._t[0, 0] * pure
            self._n = 1
            return 0
        t = np.multiply.outer(self._t, pure)  # axes: rows, cols, ket, bra
        t = np.moveaxis(t, 2 * n, pos)            # new ket into the row group
        t = np.moveaxis(t, 2 * n + 1, n + 1 + pos)  # new bra mirrors it
        self._t = t
        self._n = n + 1
        return pos

    def permute(self, order: Sequence[int]) -> None:
        """Reorder qubits: new qubit ``i`` is old qubit ``order[i]``."""
        n = self._n
        order = [int(q) for q in order]
        if sorted(order) != list(range(n)):
            raise ValueError(f"order must be a permutation of 0..{n - 1}")
        if n:
            perm = order + [n + q for q in order]
            self._t = self._t.transpose(perm)

    def partial_trace(self, q: int) -> None:
        """Trace out qubit ``q``, retiring it from the register."""
        self._check(q)
        n = self._n
        t = np.trace(self._t, axis1=q, axis2=n + q)
        self._n = n - 1
        self._t = t if self._n else np.asarray(t, dtype=complex).reshape(1, 1)

    def measure_project(
        self,
        q: int,
        basis: MeasurementBasis,
        outcome: int,
        remove: bool = True,
        renormalize: bool = False,
    ) -> Tuple["DensityMatrix", float]:
        """Project qubit ``q`` onto ``basis`` vector ``outcome`` — the
        branching primitive of exact channel integration.

        Non-mutating: returns ``(post_state, probability)`` where
        ``probability`` is relative to this state's trace.  With
        ``renormalize=False`` (default) the post-state keeps the branch
        weight in its trace, so summing both outcomes' post-states
        reconstructs the measurement-dephased mixture exactly.
        """
        self._check(q)
        if outcome not in (0, 1):
            raise ValueError("outcome must be 0 or 1")
        n = self._n
        b = basis.vectors()[outcome]
        t = np.tensordot(b.conj(), self._t, axes=([0], [q]))
        t = np.tensordot(b, t, axes=([0], [n + q - 1]))
        prob = float(np.real(_trace_tensor(t, n - 1)))
        if not remove:
            pure = np.outer(b, b.conj())
            t = np.multiply.outer(t, pure)
            t = np.moveaxis(t, 2 * (n - 1), q)
            t = np.moveaxis(t, -1, n + q)
        if renormalize:
            t = t / max(prob, 1e-300)
        m = n if not remove else n - 1
        if m == 0:
            t = np.asarray(t, dtype=complex).reshape(1, 1)
        return DensityMatrix(tensor=t), prob

    def measure(
        self,
        q: int,
        basis: MeasurementBasis,
        rng: SeedLike = None,
        force: Optional[int] = None,
        remove: bool = True,
        u: Optional[float] = None,
    ) -> Tuple[int, float]:
        """Projective measurement; returns ``(outcome, probability)``.

        ``u`` is an optional pre-drawn uniform deviate deciding the outcome
        (0 iff ``u < p0``) in place of an ``rng`` draw — e.g. one shot's
        entry of a whole-block draw vector."""
        self._check(q)
        n = self._n
        b0, b1 = basis.vectors()
        probs = []
        reduced = []
        for b in (b0, b1):
            t = np.tensordot(b.conj(), self._t, axes=([0], [q]))
            t = np.tensordot(b, t, axes=([0], [n + q - 1]))
            # After removing both axes, remaining layout: rows minus q then
            # cols minus q — tensordot ordering: first contraction removed
            # axis q (rows shift), second removed old axis n+q (now n+q-1).
            reduced.append(t)
            probs.append(float(np.real(_trace_tensor(t, n - 1))))
        total = probs[0] + probs[1]
        if total <= 1e-300:
            raise ValueError("zero-trace state")
        p0 = probs[0] / total
        if force is None:
            if u is None:
                u = ensure_rng(rng).random()
            outcome = 0 if u < p0 else 1
        else:
            outcome = int(force)
            if (p0 if outcome == 0 else 1 - p0) < 1e-12:
                raise ValueError("forced outcome has probability ~0")
        prob = p0 if outcome == 0 else 1.0 - p0
        t = reduced[outcome]
        if not remove:
            vec = (b0, b1)[outcome]
            pure = np.outer(vec, vec.conj())
            t = np.multiply.outer(t, pure)
            t = np.moveaxis(t, 2 * (n - 1), q)
            t = np.moveaxis(t, -1, n + q)
            self._t = t / max(probs[outcome], 1e-300)
            return outcome, prob
        self._n = n - 1
        self._t = t / max(probs[outcome], 1e-300) if self._n else np.array(
            [[t / max(probs[outcome], 1e-300)]], dtype=complex
        ).reshape(1, 1)
        return outcome, prob


def _trace_tensor(t: np.ndarray, n: int) -> complex:
    """Trace of an ``(2,)*2n`` density tensor."""
    if n == 0:
        return complex(np.asarray(t).reshape(-1)[0])
    m = t.reshape(1 << n, 1 << n)
    return complex(np.trace(m))
