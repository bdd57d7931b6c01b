"""The one reference oracle every execution engine is checked against.

Deliberately naive: it walks a compiled op stream with full
``2^n × 2^n`` density matrices, builds every operator by explicit
Kronecker embedding, and recurses over every pair of *true* measurement
outcome and *recorded* bit (so readout flips are enumerated, not mixed in
place).  It imports no engine, no ``repro.sim`` simulator and no batched
kernel — only the op dataclasses and numpy — so a bug shared by the
engines' kernels cannot hide from it.

Cost is ``2^m`` leaves (``4^m`` with readout flips) of ``4^max_live``
matrices: tiny patterns only.

Conventions match the engines: little-endian registers (slot ``i`` is bit
``i`` of the basis index), a prepared qubit lands in the highest slot, a
measured qubit's slot is removed, and the returned operators are in
output order (``output_nodes[j]`` is bit ``j``).
"""

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.mbqc.compile import (
    ChannelOp,
    ConditionalOp,
    EntangleOp,
    MeasureOp,
    PrepOp,
    UnitaryOp,
)

_I2 = np.eye(2, dtype=complex)
_P1 = np.diag([0.0, 1.0]).astype(complex)

Record = Tuple[int, ...]


@dataclass
class OracleResult:
    """Exact output of a compiled program, every branch accounted for.

    ``branches[r]`` is the *unnormalized* output density matrix of
    measurement record ``r`` (recorded bits in ``measured_nodes`` order,
    summed over the true outcomes behind them); its trace is the record's
    probability.  ``rho`` is the sum over all records — the exact output
    state — and :attr:`distribution` the exact record distribution.
    """

    measured_nodes: Tuple[int, ...]
    rho: np.ndarray
    branches: Dict[Record, np.ndarray]

    @property
    def distribution(self) -> Dict[Record, float]:
        return {r: float(np.trace(m).real) for r, m in self.branches.items()}


def _embed(op: np.ndarray, q: int, n: int) -> np.ndarray:
    """``op`` (``2 × 2``, or a ``1 × 2`` bra) on qubit ``q`` of ``n``,
    identity elsewhere; the highest qubit is the leftmost factor."""
    out = np.ones((1, 1), dtype=complex)
    for k in reversed(range(n)):
        out = np.kron(out, op if k == q else _I2)
    return out


def _conj(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return u @ rho @ u.conj().T


def _parity(record: Dict[int, int], domain) -> int:
    p = 0
    for node in domain:
        p ^= record[node]
    return p


def _output_permutation(out_perm, n: int) -> np.ndarray:
    """Permutation matrix taking slot order to output order."""
    perm = np.zeros((1 << n, 1 << n))
    for x in range(1 << n):
        y = sum(((x >> slot) & 1) << j for j, slot in enumerate(out_perm))
        perm[y, x] = 1.0
    return perm


def oracle_run(
    compiled,
    input_state: Optional[np.ndarray] = None,
    forced: Optional[Mapping[int, int]] = None,
    prune: float = 1e-14,
) -> OracleResult:
    """Execute ``compiled`` exactly on ``input_state`` (default ``|+>^k``,
    normalized here).  ``forced`` (node -> recorded bit) restricts the
    walk to the records it agrees with — a single branch when it pins
    every measured node.  Branches of probability below ``prune`` are
    dropped; without ``forced``, their total mass is ``1 - trace(rho)``."""
    k = compiled.num_inputs
    if input_state is None:
        row = np.ones(1 << k, dtype=complex)
    else:
        row = np.asarray(input_state, dtype=complex).reshape(-1)
    row = row / np.linalg.norm(row)
    rho0 = np.outer(row, row.conj())
    ops = compiled.ops
    measured = tuple(compiled.measured_nodes)
    branches: Dict[Record, np.ndarray] = {}
    memo: Dict[tuple, np.ndarray] = {}

    def embedded(key: tuple, op: np.ndarray, q: int, n: int) -> np.ndarray:
        # Every branch reaching op ``key[0]`` has the same register width,
        # so each embedding is built once per op (and basis vector).
        if key not in memo:
            memo[key] = _embed(op, q, n)
        return memo[key]

    def finish(rho: np.ndarray, n: int, record: Dict[int, int]) -> None:
        perm = _output_permutation(compiled.out_perm, n)
        out = perm @ rho @ perm.T
        key = tuple(record[node] for node in measured)
        branches[key] = branches[key] + out if key in branches else out

    def walk(i: int, rho: np.ndarray, n: int, record: Dict[int, int]) -> None:
        while i < len(ops):
            op = ops[i]
            tp = type(op)
            i += 1
            if tp is PrepOp:
                ket = np.asarray(op.state, dtype=complex).reshape(2, 1)
                rho = np.kron(ket @ ket.conj().T, rho)
                n += 1
            elif tp is EntangleOp:
                if (i,) not in memo:
                    a, b = op.slots
                    memo[(i,)] = np.eye(1 << n) - 2.0 * (
                        _embed(_P1, a, n) @ _embed(_P1, b, n)
                    )
                rho = _conj(memo[(i,)], rho)
            elif tp is ChannelOp:
                rho = sum(
                    _conj(embedded((i, j), kr, op.slot, n), rho)
                    for j, kr in enumerate(op.kraus)
                )
            elif tp in (UnitaryOp, ConditionalOp):
                if tp is UnitaryOp or _parity(record, op.domain):
                    rho = _conj(embedded((i,), op.matrix, op.slot, n), rho)
            else:
                assert tp is MeasureOp, tp
                s = _parity(record, op.s_domain)
                t = _parity(record, op.t_domain)
                basis = op.bases[s + 2 * t]
                for true_bit, vec in enumerate((basis.b0, basis.b1)):
                    bra = np.asarray(vec, dtype=complex).conj().reshape(1, 2)
                    key = (i, s + 2 * t, true_bit)
                    proj = _conj(embedded(key, bra, op.slot, n), rho)
                    for bit in (0, 1):
                        if forced is not None and forced.get(op.node, bit) != bit:
                            continue
                        w = 1.0 - op.flip_p if bit == true_bit else op.flip_p
                        child = w * proj
                        if np.trace(child).real < prune:
                            continue
                        walk(i, child, n - 1, {**record, op.node: bit})
                return
        finish(rho, n, record)

    walk(0, rho0, k, {})
    n_out = len(compiled.out_perm)
    rho = sum(branches.values(), np.zeros((1 << n_out, 1 << n_out), dtype=complex))
    return OracleResult(measured_nodes=measured, rho=rho, branches=branches)
