"""Exact dense statevector simulation.

Qubit 0 is the least significant bit of the basis index throughout the
package: basis state ``|i>`` assigns bit ``(i >> q) & 1`` to qubit ``q``.
All operations are functional; ``apply_ops`` returns a new state and
never mutates its input. Global phase is not tracked as meaningful.

Amplitudes may carry a trailing batch axis: an array shaped ``(2^n, B)``
holds ``B`` states as columns, and every gate acts on each column alike.
Qubit ``q`` still addresses bit ``q`` of the row index. The readout
helpers (probabilities and marginals) take one state.
"""

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 24

_SQRT2_INV = 1.0 / math.sqrt(2.0)

GATE_KINDS = frozenset({"h", "x", "rx", "ry", "rz", "cnot", "phase", "perm"})
_ROTATION_KINDS = frozenset({"rx", "ry", "rz"})


class CapacityError(Exception):
    """Requested register size exceeds the dense-simulation ceiling."""


@dataclass(frozen=True)
class GateOp:
    """One gate: a kind, target qubits, and optional control qubits.

    Controls fire when every control qubit reads 1. ``theta`` is used by the
    rotation kinds, ``phases`` by the diagonal-phase kind (one phase per
    sub-basis index over ``targets``), and ``table`` by the permutation kind
    (a bijection on the sub-basis of ``targets``).
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    theta: float = 0.0
    phases: tuple[float, ...] = ()
    table: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if set(self.targets) & set(self.controls):
            raise ValueError("targets and controls must be disjoint")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("duplicate target qubits")
        if self.kind == "phase" and len(self.phases) != 1 << len(self.targets):
            raise ValueError("phase table length must be 2**len(targets)")
        if self.kind == "perm":
            dim = 1 << len(self.targets)
            if sorted(self.table) != list(range(dim)):
                raise ValueError("perm table must be a bijection on the target sub-basis")


def h(q: int, controls: tuple[int, ...] = ()) -> GateOp:
    return GateOp("h", (q,), tuple(controls))


def x(q: int, controls: tuple[int, ...] = ()) -> GateOp:
    return GateOp("x", (q,), tuple(controls))


def rx(theta: float, q: int, controls: tuple[int, ...] = ()) -> GateOp:
    return GateOp("rx", (q,), tuple(controls), theta=float(theta))


def ry(theta: float, q: int, controls: tuple[int, ...] = ()) -> GateOp:
    return GateOp("ry", (q,), tuple(controls), theta=float(theta))


def rz(theta: float, q: int, controls: tuple[int, ...] = ()) -> GateOp:
    return GateOp("rz", (q,), tuple(controls), theta=float(theta))


def cnot(control: int, target: int, controls: tuple[int, ...] = ()) -> GateOp:
    return GateOp("cnot", (control, target), tuple(controls))


def phase_gate(targets, phases, controls: tuple[int, ...] = ()) -> GateOp:
    """Diagonal gate: basis sub-index ``s`` over ``targets`` picks up e^{i phases[s]}."""
    return GateOp("phase", tuple(targets), tuple(controls), phases=tuple(float(p) for p in phases))


def perm_gate(targets, table, controls: tuple[int, ...] = ()) -> GateOp:
    """Classical reversible map: sub-basis ``s`` over ``targets`` goes to ``table[s]``."""
    return GateOp("perm", tuple(targets), tuple(controls), table=tuple(int(t) for t in table))


def inverse_op(op: GateOp) -> GateOp:
    if op.kind in _ROTATION_KINDS:
        return GateOp(op.kind, op.targets, op.controls, theta=-op.theta)
    if op.kind == "phase":
        return GateOp("phase", op.targets, op.controls,
                      phases=tuple(-p for p in op.phases))
    if op.kind == "perm":
        inv = [0] * len(op.table)
        for src, dst in enumerate(op.table):
            inv[dst] = src
        return GateOp("perm", op.targets, op.controls, table=tuple(inv))
    return op  # h, x, cnot are self-inverse


@dataclass(frozen=True, eq=False)
class Statevector:
    """Dense complex amplitudes over ``n_qubits`` qubits.

    ``amplitudes`` is shaped ``(2^n,)`` for one state, or ``(2^n, B)`` for a
    batch of ``B`` states stored as columns; the row index is the basis index.
    """

    n_qubits: int
    amplitudes: np.ndarray

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


def new_zero_state(n_qubits: int) -> Statevector:
    """All-zeros computational basis state ``|0...0>``."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise CapacityError(f"n_qubits={n_qubits} outside [1, {MAX_QUBITS}]")
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return Statevector(n_qubits, amps)


def _matrix_1q(kind: str, theta: float = 0.0) -> tuple:
    """Row-major entries (m00, m01, m10, m11) of a one-qubit gate (cnot: its x)."""
    if kind == "h":
        return _SQRT2_INV, _SQRT2_INV, _SQRT2_INV, -_SQRT2_INV
    if kind in ("x", "cnot"):
        return 0.0, 1.0, 1.0, 0.0
    half = 0.5 * theta
    c, s = math.cos(half), math.sin(half)
    if kind == "rx":
        return c, -1j * s, -1j * s, c
    if kind == "ry":
        return c, -s, s, c
    if kind == "rz":
        return c - 1j * s, 0.0, 0.0, c + 1j * s
    raise ValueError(f"no 2x2 matrix for kind {kind!r}")


def _split(dim: int, targets, controls=()):
    """Split a row index of length ``dim`` at each target and control qubit.

    The shape has a length-2 axis per listed qubit, highest qubit first, and
    the blocks of unlisted bits between them, less blocks of length 1 (they
    slow numpy's loops). Reshaping C-ordered amplitudes to it, plus any batch
    axis, is a view: no index array is built. Also returns an index list that
    selects the rows whose controls read 1 (its closing ``...`` keeps the
    selection a view) and the axis of each target.
    """
    shape, axis_of, above = [], {}, dim
    for q in sorted(targets + controls, reverse=True):
        if above >> (q + 1) > 1:
            shape.append(above >> (q + 1))
        axis_of[q] = len(shape)
        shape.append(2)
        above = 1 << q
    if above > 1:
        shape.append(above)
    index = [slice(None)] * len(shape) + [...]
    for c in controls:
        index[axis_of[c]] = 1
    return tuple(shape), index, [axis_of[t] for t in targets]


def phase_layout(dim: int, targets, controls=()):
    """Lay a table over the sub-basis of ``targets`` out on a row index of length ``dim``.

    Returns ``_split``'s shape and control selection, the shape that
    broadcasts the table over that selection (2 on the target axes, 1 on the
    blocks), and the order that takes the table from sub-basis order (bit
    j <-> targets[j]) to the split view's axis order. The ``phase`` kind lays
    its table out here.
    """
    targets, controls = tuple(targets), tuple(controls)
    shape, select, axes = _split(dim, targets, controls)
    factor_shape = [2 if axis in axes else 1 for axis in range(len(shape))]
    if controls:
        factor_shape = [f for f, s in zip(factor_shape, select) if s != 1]
    order = np.arange(1 << len(targets))
    if list(targets) != sorted(targets):  # ascending targets are in axis order already
        k = len(targets)
        by_axis = sorted(range(k), key=axes.__getitem__)
        order = order.reshape((2,) * k).transpose([k - 1 - j for j in by_axis]).ravel()
    return shape, tuple(select), tuple(factor_shape), order


def parity_signs(width: int) -> np.ndarray:
    """Z^width eigenvalue (-1)^popcount(s) of each sub-basis index s."""
    sub = np.arange(1 << width)
    signs = np.ones(1 << width)
    for bit in range(width):
        signs *= 1.0 - 2.0 * ((sub >> bit) & 1)
    return signs


def z_diagonal(n_qubits: int, terms, offset: float = 0.0) -> np.ndarray:
    """``offset + sum_S c_S prod_{q in S} Z_q`` over all 2^n basis states.

    ``terms`` is a sequence of ``(support, c_S)`` with no qubit repeated in a
    support. The result is viewed once with one axis of length 2 per qubit,
    qubit q on axis n - 1 - q, and each term's 2^|S| signed coefficients are
    added in order, shaped 2 on its support's axes and 1 on the others, so
    they broadcast over the rest and no 2^n index or sign vector is built.
    The sign of a basis state is the parity of its support bits, whatever
    their order, and the parities of the first 2^|S| indices are those of
    |S| bits, so one sign table per call, ``parity_signs`` of the widest
    support, serves every term. Every sign is exactly +-1, so each entry is
    the same sum, in the same order, as adding ``c_S`` times a term's sign
    vector.
    """
    out = np.full(1 << n_qubits, offset, dtype=float)
    qubits = out.reshape((2,) * n_qubits, copy=False)
    signs = parity_signs(max((len(support) for support, _ in terms), default=0))
    for support, coeff in terms:
        axes = {n_qubits - 1 - q for q in support}
        factor = tuple(2 if axis in axes else 1 for axis in range(n_qubits))
        qubits += (signs[:1 << len(support)] * coeff).reshape(factor)
    return out


def _rotate(a0: np.ndarray, a1: np.ndarray, matrix: tuple) -> None:
    """Map each amplitude pair to ``m00*a0 + m01*a1`` and ``m10*a0 + m11*a1`` in place."""
    m00, m01, m10, m11 = matrix
    new0 = m00 * a0 + m01 * a1
    a1[...] = m10 * a0 + m11 * a1
    a0[...] = new0


def apply_1q_inplace(amps: np.ndarray, q: int, kind: str, theta: float = 0.0) -> None:
    """Apply an uncontrolled one-qubit gate to qubit ``q`` of ``amps`` in place.

    This is the one-qubit case of ``_split``'s view, without the control
    bookkeeping; a trailing batch axis rides along. Each amplitude pair goes
    through ``_rotate`` with the entries of ``_matrix_1q``. ``amps`` may be
    real for the real kinds (h, x, ry).
    """
    view = amps.reshape((amps.shape[0] >> (q + 1), 2, 1 << q) + amps.shape[1:], copy=False)
    _rotate(view[:, 0], view[:, 1], _matrix_1q(kind, theta))


def _apply_inplace(amps: np.ndarray, n: int, op: GateOp) -> None:
    for q in op.targets + op.controls:
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n}-qubit state")
    batch = amps.shape[1:]

    if op.kind == "phase":
        shape, select, factor_shape, order = phase_layout(amps.shape[0], op.targets, op.controls)
        factors = np.exp(1j * np.asarray(op.phases))[order]
        rows = amps.reshape(shape + batch, copy=False)[select]
        rows *= factors.reshape(factor_shape + (1,) * len(batch))
        return

    if op.kind == "perm":
        # gather along the target axes: sub-basis s moves to table[s]
        table = np.asarray(op.table)
        shape, frm, axes = _split(amps.shape[0], op.targets, op.controls)
        view = amps.reshape(shape + batch, copy=False)
        to = list(frm)
        src = np.arange(table.size)
        for j, axis in enumerate(axes):
            frm[axis] = (src >> j) & 1
            to[axis] = (table >> j) & 1
        view[tuple(to)] = view[tuple(frm)]
        return

    # the 2x2 kinds; CNOT's first target acts as one more control
    target, controls = op.targets[-1], op.targets[:-1] + op.controls
    if not controls:
        apply_1q_inplace(amps, target, op.kind, op.theta)
        return
    shape, pair, (axis,) = _split(amps.shape[0], (target,), controls)
    view = amps.reshape(shape + batch, copy=False)
    pair[axis] = 0
    a0 = view[tuple(pair)]
    pair[axis] = 1
    _rotate(a0, view[tuple(pair)], _matrix_1q(op.kind, op.theta))


def apply_ops(state: Statevector, ops) -> Statevector:
    """Apply a gate sequence with a single amplitude copy."""
    amps = state.amplitudes.copy()
    for op in ops:
        _apply_inplace(amps, state.n_qubits, op)
    return Statevector(state.n_qubits, amps)


def basis_probabilities(state: Statevector) -> np.ndarray:
    return np.abs(state.amplitudes) ** 2


def probability_of_one(state: Statevector, qubit: int) -> float:
    """Marginal probability that ``qubit`` reads 1."""
    if not 0 <= qubit < state.n_qubits:
        raise ValueError("qubit out of range")
    idx = np.arange(state.dim)
    probs = basis_probabilities(state)
    return float(probs[(idx >> qubit) & 1 == 1].sum())


def register_distribution(state: Statevector, register) -> np.ndarray:
    """Marginal distribution over the sub-basis of ``register`` (LSB first)."""
    reg = tuple(register)
    probs = basis_probabilities(state)
    idx = np.arange(state.dim, dtype=np.intp)
    sub = np.zeros_like(idx)
    for j, q in enumerate(reg):
        sub |= ((idx >> q) & 1) << j
    return np.bincount(sub, weights=probs, minlength=1 << len(reg))


@dataclass(frozen=True)
class IsingObservable:
    """Diagonal observable: offset plus weighted products of Z factors.

    The energy of bitstring ``z`` is
    ``offset + sum_terms coeff * prod_{k in support} (1 - 2 z_k)``.
    """

    terms: tuple[tuple[tuple[int, ...], float], ...]
    offset: float = 0.0

    def energy_of(self, bits) -> float:
        e = self.offset
        for support, coeff in self.terms:
            prod = 1.0
            for q in support:
                prod *= 1.0 - 2.0 * bits[q]
            e += coeff * prod
        return e

    def energy_table(self, n_qubits: int) -> np.ndarray:
        """Energies of all 2^n basis states, indexed by basis index."""
        if any(q >= n_qubits for support, _ in self.terms for q in support):
            raise ValueError("observable support out of range")
        if n_qubits > MAX_QUBITS:
            raise CapacityError(f"energy table of {n_qubits} qubits, ceiling {MAX_QUBITS}")
        return z_diagonal(n_qubits, self.terms, self.offset)

