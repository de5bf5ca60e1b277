"""Exact dense statevector simulation.

Qubit 0 is the least significant bit of the basis index throughout the
package: basis state ``|i>`` assigns bit ``(i >> q) & 1`` to qubit ``q``.
All operations are functional; ``apply`` returns a new state and never
mutates its input. Global phase is not tracked as meaningful.

Amplitudes may carry a trailing batch axis: an array shaped ``(2^n, B)``
holds ``B`` states as columns, and every gate acts on each column alike.
Qubit ``q`` still addresses bit ``q`` of the row index. The readout
helpers (probabilities, sampling, expectations) take one state.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_QUBITS = 24

_SQRT2_INV = 1.0 / math.sqrt(2.0)

GATE_KINDS = frozenset({"h", "x", "rx", "ry", "rz", "cnot", "swap", "phase", "perm"})
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


def swap(q1: int, q2: int, controls: tuple[int, ...] = ()) -> GateOp:
    return GateOp("swap", (q1, q2), tuple(controls))


def phase_gate(targets, phases, controls: tuple[int, ...] = ()) -> GateOp:
    """Diagonal gate: basis sub-index ``s`` over ``targets`` picks up e^{i phases[s]}."""
    return GateOp("phase", tuple(targets), tuple(controls), phases=tuple(float(p) for p in phases))


def perm_gate(targets, table, controls: tuple[int, ...] = ()) -> GateOp:
    """Classical reversible map: sub-basis ``s`` over ``targets`` goes to ``table[s]``."""
    return GateOp("perm", tuple(targets), tuple(controls), table=tuple(int(t) for t in table))


def with_control(op: GateOp, control: int) -> GateOp:
    """Return ``op`` with one more control qubit attached."""
    if control in op.targets or control in op.controls:
        raise ValueError("control qubit already used by the gate")
    return GateOp(op.kind, op.targets, op.controls + (control,),
                  theta=op.theta, phases=op.phases, table=op.table)


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
    return op  # h, x, cnot, swap are self-inverse


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


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on a fixed-width register."""

    n_qubits: int
    ops: tuple[GateOp, ...] = ()


def new_zero_state(n_qubits: int, ceiling: int = MAX_QUBITS) -> Statevector:
    """All-zeros computational basis state ``|0...0>``."""
    if not 1 <= n_qubits <= ceiling:
        raise CapacityError(f"n_qubits={n_qubits} outside [1, {ceiling}]")
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


def apply_1q_inplace(amps: np.ndarray, q: int, kind: str, theta: float = 0.0) -> None:
    """Apply an uncontrolled one-qubit gate to qubit ``q`` of ``amps`` in place.

    Works on the strided view that splits the row index at bit ``q``, so it
    needs no index array; a trailing batch axis rides along. Each amplitude
    pair sees ``m00*a0 + m01*a1`` and ``m10*a0 + m11*a1`` with the entries of
    ``_matrix_1q``, the same operations as a gather over the pair's indices.
    ``amps`` may be real for the real kinds (h, x, ry).
    """
    view = amps.reshape((amps.shape[0] >> (q + 1), 2, 1 << q) + amps.shape[1:], copy=False)
    a0, a1 = view[:, 0], view[:, 1]
    m00, m01, m10, m11 = _matrix_1q(kind, theta)
    new0 = m00 * a0 + m01 * a1
    a1[...] = m10 * a0 + m11 * a1
    a0[...] = new0


def _control_mask(controls) -> int:
    mask = 0
    for c in controls:
        mask |= 1 << c
    return mask


@lru_cache(maxsize=8192)
def _pair_indices(n: int, target: int, ctrl_mask: int):
    """Indices with target bit 0 (controls satisfied), and their bit-1 partners."""
    idx = np.arange(1 << n, dtype=np.intp)
    lo = idx[(idx & (1 << target)) == 0]
    if ctrl_mask:
        lo = lo[(lo & ctrl_mask) == ctrl_mask]
    hi = lo | (1 << target)
    lo.setflags(write=False)
    hi.setflags(write=False)
    return lo, hi


@lru_cache(maxsize=8192)
def _masked_indices(n: int, ctrl_mask: int):
    idx = np.arange(1 << n, dtype=np.intp)
    if ctrl_mask:
        idx = idx[(idx & ctrl_mask) == ctrl_mask]
    idx.setflags(write=False)
    return idx


def _sub_index(idx: np.ndarray, targets) -> np.ndarray:
    sub = np.zeros_like(idx)
    for j, t in enumerate(targets):
        sub |= ((idx >> t) & 1) << j
    return sub


def _scatter_sub(sub: np.ndarray, targets) -> np.ndarray:
    out = np.zeros_like(sub)
    for j, t in enumerate(targets):
        out |= ((sub >> j) & 1) << t
    return out


def _apply_inplace(amps: np.ndarray, n: int, op: GateOp) -> None:
    for q in op.targets + op.controls:
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n}-qubit state")
    ctrl = _control_mask(op.controls)

    if op.kind in ("h", "x", "rx", "ry", "rz", "cnot"):
        if op.kind == "cnot":
            target = op.targets[1]
            ctrl |= 1 << op.targets[0]
        elif not ctrl:
            apply_1q_inplace(amps, op.targets[0], op.kind, op.theta)
            return
        else:
            target = op.targets[0]
        mat = _matrix_1q(op.kind, op.theta)
        lo, hi = _pair_indices(n, target, ctrl)
        a0 = amps[lo]
        a1 = amps[hi]
        amps[lo] = mat[0] * a0 + mat[1] * a1
        amps[hi] = mat[2] * a0 + mat[3] * a1
        return

    if op.kind == "swap":
        t1, t2 = op.targets
        m1, m2 = 1 << t1, 1 << t2
        idx = _masked_indices(n, ctrl)
        sel = idx[((idx & m1) != 0) & ((idx & m2) == 0)]
        partner = sel ^ m1 ^ m2
        tmp = amps[sel].copy()
        amps[sel] = amps[partner]
        amps[partner] = tmp
        return

    if op.kind == "phase":
        idx = _masked_indices(n, ctrl)
        sub = _sub_index(idx, op.targets)
        factors = np.exp(1j * np.asarray(op.phases))[sub]
        if amps.ndim > 1:
            factors = factors[:, None]
        amps[idx] *= factors
        return

    if op.kind == "perm":
        idx = _masked_indices(n, ctrl)
        sub = _sub_index(idx, op.targets)
        new_sub = np.asarray(op.table, dtype=np.intp)[sub]
        tmask = _control_mask(op.targets)
        dest = (idx & ~tmask) | _scatter_sub(new_sub, op.targets)
        snapshot = amps[idx].copy()
        amps[dest] = snapshot
        return

    raise ValueError(f"unhandled gate kind {op.kind!r}")


def apply(state: Statevector, op: GateOp) -> Statevector:
    """Apply one gate, returning a new state."""
    amps = state.amplitudes.copy()
    _apply_inplace(amps, state.n_qubits, op)
    return Statevector(state.n_qubits, amps)


def apply_ops(state: Statevector, ops) -> Statevector:
    """Apply a gate sequence with a single amplitude copy."""
    amps = state.amplitudes.copy()
    for op in ops:
        _apply_inplace(amps, state.n_qubits, op)
    return Statevector(state.n_qubits, amps)


def apply_circuit(state: Statevector, circuit: Circuit) -> Statevector:
    if circuit.n_qubits > state.n_qubits:
        raise ValueError("circuit is wider than the state")
    return apply_ops(state, circuit.ops)


def inverse_circuit(circuit: Circuit) -> Circuit:
    """Reverse the op order and conjugate each gate's parameters."""
    return Circuit(circuit.n_qubits, tuple(inverse_op(op) for op in reversed(circuit.ops)))


def controlled_ops(ops, control: int) -> tuple[GateOp, ...]:
    """Attach ``control`` to every gate, controlling the whole sequence."""
    return tuple(with_control(op, control) for op in ops)


def qft_ops(register) -> tuple[GateOp, ...]:
    """Fourier transform F_M on a register listed LSB first (register[i] weighs 2^i)."""
    reg = tuple(register)
    if len(set(reg)) != len(reg):
        raise ValueError("duplicate qubit indices in register")
    ops = []
    m = len(reg)
    for j in reversed(range(m)):
        ops.append(h(reg[j]))
        for i in reversed(range(j)):
            angle = math.pi / (1 << (j - i))
            ops.append(phase_gate((reg[i],), (0.0, angle), controls=(reg[j],)))
    for i in range(m // 2):
        ops.append(swap(reg[i], reg[m - 1 - i]))
    return tuple(ops)


def inverse_qft_ops(register) -> tuple[GateOp, ...]:
    return tuple(inverse_op(op) for op in reversed(qft_ops(register)))


def inverse_qft(state: Statevector, register) -> Statevector:
    """Apply F_M^dagger (|k> -> M^{-1/2} sum_y e^{-2 pi i yk/M} |y>) to the register."""
    return apply_ops(state, inverse_qft_ops(register))


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
    sub = _sub_index(np.arange(state.dim, dtype=np.intp), reg)
    return np.bincount(sub, weights=probs, minlength=1 << len(reg))


def sample(state: Statevector, shots: int, seed: int | None = None) -> dict[int, int]:
    """Seed-deterministic histogram of basis-index measurements."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = basis_probabilities(state)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(state.dim, size=shots, p=probs)
    values, counts = np.unique(outcomes, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


@dataclass(frozen=True)
class IsingObservable:
    """Diagonal observable: offset plus weighted products of Z factors.

    The energy of bitstring ``z`` is
    ``offset + sum_terms coeff * prod_{k in support} (1 - 2 z_k)``.
    """

    terms: tuple[tuple[tuple[int, ...], float], ...]
    offset: float = 0.0

    def max_qubit(self) -> int:
        return max((q for support, _ in self.terms for q in support), default=-1)

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
        if self.max_qubit() >= n_qubits:
            raise ValueError("observable support out of range")
        idx = np.arange(1 << n_qubits)
        out = np.full(idx.shape, self.offset, dtype=float)
        for support, coeff in self.terms:
            sign = np.ones(idx.shape)
            for q in support:
                sign *= 1.0 - 2.0 * ((idx >> q) & 1)
            out += coeff * sign
        return out


def expectation(state: Statevector, observable: IsingObservable) -> float:
    """Exact probability-weighted energy; no shot noise."""
    table = observable.energy_table(state.n_qubits)
    return float(basis_probabilities(state) @ table)
