"""VQE and QAOA over diagonal observables, with exact expectations.

Ansatz families: RY rotation layers with full-entanglement CNOT ladders,
RX+RY layers with the same ladder (the classifier separator), and the QAOA
alternation of cost-phase and X-mixer evolutions starting from the uniform
superposition. Expectations are computed from the statevector, so the
classical optimizer sees a noiseless objective.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .optimizers import OptimizerConfig, minimize_restarts
from .qubo import Qubo, to_ising
from .simulator import (
    GateOp,
    IsingObservable,
    Statevector,
    basis_probabilities,
    cnot,
    h,
    parity_signs,
    phase_gate,
    rx,
    ry,
)

ANSATZ_KINDS = ("ry-full-entanglement", "rxry-full-entanglement", "qaoa")

# Most amplitudes one state block of vqe_minimize's objective holds: a stack
# of rows is simulated in chunks of BLOCK_AMPLITUDES >> n rows (at least one).
# It bounds memory more than time: each row's matmuls are the same calls in
# any chunk, so a stack costs its rows one at a time less the per-call
# overhead. SPSA's stacks of three stay whole up to 12 qubits, and from 14
# qubits up each row is its own block, so a Nelder-Mead simplex of P + 1 rows
# at 24 qubits holds one row's buffers, not P + 1.
BLOCK_AMPLITUDES = 1 << 14

# Most qubits one group of a rotation layer spans (see ``_kron_groups``).
GROUP_QUBITS = 5

# Columns of a ``start`` block each matmul takes (see ``compile_ansatz``).
RECORD_COLUMNS = 16

# Most layers an ansatz may have (``--depth``, ``--layers``), as many as the feature
# map's repetitions: it keeps Nelder-Mead's (P + 1) x P simplex small.
MAX_DEPTH = 16


@dataclass(frozen=True)
class Ansatz:
    kind: str
    n_qubits: int
    depth: int
    cost: IsingObservable | None = None

    def __post_init__(self):
        if self.kind not in ANSATZ_KINDS:
            raise ValueError(f"kind must be one of {ANSATZ_KINDS}")
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if not 0 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must lie in [0, {MAX_DEPTH}]")
        if self.kind == "qaoa":
            if self.cost is None:
                raise ValueError("qaoa ansatz needs a cost observable")
            for support, _ in self.cost.terms:
                if len(set(support)) != len(support):
                    raise ValueError(f"cost term {support} repeats a qubit")
                if not all(0 <= q < self.n_qubits for q in support):
                    raise ValueError(
                        f"cost term {support} does not fit {self.n_qubits} qubits")

    @property
    def parameter_count(self) -> int:
        if self.kind == "ry-full-entanglement":
            return self.n_qubits * (self.depth + 1)
        if self.kind == "rxry-full-entanglement":
            return 2 * self.n_qubits * (self.depth + 1)
        return 2 * self.depth


def ry_ansatz(n_qubits: int, depth: int = 3) -> Ansatz:
    return Ansatz("ry-full-entanglement", n_qubits, depth)


def rxry_ansatz(n_qubits: int, layers: int = 1) -> Ansatz:
    return Ansatz("rxry-full-entanglement", n_qubits, layers)


def qaoa_ansatz(n_qubits: int, p: int, cost: IsingObservable) -> Ansatz:
    return Ansatz("qaoa", n_qubits, p, cost=cost)


def _entangler(n: int) -> list[GateOp]:
    """Full entanglement: CNOT from each qubit i to every j > i."""
    return [cnot(i, j) for i in range(n) for j in range(i + 1, n)]


def _ladder_permutation(n: int) -> np.ndarray:
    """Gather index of the CNOT ladder: ``amps[perm]`` applies ``_entangler(n)``.

    One CNOT maps amplitude ``k`` from ``k ^ (bit_c(k) << t)``; composing the
    ladder's maps last gate first gives the whole ladder's source index.
    """
    perm = np.arange(1 << n)
    for op in reversed(_entangler(n)):
        control, target = op.targets
        perm ^= ((perm >> control) & 1) << target
    return perm


def cost_phase_ops(cost: IsingObservable, gamma: float) -> list[GateOp]:
    """exp(-i gamma H) for a diagonal H, term by term; the offset is global phase."""
    return [phase_gate(support, -gamma * coeff * parity_signs(len(support)))
            for support, coeff in cost.terms]


def _checked_params(ansatz: Ansatz, params) -> np.ndarray:
    params = np.asarray(params, dtype=float)
    if params.size != ansatz.parameter_count:
        raise ValueError(
            f"expected {ansatz.parameter_count} parameters, got {params.size}")
    return params


def ansatz_ops(ansatz: Ansatz, params) -> list[GateOp]:
    """The ansatz as a gate list: the classifier's path and the state functions' oracle."""
    params = _checked_params(ansatz, params)
    n = ansatz.n_qubits
    ops: list[GateOp] = []
    if ansatz.kind == "ry-full-entanglement":
        layers = params.reshape(ansatz.depth + 1, n)
        ops.extend(ry(layers[0, q], q) for q in range(n))
        for layer in range(1, ansatz.depth + 1):
            ops.extend(_entangler(n))
            ops.extend(ry(layers[layer, q], q) for q in range(n))
        return ops
    if ansatz.kind == "rxry-full-entanglement":
        layers = params.reshape(ansatz.depth + 1, 2 * n)
        for layer in range(ansatz.depth + 1):
            if layer > 0:
                ops.extend(_entangler(n))
            ops.extend(rx(layers[layer, q], q) for q in range(n))
            ops.extend(ry(layers[layer, n + q], q) for q in range(n))
        return ops
    # qaoa: thetas then betas
    p = ansatz.depth
    thetas, betas = params[:p], params[p:]
    ops.extend(h(q) for q in range(n))
    for level in range(p):
        ops.extend(cost_phase_ops(ansatz.cost, thetas[level]))
        ops.extend(rx(2.0 * betas[level], q) for q in range(n))
    return ops


def _checked_stack(ansatz: Ansatz, params) -> np.ndarray:
    """Parameter rows as a ``(B, P)`` float array; a ``(P,)`` row is a stack of one."""
    stack = np.atleast_2d(np.asarray(params, dtype=float))
    if stack.ndim != 2 or stack.shape[1] != ansatz.parameter_count:
        raise ValueError(f"expected rows of {ansatz.parameter_count} parameters, "
                         f"got shape {np.shape(params)}")
    return stack


_IDENTITY = np.eye(2)


def _rotations(rx_angles: np.ndarray | None, ry_angles: np.ndarray | None) -> np.ndarray:
    """Per-qubit 2x2 matrices ``[..., q, i, j]`` = m_ij of RY(phi)·RX(theta).

    ``rx_angles[..., q]`` is qubit q's theta and ``ry_angles[..., q]`` its
    phi; either may be None, for no such gate. With c, s the cosine and
    sine of theta/2 and C, S those of phi/2, RY(phi) is [[C, -S], [S, C]]
    and RX(theta) = cI - isX, so the product is c RY(phi) - is RY(phi)X:
    [[Cc + iSs, -Sc - iCs], [Sc - iCs, Cc - iSs]], one product per part.
    """
    if ry_angles is None:
        ry = _IDENTITY
    else:
        halves = 0.5 * ry_angles
        cos, sin = np.cos(halves), np.sin(halves)
        ry = np.empty(halves.shape + (2, 2))
        ry[..., 0, 0] = ry[..., 1, 1] = cos
        ry[..., 1, 0] = sin
        np.negative(sin, out=ry[..., 0, 1])
    if rx_angles is None:
        return ry
    halves = 0.5 * rx_angles
    rotations = np.empty(halves.shape + (2, 2), dtype=complex)
    np.multiply(ry, np.cos(halves)[..., None, None], out=rotations.real)
    np.multiply(ry[..., ::-1], -np.sin(halves)[..., None, None], out=rotations.imag)
    return rotations


def _kron(factors: np.ndarray) -> np.ndarray:
    """Kronecker product of the ``factors[..., q, :, :]``, factor q on index bit q.

    One broadcast product per factor puts it on top of those below it, so
    each product's inner loop runs over a whole row of the smaller matrix,
    and each entry is the product of its factors' entries, top one first.
    """
    product = factors[..., 0, :, :]
    for q in range(1, factors.shape[-3]):
        product = (factors[..., q, :, None, :, None] * product[..., None, :, None, :]).reshape(
            product.shape[:-2] + (2 * product.shape[-2], factors.shape[-1] * product.shape[-1]))
    return product


def _kron_groups(rotations: np.ndarray, least: int = 2) -> list:
    """A layer of per-qubit rotations ``(..., n, 2, 2)`` as its balanced qubit groups.

    Returns ``(low, high, matrix)`` per group, low group first, with
    ``matrix[...]`` the Kronecker product R_{high-1} ⊗ ... ⊗ R_low. The n
    qubits split into ceil(n / GROUP_QUBITS) groups whose sizes differ by
    at most one, and into at least ``least`` (at most n): matrices built
    per parameter row take two groups even for a few qubits, 2 * 4^(n/2)
    entries instead of 4^n, while a start block's records share one matrix,
    which is then cheaper whole. The groups of one size are built together.
    """
    n = rotations.shape[-3]
    count = min(n, max(least, -(-n // GROUP_QUBITS)))
    small, extra = divmod(n, count)
    groups, low = [], 0
    for size, number in ((small, count - extra), (small + 1, extra)):
        if not number:
            continue
        part = rotations[..., low:low + size * number, :, :]
        matrices = _kron(part.reshape(part.shape[:-3] + (number, size, 2, 2)))
        groups.extend((low + j * size, low + (j + 1) * size, matrices[..., j, :, :])
                      for j in range(number))
        low += size * number
    return groups


def _rotate_layer(groups, layer: int, n: int, src: np.ndarray, dst: np.ndarray):
    """Apply layer ``layer`` of ``groups`` to the ``(B, 2^n, W)`` block ``src``.

    Each group is one ``np.matmul`` from one buffer into the other, over
    the view that puts the group's qubits on their own axis: a ``(B, K, K)``
    matrix per state, or a ``(1, K, K)`` one all states share, times
    ``(A, K, C)`` slices (A the states of the qubits above the group, C
    those below it times W). With C = 1 the low group is read as rows times
    the transposed matrix, one product per state instead of A. numpy calls
    BLAS once per state and slice with the same shapes whatever B is.
    Returns ``(result, spare)``.
    """
    for low, high, matrix in groups:
        matrix = matrix[:, layer]
        shape = (len(src), 1 << (n - high), 1 << (high - low), src.shape[2] << low)
        if shape[3] == 1:
            np.matmul(src.reshape(shape[:3]), matrix.transpose(0, 2, 1),
                      out=dst.reshape(shape[:3]))
        else:
            np.matmul(matrix[:, None], src.reshape(shape), out=dst.reshape(shape))
        src, dst = dst, src
    return src, dst


def compile_ansatz(ansatz: Ansatz, table: np.ndarray | None = None):
    """Build ``ansatz`` once into a state function ``params -> amplitudes``.

    The function takes a ``(B, P)`` stack of parameter rows and returns a
    ``(2^n, B)`` block whose column ``b`` is the state of row ``b``; a
    ``(P,)`` row is a stack of one and gives a ``(2^n,)`` state. Each column
    has the same bytes whatever the other rows hold, and agrees with
    ``apply_ops(new_zero_state(n), ansatz_ops(ansatz, row))`` to round-off.

    The state is held batch-first, a contiguous 2^n row per parameter row.
    A rotation layer is the Kronecker product of its qubit groups
    (``_kron_groups``), built from each row's angles and applied by
    ``_rotate_layer``; RX+RY rotates each qubit by RY·RX. The first layer
    from |0...0> is the product state of the rotations' first columns, and
    the CNOT ladder is one gather. RY amplitudes stay real.

    The RY and RX+RY functions also take ``start``, a ``(2^n, R)`` block to
    run from instead of |0...0> under one parameter row, and return a
    ``(2^n, R)`` block. Its columns run in chunks of ``RECORD_COLUMNS``, the
    last padded with zeros, so every matmul has one shape whatever R is:
    BLAS picks its kernel by shape, and a column's bytes must not depend on
    how many share the block.

    ``table`` is QAOA's cost energy table, if the caller has built it. The
    buffers of the two latest block shapes are kept; the returned block is
    a copy, and two threads must not call one state function at once.
    """
    if ansatz.kind == "qaoa":
        return _compile_qaoa(ansatz, table)
    n, p = ansatz.n_qubits, ansatz.depth
    dim = 1 << n
    perm = _ladder_permutation(n) if p else None
    real = ansatz.kind == "ry-full-entanglement"
    pair = functools.lru_cache(maxsize=2)(lambda shape, dtype: np.empty((2,) + shape, dtype))

    def layered_state(params, start=None):
        stack = _checked_stack(ansatz, params)
        if start is not None and (len(stack) != 1 or np.ndim(start) != 2
                                  or len(start) != dim):
            raise ValueError(f"start must be a ({dim}, B) block run by one parameter row")
        layers = stack.reshape(len(stack), p + 1, -1)
        rotations = (_rotations(None, layers) if real
                     else _rotations(layers[..., :n], layers[..., n:]))
        if start is None:
            src, dst = pair((len(stack), dim, 1), float if real else complex)
            src[:, :, 0] = _kron(rotations[:, 0, :, :, :1])[..., 0]  # from |0...0>
            groups, first = _kron_groups(rotations[:, 1:]), 1
        else:
            start = np.asarray(start)
            records, width = start.shape[1], RECORD_COLUMNS
            full, rest = divmod(records, width)
            src, dst = pair((full + (rest > 0), dim, width), complex)
            grid = src.transpose(1, 0, 2)  # (2^n, chunks, width)
            grid[:, :full] = start[:, :full * width].reshape(dim, full, width)
            if rest:
                grid[:, full, :rest] = start[:, full * width:]
                grid[:, full, rest:] = 0.0
            groups, first = _kron_groups(rotations, 1), 0
        for layer in range(first, p + 1):
            if layer:
                np.take(src, perm, axis=1, out=dst, mode="clip")
                src, dst = dst, src
            src, dst = _rotate_layer(groups, layer - first, n, src, dst)
        if start is not None:
            return np.array(src.transpose(1, 0, 2)).reshape(dim, -1)[:, :records]
        amps = src[:, :, 0].copy().T
        return amps if np.ndim(params) == 2 else amps[:, 0]

    return layered_state


def _compile_qaoa(ansatz: Ansatz, table: np.ndarray | None = None):
    """``compile_ansatz`` for the QAOA kind.

    Every cost term is a product of Z factors, so a level's cost layer is
    one diagonal: each amplitude is multiplied by exp(-i gamma C), with C
    ``table`` or else ``ansatz.cost.energy_table(n)``; its offset is a
    global phase. The mixer is the RX(2 beta) layer, applied by qubit group
    as ``compile_ansatz``'s rotation layers are, to the uniform start state.
    """
    n, p = ansatz.n_qubits, ansatz.depth
    dim = 1 << n
    energies = ansatz.cost.energy_table(n) if table is None else table
    buffers = functools.lru_cache(maxsize=2)(
        lambda width: np.empty((3, width, dim, 1), dtype=complex))

    def qaoa_state(params):
        stack = _checked_stack(ansatz, params)
        src, dst, phases = buffers(len(stack))
        mixers = _kron_groups(_rotations(np.repeat(2.0 * stack[:, p:, None], n, axis=2), None))
        src.fill(math.sqrt(0.5) ** n)  # H on every qubit of |0...0>
        for level in range(p):
            np.multiply.outer(-1j * stack[:, level], energies, out=phases[:, :, 0])
            np.exp(phases, out=phases)
            src *= phases
            src, dst = _rotate_layer(mixers, level, n, src, dst)
        amps = src[:, :, 0].copy().T
        return amps if np.ndim(params) == 2 else amps[:, 0]

    return qaoa_state


def prepare_state(ansatz: Ansatz, params) -> Statevector:
    amps = compile_ansatz(ansatz)(params)
    return Statevector(ansatz.n_qubits, amps.astype(complex, copy=False))


def bitstring_of(index: int, n: int) -> str:
    """Bit i of the basis index becomes character i of the string."""
    return "".join(str((index >> q) & 1) for q in range(n))


def sample_solutions(state: Statevector, table: np.ndarray,
                     top_k: int) -> list[tuple[str, float, float]]:
    """Most probable basis states with exact probabilities and energies from ``table``."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    probs = basis_probabilities(state)
    order = np.lexsort((np.arange(probs.size), -probs))[:top_k]
    return [(bitstring_of(int(i), state.n_qubits), float(probs[i]), float(table[i]))
            for i in order]


@dataclass(frozen=True)
class VariationalResult:
    best_value: float
    best_params: np.ndarray
    top_states: list[tuple[str, float, float]]
    trace: list[float]
    state: Statevector


def _initial_params(ansatz: Ansatz, rng: np.random.Generator) -> np.ndarray:
    if ansatz.kind == "qaoa":
        return rng.uniform(0.0, math.pi, size=ansatz.parameter_count)
    return rng.uniform(-math.pi, math.pi, size=ansatz.parameter_count)


def vqe_minimize(observable: IsingObservable, ansatz: Ansatz,
                 optimizer: OptimizerConfig, top_k: int = 8) -> VariationalResult:
    """Classical loop over exact statevector expectations; restarts keep the best outcome.

    The returned trace is the winning restart's best-so-far curve, which is
    nonincreasing by construction.

    The objective handed to the optimizer carries a ``rows`` attribute (see
    ``optimizers``): ``objective.rows(stack)`` evaluates a ``(B, P)`` stack
    from state blocks of at most ``BLOCK_AMPLITUDES`` amplitudes and returns
    the B values in row order, each equal bit for bit to
    ``objective(row)``. The bound keeps a stack of wide rows, such as a
    Nelder-Mead simplex, from holding every row's state at once. Each state
    is read out as a contiguous 1-D row, as a single state is, not as a
    matrix-vector product, whose sums may round differently.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if observable.max_qubit() >= ansatz.n_qubits:
        raise ValueError("observable support exceeds the ansatz register")
    table = observable.energy_table(ansatz.n_qubits)
    state_of = compile_ansatz(ansatz, table if ansatz.cost is observable else None)

    chunk = max(1, BLOCK_AMPLITUDES >> ansatz.n_qubits)

    def rows(stack):
        stack = np.asarray(stack, dtype=float)
        values = []
        for at in range(0, len(stack), chunk):
            # columns copied out as contiguous 1-D rows, read in row order
            block = np.ascontiguousarray(state_of(stack[at:at + chunk]).T)
            values.extend(float(np.abs(amps) ** 2 @ table) for amps in block)
        return values

    def objective(params):
        return rows([params])[0]

    objective.rows = rows
    best = minimize_restarts(objective, functools.partial(_initial_params, ansatz), optimizer)
    state = Statevector(ansatz.n_qubits, state_of(best.x).astype(complex, copy=False))
    return VariationalResult(
        best_value=best.value,
        best_params=best.x,
        top_states=sample_solutions(state, table, min(top_k, state.dim)),
        trace=best.trace,
        state=state,
    )


def qaoa_minimize(observable: IsingObservable, p: int, optimizer: OptimizerConfig,
                  n_qubits: int | None = None, top_k: int = 8) -> VariationalResult:
    """VQE loop over the QAOA ansatz of depth p on the given cost observable."""
    if n_qubits is None:
        n_qubits = observable.max_qubit() + 1
    if p == 0:
        # degenerate: uniform superposition, no parameters to tune
        table = observable.energy_table(n_qubits)
        uniform = compile_ansatz(qaoa_ansatz(n_qubits, 0, observable), table)
        state = Statevector(n_qubits, uniform(np.zeros(0)))
        value = float(basis_probabilities(state) @ table)
        return VariationalResult(
            best_value=value, best_params=np.zeros(0),
            top_states=sample_solutions(state, table, min(top_k, state.dim)),
            trace=[value], state=state)
    return vqe_minimize(observable, qaoa_ansatz(n_qubits, p, observable),
                        optimizer, top_k=top_k)


def minimize_qubo(qubo: Qubo, solver: str, depth: int, optimizer: OptimizerConfig,
                  top_k: int) -> tuple[np.ndarray, float, VariationalResult]:
    """(bits, energy, run) of the lowest-energy of a run's ``top_k`` most probable states.

    ``solver`` is ``"vqe"`` (an RY ansatz of ``depth`` layers) or ``"qaoa"`` (``depth`` levels).
    """
    observable = to_ising(qubo)
    if solver == "vqe":
        result = vqe_minimize(observable, ry_ansatz(qubo.n, depth), optimizer, top_k=top_k)
    else:
        result = qaoa_minimize(observable, depth, optimizer, n_qubits=qubo.n, top_k=top_k)
    bits, _, energy = min(result.top_states, key=lambda entry: entry[2])
    return np.array([int(ch) for ch in bits]), energy, result
