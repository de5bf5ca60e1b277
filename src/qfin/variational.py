"""VQE and QAOA over diagonal observables, with exact expectations.

Ansatz families: RY rotation layers with full-entanglement CNOT ladders,
RX+RY layers with the same ladder (the classifier separator), and the QAOA
alternation of cost-phase and X-mixer evolutions starting from the uniform
superposition. Expectations are computed from the statevector, so the
classical optimizer sees a noiseless objective.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .optimizers import OptimizeOutcome, OptimizerConfig, minimize_restarts
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

# Most qubits one group of a rotation layer spans (see ``_groups``).
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


def _rotation_steps(angles: np.ndarray, out: np.ndarray, steps: list, rx: bool, ry: bool):
    """Steps that write ``out[..., q, i, j]`` = m_ij of qubit q's RY(phi)·RX(theta).

    ``angles[..., :n]`` are the qubits' thetas when ``rx`` and
    ``angles[..., -n:]`` their phis when ``ry``; without one kind there is
    no such gate. With c, s the cosine and sine of theta/2 and C, S those
    of phi/2, RY(phi) is [[C, -S], [S, C]] and RX(theta) = cI - isX, so the
    product is c RY(phi) - is RY(phi)X: [[Cc + iSs, -Sc - iCs],
    [Sc - iCs, Cc - iSs]], one product per part.
    """
    n = out.shape[-3]
    halves, cos, sin = np.empty((3,) + angles.shape)
    steps += [partial(np.multiply, 0.5, angles, halves),
              partial(np.cos, halves, cos), partial(np.sin, halves, sin)]
    m = np.eye(2)
    if ry:
        m, c, s = np.empty(out.shape) if rx else out, cos[..., -n:], sin[..., -n:]
        steps += [partial(np.copyto, m[..., 0, 0], c), partial(np.copyto, m[..., 1, 1], c),
                  partial(np.copyto, m[..., 1, 0], s), partial(np.negative, s, m[..., 0, 1])]
    if rx:
        steps += [partial(np.negative, sin[..., :n], sin[..., :n]),
                  partial(np.multiply, m, cos[..., :n, None, None], out.real),
                  partial(np.multiply, m[..., ::-1], sin[..., :n, None, None], out.imag)]


def _kron_steps(factors: np.ndarray, products: list, steps: list):
    """Steps that build Kronecker products of ``factors[..., q, :, :]``, factor q on index bit q.

    ``products[q - 1]`` receives the product of factors 0 to q. One broadcast
    multiply per factor puts it on top of the product below it, so each
    multiply's inner loop runs over a whole row of the smaller matrix, and
    each entry is the product of its factors' entries, top one first.
    """
    below = factors[..., 0, :, :]
    for q, product in enumerate(products, 1):
        top, lower = factors[..., q, :, None, :, None], below[..., None, :, None, :]
        view = np.reshape(product, np.broadcast_shapes(top.shape, lower.shape), copy=False)
        steps.append(partial(np.multiply, top, lower, view))
        below = product


def _groups(n: int, least: int) -> list[tuple[int, int, int]]:
    """An n-qubit rotation layer's balanced qubit groups, as runs ``(low, size, number)``.

    The n qubits split into ceil(n / GROUP_QUBITS) groups whose sizes differ
    by at most one, and into at least ``least`` (at most n): matrices built
    per parameter row take two groups even for a few qubits, 2 * 4^(n/2)
    entries instead of 4^n, while a start block's records share one matrix,
    which is then cheaper whole. A run holds ``number`` groups of ``size``
    qubits from qubit ``low`` up, smaller groups first.
    """
    count = min(n, max(least, -(-n // GROUP_QUBITS)))
    small, extra = divmod(n, count)
    runs = ((0, small, count - extra), (small * (count - extra), small + 1, extra))
    return [run for run in runs if run[2]]


def _group_matrices(rotations: np.ndarray, runs, steps: list) -> list:
    """Each run's matrices ``[..., j, K, K]``, group j's R_{high-1} ⊗ ... ⊗ R_low of its
    qubits' ``rotations[..., q, :, :]``, built together by the steps appended to ``steps``."""
    matrices = []
    for low, size, number in runs:
        part = np.reshape(rotations[..., low:low + size * number, :, :],
                          rotations.shape[:-3] + (number, size, 2, 2), copy=False)
        products = [np.empty(part.shape[:-3] + (2 << q, 2 << q), rotations.dtype)
                    for q in range(1, size)]
        _kron_steps(part, products, steps)
        matrices.append(products[-1] if products else part[..., 0, :, :])
    return matrices


def _layer_steps(n: int, runs, matrices, layer: int, state, at: int, steps: list) -> int:
    """Steps that apply layer ``layer`` of the group ``matrices`` to the block in ``state[at]``.

    ``state`` is a ping-pong pair of ``(B, 2^n, W)`` blocks. Each group is one
    ``np.matmul`` from one buffer into the other, over the view that puts the
    group's qubits on their own axis: a ``(B, 1, K, K)`` matrix per state
    times ``(B, A, K, C)`` slices (A the states of the qubits above the
    group, C those below it times W), or, with C = 1, the low group read as
    ``(B, A, K)`` rows times the transposed matrix, one product per state
    instead of A. numpy calls BLAS once per state and slice with the same
    shapes whatever B is. Returns the buffer the layer ends in.
    """
    rows, _, width = state.shape[1:]
    for (low, size, number), run in zip(runs, matrices):
        for j in range(number):
            high = low + (j + 1) * size
            view = (rows, 1 << (n - high), 1 << size, width << (high - size))
            matrix, view = run[:, layer, j], view[:3] if view[3] == 1 else view
            src, dst = state[at].reshape(view), state[1 - at].reshape(view)
            pair = (src, matrix.transpose(0, 2, 1)) if len(view) == 3 else (matrix[:, None], src)
            steps.append(partial(np.matmul, *pair, dst))
            at ^= 1
    return at


def _run(plan: tuple, stack: np.ndarray) -> np.ndarray:
    """Copy ``stack`` into a plan's parameter buffer, run its steps and return its last block."""
    params, steps, _, last = plan
    params[...] = stack
    for step in steps:
        step()
    return last


def compile_ansatz(ansatz: Ansatz, table: np.ndarray | None = None):
    """Build ``ansatz`` once into a state function ``params -> amplitudes``.

    The function takes a ``(B, P)`` stack of parameter rows and returns a
    ``(2^n, B)`` block whose column ``b`` is the state of row ``b``; a
    ``(P,)`` row is a stack of one and gives a ``(2^n,)`` state. Each column
    has the same bytes whatever the other rows hold, and agrees with
    ``apply_ops(new_zero_state(n), ansatz_ops(ansatz, row))`` to round-off.

    The state is held batch-first, a contiguous 2^n row per parameter row.
    A rotation layer is the Kronecker product of its qubit groups
    (``_groups``, by ``GROUP_QUBITS`` at compile time), built from each
    row's angles and applied by one matmul per group; RX+RY rotates each
    qubit by RY·RX. The first layer from |0...0> is the product state of the
    rotations' first columns, and the CNOT ladder is one gather. RY
    amplitudes stay real.

    Each block shape gets a plan on its first call: its buffers, and the
    numpy calls between them with their views bound (the steps). A call
    copies its rows in, runs the steps and returns a copy of the result. The
    plans of the two latest block shapes are kept; two threads must not call
    one state function at once.

    The RY and RX+RY functions also take ``start``, a ``(2^n, R)`` block to
    run from instead of |0...0> under one parameter row, and return a
    ``(2^n, R)`` block. Its columns run in chunks of ``RECORD_COLUMNS``, the
    last padded with zeros, so every matmul has one shape whatever R is:
    BLAS picks its kernel by shape, and a column's bytes must not depend on
    how many share the block.

    ``table`` is QAOA's cost energy table, if the caller has built it.
    """
    if ansatz.kind == "qaoa":
        return _compile_qaoa(ansatz, table)
    n, p = ansatz.n_qubits, ansatz.depth
    dim = 1 << n
    perm = _ladder_permutation(n) if p else None
    real = ansatz.kind == "ry-full-entanglement"
    row_runs, start_runs = _groups(n, 2), _groups(n, 1)

    @lru_cache(maxsize=2)
    def plan(rows: int, start: bool):
        """``rows`` parameter rows from |0...0>, or a start block of ``rows`` chunks."""
        params = np.empty((1 if start else rows, ansatz.parameter_count))
        layers, steps = params.reshape(len(params), p + 1, -1), []
        rotations = np.empty(layers.shape[:2] + (n, 2, 2), float if real else complex)
        _rotation_steps(layers, rotations, steps, rx=not real, ry=True)
        state = np.empty((2, rows, dim, RECORD_COLUMNS if start else 1),
                         complex if start or not real else float)
        if not start:  # the product state, doubled up so that its last product lands in state[0]
            columns = rotations[:, 0, :, :, :1]
            _kron_steps(columns, [state[(n - 1 - q) % 2, :, :2 << q] for q in range(1, n)], steps)
            if n == 1:
                steps.append(partial(np.copyto, state[0], columns[:, 0]))
            rotations = rotations[:, 1:]
        runs, first = (start_runs, 0) if start else (row_runs, 1)
        matrices, at = _group_matrices(rotations, runs, steps), 0
        for layer in range(first, p + 1):
            if layer:
                steps.append(partial(state[at].take, perm, 1, state[1 - at], "clip"))
                at ^= 1
            at = _layer_steps(n, runs, matrices, layer - first, state, at, steps)
        return params, steps, state, state[at]

    def layered_state(params, start=None):
        stack = _checked_stack(ansatz, params)
        if start is None:
            amps = _run(plan(len(stack), False), stack)[:, :, 0].copy().T
            return amps if np.ndim(params) == 2 else amps[:, 0]
        if len(stack) != 1 or np.ndim(start) != 2 or len(start) != dim:
            raise ValueError(f"start must be a ({dim}, B) block run by one parameter row")
        start = np.asarray(start)
        records, width = start.shape[1], RECORD_COLUMNS
        full, rest = divmod(records, width)
        planned = plan(full + (rest > 0), True)
        grid = planned[2][0].transpose(1, 0, 2)  # (2^n, chunks, width)
        grid[:, :full] = start[:, :full * width].reshape(dim, full, width)
        if rest:
            grid[:, full, :rest] = start[:, full * width:]
            grid[:, full, rest:] = 0.0
        block = _run(planned, stack).transpose(1, 0, 2)
        return np.array(block).reshape(dim, -1)[:, :records]

    return layered_state


def _compile_qaoa(ansatz: Ansatz, table: np.ndarray | None = None):
    """``compile_ansatz`` for the QAOA kind.

    Every cost term is a product of Z factors, so a level's cost layer is
    one diagonal: each amplitude is multiplied by exp(-i gamma C), with C
    ``table`` or else ``ansatz.cost.energy_table(n)``; its offset is a
    global phase; it is computed into the spare state buffer. The mixer is
    the RX(2 beta) layer, applied by qubit group as ``compile_ansatz``'s
    rotation layers are, to the uniform start state; every qubit turns by
    the same RX(2 beta), so a group's matrix is a power of one factor.
    """
    n, p = ansatz.n_qubits, ansatz.depth
    dim = 1 << n
    energies = ansatz.cost.energy_table(n) if table is None else table
    runs = _groups(n, 2)

    @lru_cache(maxsize=2)
    def plan(rows: int):
        params, gammas = np.empty((rows, 2 * p)), np.empty((rows, p, 1), complex)
        turns, factor = np.empty((rows, p, 1)), np.empty((rows, p, 1, 2, 2), complex)
        state = np.empty((2, rows, dim, 1), complex)
        steps = [partial(np.multiply, 2.0, params[:, p:, None], turns)]
        _rotation_steps(turns, factor, steps, rx=True, ry=False)
        powers = [factor] + [np.empty((rows, p, 1, 2 << q, 2 << q), complex)
                             for q in range(1, runs[-1][1])]
        _kron_steps(np.broadcast_to(factor[:, :, None], (rows, p, 1, len(powers), 2, 2)),
                    powers[1:], steps)
        mixers = [np.broadcast_to(powers[size - 1], (rows, p, number) + powers[size - 1].shape[3:])
                  for _, size, number in runs]
        steps += [partial(np.multiply, -1j, params[:, :p, None], gammas),
                  partial(state[0].fill, math.sqrt(0.5) ** n)]  # H on every qubit of |0...0>
        at = 0
        for level in range(p):
            amps, phases = state[at], state[1 - at]
            steps += [partial(np.multiply, gammas[:, level], energies, phases[:, :, 0]),
                      partial(np.exp, phases, phases), partial(np.multiply, amps, phases, amps)]
            at = _layer_steps(n, runs, mixers, level, state, at, steps)
        return params, steps, state, state[at]

    def qaoa_state(params):
        stack = _checked_stack(ansatz, params)
        amps = _run(plan(len(stack)), stack)[:, :, 0].copy().T
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
    evaluations: int  # the winning run's objective calls, as ``OptimizeOutcome`` counts them
    stop_reason: str  # its ``OptimizeOutcome.stop_reason``; "none" when nothing was tuned


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
    Nelder-Mead simplex, from holding every row's state at once. A block is
    squared once, and each state's probabilities are read out as a
    contiguous 1-D row, as a single state's are, not as a matrix-vector
    product, whose sums may round differently.
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
            # the block's columns are contiguous 1-D rows of its transpose
            probs = np.abs(state_of(stack[at:at + chunk]).T)
            values += [float(row @ table) for row in np.square(probs, out=probs)]
        return values

    def objective(params):
        return rows([params])[0]

    objective.rows = rows
    if ansatz.parameter_count:
        best = minimize_restarts(objective, partial(_initial_params, ansatz), optimizer)
    else:  # QAOA at p = 0: the uniform superposition, nothing to tune
        value = objective(np.zeros(0))
        best = OptimizeOutcome(np.zeros(0), value, [value], evaluations=1, stop_reason="none")
    state = Statevector(ansatz.n_qubits, state_of(best.x).astype(complex, copy=False))
    return VariationalResult(
        best_value=best.value,
        best_params=best.x,
        top_states=sample_solutions(state, table, min(top_k, state.dim)),
        trace=best.trace,
        state=state,
        evaluations=best.evaluations,
        stop_reason=best.stop_reason,
    )


def qaoa_minimize(observable: IsingObservable, p: int, optimizer: OptimizerConfig,
                  n_qubits: int | None = None, top_k: int = 8) -> VariationalResult:
    """VQE loop over the QAOA ansatz of depth p on the given cost observable.

    At p = 0 the state is the uniform superposition, evaluated once.
    """
    if n_qubits is None:
        n_qubits = observable.max_qubit() + 1
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
