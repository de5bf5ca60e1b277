"""VQE and QAOA over diagonal observables given as energy tables, with exact expectations.

Ansatz families: RY rotation layers with full-entanglement CNOT ladders,
RX+RY layers with the same ladder (the classifier separator), and the QAOA
alternation of cost-phase and X-mixer evolutions starting from the uniform
superposition. Expectations are computed from the statevector, so the
classical optimizer sees a noiseless objective.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .optimizers import OptimizeOutcome, OptimizerConfig, minimize_restarts
from .qubo import lowest_energy
from .simulator import GateOp, Statevector, cnot, h, phase_gate, rx, ry

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


def _checked_table(table, n_qubits: int) -> np.ndarray:
    """``table`` as a float array of one finite energy per basis state of ``n_qubits`` qubits,
    checked by its min and max (NaN propagates), which take no 2^n temporary."""
    table = np.asarray(table, dtype=float)
    if table.shape != (1 << n_qubits,) or not np.isfinite([table.min(), table.max()]).all():
        raise ValueError(f"energy table must hold {1 << n_qubits} finite energies")
    return table


@dataclass(frozen=True)
class Ansatz:
    kind: str
    n_qubits: int
    depth: int
    # QAOA's cost C as its energy table, indexed by basis index; an array does not hash
    cost: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in ANSATZ_KINDS:
            raise ValueError(f"kind must be one of {ANSATZ_KINDS}")
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if not 0 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must lie in [0, {MAX_DEPTH}]")
        if self.kind == "qaoa":
            object.__setattr__(self, "cost", _checked_table(self.cost, self.n_qubits))

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


def qaoa_ansatz(n_qubits: int, p: int, cost: np.ndarray) -> Ansatz:
    return Ansatz("qaoa", n_qubits, p, cost=cost)


def _entangler(n: int) -> list[GateOp]:
    """Full entanglement: CNOT from each qubit i to every j > i."""
    return [cnot(i, j) for i in range(n) for j in range(i + 1, n)]


def _ladder_permutation(n: int) -> np.ndarray:
    """Gather index of the CNOT ladder: ``amps[perm]`` applies ``_entangler(n)``.

    One CNOT maps amplitude ``k`` from ``k ^ (bit_c(k) << t)``; composing the
    ladder's maps last gate first gives the whole ladder's source index. Each
    map is linear over GF(2), so the index is the XOR of the images of k's
    bits: composed on the n basis indices, then filled by doubling.
    """
    columns = [1 << q for q in range(n)]
    for control in reversed(range(n)):  # the ladder's CNOTs, last first
        for target in reversed(range(control + 1, n)):
            columns = [k ^ (((k >> control) & 1) << target) for k in columns]
    perm = np.zeros(1 << n, dtype=np.intp)
    for q, column in enumerate(columns):
        np.bitwise_xor(perm[:1 << q], column, out=perm[1 << q:2 << q])
    return perm


def cost_phase_ops(cost: np.ndarray, gamma: float) -> list[GateOp]:
    """exp(-i gamma C) for C's energy table ``cost``, as one diagonal phase over every qubit."""
    return [phase_gate(range(cost.size.bit_length() - 1), -gamma * cost)]


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


def _rotation_steps(halves: np.ndarray, out: np.ndarray, steps: list, rx: bool, ry: bool):
    """Steps that write ``out[..., q, i, j]`` = m_ij of qubit q's RY(phi)·RX(theta).

    ``halves[..., :n]`` are the qubits' theta/2 when ``rx`` and
    ``halves[..., -n:]`` their phi/2 when ``ry``; without one kind there is
    no such gate. With c, s the cosine and sine of theta/2 and C, S those
    of phi/2, RY(phi) is [[C, -S], [S, C]] and RX(theta) = cI - isX, so the
    product is c RY(phi) - is RY(phi)X: [[Cc + iSs, -Sc - iCs],
    [Sc - iCs, Cc - iSs]], one product per part.
    """
    n = out.shape[-3]
    cos, sin = np.empty((2,) + halves.shape)
    steps += [partial(np.cos, halves, cos), partial(np.sin, halves, sin)]
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
    qubits' ``rotations[..., q, :, :]``, built together by the steps appended to ``steps``.
    When every qubit turns alike (a stride-0 qubit axis, as QAOA's mixer has), the groups
    share one chain of products, built once for the largest group."""
    matrices, products, shared = [], [], rotations.strides[-3] == 0
    for low, size, number in reversed(runs):
        part = np.reshape(rotations[..., low:low + size * number, :, :],
                          rotations.shape[:-3] + (number, size, 2, 2), copy=False)
        part = part[..., :1, :, :, :] if shared else part
        if not (shared and products):
            products = [np.empty(part.shape[:-3] + (2 << q, 2 << q), rotations.dtype)
                        for q in range(1, size)]
            _kron_steps(part, products, steps)
        matrix = products[size - 2] if size > 1 else part[..., 0, :, :]
        matrices.insert(0, np.broadcast_to(matrix, part.shape[:-4] + (number,) + matrix.shape[-2:]))
    return matrices


def _layer_steps(n: int, runs, matrices, layer: int, state, at: int, steps: list,
                 source=None) -> int:
    """Steps that apply layer ``layer`` of the group ``matrices`` to the block in ``state[at]``,
    or in ``source``, a block of ``state``'s shape that the first matmul reads and no step writes.

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
            src = (state[at] if source is None else source).reshape(view)
            dst = state[1 - at].reshape(view)
            pair = (src, matrix.transpose(0, 2, 1)) if len(view) == 3 else (matrix[:, None], src)
            steps.append(partial(np.matmul, *pair, dst))
            at, source = at ^ 1, None
    return at


def _readout_steps(state: np.ndarray, at: int, steps: list) -> np.ndarray:
    """Steps that square the magnitudes of the block in ``state[at]`` into the spare
    buffer ``state[1 - at]``; returns the squares, a contiguous 2^n row per state,
    which a complex spare holds in the first 2^n floats of each of its rows."""
    amps, spare = state[at, :, :, 0], state[1 - at]
    if spare.dtype == float:
        probs = spare[:, :, 0]
        steps.append(partial(np.square, amps, probs))
    else:
        probs = spare.view(float).reshape(len(spare), -1)[:, :amps.shape[1]]
        steps += [partial(np.abs, amps, probs), partial(np.square, probs, probs)]
    return probs


def _record_readout_steps(state: np.ndarray, at: int, records: int, steps: list) -> np.ndarray:
    """Steps that square the magnitudes of the first ``records`` columns of the
    chunked block ``state[at]``, ``(chunks, 2^n, RECORD_COLUMNS)``, into a C-contiguous
    ``(2^n, records)`` float block laid over the spare buffer ``state[1 - at]``;
    returns that block, the layout ``np.abs(block) ** 2`` has for the block as columns."""
    last, (dim, width) = state[at], state.shape[2:]
    probs = state[1 - at].view(float).reshape(-1)[:dim * records].reshape(dim, records)
    full, rest = divmod(records, width)
    if full:
        steps.append(partial(np.abs, last[:full].transpose(1, 0, 2),
                             probs[:, :full * width].reshape(dim, full, width, copy=False)))
    if rest:
        steps.append(partial(np.abs, last[full, :, :rest], probs[:, full * width:]))
    steps.append(partial(np.square, probs, probs))
    return probs


def _run(plan: tuple, stack) -> np.ndarray:
    """Copy ``stack`` into a plan's parameter buffer, run its steps and return its last block."""
    params, steps, _, last, _ = plan
    params[...] = stack
    for step in steps:
        step()
    return last


def compile_ansatz(ansatz: Ansatz):
    """Build ``ansatz`` once into a state function ``params -> amplitudes``.

    The function takes a ``(B, P)`` stack of parameter rows and returns a
    ``(2^n, B)`` block whose column ``b`` is the state of row ``b``; a
    ``(P,)`` row is a stack of one and gives a ``(2^n,)`` state. Each column
    has the same bytes whatever the other rows hold, and agrees with
    ``apply_ops(new_zero_state(n), ansatz_ops(ansatz, row))`` to round-off.

    The state is held batch-first, a contiguous 2^n row per parameter row.
    A rotation layer is the Kronecker product of its qubit groups
    (``_groups``, by ``GROUP_QUBITS`` at compile time), built from each
    row's factors by ``_group_matrices`` and applied by one matmul per group.
    The kinds differ in three places. RY and RX+RY start from the product
    state of the first layer's first columns, QAOA from the uniform
    superposition. RX+RY's factor is RY·RX (RY amplitudes stay real); QAOA's
    is one RX(2 beta) per level, broadcast over the qubits, beta read from
    the parameter buffer as its half-angle. Between layers, RY and RX+RY run
    the CNOT ladder as one gather; QAOA multiplies by the diagonal
    exp(-i gamma C), built in the spare state buffer from C's energy table
    ``ansatz.cost``.

    Each block shape gets a plan on its first call: its buffers, and the
    numpy calls between them with their views bound (the steps). A call
    copies its rows in, runs the steps and returns a copy of the result. The
    plans of the two latest block shapes are kept; two threads must not call
    one state function at once. The function's ``plan(rows)`` is the plan of
    a ``(rows, P)`` stack, ``(params, steps, state, last, probs)``: ``last``
    is the block the state ends in, and the last steps square its
    magnitudes into ``probs``, the spare buffer (``_readout_steps``), for
    ``vqe_minimize`` to read.

    For RY and RX+RY, ``records(start)`` is the plan of a ``(2^n, R)`` start
    block run under one parameter row instead of |0...0>, a plan of its own
    that holds the block for as long as it is kept. The block is copied in
    once, in chunks of ``RECORD_COLUMNS`` columns, the last padded with
    zeros, so every matmul has one shape whatever R is: BLAS picks its
    kernel by shape, and a column's bytes must not depend on how many share
    the block. The first layer reads that copy, which no step writes, so a
    call copies its row into ``params`` and runs the steps, and nothing
    else. ``last`` then holds the chunked states, and ``probs`` their
    squared magnitudes as a C-contiguous ``(2^n, R)`` block over the spare
    buffer (``_record_readout_steps``), column r record r.
    """
    n, p = ansatz.n_qubits, ansatz.depth
    dim = 1 << n
    qaoa, real = ansatz.kind == "qaoa", ansatz.kind == "ry-full-entanglement"
    perm = _ladder_permutation(n) if p and not qaoa else None

    def build(rows: int, source: np.ndarray | None = None, count: int = 0):
        """``rows`` parameter rows from the kind's start, or one row over the
        ``rows`` chunks of ``source``, whose first ``count`` columns are read out."""
        start = source is not None
        params = np.empty((1 if start else rows, ansatz.parameter_count))
        state = np.empty((2, rows, dim, RECORD_COLUMNS if start else 1),
                         complex if start or not real else float)
        # QAOA's beta is RX(2 beta)'s half-angle; other angles are halved in place per call
        steps = [] if qaoa else [partial(np.multiply, 0.5, params, params)]
        halves = params[:, p:, None] if qaoa else params.reshape(len(params), p + 1, -1)
        factors = np.empty(halves.shape[:2] + (1 if qaoa else n, 2, 2), float if real else complex)
        _rotation_steps(halves, factors, steps, rx=not real, ry=not qaoa)
        rotations = np.broadcast_to(factors, halves.shape[:2] + (n, 2, 2))
        if qaoa:
            gammas = np.empty((rows, p, 1), complex)
            steps += [partial(np.multiply, -1j, params[:, :p, None], gammas),
                      partial(state[0].fill, math.sqrt(0.5) ** n)]  # H on every qubit of |0...0>
        elif not start:  # the product state, doubled up so its last product lands in state[0]
            columns = rotations[:, 0, :, :, :1]
            _kron_steps(columns, [state[(n - 1 - q) % 2, :, :2 << q] for q in range(1, n)], steps)
            if n == 1:
                steps.append(partial(np.copyto, state[0], columns[:, 0]))
            rotations = rotations[:, 1:]
        runs = _groups(n, 1 if start else 2)
        matrices, at = _group_matrices(rotations, runs, steps), 0
        for layer in range(rotations.shape[1]):
            if qaoa:  # exp(-i gamma C) in the spare buffer, then onto the state
                amps, phases = state[at], state[1 - at]
                steps += [partial(np.multiply, gammas[:, layer], ansatz.cost, phases[:, :, 0]),
                          partial(np.exp, phases, phases), partial(np.multiply, amps, phases, amps)]
            elif layer or not start:
                steps.append(partial(state[at].take, perm, 1, state[1 - at], "clip"))
                at ^= 1
            at = _layer_steps(n, runs, matrices, layer, state, at, steps,
                              source if start and not layer else None)
        probs = (_record_readout_steps(state, at, count, steps) if start
                 else _readout_steps(state, at, steps))
        return params, steps, state, state[at], probs

    plan = lru_cache(maxsize=2)(build)

    def records(start) -> tuple:
        if qaoa or np.ndim(start) != 2 or len(start) != dim:
            raise ValueError(f"start must be a ({dim}, R) block run by an RY or RX+RY row")
        start = np.asarray(start)
        count, width = start.shape[1], RECORD_COLUMNS
        full, rest = divmod(count, width)
        source = np.zeros((full + (rest > 0), dim, width), complex)
        grid = source.transpose(1, 0, 2)  # (2^n, chunks, width)
        grid[:, :full] = start[:, :full * width].reshape(dim, full, width)
        if rest:
            grid[:, full, :rest] = start[:, full * width:]
        return build(len(source), source, count)

    def state_function(params):
        stack = _checked_stack(ansatz, params)
        amps = _run(plan(len(stack)), stack)[:, :, 0].copy().T
        return amps if np.ndim(params) == 2 else amps[:, 0]

    state_function.plan, state_function.records = plan, records
    return state_function


def prepare_state(ansatz: Ansatz, params) -> Statevector:
    amps = compile_ansatz(ansatz)(params)
    return Statevector(ansatz.n_qubits, amps.astype(complex, copy=False))


def bitstring_of(index: int, n: int) -> str:
    """Bit i of the basis index becomes character i of the string."""
    return "".join(str((index >> q) & 1) for q in range(n))


def sample_solutions(probs: np.ndarray, table: np.ndarray,
                     top_k: int) -> list[tuple[str, float, float]]:
    """The ``top_k`` most probable basis states of the 2^n ``probs`` (all, if fewer;
    equal probabilities by index) with their probabilities and energies from ``table``.
    Only the states at or above the k-th largest probability are sorted, so no 2^n
    sort keys are held."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    n, k = probs.size.bit_length() - 1, min(top_k, probs.size)
    candidates = np.flatnonzero(probs >= np.partition(probs, -k)[-k])
    order = candidates[np.lexsort((candidates, -probs[candidates]))][:k]
    return [(bitstring_of(int(i), n), float(probs[i]), float(table[i])) for i in order]


@dataclass(frozen=True)
class VariationalResult:
    best_value: float
    best_params: np.ndarray
    top_states: list[tuple[str, float, float]]
    trace: list[float]
    evaluations: int  # the winning run's objective calls, as ``OptimizeOutcome`` counts them
    stop_reason: str  # its ``OptimizeOutcome.stop_reason``; "none" when nothing was tuned


def _initial_params(ansatz: Ansatz, rng: np.random.Generator) -> np.ndarray:
    if ansatz.kind == "qaoa":
        return rng.uniform(0.0, math.pi, size=ansatz.parameter_count)
    return rng.uniform(-math.pi, math.pi, size=ansatz.parameter_count)


def vqe_minimize(table: np.ndarray, ansatz: Ansatz,
                 optimizer: OptimizerConfig, top_k: int = 8) -> VariationalResult:
    """Classical loop over exact expectations of the energy table ``table``; restarts keep the best.

    The returned trace is the winning restart's best-so-far curve, which is
    nonincreasing by construction.

    The objective handed to the optimizer carries a ``rows`` attribute (see
    ``optimizers``): ``objective.rows(stack)`` evaluates a ``(B, P)`` stack
    from state blocks of at most ``BLOCK_AMPLITUDES`` amplitudes and returns
    the B values in row order, each equal bit for bit to
    ``objective(row)``. The bound keeps a stack of wide rows, such as a
    Nelder-Mead simplex, from holding every row's state at once. Each chunk
    of rows is copied into the plan of its shape (``compile_ansatz``), whose
    last steps square the block's magnitudes into the spare state buffer;
    each state's probabilities are read there as a contiguous 1-D row dotted
    with the energy table, as a single state's are: one ``np.vecdot`` runs
    the per-row dot products into a held vector, not a matrix-vector
    product or a strided column, whose sums may round differently. The
    stack is a float array or a list of rows (a single point comes as a
    list of one), converted by the copy alone. The best row is run once more
    through the plan of one row, and ``sample_solutions`` reads the top
    states off the probabilities that plan squared, so no state is copied
    out or squared again.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    table = _checked_table(table, ansatz.n_qubits)
    chunk, plan = max(1, BLOCK_AMPLITUDES >> ansatz.n_qubits), compile_ansatz(ansatz).plan
    held = np.empty(chunk)

    def rows(stack):
        values = []
        for at in range(0, len(stack), chunk):
            block = stack[at:at + chunk]
            planned = plan(len(block))
            _run(planned, block)
            values += np.vecdot(planned[4], table, out=held[:len(block)]).tolist()
        return values

    def objective(params):
        return rows([params])[0]

    objective.rows = rows
    if ansatz.parameter_count:
        best = minimize_restarts(objective, partial(_initial_params, ansatz), optimizer)
    else:  # QAOA at p = 0: the uniform superposition, nothing to tune
        value = objective(np.zeros(0))
        best = OptimizeOutcome(np.zeros(0), value, [value], evaluations=1, stop_reason="none")
    planned = plan(1)
    _run(planned, best.x[None])
    return VariationalResult(
        best_value=best.value,
        best_params=best.x,
        top_states=sample_solutions(planned[4][0], table, top_k),
        trace=best.trace,
        evaluations=best.evaluations,
        stop_reason=best.stop_reason,
    )


def qaoa_minimize(table: np.ndarray, p: int, optimizer: OptimizerConfig,
                  top_k: int = 8) -> VariationalResult:
    """VQE loop over the depth-p QAOA ansatz whose cost is the energy table ``table``.

    At p = 0 the state is the uniform superposition, evaluated once.
    """
    n_qubits = np.size(table).bit_length() - 1
    return vqe_minimize(table, qaoa_ansatz(n_qubits, p, table), optimizer, top_k=top_k)


def minimize_table(table: np.ndarray, solver: str, depth: int, optimizer: OptimizerConfig | None,
                   top_k: int) -> tuple[np.ndarray, float, VariationalResult | None]:
    """(bits, energy, run) of the lowest energy ``solver`` finds in the energy table ``table``.

    ``"brute-force"`` is ``qubo.lowest_energy`` of the table, with no run;
    ``"vqe"`` (an RY ansatz of ``depth`` layers) and ``"qaoa"`` (``depth``
    levels) keep the lowest-energy of the run's ``top_k`` most probable
    states. Every QUBO solve in ``opt`` and in ADMM's block 1 comes here.
    """
    n = np.size(table).bit_length() - 1
    if solver == "brute-force":
        return (*lowest_energy(table, n), None)
    if solver == "vqe":
        result = vqe_minimize(table, ry_ansatz(n, depth), optimizer, top_k=top_k)
    else:
        result = qaoa_minimize(table, depth, optimizer, top_k=top_k)
    bits, _, energy = min(result.top_states, key=lambda entry: entry[2])
    return np.array([int(ch) for ch in bits]), energy, result
