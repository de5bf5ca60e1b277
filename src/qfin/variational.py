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
    apply_ops,
    basis_probabilities,
    cnot,
    h,
    new_zero_state,
    parity_signs,
    phase_gate,
    rx,
    ry,
    z_diagonal,
)

ANSATZ_KINDS = ("ry-full-entanglement", "rxry-full-entanglement", "qaoa")

# Most amplitudes one state block of vqe_minimize's objective holds: a stack
# of rows is simulated in chunks of BLOCK_AMPLITUDES >> n rows (at least one).
# A stack pays only while rows are short: each rotation's entries vary per
# column, so numpy cannot merge the state axis with the batch axis, and
# every inner loop runs over the B columns. SPSA's stacks of three stay
# whole up to 8 qubits; from 9 qubits up each row is its own block.
# Only that chunking reads it: a state function sizes its buffers by the
# stack it is given, and QAOA's cost layer adds one 2^n energy table.
BLOCK_AMPLITUDES = 3 << 8

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


def _fill_entries(entries: np.ndarray, angles: np.ndarray, u10, u01) -> None:
    """Write per-column ``_matrix_1q`` entries of every rotation into ``entries``.

    ``entries[r, j, i, 0, b]`` becomes entry m_ij of rotation r by angle
    ``angles[b, r]``: m00 = m11 = cos(angle/2), m10 = sin(angle/2) * u10
    and m01 = sin(angle/2) * u01, with u = (1, -1) for RY and (-1j, -1j)
    for RX. The cosines and sines are ``np.cos``/``np.sin`` of the same
    halved angle ``_matrix_1q`` takes, and the products by u are exact; the
    tests check the entries against the gate path's bit for bit.
    """
    halves = 0.5 * angles.T
    c, s = np.cos(halves), np.sin(halves)
    entries[:, 0, 0, 0] = c
    entries[:, 1, 1, 0] = c
    np.multiply(s, u10, out=entries[:, 0, 1, 0])
    np.multiply(s, u01, out=entries[:, 1, 0, 0])


def _fill_fused(entries: np.ndarray, angles: np.ndarray, n: int) -> None:
    """Write per-column entries of RY(phi_q)·RX(theta_q), one rotation per qubit and layer.

    Each layer's row of ``angles`` holds n RX angles, then n RY angles, as
    ``ansatz_ops`` reads them. With c, s the cosine and sine of theta/2 and
    C, S those of phi/2, the product is m00 = Cc + iSs, m01 = -Sc - iCs,
    m10 = Sc - iCs and m11 = Cc - iSs, laid out as ``_fill_entries`` lays
    them out. It equals the two gates applied in turn to round-off.
    """
    halves = 0.5 * angles.T.reshape(-1, 2, n, len(angles))
    cos, sin = np.cos(halves), np.sin(halves)
    cc, ss = cos[:, 1] * cos[:, 0], sin[:, 1] * sin[:, 0]
    sc, cs = sin[:, 1] * cos[:, 0], cos[:, 1] * sin[:, 0]
    rotations = entries[:, :, :, 0]
    rotations[:, 0, 0] = (cc + 1j * ss).reshape(len(entries), -1)
    rotations[:, 1, 1] = (cc - 1j * ss).reshape(len(entries), -1)
    rotations[:, 0, 1] = (sc - 1j * cs).reshape(len(entries), -1)
    rotations[:, 1, 0] = (-sc - 1j * cs).reshape(len(entries), -1)


def _rotation(entries, r: int, src, dst, scratch, q: int, rows: int) -> list:
    """Steps of one planned rotation: bit ``q`` of the leading ``rows`` rows.

    Each pair ``(a0, a1)`` maps to ``(m00*a0 + m01*a1, m10*a0 + m11*a1)`` in
    ``dst``: ``simulator._rotate``'s products and sums in its order, both
    halves of the pair in one broadcast product per input half, written
    through ``out=`` into the plan's buffers, so nothing is allocated.
    """
    def split(buf):
        return buf[:rows].reshape((rows >> (q + 1), 2, 1 << q) + buf.shape[1:], copy=False)

    pairs, out, tmp = split(src), split(dst), split(scratch)
    return [functools.partial(np.multiply, entries[r, 0], pairs[:, :1], out=out),
            functools.partial(np.multiply, entries[r, 1], pairs[:, 1:], out=tmp),
            functools.partial(np.add, out, tmp, out=out)]


def _low_bits_on_top(n: int) -> np.ndarray:
    """Natural index at each position of the layout whose top bits are the low ``n//2``.

    Position ``(i & (2^(n//2) - 1)) << (n - n//2) | i >> n//2`` holds
    natural index ``i``: qubit ``q < n//2`` sits at bit ``q + n - n//2``.
    """
    low, high = n // 2, n - n // 2
    positions = np.arange(1 << n)
    return (positions >> high) | ((positions & ((1 << high) - 1)) << low)


def compile_ansatz(ansatz: Ansatz):
    """Build ``ansatz`` once into a state function ``params -> amplitudes``.

    The function takes a ``(B, P)`` stack of parameter rows and returns a
    ``(2^n, B)`` block whose column ``b`` is the state of row ``b``; a
    ``(P,)`` row is a stack of one and gives a ``(2^n,)`` state. Each column
    has the same bytes whatever the other rows hold. For the RY kind it has
    the probabilities ``apply_ops(new_zero_state(n), ansatz_ops(ansatz,
    row))`` gives, bit for bit: every rotation takes the gate path's
    products and sums with per-column copies of ``_matrix_1q``'s entries
    (``_fill_entries``), and the CNOT ladder is one gather (exact up to the
    sign of zero). The RX+RY kind applies each qubit's RX and RY as one
    rotation by their product (``_fill_fused``), and the QAOA cost layer is
    one diagonal, exp(-i gamma C) over the energy table C of the cost terms,
    where the gate path multiplies term by term; both agree with the gate
    path to round-off, not bit for bit.

    The RY and RX+RY functions also take ``start``, a ``(2^n, B)`` block to
    run from instead of ``|0...0>``, with one parameter row for every column;
    they return a ``(2^n, B)`` block. From ``|0...0>`` the first rotation
    layer rotates qubit ``q`` over the leading ``2^(q+1)`` rows only, the
    only non-zero ones; the RY kind then runs on real amplitudes, as RY and
    CNOT are real.

    Each block width gets a plan the first time it is used: two ping-pong
    state buffers, a scratch buffer, and a flat list of steps over views of
    them, so a call allocates nothing per gate. Plans are kept for the two
    most recent widths. The returned block is a copy that later calls do
    not overwrite; two threads must not call one state function at once.

    In natural order, qubit ``q`` pairs rows ``2^q`` apart, so a rotation
    of a low qubit of one column runs numpy inner loops of ``2^q``
    elements. After each CNOT ladder the state is therefore written with
    its low ``n//2`` index bits on top: the function's one ``2^n`` index is
    the ladder's permutation composed with that bit rotation, so the
    ladder's single ``np.take`` does both. Qubits ``q < n//2`` rotate there,
    as bit ``q + n - n//2``, with inner runs of at least ``2^(n - n//2)``;
    one transposing ``np.copyto`` restores natural order, and the other
    rotations of the layer follow as before. Every rotation keeps its place
    in the gate order, and the gather and the copy only move amplitudes, so
    each amplitude is the same product and sum as in natural order.
    """
    if ansatz.kind == "qaoa":
        return _compile_qaoa(ansatz)
    n, p = ansatz.n_qubits, ansatz.depth
    dim = 1 << n
    low, high = n // 2, n - n // 2
    # the ladder's gather writes the layout with the low bits on top
    index = _ladder_permutation(n)[_low_bits_on_top(n)] if p else None
    real = ansatz.kind == "ry-full-entanglement"

    def build(key):
        width, from_zero = key
        dtype = float if real and from_zero else complex
        bufs = np.empty((2, dim, width), dtype=dtype)
        scratch = np.empty((dim, width), dtype=dtype)
        # rotation layer * n + q is qubit q's: RY, or RX and RY fused
        entries = np.empty((n * (p + 1), 2, 2, 1, width if from_zero else 1),
                           dtype=float if real else complex)
        steps, at = [], 0  # bufs[at] holds the state
        for layer in range(p + 1):
            if layer:
                steps.append(functools.partial(np.take, bufs[at], index, axis=0,
                                               out=bufs[1 - at], mode="clip"))
                at = 1 - at
            for q in range(n):
                position, rows = q, dim
                if layer and q < low:
                    position = q + high
                elif layer and q == low and low:
                    # back to natural order, (low bits, high bits) -> (high bits, low bits)
                    steps.append(functools.partial(
                        np.copyto, bufs[1 - at].reshape(1 << high, 1 << low, width),
                        bufs[at].reshape(1 << low, 1 << high, width).transpose(1, 0, 2)))
                    at = 1 - at
                elif from_zero and layer == 0:
                    rows = 2 << q
                steps.extend(_rotation(entries, layer * n + q, bufs[at],
                                       bufs[1 - at], scratch, position, rows))
                at = 1 - at
        return bufs, entries, steps, bufs[at]

    # SPSA sends stacks of three and ends with one; Nelder-Mead its simplex
    # blocks, then mostly single points: keep two plans
    plan_for = functools.lru_cache(maxsize=2)(build)

    def layered_state(params, start=None):
        stack = _checked_stack(ansatz, params)
        if start is not None and (len(stack) != 1 or np.ndim(start) != 2
                                  or len(start) != dim):
            raise ValueError(f"start must be a ({dim}, B) block run by one parameter row")
        bufs, entries, steps, final = plan_for(
            (len(stack), True) if start is None else (np.shape(start)[1], False))
        if real:
            _fill_entries(entries, stack, 1.0, -1.0)
        else:
            _fill_fused(entries, stack, n)
        if start is None:
            bufs.fill(0.0)
            bufs[0, 0] = 1.0
        else:
            np.copyto(bufs[0], start)
        for step in steps:
            step()
        amps = final.copy()
        return amps if start is not None or np.ndim(params) == 2 else amps[:, 0]

    return layered_state


def _compile_qaoa(ansatz: Ansatz):
    """``compile_ansatz`` for the QAOA kind.

    Every cost term is a product of Z factors, so a level's cost layer is
    one diagonal: each amplitude is multiplied by exp(-i gamma C) with C the
    energy table of the cost terms, the offset dropped (it is a global
    phase). The factors of a call are written into the plan's scratch
    buffer, which the mixer's planned RX rotations then reuse.
    """
    n, p = ansatz.n_qubits, ansatz.depth
    dim = 1 << n
    start = apply_ops(new_zero_state(n), [h(q) for q in range(n)]).amplitudes
    energies = z_diagonal(n, ansatz.cost.terms)

    def build(width):
        bufs = np.empty((2, dim, width), dtype=complex)
        scratch = np.empty((dim, width), dtype=complex)
        entries = np.empty((p, 2, 2, 1, width), dtype=complex)
        levels = []
        for level in range(p):
            steps = level * n
            levels.append((bufs[steps % 2], [
                step for q in range(n) for step in _rotation(
                    entries, level, bufs[(steps + q) % 2], bufs[(steps + q + 1) % 2],
                    scratch, q, dim)]))
        return bufs, scratch, entries, levels, bufs[(p * n) % 2]

    # SPSA sends stacks of three and ends with one: keep both plans
    plan_for = functools.lru_cache(maxsize=2)(build)

    def qaoa_state(params):
        stack = _checked_stack(ansatz, params)
        bufs, scratch, entries, levels, final = plan_for(len(stack))
        np.copyto(bufs[0], start[:, None])
        _fill_entries(entries, 2.0 * stack[:, p:], -1j, -1j)
        for gammas, (amps, rotations) in zip(stack[:, :p].T, levels):
            np.multiply.outer(energies, -1j * gammas, out=scratch)
            np.exp(scratch, out=scratch)
            amps *= scratch
            for step in rotations:
                step()
        amps = final.copy()
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
    ``objective(row)``. The bound is small: per-column rotation entries stop
    numpy from merging the state axis with the batch axis, so a stack of
    wide rows costs more than its rows one at a time. Each column is read out as a contiguous 1-D row, as
    a single state is, not as a strided column or a matrix-vector product,
    whose sums may round differently.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if observable.max_qubit() >= ansatz.n_qubits:
        raise ValueError("observable support exceeds the ansatz register")
    table = observable.energy_table(ansatz.n_qubits)
    state_of = compile_ansatz(ansatz)

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
        state = apply_ops(new_zero_state(n_qubits), [h(q) for q in range(n_qubits)])
        table = observable.energy_table(n_qubits)
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
