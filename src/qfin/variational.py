"""VQE and QAOA over diagonal observables, with exact expectations.

Ansatz families: RY rotation layers with full-entanglement CNOT ladders,
RX+RY layers with the same ladder (the classifier separator), and the QAOA
alternation of cost-phase and X-mixer evolutions starting from the uniform
superposition. Expectations are computed from the statevector, so the
classical optimizer sees a noiseless objective; shot-based sampling remains
available through ``simulator.sample`` for realism experiments.
"""

import math
from dataclasses import dataclass

import numpy as np

from .optimizers import OptimizerConfig, minimize
from .simulator import (
    GateOp,
    IsingObservable,
    Statevector,
    _matrix_1q,
    apply_ops,
    basis_probabilities,
    cnot,
    h,
    new_zero_state,
    phase_gate,
    phase_layout,
    rx,
    ry,
)

ANSATZ_KINDS = ("ry-full-entanglement", "rxry-full-entanglement", "qaoa")

# Most amplitudes one state block of vqe_minimize's objective holds: a stack
# of rows is simulated in chunks of BLOCK_AMPLITUDES >> n rows (at least one),
# so from 16 qubits up a stack costs no more memory than one row at a time.
BLOCK_AMPLITUDES = 1 << 16


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
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
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


def _parity_signs(width: int) -> np.ndarray:
    """Z^width eigenvalue (-1)^popcount(s) of each sub-basis index s."""
    sub = np.arange(1 << width)
    signs = np.ones(1 << width)
    for bit in range(width):
        signs *= 1.0 - 2.0 * ((sub >> bit) & 1)
    return signs


def cost_phase_ops(cost: IsingObservable, gamma: float) -> list[GateOp]:
    """exp(-i gamma H) for a diagonal H, term by term; the offset is global phase."""
    return [phase_gate(support, -gamma * coeff * _parity_signs(len(support)))
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


def _column_entries(kinds, angles) -> np.ndarray:
    """Per-column entries of ``_matrix_1q(kinds[r], angles[r][b])`` for each row r.

    Shaped ``(R, 2, 2, 1, B)``: ``[r, j, i, 0, b]`` is entry m_ij of column
    b, laid out for ``_rotate_columns``. The entries come from ``math.cos``/
    ``math.sin`` inside ``_matrix_1q``, as the gate path's do; ``np.cos``
    may differ in the last bit. Real entries among complex ones become
    complex with a zero imaginary part, which is what a multiply by complex
    amplitudes casts them to anyway.
    """
    entries = np.array([[_matrix_1q(kind, angle) for angle in row]
                        for kind, row in zip(kinds, angles)])
    rows, columns = len(entries), entries.shape[1]
    entries = entries.reshape(rows, columns, 2, 2).transpose(0, 3, 2, 1)
    return np.ascontiguousarray(entries)[:, :, :, None]


def _split_view(amps: np.ndarray, q: int, rows: int) -> np.ndarray:
    """The leading ``rows`` rows of a block, split at qubit ``q``: ``(hi, 2, lo, B)``."""
    return amps[:rows].reshape((rows >> (q + 1), 2, 1 << q) + amps.shape[1:], copy=False)


def _rotate_columns(view: np.ndarray, entries: np.ndarray) -> None:
    """Map each pair ``(a0, a1)`` of a split view to ``(m00*a0 + m01*a1, m10*a0 + m11*a1)``.

    ``entries`` is one row of ``_column_entries``, so each column has its
    own matrix. Element by element these are ``simulator._rotate``'s
    products and sums in its order; both halves of the pair are computed in
    one broadcast product per input half.
    """
    new = entries[0] * view[:, :1]
    new += entries[1] * view[:, 1:]
    view[...] = new


def compile_ansatz(ansatz: Ansatz):
    """Build ``ansatz`` once into a state function ``params -> amplitudes``.

    The function takes a ``(B, P)`` stack of parameter rows and returns a
    ``(2^n, B)`` block whose column ``b`` is the state of row ``b``; a
    ``(P,)`` row is a stack of one and gives a ``(2^n,)`` state. Each column
    has the probabilities ``apply_ops(new_zero_state(n), ansatz_ops(ansatz,
    row))`` gives, bit for bit, whatever the other rows hold: every rotation
    takes the gate path's products and sums with per-column copies of
    ``_matrix_1q``'s entries (``_rotate_columns``), the CNOT ladder is one
    gather (exact up to the sign of zero), and each QAOA cost term
    multiplies by the same ``phase_gate`` factors in the same term order. The first rotation layer
    of the RY and RX+RY kinds rotates qubit ``q`` over the leading
    ``2^(q+1)`` rows only, the only ones non-zero from ``|0...0>``; the
    skipped rows stay zero up to sign. The RY kind runs on real amplitudes,
    as RY and CNOT are real. Besides the state block it holds at most one
    2^n index (the ladder) or one 2^n state (the QAOA start).
    """
    n = ansatz.n_qubits
    dim = 1 << n
    if ansatz.kind == "qaoa":
        start = apply_ops(new_zero_state(n), [h(q) for q in range(n)]).amplitudes
        terms, at = [], 0
        for support, _ in ansatz.cost.terms:
            view_shape, _, factor_shape, order = phase_layout(dim, support)
            terms.append((view_shape, slice(at, at + order.size), factor_shape,
                          _parity_signs(len(support))[order]))
            at += order.size
        coeffs = np.repeat([coeff for _, coeff in ansatz.cost.terms],
                           [term_signs.size for *_, term_signs in terms])
        signs = np.concatenate([np.zeros(0)] + [term_signs for *_, term_signs in terms])
        # signs are +-1 and negation is exact, so rates * gamma equals
        # cost_phase_ops' -gamma * coeff * sign bit for bit
        rates = -coeffs * signs

        def qaoa_state(params):
            stack = _checked_stack(ansatz, params)
            batch = stack.shape[:1]
            amps = np.repeat(start[:, None], len(stack), axis=1)
            factors = np.empty((rates.size,) + batch, dtype=complex)
            # every term's view of the block and of its factors, once per call
            layers = [(amps.reshape(view_shape + batch, copy=False),
                       factors[rows].reshape(factor_shape + batch, copy=False))
                      for view_shape, rows, factor_shape, _ in terms]
            splits = [_split_view(amps, q, dim) for q in range(n)]
            p = ansatz.depth
            for gammas, betas in zip(stack[:, :p].T, stack[:, p:].T.tolist()):
                # every term's phases for every column at once
                np.exp(1j * np.multiply.outer(rates, gammas), out=factors)
                for view, term_factors in layers:
                    view *= term_factors
                entries = _column_entries(["rx"], [[2.0 * beta for beta in betas]])[0]
                for view in splits:
                    _rotate_columns(view, entries)
            return amps if np.ndim(params) == 2 else amps[:, 0]

        return qaoa_state

    perm = _ladder_permutation(n) if ansatz.depth else None
    real = ansatz.kind == "ry-full-entanglement"
    # parameter j of a layer rotates qubit j % n by kinds[j // n]
    kinds = ("ry",) if real else ("rx", "ry")
    param_kinds = [kind for kind in kinds for _ in range(n)] * (ansatz.depth + 1)

    def layered_state(params):
        stack = _checked_stack(ansatz, params)
        entries = _column_entries(param_kinds, stack.T.tolist())
        entries = entries.reshape((ansatz.depth + 1, -1) + entries.shape[1:])
        amps = np.zeros((dim, len(stack)), dtype=float if real else complex)
        amps[0] = 1.0
        for layer, layer_entries in enumerate(entries):
            if layer:
                amps = amps[perm]
            for j, matrix in enumerate(layer_entries):
                q = j % n
                rows = 2 << q if layer == 0 and j < n else dim
                _rotate_columns(_split_view(amps, q, rows), matrix)
        return amps if np.ndim(params) == 2 else amps[:, 0]

    return layered_state


def prepare_state(ansatz: Ansatz, params) -> Statevector:
    amps = compile_ansatz(ansatz)(params)
    return Statevector(ansatz.n_qubits, amps.astype(complex, copy=False))


def bitstring_of(index: int, n: int) -> str:
    """Bit i of the basis index becomes character i of the string."""
    return "".join(str((index >> q) & 1) for q in range(n))


def sample_solutions(state: Statevector, observable: IsingObservable,
                     top_k: int) -> list[tuple[str, float, float]]:
    """Most probable basis states with their exact probabilities and energies."""
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    probs = basis_probabilities(state)
    table = observable.energy_table(state.n_qubits)
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
                 optimizer: OptimizerConfig, top_k: int = 8,
                 shots: int | None = None) -> VariationalResult:
    """Classical loop over statevector expectations; restarts keep the best outcome.

    Expectations are exact by default; passing ``shots`` switches the
    objective to a seed-deterministic sampled estimate for realism
    experiments. The returned trace is the winning restart's best-so-far
    curve, which is nonincreasing by construction.

    The objective handed to the optimizer carries a ``rows`` attribute (see
    ``optimizers``): ``objective.rows(stack)`` evaluates a ``(B, P)`` stack
    from state blocks of at most ``BLOCK_AMPLITUDES`` amplitudes and returns
    the B values in row order, each equal bit for bit to ``objective(row)``. Each column is read out as a
    contiguous 1-D row, as a single state is, not as a strided column or a
    matrix-vector product, whose sums may round differently; with ``shots``
    the samples are drawn row by row in order, so the RNG stream is the one
    the row-by-row calls draw.
    """
    if observable.max_qubit() >= ansatz.n_qubits:
        raise ValueError("observable support exceeds the ansatz register")
    table = observable.energy_table(ansatz.n_qubits)
    state_of = compile_ansatz(ansatz)

    chunk = max(1, BLOCK_AMPLITUDES >> ansatz.n_qubits)

    def make_objective(rng):
        def value_of(amps):
            probs = np.abs(amps) ** 2
            if shots is None:
                return float(probs @ table)
            outcomes = rng.choice(probs.size, size=shots, p=probs / probs.sum())
            return float(table[outcomes].mean())

        def rows(stack):
            stack = np.asarray(stack, dtype=float)
            values = []
            for at in range(0, len(stack), chunk):
                # columns copied out as contiguous 1-D rows, read in row order
                block = np.ascontiguousarray(state_of(stack[at:at + chunk]).T)
                values.extend(value_of(amps) for amps in block)
            return values

        def objective(params):
            return rows([params])[0]

        objective.rows = rows
        return objective

    master = np.random.SeedSequence(optimizer.seed)
    best = None
    for child in master.spawn(optimizer.restarts):
        rng = np.random.default_rng(child)
        outcome = minimize(make_objective(rng), _initial_params(ansatz, rng),
                           optimizer, rng=rng)
        if best is None or outcome.value < best.value:
            best = outcome
    state = Statevector(ansatz.n_qubits, state_of(best.x).astype(complex, copy=False))
    return VariationalResult(
        best_value=best.value,
        best_params=best.x,
        top_states=sample_solutions(state, observable, min(top_k, state.dim)),
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
        value = float(basis_probabilities(state) @ observable.energy_table(n_qubits))
        return VariationalResult(
            best_value=value, best_params=np.zeros(0),
            top_states=sample_solutions(state, observable, min(top_k, state.dim)),
            trace=[value], state=state)
    return vqe_minimize(observable, qaoa_ansatz(n_qubits, p, observable),
                        optimizer, top_k=top_k)
