import math

import numpy as np
import pytest

from qfin import qubo as qb
from qfin import variational as vq
from qfin.optimizers import OptimizeOutcome, OptimizerConfig, minimize
from qfin.simulator import (
    IsingObservable,
    Statevector,
    apply_ops,
    basis_probabilities,
    h,
    new_zero_state,
)
from oracles import (energy_spread, ladder_per_cnot, per_call_compile_ansatz,
                     sample_solutions_full_sort, stack_readout)

Z0 = IsingObservable(terms=(((0,), 1.0),))


def test_parameter_counts():
    assert vq.ry_ansatz(6, 3).parameter_count == 24
    assert vq.ry_ansatz(4, 0).parameter_count == 4
    assert vq.rxry_ansatz(5, 1).parameter_count == 20
    assert vq.qaoa_ansatz(3, 4, Z0).parameter_count == 8


def test_ansatz_validation():
    with pytest.raises(ValueError):
        vq.Ansatz("qaoa", 2, 1)  # missing cost
    with pytest.raises(ValueError):
        vq.prepare_state(vq.ry_ansatz(2, 1), np.zeros(3))


def test_ry_zero_parameters_is_vacuum():
    state = vq.prepare_state(vq.ry_ansatz(3, 0), np.zeros(3))
    assert abs(state.amplitudes[0]) == pytest.approx(1.0)
    deep = vq.prepare_state(vq.ry_ansatz(3, 2), np.zeros(9))
    assert abs(deep.amplitudes[0]) == pytest.approx(1.0)


def test_qaoa_zero_parameters_is_uniform():
    state = vq.prepare_state(vq.qaoa_ansatz(2, 1, Z0), [0.0, 0.0])
    assert np.allclose(np.abs(state.amplitudes) ** 2, 0.25, atol=1e-12)


def test_qaoa_single_qubit_closed_form():
    """Oracle: explicit 2x2 matrix algebra for exp(-i beta X) exp(-i theta Z) |+>."""
    for theta in (0.3, 1.1, 2.0):
        for beta in (0.2, 0.9, 1.7):
            plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
            cost = np.diag(np.exp(-1j * theta * np.array([1.0, -1.0])))
            c, s = math.cos(beta), math.sin(beta)
            mixer = np.array([[c, -1j * s], [-1j * s, c]])
            psi = mixer @ (cost @ plus)
            want = float((np.abs(psi[0]) ** 2 - np.abs(psi[1]) ** 2).real)
            state = vq.prepare_state(vq.qaoa_ansatz(1, 1, Z0), [theta, beta])
            got = float(basis_probabilities(state) @ np.array([1.0, -1.0]))
            assert got == pytest.approx(want, abs=1e-12)


def test_qaoa_single_qubit_grid_reaches_ground_state():
    best = min(
        float(basis_probabilities(
            vq.prepare_state(vq.qaoa_ansatz(1, 1, Z0), [t, b])) @ np.array([1.0, -1.0]))
        for t in np.linspace(0.0, math.pi, 33)
        for b in np.linspace(0.0, math.pi, 33))
    assert best == pytest.approx(-1.0, abs=1e-9)


def test_qaoa_depth_zero_gives_mean_energy():
    rng = np.random.default_rng(0)
    qubo = qb.Qubo(n=3, quadratic=np.zeros((3, 3)), linear=rng.normal(size=3))
    obs = qb.to_ising(qubo)
    result = vq.qaoa_minimize(obs, 0, OptimizerConfig(iterations=1))
    assert result.best_value == pytest.approx(float(obs.energy_table(3).mean()))


@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_qaoa_depth_zero_state_is_the_hadamard_layer(n):
    rng = np.random.default_rng([n, 26])
    qubo = qb.Qubo(n=n, quadratic=np.zeros((n, n)), linear=rng.normal(size=n))
    result = vq.qaoa_minimize(qb.to_ising(qubo), 0, OptimizerConfig(iterations=1), n_qubits=n)
    want = apply_ops(new_zero_state(n), [h(q) for q in range(n)]).amplitudes
    assert result.state.amplitudes.shape == want.shape
    assert np.max(np.abs(result.state.amplitudes - want)) <= 1e-15
    assert result.best_params.size == 0 and result.trace == [result.best_value]


def test_vqe_single_qubit_ground_state():
    result = vq.vqe_minimize(Z0, vq.ry_ansatz(1, 1),
                             OptimizerConfig(method="spsa", iterations=150, seed=1))
    assert result.best_value == pytest.approx(-1.0, abs=1e-4)
    assert result.top_states[0][0] == "1"


def test_vqe_seeded_determinism():
    obs = qb.to_ising(qb.Qubo(n=3, quadratic=np.eye(3) * 0.3,
                              linear=np.array([0.2, -0.4, 0.1])))
    config = OptimizerConfig(method="spsa", iterations=60, seed=5)
    one = vq.vqe_minimize(obs, vq.ry_ansatz(3, 1), config)
    two = vq.vqe_minimize(obs, vq.ry_ansatz(3, 1), config)
    assert one.best_value == two.best_value
    assert np.array_equal(one.best_params, two.best_params)


def test_variational_bound_expectation_above_minimum():
    rng = np.random.default_rng(9)
    qubo = qb.Qubo(n=4, quadratic=(lambda m: (m + m.T) / 2)(rng.normal(size=(4, 4))),
                   linear=rng.normal(size=4))
    obs = qb.to_ising(qubo)
    _, minimum = qb.brute_force(qubo)
    ansatz = vq.ry_ansatz(4, 2)
    for seed in range(6):
        params = np.random.default_rng(seed).uniform(-math.pi, math.pi,
                                                     ansatz.parameter_count)
        state = vq.prepare_state(ansatz, params)
        energy = float(basis_probabilities(state) @ obs.energy_table(4))
        assert energy >= minimum - 1e-9


def test_trace_nonincreasing():
    result = vq.vqe_minimize(Z0, vq.ry_ansatz(1, 1),
                             OptimizerConfig(method="spsa", iterations=80, seed=2))
    assert all(b <= a + 1e-15 for a, b in zip(result.trace, result.trace[1:]))


def test_random_ising_close_to_brute_force_in_restarts():
    rng = np.random.default_rng(21)
    m = rng.normal(size=(4, 4))
    qubo = qb.Qubo(n=4, quadratic=(m + m.T) / 2, linear=rng.normal(size=4))
    obs = qb.to_ising(qubo)
    energies = qb.all_energies(qubo)
    spread = energies.max() - energies.min()
    hits = 0
    for seed in range(5):
        result = vq.vqe_minimize(obs, vq.ry_ansatz(4, 2),
                                 OptimizerConfig(method="spsa", iterations=200,
                                                 seed=seed))
        if result.best_value <= energies.min() + 0.05 * spread:
            hits += 1
    assert hits >= 1


def test_sample_solutions_vacuum():
    state = vq.prepare_state(vq.ry_ansatz(2, 0), np.zeros(2))
    top = vq.sample_solutions(state, qb.to_ising(qb.Qubo(
        n=2, quadratic=np.zeros((2, 2)), linear=np.zeros(2))).energy_table(2), 1)
    assert top == [("00", pytest.approx(1.0), 0.0)]


def test_sample_solutions_uniform_superposition():
    state = vq.prepare_state(vq.qaoa_ansatz(2, 1, Z0), [0.0, 0.0])
    top = vq.sample_solutions(state, Z0.energy_table(2), 4)
    assert len(top) == 4
    for _, probability, _ in top:
        assert probability == pytest.approx(0.25, abs=1e-12)


def test_sample_solutions_sorted_descending():
    state = vq.prepare_state(vq.ry_ansatz(3, 1), np.linspace(0.1, 1.7, 6))
    top = vq.sample_solutions(state, Z0.energy_table(3), 8)
    probabilities = [p for _, p, _ in top]
    assert all(a >= b for a, b in zip(probabilities, probabilities[1:]))
    assert sum(probabilities) == pytest.approx(1.0, abs=1e-9)


def test_sample_solutions_equal_the_full_sort_bytewise():
    # only the states at or above the k-th largest probability are sorted; the
    # kept states, their order and their bytes are those of a lexsort of all
    # 2^n states, ties (uniform, repeated and zero probabilities) included
    rng = np.random.default_rng(61)
    for n in range(1, 11):
        dim = 1 << n
        table = rng.normal(size=dim)
        random = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        tied = rng.choice([0.0, 0.5, 1.0, 1j], size=dim)
        sparse = np.zeros(dim, complex)
        sparse[rng.choice(dim, size=max(1, dim // 5), replace=False)] = 1.0
        for amps in (random / np.linalg.norm(random), np.full(dim, math.sqrt(1.0 / dim)),
                     tied, sparse, new_zero_state(n).amplitudes):
            state = Statevector(n, amps.astype(complex))
            for top_k in sorted({1, 2, 3, 8, max(1, dim - 1), dim, dim + 5}):
                got = vq.sample_solutions(state, table, top_k)
                want = sample_solutions_full_sort(state, table, top_k)
                assert repr(got) == repr(want), (n, top_k)


def test_qaoa_depth_four_runs_on_portfolio():
    rng = np.random.default_rng(123)
    w = rng.normal(size=(6, 6))
    sigma = w @ w.T / 6
    mu = rng.uniform(0.0, 0.1, size=6)
    spec = qb.PortfolioSpec(mu=mu, sigma=sigma, q=0.5, budget=3)
    obs = qb.to_ising(qb.build_portfolio_qubo(spec))
    result = vq.qaoa_minimize(obs, 4, OptimizerConfig(method="spsa", iterations=60,
                                                      seed=0), n_qubits=6)
    assert result.best_params.size == 8
    assert len(result.top_states) == 8


@pytest.mark.parametrize("solver,depth", [("vqe", 2), ("qaoa", 2), ("qaoa", 0)])
def test_minimize_qubo_keeps_the_lowest_energy_top_state(solver, depth):
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4))
    qubo = qb.Qubo(n=4, quadratic=(m + m.T) / 2, linear=rng.normal(size=4))
    optimizer = OptimizerConfig(method="spsa", iterations=15, seed=2)
    bits, energy, result = vq.minimize_qubo(qubo, solver, depth, optimizer, top_k=5)
    assert len(result.top_states) == 5
    assert energy == min(e for _, _, e in result.top_states)
    assert bits.dtype.kind == "i"
    assert energy == pytest.approx(qb.energy(qubo, bits), abs=1e-12)
    observable = qb.to_ising(qubo)
    if solver == "vqe":
        want = vq.vqe_minimize(observable, vq.ry_ansatz(4, depth), optimizer, top_k=5)
    else:
        want = vq.qaoa_minimize(observable, depth, optimizer, n_qubits=4, top_k=5)
    assert result.top_states == want.top_states


def test_portfolio_structure_top_states_select_budget():
    """Seeded n=6 B=3 instance: feasible top-3 in most restarts."""
    rng = np.random.default_rng(123)
    w = rng.normal(size=(6, 6))
    sigma = w @ w.T / 6
    mu = rng.uniform(0.0, 0.1, size=6)
    unpenalized = qb.Qubo(n=6, quadratic=0.5 * sigma, linear=-mu)
    spec = qb.PortfolioSpec(mu=mu, sigma=sigma, q=0.5, budget=3,
                            penalty=energy_spread(unpenalized) * 1.5)
    obs = qb.to_ising(qb.build_portfolio_qubo(spec))
    result = vq.vqe_minimize(obs, vq.ry_ansatz(6, 3),
                             OptimizerConfig(method="spsa", iterations=300, seed=1),
                             top_k=3)
    assert all(bits.count("1") == 3 for bits, _, _ in result.top_states)


# -- compiled state functions against the gate-list path --------------------

def ops_probabilities(ansatz, params):
    """The oracle: the ansatz applied gate by gate."""
    state = apply_ops(new_zero_state(ansatz.n_qubits), vq.ansatz_ops(ansatz, params))
    return basis_probabilities(state)


def compiled_probabilities(ansatz, params):
    return np.abs(vq.compile_ansatz(ansatz)(params)) ** 2


def matches_ops_path(ansatz, params, probs):
    """``probs`` against the gate path, to round-off.

    A compiled rotation layer multiplies each amplitude by a Kronecker
    product of its qubits' matrices, whose entries come from the gates' own
    cosines and sines, and sums over a qubit group at once, where the gates
    go qubit by qubit: the RY and RX+RY probabilities agree within 1e-14 at
    any angle scale. QAOA's compiled cost layer is one diagonal
    exp(-i gamma C), where the gates multiply term by term, so its
    probabilities agree within 1e-14 for angles in [-pi, pi] and 1e-11 up
    to the 1e4 scale.
    """
    want = ops_probabilities(ansatz, params)
    small = ansatz.kind != "qaoa" or np.max(np.abs(params), initial=0.0) <= math.pi
    return np.max(np.abs(probs - want)) <= (1e-14 if small else 1e-11)


def matches_ops_amplitudes(got, want):
    """Amplitudes against the gate path's, within 1e-12."""
    return np.max(np.abs(got - want)) <= 1e-12


def mixed_cost(n, rng):
    """Unsorted, non-adjacent, width-0 and width-3 supports over n qubits."""
    terms = [((), float(rng.normal()))]
    for _ in range(2 * n):
        width = int(rng.integers(1, min(n, 3) + 1))
        support = tuple(int(q) for q in rng.permutation(n)[:width])
        terms.append((support, float(rng.normal())))
    if n >= 3:
        terms += [((2, 0), 0.7), ((n - 1, 0, n // 2), -1.3)]
    return IsingObservable(terms=tuple(terms), offset=float(rng.normal()))


def _ansaetze(kind, n, depth, rng):
    if kind == "ry":
        return vq.ry_ansatz(n, depth)
    if kind == "rxry":
        return vq.rxry_ansatz(n, depth)
    return vq.qaoa_ansatz(n, depth, mixed_cost(n, rng))


@pytest.mark.parametrize("kind", ["ry", "rxry", "qaoa"])
def test_compiled_probabilities_equal_ops_path(kind):
    rng = np.random.default_rng(["ry", "rxry", "qaoa"].index(kind))
    for n in range(1, 13):
        for depth in range(4):
            if n > 9 and depth > 1:
                continue
            ansatz = _ansaetze(kind, n, depth, rng)
            for scale in (math.pi, 1e4):
                params = rng.uniform(-scale, scale, ansatz.parameter_count)
                got = compiled_probabilities(ansatz, params)
                assert matches_ops_path(ansatz, params, got), (n, depth, scale)


@pytest.mark.parametrize("n,depth", [(10, 3), (12, 2)])
def test_compiled_probabilities_equal_ops_path_wide_and_deep(n, depth):
    rng = np.random.default_rng(n)
    for kind in ("ry", "rxry", "qaoa"):
        ansatz = _ansaetze(kind, n, depth, rng)
        params = rng.uniform(-math.pi, math.pi, ansatz.parameter_count)
        assert matches_ops_path(ansatz, params, compiled_probabilities(ansatz, params)), kind


def row_probabilities(block):
    """Probabilities of each column of a state block, read as contiguous rows."""
    return [(np.abs(amps) ** 2).tobytes() for amps in np.ascontiguousarray(block.T)]


@pytest.mark.parametrize("kind", ["ry", "rxry", "qaoa"])
def test_stacked_states_equal_per_row_calls_and_ops_path(kind):
    rng = np.random.default_rng(["ry", "rxry", "qaoa"].index(kind) + 10)
    for n in [1, 2, 3, 4, 5, 6, 7, 8, 12]:
        for depth in range(4):
            ansatz = _ansaetze(kind, n, depth, rng)
            state_of = vq.compile_ansatz(ansatz)
            for batch in (1, 2, 5):
                # every row its own angles, one of them far outside [-pi, pi]
                stack = rng.uniform(-math.pi, math.pi, (batch, ansatz.parameter_count))
                stack[-1] *= 1e4 if batch > 1 else 1.0
                block = state_of(stack)
                assert block.shape == (1 << n, batch)
                got = row_probabilities(block)
                for row, probs in zip(stack, got):
                    assert probs == (np.abs(state_of(row)) ** 2).tobytes(), (n, depth, batch)
                    assert matches_ops_path(ansatz, row, np.frombuffer(probs)), (n, depth, batch)


@pytest.mark.parametrize("kind", ["ry", "rxry", "qaoa"])
def test_layers_agree_with_the_gate_path_within_1e_12(kind):
    # n = 1 is one group of one qubit; from 2 qubits a layer splits into
    # groups of at most GROUP_QUBITS, three of them from 11 qubits up
    rng = np.random.default_rng(["ry", "rxry", "qaoa"].index(kind) + 50)
    for n in range(1, 14):
        for depth in range(4):
            ansatz = _ansaetze(kind, n, depth, rng)
            params = rng.uniform(-math.pi, math.pi, ansatz.parameter_count)
            want = apply_ops(new_zero_state(n), vq.ansatz_ops(ansatz, params)).amplitudes
            if kind == "qaoa":  # the compiled cost layer also turns by the offset
                want = want * np.exp(-1j * ansatz.cost.offset * params[:depth].sum())
            got = vq.compile_ansatz(ansatz)(params)
            assert matches_ops_amplitudes(got, want), (n, depth)


@pytest.mark.parametrize("group_qubits", [1, 2, 3])
def test_columns_equal_single_calls_at_every_group_count(monkeypatch, group_qubits):
    # small groups give middle groups (qubits both below and above) at small n
    monkeypatch.setattr(vq, "GROUP_QUBITS", group_qubits)
    rng = np.random.default_rng(group_qubits + 60)
    for n in range(1, 9):
        for kind in ("ry", "rxry", "qaoa"):
            for depth in range(4):
                ansatz = _ansaetze(kind, n, depth, rng)
                state_of = vq.compile_ansatz(ansatz)
                stack = rng.uniform(-math.pi, math.pi, (5, ansatz.parameter_count))
                block = state_of(stack)
                for row, column in zip(stack, block.T):
                    assert column.tobytes() == state_of(row).tobytes(), (n, kind, depth)
                if kind == "qaoa":
                    assert matches_ops_path(ansatz, stack[0], np.abs(block[:, 0]) ** 2)
                    continue
                start = rng.normal(size=(1 << n, 20)) + 1j * rng.normal(size=(1 << n, 20))
                block = state_of(stack[0], start=start)
                want = apply_ops(Statevector(n, start), vq.ansatz_ops(ansatz, stack[0]))
                assert matches_ops_amplitudes(block, want.amplitudes), (n, kind, depth)
                for b in (0, 15, 16, 19):
                    column = state_of(stack[0], start=start[:, b:b + 1])
                    assert block[:, b].tobytes() == column.tobytes(), (n, kind, depth, b)


@pytest.mark.parametrize("group_qubits", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["ry", "rxry", "qaoa"])
def test_planned_states_equal_the_per_call_functions_bytewise(monkeypatch, kind, group_qubits):
    # a plan moves only the shape work out of the call: every byte stays the
    # per-call functions', for stacks, single rows and start blocks
    monkeypatch.setattr(vq, "GROUP_QUBITS", group_qubits)
    rng = np.random.default_rng([group_qubits, ["ry", "rxry", "qaoa"].index(kind)])
    for n in range(1, 13):
        for depth in range(4):
            ansatz = _ansaetze(kind, n, depth, rng)
            planned, former = vq.compile_ansatz(ansatz), per_call_compile_ansatz(ansatz)
            for rows in range(1, 6):
                stack = rng.uniform(-math.pi, math.pi, (rows, ansatz.parameter_count))
                stack[0] *= 1e4 if rows > 1 else 1.0
                assert planned(stack).tobytes() == former(stack).tobytes(), (n, depth, rows)
                assert planned(stack[0]).tobytes() == former(stack[0]).tobytes(), (n, depth)
            if kind == "qaoa":
                continue
            row = stack[-1]
            for columns in range(1, 41) if n <= 8 else (1, 15, 16, 17, 40):
                shape = (1 << n, columns)
                start = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                got = planned(row, start=start)
                assert got.tobytes() == former(row, start=start).tobytes(), (n, depth, columns)


def test_state_function_shapes_and_validation():
    ansatz = vq.ry_ansatz(3, 1)
    state_of = vq.compile_ansatz(ansatz)
    params = np.linspace(-1.0, 1.0, ansatz.parameter_count)
    assert state_of(params).shape == (8,)
    assert state_of(params[None]).shape == (8, 1)
    assert state_of(params[None])[:, 0].tobytes() == state_of(params).tobytes()
    for bad in (params[:-1], np.stack([params[:-1]] * 2), params.reshape(2, 3, 1)):
        with pytest.raises(ValueError):
            state_of(bad)


def test_compiled_state_is_reusable_across_calls():
    rng = np.random.default_rng(4)
    for ansatz in (vq.ry_ansatz(4, 2), vq.rxry_ansatz(3, 1),
                   vq.qaoa_ansatz(4, 2, mixed_cost(4, rng))):
        state_of = vq.compile_ansatz(ansatz)
        for _ in range(3):
            params = rng.uniform(-math.pi, math.pi, ansatz.parameter_count)
            assert matches_ops_path(ansatz, params, np.abs(state_of(params)) ** 2)


def test_prepare_state_is_complex_and_matches_ops_path():
    ansatz = vq.ry_ansatz(3, 2)
    params = np.linspace(-2.0, 2.5, ansatz.parameter_count)
    state = vq.prepare_state(ansatz, params)
    assert state.amplitudes.dtype == np.complex128
    want = apply_ops(new_zero_state(3), vq.ansatz_ops(ansatz, params)).amplitudes
    assert matches_ops_amplitudes(state.amplitudes, want)


def test_ladder_permutation_is_the_cnot_ladder():
    for n in range(1, 7):
        amps = np.arange(1 << n, dtype=complex) + 1.0
        ladder = apply_ops(Statevector(n, amps), vq._entangler(n)).amplitudes
        assert np.array_equal(amps[vq._ladder_permutation(n)], ladder)


def test_ladder_permutation_equals_the_per_cnot_composition():
    for n in range(1, 15):
        got, want = vq._ladder_permutation(n), ladder_per_cnot(n)
        assert got.dtype == want.dtype and np.array_equal(got, want), n


def test_cost_phase_ops_signs_are_z_parities():
    cost = IsingObservable(terms=(((), 0.5), ((1,), 2.0), ((0, 2), -1.0)))
    ops = vq.cost_phase_ops(cost, 0.3)
    assert ops[0].phases == (-0.15,)
    assert ops[1].phases == (-0.6, 0.6)
    assert ops[2].phases == (0.3, -0.3, -0.3, 0.3)


def test_kron_groups_are_balanced_and_cover_the_layer():
    rng = np.random.default_rng(7)
    for n in range(1, 14):
        rotations = rng.normal(size=(n, 2, 2))
        runs = vq._groups(n, 2)
        bounds = [(low + j * size, low + (j + 1) * size)
                  for low, size, number in runs for j in range(number)]
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        sizes = [high - low for low, high in bounds]
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= vq.GROUP_QUBITS
        assert len(bounds) == min(n, max(2, -(-n // vq.GROUP_QUBITS)))
        assert sum(number for *_, number in vq._groups(n, 1)) == -(-n // vq.GROUP_QUBITS)
        steps = []
        matrices = vq._group_matrices(rotations[None, None], runs, steps)
        for step in steps:
            step()
        groups = [run[0, 0, j] for run, (_, _, number) in zip(matrices, runs)
                  for j in range(number)]
        for (low, high), matrix in zip(bounds, groups):
            want = rotations[low]
            for q in range(low + 1, high):
                want = np.kron(rotations[q], want)  # qubit q on top of those below it
            assert np.array_equal(matrix, want), (n, low, high)
        # every qubit turning alike (QAOA's mixer): a broadcast layer's run shares
        # one matrix, with the bytes of the one built from a materialised copy
        turn = rng.normal(size=(3, 2, 1, 2, 2)) + 1j * rng.normal(size=(3, 2, 1, 2, 2))
        layer = np.broadcast_to(turn, (3, 2, n, 2, 2))
        shared, copied, steps = [], [], []
        for rotations, matrices in ((layer, shared), (layer.copy(), copied)):
            matrices += vq._group_matrices(rotations, runs, steps)
        for step in steps:
            step()
        for got, want, (_, size, number) in zip(shared, copied, runs):
            assert got.shape == want.shape == (3, 2, number, 1 << size, 1 << size)
            for j in range(number):
                assert got[:, :, j].tobytes() == want[:, :, j].tobytes(), (n, size, j)


# -- stacks and start blocks of 1, 3 and 16 columns against the gate path and
# per-row calls (the tests are named for the layout of an earlier kernel)

@pytest.mark.parametrize("kind", ["ry", "rxry"])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 12])
def test_moved_layout_states_equal_ops_path_and_per_row_calls(kind, n):
    rng = np.random.default_rng([n, ["ry", "rxry"].index(kind)])
    for depth in range(4):
        ansatz = _ansaetze(kind, n, depth, rng)
        state_of = vq.compile_ansatz(ansatz)
        for width in (1, 3, 16):
            stack = rng.uniform(-math.pi, math.pi, (width, ansatz.parameter_count))
            block = state_of(stack)
            for row, column in zip(stack, block.T):
                want = apply_ops(new_zero_state(n), vq.ansatz_ops(ansatz, row)).amplitudes
                assert matches_ops_amplitudes(column, want), (depth, width)
                assert column.tobytes() == state_of(row).tobytes(), (depth, width)


@pytest.mark.parametrize("kind", ["ry", "rxry"])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 12])
def test_moved_layout_start_blocks_equal_ops_path_and_per_column_calls(kind, n):
    rng = np.random.default_rng([n, ["ry", "rxry"].index(kind) + 2])
    for depth in range(4):
        ansatz = _ansaetze(kind, n, depth, rng)
        state_of = vq.compile_ansatz(ansatz)
        row = rng.uniform(-math.pi, math.pi, ansatz.parameter_count)
        for width in (1, 3, 16):
            start = rng.normal(size=(1 << n, width)) + 1j * rng.normal(size=(1 << n, width))
            block = state_of(row, start=start)
            want = apply_ops(Statevector(n, start), vq.ansatz_ops(ansatz, row)).amplitudes
            assert matches_ops_amplitudes(block, want), (depth, width)
            for b in range(width):
                column = state_of(row, start=start[:, b:b + 1])
                assert block[:, b].tobytes() == column.tobytes(), (depth, width, b)


@pytest.mark.parametrize("terms", [
    (((3,), 1.0),),
    (((0, 3), 1.0),),
    (((-1,), 1.0),),
    (((1, 1), 1.0),),
    (((0,), 1.0), ((2, 0, 2), 0.5)),
])
def test_qaoa_ansatz_rejects_cost_outside_the_register(terms):
    cost = IsingObservable(terms=terms)
    with pytest.raises(ValueError):
        vq.qaoa_ansatz(3, 1, cost)
    with pytest.raises(ValueError):
        vq.Ansatz("qaoa", 3, 2, cost=cost)


# -- vqe_minimize against a loop over the gate-list objective ----------------

def reference_vqe(observable, ansatz, optimizer, top_k=8):
    """vqe_minimize with one point per objective call, restarted by an
    explicit loop over the seed's children.

    The states come from the compiled function, one row per call: its
    layers round unlike the gates, and the tests above hold it to the gate
    path, so this checks the stacks, blocks and restarts around it.
    """
    n = ansatz.n_qubits
    table = observable.energy_table(n)
    amplitudes = vq.compile_ansatz(ansatz)

    def objective(params):
        return float(np.abs(amplitudes(params)) ** 2 @ table)

    best = None
    for child in np.random.SeedSequence(optimizer.seed).spawn(optimizer.restarts):
        rng = np.random.default_rng(child)
        outcome = minimize(objective, vq._initial_params(ansatz, rng), optimizer, rng=rng)
        if best is None or outcome.value < best.value:
            best = outcome
    state = Statevector(n, amplitudes(best.x))
    return best, vq.sample_solutions(state, table, min(top_k, state.dim))


def _benchmark_observables():
    rng = np.random.default_rng([3, 2])
    w = rng.normal(size=(6, 6))
    portfolio = qb.to_ising(qb.build_portfolio_qubo(qb.PortfolioSpec(
        mu=rng.uniform(0.0, 0.1, 6), sigma=w @ w.T / 6, q=0.5, budget=3)))
    base = rng.uniform(0.1, 0.9, size=(3, 3))
    rho = (base + base.T) / 2.0
    np.fill_diagonal(rho, 1.0)
    diversify = qb.to_ising(qb.build_diversification_qubo(
        qb.DiversificationSpec(rho=rho, q_clusters=2)))
    return portfolio, diversify


PORTFOLIO, DIVERSIFY = _benchmark_observables()


@pytest.mark.parametrize("observable,ansatz,config", [
    (PORTFOLIO, vq.ry_ansatz(6, 3), OptimizerConfig("spsa", 25, seed=3)),
    (PORTFOLIO, vq.qaoa_ansatz(6, 3, PORTFOLIO), OptimizerConfig("spsa", 25, seed=3)),
    (DIVERSIFY, vq.ry_ansatz(12, 1), OptimizerConfig("nelder-mead", 30, seed=3)),
    (PORTFOLIO, vq.ry_ansatz(6, 1), OptimizerConfig("nelder-mead", 20, seed=1, restarts=2)),
    (PORTFOLIO, vq.ry_ansatz(6, 2), OptimizerConfig("spsa", 15, seed=2, restarts=2)),
    (PORTFOLIO, vq.qaoa_ansatz(6, 2, PORTFOLIO), OptimizerConfig("spsa", 10, seed=4)),
], ids=["vqe-spsa", "qaoa-spsa", "diversify-nelder-mead", "nelder-mead-restarts",
        "spsa-restarts", "qaoa-depth-2"])
def test_vqe_minimize_equals_the_ops_objective_loop(observable, ansatz, config):
    got = vq.vqe_minimize(observable, ansatz, config, top_k=5)
    best, top_states = reference_vqe(observable, ansatz, config, top_k=5)
    assert got.best_value == best.value
    assert np.array_equal(got.best_params, best.x)
    assert got.trace == best.trace
    assert got.top_states == top_states


def test_stacks_split_into_blocks_equal_the_ops_objective_loop(monkeypatch):
    # a bound of 2^7 amplitudes splits 6-qubit stacks into blocks of two rows,
    # so Nelder-Mead's simplex and shrinks span several blocks
    monkeypatch.setattr(vq, "BLOCK_AMPLITUDES", 1 << 7)
    ansatz = vq.ry_ansatz(6, 1)
    config = OptimizerConfig("nelder-mead", 40, seed=3)
    got = vq.vqe_minimize(PORTFOLIO, ansatz, config, top_k=5)
    best, top_states = reference_vqe(PORTFOLIO, ansatz, config, top_k=5)
    assert got.best_value == best.value
    assert got.best_params.tobytes() == best.x.tobytes()
    assert got.trace == best.trace
    assert got.top_states == top_states


def objective_rows(monkeypatch, observable, ansatz):
    """The ``rows`` of the objective ``vqe_minimize`` hands ``minimize_restarts``."""
    captured = []

    def capture(fn, initial, config):
        captured.append(fn.rows)
        return OptimizeOutcome(np.zeros(ansatz.parameter_count), 0.0, [0.0], evaluations=0,
                               stop_reason="")

    monkeypatch.setattr(vq, "minimize_restarts", capture)
    vq.vqe_minimize(observable, ansatz, OptimizerConfig(), top_k=1)
    monkeypatch.undo()
    return captured[0]


@pytest.mark.parametrize("kind", ["ry", "qaoa"])
def test_rows_equal_the_former_readout_bytewise(monkeypatch, kind):
    # the readout runs in the plan, into its spare buffer; every value keeps
    # the bytes of the former readout's row of a transposed copy. From 13
    # qubits up a chunk holds 2 rows, then 1, so the stacks span chunks
    rng = np.random.default_rng(["ry", "qaoa"].index(kind) + 50)
    for n in range(1, 15):
        observable = mixed_cost(n, rng)
        ansatz = vq.ry_ansatz(n, 2) if kind == "ry" else vq.qaoa_ansatz(n, 2, observable)
        rows, table = objective_rows(monkeypatch, observable, ansatz), observable.energy_table(n)
        state_of, chunk = vq.compile_ansatz(ansatz, table), max(1, vq.BLOCK_AMPLITUDES >> n)
        for size in range(1, 8):
            stack = rng.uniform(-math.pi, math.pi, (size, ansatz.parameter_count))
            want = np.array(stack_readout(state_of, table, stack, chunk))
            assert np.array(rows(stack)).tobytes() == want.tobytes(), (n, size)
        # the per-point path hands ``rows`` a list of one row
        assert np.array(rows([stack[-1]])).tobytes() == want[-1:].tobytes(), n


@pytest.mark.parametrize("solver,method,n,states", [
    ("vqe", "spsa", 16, 4.07), ("qaoa", "spsa", 16, 4.54), ("vqe", "nelder-mead", 16, 4.05),
    ("vqe", "nelder-mead", 12, 9.35), ("vqe", "spsa", 20, 4.01), ("qaoa", "spsa", 20, 4.51)])
def test_variational_runs_peak_within_their_pinned_states(solver, method, n, states):
    # a one-iteration depth-1 run, in complex 2^n states under tracemalloc.
    # The readout writes into a plan's spare buffer, so no call holds a copy
    # of its block or a probability block beside it; at 12 qubits a
    # Nelder-Mead simplex runs 4 rows per chunk, whose copies took 12.06.
    # sample_solutions sorts only the states at or above the k-th largest
    # probability; sorting all 2^n took one more state
    import tracemalloc

    rng = np.random.default_rng(7)
    w = rng.normal(size=(n, n))
    qubo = qb.build_portfolio_qubo(qb.PortfolioSpec(
        mu=rng.uniform(0.0, 0.1, n), sigma=w @ w.T / n, q=0.5, budget=n // 2))
    tracemalloc.start()
    try:
        vq.minimize_qubo(qubo, solver, 1, OptimizerConfig(method, 1, seed=1), 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= states * (16 << n)


# -- planned state functions: buffers, start blocks and QAOA's memory

@pytest.mark.parametrize("kind", ["ry", "rxry", "qaoa"])
def test_returned_blocks_keep_their_bytes_after_later_calls(kind):
    # plans reuse their buffers, so a returned block must be a copy of them
    rng = np.random.default_rng(["ry", "rxry", "qaoa"].index(kind) + 30)
    ansatz = _ansaetze(kind, 4, 2, rng)
    state_of = vq.compile_ansatz(ansatz)
    kept = []
    for width in (2, 2, 1, 3, 2, 1):  # same width, other widths, evicted plans
        block = state_of(rng.uniform(-math.pi, math.pi, (width, ansatz.parameter_count)))
        kept.append((block, block.tobytes()))
        if kind != "qaoa":
            start = rng.normal(size=(16, width)) + 1j * rng.normal(size=(16, width))
            block = state_of(rng.uniform(-math.pi, math.pi, ansatz.parameter_count),
                             start=start)
            kept.append((block, block.tobytes()))
        for block, data in kept:
            assert block.tobytes() == data


@pytest.mark.parametrize("kind", ["ry", "rxry"])
def test_start_block_equals_ops_path(kind):
    rng = np.random.default_rng(["ry", "rxry"].index(kind) + 40)
    for n in (1, 2, 3, 5, 7):
        for depth in range(3):
            ansatz = _ansaetze(kind, n, depth, rng)
            state_of = vq.compile_ansatz(ansatz)
            for batch in (1, 2, 5):
                start = rng.normal(size=(1 << n, batch)) + 1j * rng.normal(size=(1 << n, batch))
                row = rng.uniform(-math.pi, math.pi, ansatz.parameter_count)
                block = state_of(row, start=start)
                assert block.shape == (1 << n, batch)
                want = apply_ops(Statevector(n, start), vq.ansatz_ops(ansatz, row))
                assert matches_ops_amplitudes(block, want.amplitudes), (n, depth, batch)


def test_start_block_validation():
    ansatz = vq.rxry_ansatz(2, 1)
    state_of = vq.compile_ansatz(ansatz)
    row = np.zeros(ansatz.parameter_count)
    start = np.zeros((4, 3), dtype=complex)
    for bad_row, bad_start in ((np.stack([row, row]), start), (row, start[:2]),
                               (row, start[:, 0])):
        with pytest.raises(ValueError):
            state_of(bad_row, start=bad_start)
    # QAOA starts from the uniform superposition and takes no start block
    qaoa = vq.qaoa_ansatz(2, 1, Z0)
    with pytest.raises(ValueError):
        vq.compile_ansatz(qaoa)(np.zeros(qaoa.parameter_count), start=start)


def test_qaoa_tables_stay_within_the_block_bound():
    import tracemalloc

    # 105 terms over 14 qubits: a (terms x 2^n) complex table would take 27.5 MB
    n = 14
    terms = [((i,), 0.1 * i) for i in range(n)]
    terms += [((i, j), 0.01 * (i + j)) for i in range(n) for j in range(i + 1, n)]
    ansatz = vq.qaoa_ansatz(n, 1, IsingObservable(terms=tuple(terms)))
    tracemalloc.start()
    try:
        state_of = vq.compile_ansatz(ansatz)
        state_of(np.array([0.3, 0.7]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # three 2^n complex vectors: the two ping-pong buffers, the spare one
    # holding exp(-i gamma C), and the returned copy; one 2^n energy table,
    # and 128 KiB for the small tables. A third buffer for the phases, as
    # the per-call functions held, would not fit.
    assert peak < 16 * (3 << n) + 8 * (1 << n) + (1 << 17)


def test_variational_result_carries_the_winning_runs_counts():
    for depth, config in ((1, OptimizerConfig("spsa", 25, seed=3)),
                          (1, OptimizerConfig("spsa", 7, seed=1, restarts=3)),
                          (1, OptimizerConfig("nelder-mead", 40, seed=3, restarts=2)),
                          (0, OptimizerConfig("nelder-mead", 2000, seed=2))):
        ansatz = vq.ry_ansatz(6, depth)
        got = vq.vqe_minimize(PORTFOLIO, ansatz, config, top_k=3)
        best, _ = reference_vqe(PORTFOLIO, ansatz, config, top_k=3)
        assert (got.evaluations, got.stop_reason) == (best.evaluations, best.stop_reason)
        if config.method == "spsa":
            assert (got.evaluations, got.stop_reason) == (1 + 3 * config.iterations, "maxiter")
    assert (got.evaluations, got.stop_reason) == (700, "tolerance")
    uniform = vq.qaoa_minimize(PORTFOLIO, 0, OptimizerConfig(), n_qubits=6)
    assert (uniform.evaluations, uniform.stop_reason) == (1, "none")
