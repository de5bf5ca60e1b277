import math
import tracemalloc

import numpy as np
import pytest

from qfin import amplitude_estimation as ae
from qfin import credit_risk as cr
from qfin import simulator as sv
from qpe_oracle import controlled_ops, inverse_qft_ops, qpe_failure_loop, single_qubit_problem


def test_true_amplitude_identity_and_x():
    identity = ae.EstimationProblem((), objective_qubit=0, n_state_qubits=0)
    assert ae.true_amplitude(identity) == pytest.approx(0.0)
    flip = ae.EstimationProblem((sv.x(0),), 0, 0)
    assert ae.true_amplitude(flip) == pytest.approx(1.0)


def test_true_amplitude_rotation():
    problem = single_qubit_problem(0.3)
    assert ae.true_amplitude(problem) == pytest.approx(0.3, abs=1e-10)


def test_grover_rotation_identity():
    # oracle: P(objective = 1 after Q^k A|0>) = sin^2((2k+1) theta_a)
    a = 0.3
    theta = math.asin(math.sqrt(a))
    problem = single_qubit_problem(a)
    state = ae.prepare(problem)
    q_ops = ae.grover_ops(problem)
    for k in range(1, 4):
        state = sv.apply_ops(state, q_ops)
        got = sv.probability_of_one(state, problem.objective_qubit)
        assert got == pytest.approx(math.sin((2 * k + 1) * theta) ** 2, abs=1e-9)


def test_grover_half_amplitude_single_step():
    problem = single_qubit_problem(0.5)
    state = sv.apply_ops(ae.prepare(problem), ae.grover_ops(problem))
    # sin^2(3 pi / 4) = 0.5
    assert sv.probability_of_one(state, 0) == pytest.approx(0.5, abs=1e-9)


def test_grover_matches_dense_matrix_definition():
    """Gate-level Q against the textbook reflections built as dense matrices."""
    rng = np.random.default_rng(5)
    ops = (sv.ry(1.234, 0), sv.ry(0.777, 1), sv.cnot(0, 1), sv.ry(0.4, 1, controls=(0,)))
    problem = ae.EstimationProblem(ops, objective_qubit=1, n_state_qubits=1)

    dim = 4
    a_mat = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        basis = np.zeros(dim, dtype=complex)
        basis[col] = 1.0
        a_mat[:, col] = sv.apply_ops(sv.Statevector(2, basis), ops).amplitudes
    s_zero = np.eye(dim)
    s_zero[0, 0] = -1.0
    chi = a_mat @ np.array([1, 0, 0, 0], dtype=complex)
    objective_mask = np.array([(i >> 1) & 1 for i in range(dim)], dtype=bool)
    bad = chi.copy()
    bad[objective_mask] = 0.0
    bad = bad / np.linalg.norm(bad)
    s_good = np.eye(dim, dtype=complex) - 2.0 * np.outer(bad, bad.conj())
    q_dense = a_mat @ s_zero @ a_mat.conj().T @ s_good

    state = chi
    circuit_state = ae.prepare(problem)
    q_ops = ae.grover_ops(problem)
    for _ in range(3):
        state = q_dense @ state
        circuit_state = sv.apply_ops(circuit_state, q_ops)
        assert np.max(np.abs(circuit_state.amplitudes - state)) < 1e-9


def test_run_ae_zero_amplitude_concentrates_at_origin():
    result = ae.run_ae(0.0, 4)
    assert result.y_mode == 0
    assert result.a_estimate == pytest.approx(0.0)
    assert ae.readout_probabilities(0.0, 4, np.arange(16))[0] == pytest.approx(1.0, abs=1e-9)


def test_run_ae_grid_aligned_angle_is_exact():
    a = math.sin(3 * math.pi / 16) ** 2
    result = ae.run_ae(a, 4)
    support = np.nonzero(ae.readout_probabilities(a, 4, np.arange(16)) > 1e-9)[0]
    assert sorted(support.tolist()) == [3, 13]
    assert result.a_estimate == pytest.approx(a, abs=1e-12)


def test_readout_probabilities_normalized_and_symmetric():
    dist = ae.readout_probabilities(0.37, 4, np.arange(16))
    assert dist.sum() == pytest.approx(1.0, abs=1e-9)
    # real-amplitude A gives P(y) = P(M - y) for y != 0
    for y in range(1, 16):
        assert dist[y] == pytest.approx(dist[16 - y], abs=1e-9)


def test_run_ae_capacity_error():
    with pytest.raises(sv.CapacityError, match="counting qubits"):
        ae.run_ae(0.1, ae.MAX_COUNTING_QUBITS + 1)


def test_estimates_grid_symmetry():
    grid = ae.estimates_grid(4)
    for y in range(1, 16):
        assert grid[y] == pytest.approx(grid[16 - y], abs=1e-12)


def test_error_bound_values():
    assert ae.error_bound(0.0, 64) == pytest.approx(math.pi ** 2 / 64 ** 2)
    assert ae.error_bound(1.0, 64) == pytest.approx(math.pi ** 2 / 64 ** 2)
    # bound at a = 0.5 with M = 16: pi/16 + pi^2/256
    assert ae.error_bound(0.5, 16) == pytest.approx(math.pi / 16 + math.pi ** 2 / 256)
    assert ae.error_bound(0.5, 16) == pytest.approx(0.2349, abs=5e-5)


def test_error_bound_maximized_at_half():
    values = [ae.error_bound(a, 16) for a in np.linspace(0, 1, 101)]
    assert np.argmax(values) == 50


def test_bound_coverage_spot_checks():
    for a in (0.13, 0.5, 0.82):
        assert ae.coverage_probability(a, 4) >= 8 / math.pi ** 2


def test_coverage_is_total_on_the_estimator_grid():
    a = math.sin(3 * math.pi / 16) ** 2
    assert ae.coverage_probability(a, 4) == pytest.approx(1.0, abs=1e-9)


def test_qpe_failure_probability_is_probability():
    for s in range(1, 7):
        for p in range(1, 7):
            eps = ae.qpe_failure_probability(s, p)
            assert 0.0 < eps < 1.0


def test_qpe_failure_monotone_decreasing_in_p():
    for s in range(1, 7):
        values = [ae.qpe_failure_probability(s, p) for p in range(1, 7)]
        assert all(values[i] > values[i + 1] for i in range(len(values) - 1))


def test_qpe_failure_probability_is_the_loop_bitwise():
    for s in range(1, 8):
        for p in range(1, 18):
            assert ae.qpe_failure_probability(s, p).hex() == qpe_failure_loop(s, p).hex()


@pytest.mark.parametrize("s,p", [(1, 18), (4, 18), (1, 19)])
def test_qpe_failure_probability_carries_its_sum_across_chunks_bitwise(s, p):
    assert 1 << (p - 1) > ae.QPE_CHUNK
    assert ae.qpe_failure_probability(s, p).hex() == qpe_failure_loop(s, p).hex()


def test_qpe_failure_probability_in_small_chunks_is_the_loop_bitwise(monkeypatch):
    # chunks of 3 terms: a partial last chunk, a full one, and p = 1 and 2 inside the first
    monkeypatch.setattr(ae, "QPE_CHUNK", 3)
    for s in range(1, 4):
        for p in range(1, 10):
            assert ae.qpe_failure_probability(s, p).hex() == qpe_failure_loop(s, p).hex()


def _qpe_distribution(phi: float, t: int) -> np.ndarray:
    """Exact QPE oracle: eigenstate |1> of a diagonal unitary with phase 2 pi phi."""
    ops = [sv.x(0)]
    counting = list(range(1, 1 + t))
    ops += [sv.h(q) for q in counting]
    for j, cq in enumerate(counting):
        ops.append(sv.phase_gate((0,), (0.0, 2 * math.pi * phi * (1 << j)),
                                 controls=(cq,)))
    ops += list(inverse_qft_ops(counting))
    state = sv.apply_ops(sv.new_zero_state(1 + t), ops)
    return sv.register_distribution(state, counting)


@pytest.mark.parametrize("s,p", [(2, 1), (2, 2)])
def test_qpe_failure_matches_exact_simulation(s, p):
    """Formula vs simulated QPE of a phase half a bin off the grid."""
    t = s + p
    big_t = 1 << t
    # average over a few grid offsets; all half-bin phases share one distribution shape
    failures = []
    for j in (0, 1, big_t // 2):
        phi = (j + 0.5) / big_t
        dist = _qpe_distribution(phi, t)
        y = np.arange(big_t)
        distance = np.abs(y - big_t * phi)
        distance = np.minimum(distance, big_t - distance)
        success = dist[distance <= (1 << (p - 1))].sum()
        failures.append(1.0 - success)
    assert np.mean(failures) == pytest.approx(ae.qpe_failure_probability(s, p),
                                              abs=1e-6)


def test_estimation_problem_validation():
    with pytest.raises(ValueError):
        ae.EstimationProblem((sv.x(1),), objective_qubit=0, n_state_qubits=0)
    with pytest.raises(ValueError):
        ae.EstimationProblem((sv.ry(0.3, 0, controls=(2,)),), objective_qubit=0,
                             n_state_qubits=1)
    with pytest.raises(ValueError):
        ae.EstimationProblem((), objective_qubit=3, n_state_qubits=0)


def _qpe_circuit_distribution(problem: ae.EstimationProblem, m: int) -> np.ndarray:
    """Circuit-level canonical AE: the readout ``run_ae`` evaluates in closed form.

    The counting register sits above the A register, controlled Q^{2^j} is
    built by literal repetition of controlled Q, and an inverse QFT reads
    the phase out.
    """
    n_sv = problem.n_qubits
    counting = tuple(range(n_sv, n_sv + m))
    ops = list(problem.a_ops)
    ops.extend(sv.h(q) for q in counting)
    q_ops = ae.grover_ops(problem)
    for j, cq in enumerate(counting):
        ctrl_q = controlled_ops(q_ops, cq)
        for _ in range(1 << j):
            ops.extend(ctrl_q)
    ops.extend(inverse_qft_ops(counting))
    state = sv.apply_ops(sv.new_zero_state(n_sv + m), ops)
    return sv.register_distribution(state, counting)


def _assert_matches_circuit(problem: ae.EstimationProblem, m: int) -> None:
    a = ae.true_amplitude(problem)
    result = ae.run_ae(a, m)
    circuit = _qpe_circuit_distribution(problem, m)
    assert np.max(np.abs(ae.readout_probabilities(a, m, np.arange(1 << m)) - circuit)) <= 1e-12
    # the same tie rule applied to the circuit's distribution
    big_m = 1 << m
    y_circuit = int(np.argmax(circuit[:big_m // 2 + 1]))
    assert abs(result.a_estimate - math.sin(math.pi * y_circuit / big_m) ** 2) <= 1e-15


@pytest.mark.parametrize("m", range(1, 6))
def test_closed_form_matches_circuit_on_criterion_grid(m):
    for step in range(1, 20):
        _assert_matches_circuit(single_qubit_problem(step * 0.05), m)


def test_closed_form_matches_circuit_on_credit_demo():
    portfolio = cr.CreditPortfolio(
        assets=(cr.Asset(1, 0.15, 0.1), cr.Asset(2, 0.25, 0.05)), n_z=2)
    for threshold in range(-1, portfolio.total_lgd + 2):
        for m in (1, 3, 5):
            _assert_matches_circuit(cr.estimation_problem(portfolio, threshold), m)


@pytest.mark.parametrize("seed", range(3))
def test_closed_form_matches_circuit_on_random_portfolios(seed):
    rng = np.random.default_rng([seed, 17])
    assets = tuple(cr.Asset(int(rng.integers(1, 3)), float(rng.uniform(0.05, 0.3)),
                            float(rng.uniform(0.05, 0.3)))
                   for _ in range(int(rng.integers(2, 4))))
    portfolio = cr.CreditPortfolio(assets=assets, n_z=2)
    for threshold in range(portfolio.total_lgd):
        for m in (3, 5):
            _assert_matches_circuit(cr.estimation_problem(portfolio, threshold), m)


def test_tie_rule_picks_lower_half_mode():
    for m in (1, 3, 5):
        big_m = 1 << m
        zero = ae.run_ae(0.0, m)
        assert (zero.y_mode, zero.a_estimate) == (0, 0.0)
        one = ae.run_ae(1.0, m)
        assert (one.y_mode, one.a_estimate) == (big_m // 2, 1.0)
        for a in (0.05, 0.37, 0.5, 0.95):
            result = ae.run_ae(a, m)
            dist = ae.readout_probabilities(a, m, np.arange(big_m))
            assert result.y_mode <= big_m // 2
            assert dist[result.y_mode] == pytest.approx(dist.max(), abs=1e-12)
    # grid-aligned: exact ties between y = 3 and y = M - 3 = 13
    aligned = ae.run_ae(math.sin(3 * math.pi / 16) ** 2, 4)
    assert aligned.y_mode == 3


def test_run_ae_clamps_amplitude_rounded_above_one():
    # the objective always reads 1, but the marginal over these rotations sums
    # to 1 + 4e-16, whose square root exceeds 1 and is outside asin's domain
    ops = (sv.ry(4.862, 0), sv.ry(9.724, 1), sv.x(2))
    problem = ae.EstimationProblem(ops, objective_qubit=2, n_state_qubits=2)
    a = ae.true_amplitude(problem)
    assert math.sqrt(a) > 1.0
    result = ae.run_ae(a, 3)
    assert (result.y_mode, result.a_estimate) == (4, 1.0)
    # and an amplitude rounded below 0 reads as 0
    y = np.arange(8)
    assert (ae.readout_probabilities(-1e-17, 3, y).tolist()
            == ae.readout_probabilities(0.0, 3, y).tolist())


def _full_table_mode(a: float, m: int) -> int:
    """The first maximum of the whole readout over y = 0..M/2: the window's oracle."""
    big_m = 1 << m
    return int(np.argmax(ae.readout_probabilities(a, m, np.arange(big_m))[:big_m // 2 + 1]))


EDGE_AMPLITUDES = (0.0, 1.0, 1e-300, 1 - 1e-16, -1e-17, 1 + 4e-16)


@pytest.mark.parametrize("m", range(1, 13))
def test_window_mode_is_the_full_table_mode_on_grid_midpoints_and_edges(m):
    big_m = 1 << m
    rng = np.random.default_rng([m, 38])
    grid = [math.sin(math.pi * k / big_m) ** 2 for k in range(big_m)]
    # midpoints, where P(y) ties with its neighbour
    midpoints = [math.sin(math.pi * (k + 0.5) / big_m) ** 2 for k in range(big_m)]
    for a in (*grid, *midpoints, *EDGE_AMPLITUDES, *rng.random(200)):
        assert ae.run_ae(a, m).y_mode == _full_table_mode(a, m), a


@pytest.mark.parametrize("m", range(13, 21))
def test_window_mode_is_the_full_table_mode_on_random_amplitudes(m):
    rng = np.random.default_rng([m, 38])
    for a in rng.random(5):
        assert ae.run_ae(a, m).y_mode == _full_table_mode(a, m), a


def test_run_ae_holds_no_readout_table():
    ae.run_ae(0.3, 20)
    tracemalloc.start()
    try:
        ae.run_ae(0.3, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
def test_run_ae_refuses_a_non_finite_amplitude(a):
    with pytest.raises(ValueError, match="finite"):
        ae.run_ae(a, 4)
    with pytest.raises(ValueError, match="finite"):
        ae.readout_probabilities(a, 4, np.arange(16))
