import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfin import admm
from qfin import qubo as qb
from oracles import (block1_by_qubo, block1_fixed_by_hand, block1_qubo_by_hand,
                     block2_convex_per_check, merit_history, pure_binary_problem,
                     residual_history, solve_auction_loop)

SMALL_BIDS = [((1, 0), 3.0), ((0, 1), 3.0), ((2, 2), 5.0)]
SMALL_UNITS = (2.0, 2.0)


def small_problem():
    return admm.build_auction(SMALL_BIDS, SMALL_UNITS)


def block1(problem, x_bar, y, lam, config):
    """Block 1's QUBO: ``block1_fixed``'s quadratic with ``block1_qubo``'s terms."""
    fixed = admm.block1_fixed(problem, config)
    linear, constant = admm.block1_qubo(problem, x_bar, y, lam, config, fixed)
    return qb.Qubo(n=fixed.n, quadratic=fixed.quadratic, linear=linear, constant=constant)


def test_block1_qubo_matches_direct_formula():
    """Oracle: evaluate the block-1 objective per bitstring."""
    rng = np.random.default_rng(4)
    problem = small_problem()
    config = admm.AdmmConfig(rho=3.0, beta=2.0, c=5.0)
    x_bar = rng.normal(size=2)
    y = rng.normal(size=2)
    lam = rng.normal(size=2)
    block = block1(problem, x_bar, y, lam, config)
    for index in range(8):
        bits = np.array([(index >> i) & 1 for i in range(3)], dtype=float)
        drift = problem.a0 @ bits + problem.a1 @ x_bar - y
        want = problem.binary_objective(bits) + lam @ (problem.a0 @ bits) \
            + 0.5 * config.rho * float(drift @ drift)
        assert qb.energy(block, bits) == pytest.approx(want, abs=1e-9)


def test_block1_decouples_when_couplings_vanish():
    # no consensus rows, no equalities: the block is exactly q(x)
    rng = np.random.default_rng(6)
    m = rng.normal(size=(3, 3))
    quadratic = (m + m.T) / 2
    linear = rng.normal(size=3)
    problem = pure_binary_problem(quadratic, linear)
    config = admm.AdmmConfig()
    block = block1(problem, np.zeros(0), np.zeros(0), np.zeros(0), config)
    for index in range(8):
        bits = np.array([(index >> i) & 1 for i in range(3)], dtype=float)
        assert qb.energy(block, bits) == pytest.approx(
            problem.binary_objective(bits), abs=1e-12)


def test_block1_equality_term_vanishes_on_feasible_x():
    n = 3
    base = pure_binary_problem(np.zeros((n, n)), -np.ones(n))
    problem = admm.MboProblem(
        q_quadratic=base.q_quadratic, q_linear=base.q_linear,
        eq_matrix=np.ones((1, n)), eq_rhs=np.array([2.0]),
        ineq_matrix=base.ineq_matrix, ineq_rhs=base.ineq_rhs,
        phi_quadratic=base.phi_quadratic, phi_linear=base.phi_linear,
        u_lower=base.u_lower, u_upper=base.u_upper,
        joint_x=base.joint_x, joint_u=base.joint_u, joint_rhs=base.joint_rhs,
        a0=base.a0, a1=base.a1)
    config = admm.AdmmConfig(c=50.0)
    block = block1(problem, np.zeros(0), np.zeros(0), np.zeros(0), config)
    feasible = np.array([1.0, 1.0, 0.0])
    assert qb.energy(block, feasible) == pytest.approx(
        problem.binary_objective(feasible), abs=1e-9)


def fold_case(seed):
    """A random problem for block 1 with its config: equality rows, A0 of either sign,
    -0.0 and 0.0 linear entries, c from 1e-300 to 100; every fourth seed an auction."""
    rng = np.random.default_rng(seed)
    config = admm.AdmmConfig(rho=float(10.0 ** rng.uniform(-3.0, 2.0)),
                             c=float(10.0 ** rng.uniform(-300.0, 2.0)))
    if seed % 4 == 3:
        return admm.build_auction(*admm.random_auction(int(rng.integers(1, 9)), 2, 4, seed)), \
            config, rng
    n, l, d, e = (int(rng.integers(low, high)) for low, high in ((1, 9), (0, 4), (0, 4), (0, 3)))
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    m = rng.normal(size=(n, n)) * scale
    q_linear = rng.normal(size=n) * scale
    q_linear[rng.random(n) < 0.3] = -0.0
    q_linear[rng.random(n) < 0.2] = 0.0
    problem = admm.MboProblem(
        q_quadratic=m + m.T, q_linear=q_linear,
        eq_matrix=rng.integers(-2, 3, size=(e, n)).astype(float),
        eq_rhs=rng.integers(-2, 3, size=e).astype(float),
        ineq_matrix=np.zeros((0, n)), ineq_rhs=np.zeros(0),
        phi_quadratic=np.eye(l), phi_linear=np.zeros(l),
        u_lower=np.zeros(l), u_upper=np.ones(l),
        joint_x=np.zeros((0, n)), joint_u=np.zeros((0, l)), joint_rhs=np.zeros(0),
        a0=rng.integers(-3, 4, size=(d, n)) * rng.choice([-1.0, 1.0]), a1=rng.normal(size=(d, l)))
    return problem, config, rng


def assert_same_qubo_terms(got, want):
    """Arrays byte for byte and the constant by its hex, so that a -0.0 -> 0.0 flip shows."""
    for g, w in zip(got, want):
        if isinstance(w, float):
            assert isinstance(g, float) and g.hex() == w.hex()
        else:
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("seed", range(60))
def test_block1_fixed_folds_as_the_hand_expansion_bitwise(seed):
    problem, config, _ = fold_case(seed)
    got, want = admm.block1_fixed(problem, config), block1_fixed_by_hand(problem, config)
    assert_same_qubo_terms((got.quadratic, got.linear, got.constant),
                           (want.quadratic, want.linear, want.constant))


@pytest.mark.parametrize("seed", range(60))
def test_block1_qubo_folds_as_the_hand_expansion_bitwise(seed):
    problem, config, rng = fold_case(seed)
    fixed = admm.block1_fixed(problem, config)
    d, l = problem.n_consensus, problem.n_continuous
    for drift in ("random", "zero", "zero"):
        x_bar = rng.uniform(0.0, 4.0, size=l)
        lam = rng.normal(size=d) * float(rng.random() < 0.7)
        y = problem.a1 @ x_bar if drift == "zero" else rng.normal(size=d)
        assert_same_qubo_terms(admm.block1_qubo(problem, x_bar, y, lam, config, fixed),
                               block1_qubo_by_hand(problem, x_bar, y, lam, config, fixed))


@pytest.mark.parametrize("weight", ["rho", "c"])
def test_block1_folds_as_the_hand_expansion_at_the_smallest_penalty(weight):
    problem, config, rng = fold_case(5)
    config = dataclasses.replace(config, **{weight: admm.MIN_PENALTY})
    fixed, want = admm.block1_fixed(problem, config), block1_fixed_by_hand(problem, config)
    assert_same_qubo_terms((fixed.quadratic, fixed.linear, fixed.constant),
                           (want.quadratic, want.linear, want.constant))
    d, l = problem.n_consensus, problem.n_continuous
    x_bar, y, lam = rng.uniform(0.0, 4.0, size=l), rng.normal(size=d), np.zeros(d)
    assert_same_qubo_terms(admm.block1_qubo(problem, x_bar, y, lam, config, fixed),
                           block1_qubo_by_hand(problem, x_bar, y, lam, config, fixed))


def test_block1_fixed_accepts_a_quadratic_within_the_symmetry_tolerance():
    # q's off-diagonal pair differs by 5e-13, across a rounding midpoint of the penalty's
    # 5e6: folded onto q's quadratic, the sum would be asymmetric by 2^-30 and refused
    half_ulp = 2.0 ** -31
    base = pure_binary_problem(np.array([[0.0, half_ulp - 1e-13], [half_ulp + 4e-13, 0.0]]),
                               np.zeros(2))
    problem = dataclasses.replace(base, eq_matrix=np.full((1, 2), 100.0),
                                  eq_rhs=np.array([100.0]))
    config = admm.AdmmConfig(c=1e3)
    with pytest.raises(ValueError, match="symmetric"):
        qb.fold_equality(qb.Qubo(2, problem.q_quadratic, problem.q_linear),
                         problem.eq_matrix, problem.eq_rhs, 0.5 * config.c)
    got, want = admm.block1_fixed(problem, config), block1_fixed_by_hand(problem, config)
    assert_same_qubo_terms((got.quadratic, got.linear, got.constant),
                           (want.quadratic, want.linear, want.constant))


def test_block2_empty_continuous_is_noop():
    problem = pure_binary_problem(np.zeros((2, 2)), np.ones(2))
    config = admm.AdmmConfig()
    out = admm.block2_convex(problem, np.zeros(2), np.zeros(0), np.zeros(0), config,
                             admm.block2_curvature(problem, config))
    assert out.size == 0


def test_block2_unconstrained_closed_form():
    """phi = ||u||^2 / 2, A1 = I: minimizer (rho (y - A0 x) - lam) / (1 + rho)."""
    rng = np.random.default_rng(8)
    n, l = 2, 3
    problem = admm.MboProblem(
        q_quadratic=np.zeros((n, n)), q_linear=np.zeros(n),
        eq_matrix=np.zeros((0, n)), eq_rhs=np.zeros(0),
        ineq_matrix=np.zeros((0, n)), ineq_rhs=np.zeros(0),
        phi_quadratic=np.eye(l), phi_linear=np.zeros(l),
        u_lower=np.full(l, -np.inf), u_upper=np.full(l, np.inf),
        joint_x=np.zeros((0, n)), joint_u=np.zeros((0, l)), joint_rhs=np.zeros(0),
        a0=rng.normal(size=(l, n)), a1=np.eye(l))
    config = admm.AdmmConfig(rho=2.5, beta=1.0)
    x = rng.integers(0, 2, size=n).astype(float)
    y = rng.normal(size=l)
    lam = rng.normal(size=l)
    want = (config.rho * (y - problem.a0 @ x) - lam) / (1.0 + config.rho)
    got = admm.block2_convex(problem, x, y, lam, config, admm.block2_curvature(problem, config))
    assert np.max(np.abs(got - want)) < 1e-7


def test_block2_box_clamped_scalar():
    """KKT by hand: unconstrained minimizer clamps to the box edge."""
    problem = admm.MboProblem(
        q_quadratic=np.zeros((1, 1)), q_linear=np.zeros(1),
        eq_matrix=np.zeros((0, 1)), eq_rhs=np.zeros(0),
        ineq_matrix=np.zeros((0, 1)), ineq_rhs=np.zeros(0),
        phi_quadratic=np.zeros((1, 1)), phi_linear=np.zeros(1),
        u_lower=np.zeros(1), u_upper=np.ones(1),
        joint_x=np.zeros((0, 1)), joint_u=np.zeros((0, 1)), joint_rhs=np.zeros(0),
        a0=np.ones((1, 1)), a1=-np.eye(1))
    config = admm.AdmmConfig(rho=4.0)
    # unconstrained minimizer of (rho/2)(x - u - y)^2 - lam u is x - y + lam/rho = 2.3
    got = admm.block2_convex(problem, np.array([1.0]), np.array([-1.0]),
                             np.array([4.0 * 0.3]), config, admm.block2_curvature(problem, config))
    assert got[0] == pytest.approx(1.0, abs=1e-7)


def test_block2_respects_joint_halfspace():
    problem = admm.MboProblem(
        q_quadratic=np.zeros((1, 1)), q_linear=np.zeros(1),
        eq_matrix=np.zeros((0, 1)), eq_rhs=np.zeros(0),
        ineq_matrix=np.zeros((0, 1)), ineq_rhs=np.zeros(0),
        phi_quadratic=np.zeros((2, 2)), phi_linear=np.zeros(2),
        u_lower=np.zeros(2), u_upper=np.full(2, 10.0),
        joint_x=np.zeros((1, 1)), joint_u=np.array([[1.0, 1.0]]),
        joint_rhs=np.array([1.0]),
        a0=np.ones((2, 1)), a1=-np.eye(2))
    config = admm.AdmmConfig(rho=2.0)
    got = admm.block2_convex(problem, np.array([1.0]), np.zeros(2), np.zeros(2),
                             config, admm.block2_curvature(problem, config))
    assert got.sum() <= 1.0 + 1e-6
    # target without the halfspace would be (1, 1); the projection splits it
    assert np.allclose(got, [0.5, 0.5], atol=1e-5)


def block2_case(seed):
    """A random block-2 problem, its arguments and a config; joint rows on odd seeds."""
    rng = np.random.default_rng(seed)
    n, l, d = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
    joint = int(seed % 2) * int(rng.integers(1, 3))
    m = rng.normal(size=(l, l))
    problem = admm.MboProblem(
        q_quadratic=np.zeros((n, n)), q_linear=rng.normal(size=n),
        eq_matrix=np.zeros((0, n)), eq_rhs=np.zeros(0),
        ineq_matrix=np.zeros((0, n)), ineq_rhs=np.zeros(0),
        phi_quadratic=m @ m.T * rng.uniform(0.0, 2.0), phi_linear=rng.normal(size=l),
        u_lower=-rng.uniform(0.0, 3.0, size=l), u_upper=rng.uniform(0.5, 3.0, size=l),
        joint_x=rng.uniform(0.0, 1.0, size=(joint, n)),
        joint_u=rng.uniform(0.1, 1.0, size=(joint, l)),
        joint_rhs=rng.uniform(2.0, 4.0, size=joint),
        a0=rng.normal(size=(d, n)), a1=rng.normal(size=(d, l)))
    config = admm.AdmmConfig(rho=float(rng.uniform(0.1, 20.0)), beta=2.0)
    x = rng.integers(0, 2, size=n).astype(float)
    return problem, x, rng.normal(size=d) * 3, rng.normal(size=d) * 3, config


@pytest.mark.parametrize("first_step", [1.0, 16.0])
@pytest.mark.parametrize("seed", range(40))
def test_block2_equals_the_per_check_loop_bitwise(seed, first_step):
    # a first step 16 times 1/L makes every call backtrack
    problem, x, y, lam, config = block2_case(seed)
    hess, step = admm.block2_curvature(problem, config)
    curvature = hess, step * first_step
    got = admm.block2_convex(problem, x, y, lam, config, curvature)
    want = block2_convex_per_check(problem, x, y, lam, config, curvature)
    assert got.tobytes() == want.tobytes()


def test_block3_closed_form_is_stationary():
    rng = np.random.default_rng(10)
    problem = small_problem()
    config = admm.AdmmConfig(rho=7.0, beta=3.0)
    x = rng.integers(0, 2, size=3).astype(float)
    x_bar = rng.normal(size=2)
    lam = rng.normal(size=2)
    y = admm.block3_y(problem, x, x_bar, lam, config)
    gradient = config.beta * y - lam - config.rho * (
        problem.a0 @ x + problem.a1 @ x_bar - y)
    assert np.max(np.abs(gradient)) < 1e-9


def test_block3_matches_gradient_descent_oracle():
    rng = np.random.default_rng(11)
    problem = small_problem()
    config = admm.AdmmConfig(rho=5.0, beta=2.0)
    x = np.array([1.0, 0.0, 1.0])
    x_bar = rng.normal(size=2)
    lam = rng.normal(size=2)
    target = problem.a0 @ x + problem.a1 @ x_bar
    y = np.zeros(2)
    lr = 0.05
    for _ in range(4000):
        grad = config.beta * y - lam - config.rho * (target - y)
        y = y - lr * grad
    assert np.max(np.abs(admm.block3_y(problem, x, x_bar, lam, config) - y)) < 1e-9


def test_block3_limits():
    problem = small_problem()
    x = np.zeros(3)
    x_bar = np.zeros(2)
    zero = admm.block3_y(problem, x, x_bar, np.zeros(2), admm.AdmmConfig())
    assert np.allclose(zero, 0.0)
    # beta -> 0: y -> A0 x + A1 xbar + lam / rho
    config = admm.AdmmConfig(rho=2.0, beta=1e-12)
    lam = np.array([0.4, -0.6])
    x = np.array([1.0, 1.0, 0.0])
    x_bar = np.array([0.3, 0.7])
    want = problem.a0 @ x + problem.a1 @ x_bar + lam / 2.0
    assert np.max(np.abs(admm.block3_y(problem, x, x_bar, lam, config) - want)) < 1e-9


def test_dual_update_zero_residual_fixed_point():
    problem = small_problem()
    config = admm.AdmmConfig(rho=3.0)
    x = np.array([1.0, 0.0, 0.0])
    x_bar = problem.a0 @ x  # A1 = -I so consensus = A0 x - xbar
    lam = np.array([0.5, -0.5])
    out = admm.dual_update(lam, problem.a0 @ x + problem.a1 @ x_bar - np.zeros(2), config)
    assert np.allclose(out, lam)


def test_dual_update_accumulates_residual():
    problem = small_problem()
    config = admm.AdmmConfig(rho=1.0)
    x = np.array([1.0, 1.0, 0.0])
    x_bar = np.zeros(2)
    y = np.zeros(2)
    residual = problem.a0 @ x + problem.a1 @ x_bar - y
    out = admm.dual_update(np.zeros(2), residual, config)
    assert np.allclose(out, residual)


def test_merit_feasible_point_is_objective():
    problem = small_problem()
    x = np.array([1.0, 1.0, 0.0])
    assert admm.merit(problem, x, np.zeros(2), 100.0) == pytest.approx(-6.0)


def test_merit_prices_violations_rowwise():
    problem = small_problem()
    x = np.array([1.0, 1.0, 1.0])  # loads (3, 3) over units (2, 2): excess 1 + 1
    mu = 50.0
    value = admm.merit(problem, x, np.zeros(2), mu)
    assert value == pytest.approx(-11.0 + mu * 2.0)


def test_violation_sums_both_row_kinds_and_merit_prices_it():
    problem = dataclasses.replace(
        small_problem(), joint_x=np.array([[1.0, 0.0, 1.0]]), joint_u=np.array([[0.5, 0.5]]),
        joint_rhs=np.array([1.0]))
    x, u = np.array([1.0, 1.0, 1.0]), np.array([2.0, 1.0])
    # capacity excess 1 + 1, joint row 2 + 1.5 - 1
    assert problem.violation(x, u) == 4.5
    assert admm.merit(problem, x, u, 50.0) == \
        problem.binary_objective(x) + problem.continuous_objective(u) + 50.0 * 4.5


@pytest.mark.parametrize("seed", range(10))
def test_auction_violation_is_the_capacity_excess_bitwise(seed):
    rng = np.random.default_rng(seed)
    problem = admm.build_auction(*admm.random_auction(8, 3, 5, seed))
    x = rng.integers(0, 2, size=8).astype(float)
    want = float(np.maximum(problem.ineq_matrix @ x - problem.ineq_rhs, 0.0).sum())
    assert problem.violation(x, rng.uniform(0.0, 5.0, size=3)).hex() == want.hex()


def test_run_pure_qubo_single_iteration():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(4, 4))
    quadratic = (m + m.T) / 2
    linear = rng.normal(size=4)
    problem = pure_binary_problem(quadratic, linear)
    result = admm.run(problem, admm.AdmmConfig())
    bits, value = qb.brute_force(qb.Qubo(n=4, quadratic=quadratic, linear=linear))
    assert len(result.trace) == 1
    assert np.array_equal(result.x, bits)
    assert result.merit == pytest.approx(value)


def test_run_records_replayable_dual_history():
    # small_problem is a fixed point at k = 1; this instance runs 14 iterations
    problem = admm.build_auction(*admm.random_auction(8, 2, 5, seed=2))
    config = admm.AdmmConfig(max_iterations=8)
    result = admm.run(problem, config)
    lam = np.zeros(2)
    for it in result.trace:
        lam = admm.dual_update(lam, problem.a0 @ it.x + problem.a1 @ it.x_bar - it.y, config)
        assert np.max(np.abs(lam - it.lam)) < 1e-9
    assert len(result.trace) == 8
    assert all(it.block3_gradient_norm < 1e-9 for it in result.trace)


def test_exact_auction_small_instance():
    bits, profit = admm.solve_auction_exact(SMALL_BIDS, SMALL_UNITS)
    assert profit == pytest.approx(6.0)
    assert bits.tolist() == [1.0, 1.0, 0.0]


def test_exact_auction_no_bids_profit_zero():
    bits, profit = admm.solve_auction_exact([], (3.0,))
    assert profit == 0.0
    assert bits.size == 0


@st.composite
def auctions(draw):
    """Up to 10 bids over 1 to 3 items; prices from a short list, so that profits tie."""
    items = draw(st.integers(1, 3))
    price = st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 2.5, 7.25, 13.0])
    bids = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 6)] * items), price),
                         max_size=10))
    units = draw(st.tuples(*[st.sampled_from([0.0, 1.0, 2.5, 4.0, 6.0, 11.0])] * items))
    return bids, units


@settings(max_examples=150, deadline=None, database=None)
@given(case=auctions())
def test_exact_auction_equals_the_subset_loop(case):
    bids, units = case
    bits, profit = admm.solve_auction_exact(bids, units)
    want_bits, want_profit = solve_auction_loop(bids, units)
    assert bits.dtype == want_bits.dtype and bits.tolist() == want_bits.tolist()
    assert type(profit) is float and profit == want_profit


@settings(max_examples=60, deadline=None, database=None)
@given(case=auctions(), table_bits=st.integers(0, 4))
def test_exact_auction_in_table_chunks_equals_the_subset_loop(case, table_bits):
    bids, units = case
    with mock.patch.object(admm, "AUCTION_TABLE_BITS", table_bits):
        bits, profit = admm.solve_auction_exact(bids, units)
    want_bits, want_profit = solve_auction_loop(bids, units)
    assert bits.tolist() == want_bits.tolist() and profit == want_profit


def test_exact_auction_rejects_a_bid_that_misses_an_item():
    with pytest.raises(ValueError, match="every bid must quote all items"):
        admm.solve_auction_exact([((1, 0), 3.0), ((2,), 1.0)], (2.0, 2.0))


def test_unit_demand_ample_capacity_matches_exhaustive():
    rng = np.random.default_rng(11)
    bids = []
    for _ in range(10):
        quantities = rng.integers(0, 2, size=3)
        if quantities.sum() == 0:
            quantities[0] = 1
        bids.append((tuple(int(q) for q in quantities),
                     float(np.round(rng.uniform(1, 10), 2))))
    units = (10.0, 10.0, 10.0)
    exact_bits, exact_profit = admm.solve_auction_exact(bids, units)
    result = admm.run(admm.build_auction(bids, units), admm.AdmmConfig())
    assert admm.auction_profit(bids, result.x) == pytest.approx(exact_profit)
    assert np.array_equal(result.x, exact_bits)


def test_merit_best_reporting_is_trace_minimum():
    problem = small_problem()
    result = admm.run(problem, admm.AdmmConfig(max_iterations=15))
    assert result.merit == pytest.approx(min(it.merit for it in result.trace))


def test_paper_shape_instance_terminates_with_trace():
    bids, units = admm.random_auction(16, 3, 6, seed=42)
    assert len(bids) == 16
    assert np.all(units == 6.0)
    assert all(1 <= q <= 6 for bid in bids for q in bid.quantities)
    problem = admm.build_auction(bids, units)
    result = admm.run(problem, admm.AdmmConfig(rho=12.0, beta=11.0))
    assert len(result.trace) <= 20
    assert passes_stop_test(problem, result.trace)
    assert len(residual_history(result)) == len(merit_history(result))


def test_solver_agnostic_contract_vqe_block1(monkeypatch):
    """Replacing brute force with VQE degrades quality only, never crashes."""
    monkeypatch.setattr(admm, "VQE_ITERATIONS", 40)
    bids = [((1, 0), 4.0), ((0, 1), 3.0), ((1, 1), 5.0)]
    units = (2.0, 2.0)
    problem = admm.build_auction(bids, units)
    config = admm.AdmmConfig(qubo_solver="vqe", max_iterations=5, seed=3)
    result = admm.run(problem, config)
    assert len(result.trace) == 5 or passes_stop_test(problem, result.trace)
    assert result.x.shape == (3,)


def test_auction_csv_roundtrip(tmp_path):
    bids, units = admm.random_auction(5, 2, 4, seed=9)
    path = tmp_path / "auction.csv"
    admm.write_auction_csv(path, bids, units)
    loaded_bids, loaded_units = admm.read_auction_csv(path)
    assert loaded_bids == bids
    assert np.allclose(loaded_units, units)


def test_auction_csv_writer_refuses_a_bid_its_reader_would(tmp_path):
    path = tmp_path / "auction.csv"
    with pytest.raises(ValueError, match="every bid must quote all items"):
        admm.write_auction_csv(path, [((1, 2), 3.0)], [6.0])
    assert not path.exists()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -3.0])
def test_auction_csv_writer_refuses_bad_units(tmp_path, bad):
    path = tmp_path / "auction.csv"
    with pytest.raises(ValueError, match="units"):
        admm.write_auction_csv(path, SMALL_BIDS, (2.0, bad))
    assert not path.exists()


def test_auction_csv_writer_accepts_pairs_and_units_as_an_array(tmp_path):
    path = tmp_path / "auction.csv"
    admm.write_auction_csv(path, SMALL_BIDS, np.array(SMALL_UNITS))
    bids, units = admm.read_auction_csv(path)
    assert bids == [admm.Bid(q, p) for q, p in SMALL_BIDS]
    assert units.tolist() == list(SMALL_UNITS)


def test_auction_csv_requires_units(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("price,qty_item_1\n3.0,1\n2.0,2\n")
    with pytest.raises(ValueError, match="units"):
        admm.read_auction_csv(path)


def test_config_validation():
    with pytest.raises(ValueError):
        admm.AdmmConfig(rho=0.0)
    with pytest.raises(ValueError):
        admm.AdmmConfig(qubo_solver="cplex")


@pytest.mark.parametrize("field", ["rho", "beta", "c"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
def test_config_rejects_non_finite_or_non_positive(field, value):
    with pytest.raises(ValueError, match="finite and positive"):
        admm.AdmmConfig(**{field: value})


@pytest.mark.parametrize("field", ["rho", "c"])
@pytest.mark.parametrize("value", [5e-324, 3 * 5e-324, 2.0 ** -1022,
                                   math.nextafter(admm.MIN_PENALTY, 0.0)])
def test_config_refuses_a_penalty_whose_half_may_round(field, value):
    with pytest.raises(ValueError, match=r"rho and c must be at least 2\^-1021"):
        admm.AdmmConfig(**{field: value})


def test_config_accepts_the_smallest_penalty_that_halves_exactly():
    config = admm.AdmmConfig(rho=admm.MIN_PENALTY, beta=5e-324, c=admm.MIN_PENALTY)
    assert 2.0 * (0.5 * config.rho) == config.rho == 2.0 * (0.5 * config.c)


@pytest.mark.parametrize("quantities,price", [
    ((1, float("nan")), 3.0), ((1, float("inf")), 3.0), ((1, -1), 3.0), ((1, 2.5), 3.0),
    ((1, 2), float("nan")), ((1, 2), float("inf")), ((1, 2), -0.5),
])
def test_bid_rejects_bad_quantity_or_price(quantities, price):
    with pytest.raises(ValueError):
        admm.Bid(quantities, price)


def test_bid_stores_whole_float_quantities_as_ints():
    bid = admm.Bid((1.0, 0.0), 3.0)
    assert bid.quantities == (1, 0)
    assert all(type(q) is int for q in bid.quantities)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -3.0])
def test_build_auction_rejects_bad_units(bad):
    with pytest.raises(ValueError, match="units"):
        admm.build_auction(SMALL_BIDS, (2.0, bad))


# ---------------------------------------------------------------------------
# the held block-1 enumeration against the per-iteration brute force


def start_x_bar(problem):
    return np.where(np.isfinite(problem.u_upper), problem.u_upper,
                    np.where(np.isfinite(problem.u_lower), problem.u_lower, 0.0)) \
        if problem.n_continuous else np.zeros(0)


def passes_stop_test(problem, trace):
    """The last iterate's consensus residual and its changes in x_bar and y are below TOLERANCE."""
    last = trace[-1]
    if len(trace) > 1:
        previous_x_bar, previous_y = trace[-2].x_bar, trace[-2].y
    else:
        previous_x_bar, previous_y = start_x_bar(problem), np.zeros(problem.n_consensus)
    residual = problem.a0 @ last.x + (problem.a1 @ last.x_bar
                                      if problem.n_continuous else 0.0) - last.y
    return bool(np.linalg.norm(residual) < admm.TOLERANCE
                and np.linalg.norm(last.x_bar - previous_x_bar) < admm.TOLERANCE
                and np.linalg.norm(last.y - previous_y) < admm.TOLERANCE)


def reference_run(problem, config):
    """``run`` with a fresh ``qb.brute_force`` of block 1's ``qb.Qubo`` on every iteration,
    or, for VQE and QAOA, ``block1_by_qubo``'s fresh ``qb.Qubo`` and table.

    Block 1's fixed part and block 2's curvature are rebuilt on every
    iteration too, and the norms are ``np.linalg.norm``'s, so this also
    checks that ``run``'s once-per-run copies and its own norms change
    nothing.
    """
    mu = admm.resolve_merit_weight(problem)
    x_bar = start_x_bar(problem)
    y = np.zeros(problem.n_consensus)
    lam = np.zeros(problem.n_consensus)
    trace = []
    for k in range(1, config.max_iterations + 1):
        previous_x_bar, previous_y = x_bar, y
        if config.qubo_solver == "brute-force":
            x = qb.brute_force(block1(problem, x_bar, y, lam, config))[0].astype(float)
        else:
            x = block1_by_qubo(problem, x_bar, y, lam, config, k)
        x_bar = admm.block2_convex(problem, x, y, lam, config,
                                   admm.block2_curvature(problem, config))
        y = admm.block3_y(problem, x, x_bar, lam, config)
        residual = problem.a0 @ x + problem.a1 @ x_bar - y
        gradient = config.beta * y - lam - config.rho * residual
        lam = admm.dual_update(lam, residual, config)
        trace.append(admm.AdmmIterate(
            k=k, x=x, x_bar=x_bar, y=y, lam=lam,
            residual_norm=float(np.linalg.norm(residual)),
            merit=admm.merit(problem, x, x_bar, mu),
            block3_gradient_norm=float(np.abs(gradient).max(initial=0.0))))
        if (trace[-1].residual_norm < admm.TOLERANCE
                and np.linalg.norm(x_bar - previous_x_bar) < admm.TOLERANCE
                and np.linalg.norm(y - previous_y) < admm.TOLERANCE):
            break
    k_star = min(trace, key=lambda it: (it.merit, it.k)).k
    return trace, k_star


ITERATE_ARRAYS = ("x", "x_bar", "y", "lam")
ITERATE_FLOATS = ("residual_norm", "merit", "block3_gradient_norm")


def assert_same_trace(result, reference):
    """Every field of every iterate is the reference's: arrays byte for byte, and
    floats by ``repr``, so that a -0.0 -> 0.0 flip or a float type change shows."""
    trace, k_star = reference
    assert len(result.trace) == len(trace)
    for it, want in zip(result.trace, trace):
        assert it.k == want.k
        for name in ITERATE_ARRAYS:
            got, ref = getattr(it, name), getattr(want, name)
            assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes()), \
                (it.k, name)
        for name in ITERATE_FLOATS:
            assert repr(getattr(it, name)) == repr(getattr(want, name)), (it.k, name)
    assert result.k_star == k_star


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_held_enumeration_matches_per_iteration_brute_force_on_auctions(seed):
    bids, units = admm.random_auction(16, 3, 6, seed=seed)
    problem = admm.build_auction(bids, units)
    config = admm.AdmmConfig(rho=12.0, beta=11.0, max_iterations=12)
    assert_same_trace(admm.run(problem, config), reference_run(problem, config))


@pytest.mark.parametrize("rho,beta", [(12.0, 11.0), (3.0, 1000.0)])
@pytest.mark.parametrize("seed", range(1, 11))
def test_run_equals_the_reference_on_the_benchmark_auctions(seed, rho, beta):
    # the benchmark's instance and iteration limit (perfbench/workloads.py)
    problem = admm.build_auction(*admm.random_auction(16, 3, 6, seed=seed))
    config = admm.AdmmConfig(rho=rho, beta=beta)
    assert_same_trace(admm.run(problem, config), reference_run(problem, config))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("solver", ["vqe", "qaoa"])
def test_variational_block1_from_the_held_table_matches_a_fresh_qubo_per_iteration(solver,
                                                                                  seed):
    problem = admm.build_auction(*admm.random_auction(6, 2, 3, seed=seed))
    config = admm.AdmmConfig(qubo_solver=solver, seed=seed, max_iterations=40)
    assert_same_trace(admm.run(problem, config), reference_run(problem, config))


def test_a_brute_force_run_calls_each_traced_block_once_per_iteration(monkeypatch):
    # the benchmark's --trace 1 reads each block's time from these calls
    calls = dict.fromkeys(("block1_qubo", "block2_convex", "block3_y", "dual_update", "merit"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(admm, name, counted(name, getattr(admm, name)))
    problem = admm.build_auction(*admm.random_auction(16, 3, 6, seed=3))
    result = admm.run(problem, admm.AdmmConfig(rho=12.0, beta=11.0))
    assert len(result.trace) == 13
    assert calls == dict.fromkeys(calls, 13)


def test_held_enumeration_matches_on_two_chunks():
    # 17 binaries: 2^17 states, enumerated in two 2^16-row chunks
    bids, units = admm.random_auction(17, 3, 6, seed=5)
    problem = admm.build_auction(bids, units)
    config = admm.AdmmConfig(rho=12.0, beta=11.0, max_iterations=3)
    assert_same_trace(admm.run(problem, config), reference_run(problem, config))


def test_held_enumeration_matches_on_dense_pure_binary_problem():
    rng = np.random.default_rng(21)
    m = rng.normal(size=(12, 12)) * 2.3
    problem = pure_binary_problem((m + m.T) / 2, rng.normal(size=12))
    config = admm.AdmmConfig()
    assert_same_trace(admm.run(problem, config), reference_run(problem, config))


def equality_rows_problem():
    rng = np.random.default_rng(22)
    n, l = 10, 2
    m = rng.normal(size=(n, n))
    return admm.MboProblem(
        q_quadratic=(m + m.T) / 2, q_linear=rng.normal(size=n),
        eq_matrix=rng.integers(0, 2, size=(2, n)).astype(float), eq_rhs=np.array([2.0, 3.0]),
        ineq_matrix=np.zeros((0, n)), ineq_rhs=np.zeros(0),
        phi_quadratic=np.eye(l), phi_linear=rng.normal(size=l),
        u_lower=np.zeros(l), u_upper=np.full(l, 4.0),
        joint_x=np.zeros((0, n)), joint_u=np.zeros((0, l)), joint_rhs=np.zeros(0),
        a0=rng.uniform(0.0, 1.5, size=(l, n)), a1=-np.eye(l))


EQUALITY_ROWS_CONFIG = admm.AdmmConfig(rho=3.3, beta=2.1, c=7.5, max_iterations=15)


def test_held_enumeration_matches_with_equality_rows():
    problem, config = equality_rows_problem(), EQUALITY_ROWS_CONFIG
    result = admm.run(problem, config)
    assert len(result.trace) > 1
    assert_same_trace(result, reference_run(problem, config))


@pytest.mark.parametrize("case", ["equality rows", "auction 1", "auction 2"])
def test_a_run_with_the_folds_is_the_run_with_the_hand_expansions(case, monkeypatch):
    if case == "equality rows":
        problem, config = equality_rows_problem(), EQUALITY_ROWS_CONFIG
    else:
        seed = int(case[-1])
        problem = admm.build_auction(*admm.random_auction(10, 3, 5, seed))
        config = admm.AdmmConfig(rho=3.0, beta=2.0, max_iterations=30, seed=seed)
    result = admm.run(problem, config)
    monkeypatch.setattr(admm, "block1_fixed", block1_fixed_by_hand)
    monkeypatch.setattr(admm, "block1_qubo", block1_qubo_by_hand)
    want = admm.run(problem, config)
    assert_same_trace(result, (want.trace, want.k_star))


# ---------------------------------------------------------------------------
# the stop against the full max_iterations run


def assert_stop_loses_nothing(problem, config, monkeypatch):
    """The stopped run is a bitwise prefix of the full run and picks the same iterate."""
    stopped = admm.run(problem, config)
    with monkeypatch.context() as patch:
        patch.setattr(admm, "TOLERANCE", -1.0)
        full = admm.run(problem, config)
    assert len(full.trace) == config.max_iterations
    assert len(stopped.trace) < len(full.trace)
    for it, whole in zip(stopped.trace, full.trace):
        assert np.array_equal(it.x, whole.x)
        assert np.array_equal(it.lam, whole.lam)
        assert it.merit == whole.merit
        assert it.block3_gradient_norm == whole.block3_gradient_norm
    assert np.array_equal(stopped.x, full.x)
    assert stopped.k_star == full.k_star
    assert stopped.merit == full.merit


@pytest.mark.parametrize("seed", range(1, 21))
def test_stop_loses_nothing_on_auctions(seed, monkeypatch):
    problem = admm.build_auction(*admm.random_auction(12, 2, 5, seed=seed))
    assert_stop_loses_nothing(problem, admm.AdmmConfig(rho=12.0, beta=11.0), monkeypatch)


def test_stop_loses_nothing_with_equality_rows(monkeypatch):
    config = dataclasses.replace(EQUALITY_ROWS_CONFIG, max_iterations=100)
    assert_stop_loses_nothing(equality_rows_problem(), config, monkeypatch)


MBO_ARRAYS = ("q_quadratic", "q_linear", "eq_matrix", "eq_rhs", "ineq_matrix", "ineq_rhs",
              "phi_quadratic", "phi_linear", "joint_x", "joint_u", "joint_rhs", "a0", "a1")


def _mbo_fields():
    """Fields of a problem with one entry in every array, so each can be spoiled."""
    return dict(
        q_quadratic=np.eye(2), q_linear=np.ones(2),
        eq_matrix=np.ones((1, 2)), eq_rhs=np.ones(1),
        ineq_matrix=np.ones((1, 2)), ineq_rhs=np.ones(1),
        phi_quadratic=np.eye(1), phi_linear=np.ones(1),
        u_lower=np.zeros(1), u_upper=np.ones(1),
        joint_x=np.ones((1, 2)), joint_u=np.ones((1, 1)), joint_rhs=np.ones(1),
        a0=np.ones((1, 2)), a1=-np.eye(1))


@pytest.mark.parametrize("name", MBO_ARRAYS)
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_mbo_problem_rejects_non_finite_entries(name, bad):
    fields = _mbo_fields()
    admm.MboProblem(**fields)
    spoiled = fields[name].copy()
    spoiled.flat[-1] = bad
    fields[name] = spoiled
    with pytest.raises(ValueError, match=name):
        admm.MboProblem(**fields)


@pytest.mark.parametrize("lower,upper", [
    (float("nan"), 1.0), (0.0, float("nan")), (float("inf"), float("inf")),
    (-float("inf"), -float("inf"))])
def test_mbo_problem_rejects_bad_box_bounds(lower, upper):
    fields = _mbo_fields()
    fields.update(u_lower=np.array([lower]), u_upper=np.array([upper]))
    with pytest.raises(ValueError, match="u_lower"):
        admm.MboProblem(**fields)


def test_mbo_problem_accepts_an_unbounded_box():
    fields = _mbo_fields()
    fields.update(u_lower=np.array([-np.inf]), u_upper=np.array([np.inf]))
    admm.MboProblem(**fields)


# one array at a time given a shape that does not fit the rest of _mbo_fields'
# problem (n = 2, l = 1 and one row of each kind)
WRONG_SHAPES = [
    ("q_quadratic", np.eye(3)), ("q_linear", np.ones((2, 1))),
    ("eq_matrix", np.ones((1, 3))), ("eq_rhs", np.ones(2)),
    ("ineq_matrix", np.ones((1, 1))), ("ineq_rhs", np.ones(())),
    ("phi_quadratic", np.eye(2)), ("phi_linear", np.ones((1, 1))),
    ("u_lower", np.zeros(2)), ("u_upper", np.ones(0)),
    ("joint_x", np.ones((1, 3))), ("joint_u", np.ones((1, 2))), ("joint_rhs", np.ones(2)),
    ("a0", np.ones((1, 1))), ("a1", -np.eye(2)),
]


@pytest.mark.parametrize("name,bad", WRONG_SHAPES, ids=[name for name, _ in WRONG_SHAPES])
def test_mbo_problem_rejects_a_wrong_shape(name, bad):
    fields = _mbo_fields()
    assert set(fields) == {name for name, _ in WRONG_SHAPES}
    fields[name] = bad
    with pytest.raises(ValueError, match=f"^{name} must have shape"):
        admm.MboProblem(**fields)


@pytest.mark.parametrize("name", ["eq_matrix", "ineq_matrix", "joint_x", "joint_u", "a0", "a1"])
def test_mbo_problem_rejects_a_wrong_width_with_no_rows(name):
    fields = dict(_mbo_fields(), eq_matrix=np.zeros((0, 2)), eq_rhs=np.zeros(0),
                  ineq_matrix=np.zeros((0, 2)), ineq_rhs=np.zeros(0),
                  joint_x=np.zeros((0, 2)), joint_u=np.zeros((0, 1)), joint_rhs=np.zeros(0),
                  a0=np.zeros((0, 2)), a1=np.zeros((0, 1)))
    admm.MboProblem(**fields)
    fields[name] = np.zeros((0, fields[name].shape[1] + 1))
    with pytest.raises(ValueError, match=f"^{name} must have shape"):
        admm.MboProblem(**fields)


def test_mbo_problem_refuses_misfits_that_numpy_would_broadcast_or_skip():
    # a one-entry u_lower under two continuous variables broadcasts in run
    two = admm.build_auction([((1, 0), 3.0), ((0, 1), 2.0)], (2.0, 2.0))
    with pytest.raises(ValueError, match="^u_lower"):
        dataclasses.replace(two, u_lower=np.zeros(1))
    # empty joint rows of the wrong width on a three-bid auction touch no arithmetic
    problem = small_problem()
    with pytest.raises(ValueError, match="^joint_x"):
        dataclasses.replace(problem, joint_x=np.zeros((0, 7)), joint_u=np.zeros((0, 9)))
    with pytest.raises(ValueError, match="^joint_u"):
        dataclasses.replace(problem, joint_u=np.zeros((0, 9)))
    # one right-hand side under two equality rows would fail only inside run
    with pytest.raises(ValueError, match="^eq_rhs"):
        dataclasses.replace(problem, eq_matrix=np.ones((2, 3)), eq_rhs=np.ones(1))


def test_run_with_consensus_rows_and_no_continuous_variables():
    """a1 is (d, 0): x_bar stays empty, and y and lam follow A0 x alone."""
    rng = np.random.default_rng(31)
    n, d = 8, 3
    m = rng.normal(size=(n, n))
    problem = dataclasses.replace(
        pure_binary_problem((m + m.T) / 2, rng.normal(size=n)),
        a0=rng.uniform(-1.0, 1.0, size=(d, n)), a1=np.zeros((d, 0)))
    config = admm.AdmmConfig(rho=2.0, beta=1.5, max_iterations=20)
    result = admm.run(problem, config)
    assert len(result.trace) > 1
    assert_same_trace(result, reference_run(problem, config))
    a0, rho = problem.a0, config.rho
    y = lam = np.zeros(d)
    for it in result.trace:
        # block 1 by its formula, with A1 xbar gone from the drift
        quadratic = problem.q_quadratic + 0.5 * rho * (a0.T @ a0)
        block = qb.Qubo(n=n, quadratic=quadratic,
                        linear=problem.q_linear + a0.T @ lam - rho * (a0.T @ y),
                        constant=0.5 * rho * float(y @ y))
        assert np.array_equal(it.x, qb.brute_force(block)[0])
        y = (lam + rho * (a0 @ it.x)) / (config.beta + rho)
        lam = lam + rho * (a0 @ it.x - y)
        assert it.x_bar.shape == (0,)
        assert np.allclose(it.y, y, rtol=0.0, atol=1e-12)
        assert np.allclose(it.lam, lam, rtol=0.0, atol=1e-12)
        assert it.residual_norm == pytest.approx(np.linalg.norm(a0 @ it.x - y), abs=1e-12)
        assert it.merit == problem.binary_objective(it.x)
    assert result.merit == min(it.merit for it in result.trace)
