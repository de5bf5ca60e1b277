import tracemalloc
from functools import partial

import numpy as np
import pytest

import oracles
from qfin import optimizers
from qfin import qubo as qb
from qfin import variational as vq
from qfin.cli import main
from qfin.optimizers import OptimizeOutcome, OptimizerConfig, minimize
from qfin.simulator import IsingObservable


def quadratic_bowl(x):
    return float(np.sum((x - 1.5) ** 2))


@pytest.mark.parametrize("method", ["spsa", "nelder-mead"])
def test_minimizes_quadratic_bowl(method):
    config = OptimizerConfig(method=method, iterations=300, seed=0)
    out = minimize(quadratic_bowl, np.zeros(3), config)
    assert out.value < 0.05
    assert np.max(np.abs(out.x - 1.5)) < 0.35


@pytest.mark.parametrize("method", ["spsa", "nelder-mead"])
def test_seeded_determinism(method):
    config = OptimizerConfig(method=method, iterations=120, seed=7)
    one = minimize(quadratic_bowl, np.zeros(4), config)
    two = minimize(quadratic_bowl, np.zeros(4), config)
    assert one.value == two.value
    assert np.array_equal(one.x, two.x)


@pytest.mark.parametrize("method", ["spsa", "nelder-mead"])
def test_trace_is_nonincreasing_best_so_far(method):
    config = OptimizerConfig(method=method, iterations=150, seed=3)
    out = minimize(lambda x: float(np.sum(np.cos(x) + 0.1 * x ** 2)),
                   np.full(3, 2.0), config)
    trace = np.array(out.trace)
    assert np.all(np.diff(trace) <= 1e-15)
    assert trace[-1] == pytest.approx(out.value)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(method="bfgs")
    with pytest.raises(ValueError):
        OptimizerConfig(iterations=0)
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)


def scipy_nelder_mead(fn, x0, config):
    """The former scipy-backed Nelder-Mead, kept as the oracle for the numpy port.

    Returns the outcome fields and scipy's OptimizeResult. scipy evaluates
    the simplex first, so the trace starts at its first row's value, f(x0).
    """
    from scipy.optimize import minimize as scipy_minimize

    x0 = np.asarray(x0, dtype=float)
    simplex = np.vstack([x0] + [x0 + optimizers.SIMPLEX_STEP * np.eye(x0.size)[i]
                                for i in range(x0.size)])
    best = {}
    trace = []

    def wrapped(params):
        point = np.array(params, dtype=float)  # as evaluated: fn may write to params
        value = fn(params)
        if not best or value < best["f"]:
            best["f"] = value
            best["x"] = point
        if not trace:
            trace.append(value)
        return value

    result = scipy_minimize(wrapped, x0, method="Nelder-Mead",
                            callback=lambda xk: trace.append(best["f"]),
                            options={"maxiter": config.iterations, "initial_simplex": simplex,
                                     "xatol": 1e-10, "fatol": 1e-12})
    trace.append(best["f"])
    return best["x"], best["f"], trace, result


def recorded(fn, points=None):
    """fn plus the bytes of every point it was called on, in call order.

    When fn has ``rows``, so does the recorder: it records each row of the
    stack, in row order, and hands the stack on.
    """
    points = [] if points is None else points

    def objective(params):
        points.append(params.tobytes())
        return fn(params)

    if hasattr(fn, "rows"):
        def rows(stack):
            points.extend(row.tobytes() for row in stack)
            return fn.rows(stack)
        objective.rows = rows
    return objective, points


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def scribbling(x):
    # writes to its argument: the simplex must not move when it does
    value = rosenbrock(x)
    x *= 0.5
    return value


def quantised(x):
    # integer levels make simplex vertices and trial points tie
    return float(np.floor(np.sum((x - 0.3) ** 2)))


@pytest.mark.parametrize("fn,x0,iterations,stop_reason", [
    (rosenbrock, np.full(2, -1.2), 400, "tolerance"),
    (rosenbrock, np.linspace(-1.0, 1.0, 5), 120, "maxiter"),
    (rosenbrock, np.linspace(-0.5, 0.7, 12), 100, "maxiter"),
    (quantised, np.linspace(-1.0, 2.0, 6), 150, "tolerance"),
    (scribbling, np.full(3, 2.0), 80, "maxiter"),
    (quadratic_bowl, np.zeros(3), 5000, "tolerance"),
    (quadratic_bowl, np.zeros(3), 1, "maxiter"),
], ids=["rosenbrock-2", "rosenbrock-5", "rosenbrock-12", "quantised-ties", "scribbling",
        "bowl-tolerance", "one-iteration"])
def test_nelder_mead_evaluates_scipys_points(fn, x0, iterations, stop_reason):
    config = OptimizerConfig(method="nelder-mead", iterations=iterations)
    port_fn, port_points = recorded(fn)
    got = minimize(port_fn, x0.copy(), config)
    oracle_fn, oracle_points = recorded(fn)
    want_x, want_f, want_trace, result = scipy_nelder_mead(oracle_fn, x0.copy(), config)
    assert port_points == oracle_points
    assert got.trace == want_trace
    assert got.x.tobytes() == want_x.tobytes()
    assert np.float64(got.value).tobytes() == np.float64(want_f).tobytes()
    assert got.evaluations == len(port_points) == result.nfev
    assert got.stop_reason == stop_reason
    assert result.status == {"tolerance": 0, "maxiter": 2}[stop_reason]
    assert len(got.trace) == result.nit + 1


def test_spsa_reports_evaluations_and_stop_reason():
    fn, points = recorded(quadratic_bowl)
    out = minimize(fn, np.zeros(3), OptimizerConfig(method="spsa", iterations=40))
    assert out.evaluations == len(points) == 1 + 3 * 40
    assert out.stop_reason == "maxiter"


def test_spsa_signs_equal_rng_choice():
    # the oracle is numpy's own choice: same values, same generator state after
    for seed in range(3):
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in range(1, 65):
            delta = optimizers._SIGNS[got.integers(0, 2, size=size)]
            assert delta.tobytes() == want.choice((-1.0, 1.0), size=size).tobytes(), size
            assert got.bit_generator.state == want.bit_generator.state, size


def test_nelder_mead_vqe_matches_scipy(monkeypatch):
    # the port sends the simplex and each shrink through the objective's
    # rows, scipy calls it point by point: both must see the same points
    table = IsingObservable(terms=(((0,), 0.7), ((1, 2), -0.4), ((0, 3), 0.9),
                                   ((2,), -0.3)), offset=0.1).energy_table(4)
    ansatz = vq.ry_ansatz(4, 1)
    config = OptimizerConfig(method="nelder-mead", iterations=60, seed=5)

    def run_with(minimizer):
        points = []

        def patched(fn, x0, config, rng=None):
            objective, _ = recorded(fn, points)
            return minimizer(objective, x0, config)

        monkeypatch.setattr(optimizers, "minimize", patched)
        return vq.vqe_minimize(table, ansatz, config, top_k=4), points

    def oracle(fn, x0, config):
        x, value, trace, result = scipy_nelder_mead(fn, x0, config)
        return OptimizeOutcome(x=x, value=value, trace=trace,
                               evaluations=result.nfev, stop_reason="")

    got, got_points = run_with(minimize)
    want, want_points = run_with(oracle)
    assert got_points == want_points
    assert len(got_points) > 60
    assert got.trace == want.trace
    assert got.best_params.tobytes() == want.best_params.tobytes()
    assert got.best_value == want.best_value
    assert got.top_states == want.top_states


# -- SPSA's +/- pair as one batch, against the sequential loop ---------------

def sequential_spsa(fn, x0, config, rng):
    """SPSA with one objective call per point, kept as the oracle for the batched pair."""
    x = np.asarray(x0, dtype=float).copy()
    best_x = x.copy()
    best_f = fn(x)
    stability = 0.1 * config.iterations
    trace = [best_f]
    for k in range(config.iterations):
        a_k = optimizers.SPSA_A / (k + 1 + stability) ** optimizers.SPSA_ALPHA
        c_k = optimizers.SPSA_C / (k + 1) ** optimizers.SPSA_GAMMA
        delta = rng.choice((-1.0, 1.0), size=x.size)
        diff = fn(x + c_k * delta) - fn(x - c_k * delta)
        x = x - a_k * (diff / (2.0 * c_k)) * delta
        f_x = fn(x)
        if f_x < best_f:
            best_f = f_x
            best_x = x.copy()
        trace.append(best_f)
    return OptimizeOutcome(x=best_x, value=best_f, trace=trace,
                           evaluations=1 + 3 * config.iterations, stop_reason="maxiter")


def _portfolio_table():
    rng = np.random.default_rng([3, 2])
    w = rng.normal(size=(6, 6))
    return qb.all_energies(qb.build_portfolio_qubo(qb.PortfolioSpec(
        mu=rng.uniform(0.0, 0.1, 6), sigma=w @ w.T / 6, q=0.5, budget=3)))


PORTFOLIO = _portfolio_table()


def stripped(fn):
    """fn without its ``rows``: the optimizer must call it point by point."""
    return lambda params: fn(params)


def run_spsa(monkeypatch, spsa, ansatz, rows, iterations=30):
    """vqe_minimize under ``spsa``, its objective with or without ``rows``: the
    outcome, the points it evaluated, its batch sizes and the state of the
    optimizer's generator afterwards."""
    points, batches, outcomes, states = [], [], [], []

    def patched(fn, x0, config, rng=None):
        objective, _ = recorded(fn if rows else stripped(fn), points)
        if rows:
            evaluate = objective.rows

            def counted(stack):
                batches.append(len(stack))
                return evaluate(stack)
            objective.rows = counted
        outcomes.append(spsa(objective, np.asarray(x0, dtype=float), config, rng))
        states.append(rng.bit_generator.state)
        return outcomes[-1]

    monkeypatch.setattr(optimizers, "minimize", patched)
    config = OptimizerConfig("spsa", iterations=iterations, seed=4)
    result = vq.vqe_minimize(PORTFOLIO, ansatz, config, top_k=5)
    return outcomes[0], result, points, batches, states[0]


def assert_same_outcome(got, want):
    assert got.x.tobytes() == want.x.tobytes()
    assert np.float64(got.value).tobytes() == np.float64(want.value).tobytes()
    assert got.trace == want.trace
    assert got.evaluations == want.evaluations


def assert_spsa_equals_sequential(monkeypatch, ansatz, rows, iterations):
    got, got_result, got_points, batches, got_state = run_spsa(
        monkeypatch, optimizers._spsa, ansatz, rows, iterations)
    want, want_result, want_points, _, want_state = run_spsa(
        monkeypatch, sequential_spsa, ansatz, rows, iterations)
    # with rows, f(x_k) and the +/- pair about x_k went through one call;
    # f(x_K) alone. Without, every point is its own call.
    assert batches == ([3] * iterations if rows else [])
    assert got_points == want_points
    assert len(got_points) == got.evaluations == 1 + 3 * iterations
    assert got_state == want_state  # the same draws from the optimizer's generator
    assert_same_outcome(got, want)
    assert got_result.top_states == want_result.top_states


SPSA_ANSATZ = pytest.mark.parametrize(
    "ansatz", [vq.ry_ansatz(6, 3), vq.qaoa_ansatz(6, 3, PORTFOLIO)], ids=["vqe", "qaoa"])
# "exact" is vqe_minimize's exact objective as it is, with rows
SPSA_ROWS = pytest.mark.parametrize("rows", [True, False], ids=["exact", "no-rows"])


@SPSA_ANSATZ
@SPSA_ROWS
def test_batched_spsa_equals_sequential_on_portfolio_objectives(monkeypatch, ansatz, rows):
    assert_spsa_equals_sequential(monkeypatch, ansatz, rows, iterations=30)


@SPSA_ANSATZ
@SPSA_ROWS
def test_batched_spsa_single_iteration_equals_sequential(monkeypatch, ansatz, rows):
    # the first stack [x0, x0 +/- c0*delta0] is also the last: f(x1) runs alone
    assert_spsa_equals_sequential(monkeypatch, ansatz, rows, iterations=1)


def vqe_objective(monkeypatch, ansatz):
    """vqe_minimize's objective on PORTFOLIO and its start point, as handed to minimize."""
    captured = []

    def capture(fn, x0, config, rng=None):
        captured.append((fn, np.array(x0)))
        return OptimizeOutcome(x=np.array(x0), value=0.0, trace=[0.0], evaluations=0,
                               stop_reason="")

    monkeypatch.setattr(optimizers, "minimize", capture)
    vq.vqe_minimize(PORTFOLIO, ansatz, OptimizerConfig(seed=4), top_k=1)
    monkeypatch.undo()
    return captured[0]


def assert_identical_outcomes(got, want):
    """Every field equal byte for byte, the Python type of each value included."""
    assert got.x.tobytes() == want.x.tobytes()
    assert repr(got.value) == repr(want.value)
    assert [repr(v) for v in got.trace] == [repr(v) for v in want.trace]
    assert (got.evaluations, got.stop_reason) == (want.evaluations, want.stop_reason)


@pytest.mark.parametrize("method", ["spsa", "nelder-mead"])
@SPSA_ANSATZ
def test_objective_with_and_without_rows_gives_the_same_outcome(monkeypatch, method, ansatz):
    fn, x0 = vqe_objective(monkeypatch, ansatz)
    config = OptimizerConfig(method, iterations=40, seed=4)
    with_rows, points = recorded(fn)
    without_rows, plain_points = recorded(stripped(fn))
    assert hasattr(with_rows, "rows") and not hasattr(without_rows, "rows")
    got = minimize(with_rows, x0.copy(), config)
    want = minimize(without_rows, x0.copy(), config)
    assert points == plain_points
    assert len(points) == got.evaluations
    assert_identical_outcomes(got, want)


def test_spsa_without_rows_equals_sequential():
    config = OptimizerConfig("spsa", iterations=50, seed=2)
    fn, points = recorded(rosenbrock)
    got = minimize(fn, np.full(4, 0.3), config)
    oracle_fn, oracle_points = recorded(rosenbrock)
    want = sequential_spsa(oracle_fn, np.full(4, 0.3), config, np.random.default_rng(2))
    assert points == oracle_points
    assert len(points) == got.evaluations == 1 + 3 * 50
    assert_same_outcome(got, want)


def test_qaoa_portfolio_command_equals_sequential_spsa(tmp_path, monkeypatch):
    # a regression guard on the whole command: any change to the point
    # sequence, the batched state or its readout shows in result.json
    rng = np.random.default_rng(123)
    w = rng.normal(size=(6, 6))
    instance = tmp_path / "instance.txt"
    qb.write_portfolio_instance(instance, qb.PortfolioSpec(
        mu=rng.uniform(0.0, 0.1, 6), sigma=w @ w.T / 6, q=0.5, budget=3))

    def run(out):
        argv = ["opt", "portfolio", "--instance", str(instance), "--solver", "qaoa",
                "--iterations", "20", "--seed", "7", "--out-dir", str(out)]
        assert main(argv) == 0
        return (out / "result.json").read_bytes()

    batched = run(tmp_path / "batched")
    monkeypatch.setattr(optimizers, "_spsa", sequential_spsa)
    assert run(tmp_path / "sequential") == batched


# -- the objective may write to every array it is handed ---------------------

def poisoning(fn):
    """fn, and its ``rows`` when it has one, filling each array it is handed
    with NaN once it has read it."""
    def objective(params):
        value = fn(params)
        params[...] = np.nan
        return value

    if hasattr(fn, "rows"):
        def rows(stack):
            values = fn.rows(stack)
            stack[...] = np.nan
            return values
        objective.rows = rows
    return objective


@pytest.mark.parametrize("method", ["spsa", "nelder-mead"])
@pytest.mark.parametrize("rows", [True, False], ids=["rows", "per-point"])
def test_an_objective_that_overwrites_its_arguments_changes_no_outcome(monkeypatch, method,
                                                                       rows):
    # the loops reuse buffers for the points they hand out: an objective that
    # writes to them must not reach the simplex, x or the reported best point
    fn, x0 = vqe_objective(monkeypatch, vq.ry_ansatz(6, 1))
    fn = fn if rows else stripped(fn)
    config = OptimizerConfig(method, iterations=60, seed=4)
    for objective in (fn, rosenbrock):
        clean = minimize(objective, x0.copy(), config)
        poisoned = minimize(poisoning(objective), x0.copy(), config)
        assert hasattr(poisoning(objective), "rows") == hasattr(objective, "rows")
        assert not np.isnan(poisoned.x).any()
        assert_identical_outcomes(poisoned, clean)


# -- the loops against the former ones: signs in blocks, held buffers --------

def wavy(x):
    return float(np.sum(np.cos(3.0 * x) + 0.1 * (x - 0.4) ** 2))


def with_rows(fn):
    """fn with a ``rows`` that evaluates a stack row by row, writes and all."""
    def objective(params):
        return fn(params)

    objective.rows = lambda stack: [fn(row) for row in stack]
    return objective


ORACLE_OBJECTIVES = {"plain": wavy, "rows": with_rows(wavy), "scribbling": scribbling,
                     "scribbling-rows": with_rows(scribbling)}
ORACLE_CASES = pytest.mark.parametrize("objective", ORACLE_OBJECTIVES)
ORACLE_WIDTHS = pytest.mark.parametrize("width", [1, 5, 6, 7, 24])


def assert_equals_oracle(loop, oracle, fn, x0):
    """The loop and its oracle see the same points and give identical outcomes."""
    got_fn, got_points = recorded(fn)
    want_fn, want_points = recorded(fn)
    got, want = loop(got_fn, x0.copy()), oracle(want_fn, x0.copy())
    assert got_points == want_points
    assert len(got_points) == got.evaluations
    assert_identical_outcomes(got, want)
    return got


@ORACLE_CASES
@ORACLE_WIDTHS
@pytest.mark.parametrize("iterations", [1, 63, 65, 150])
def test_spsa_equals_the_per_iteration_loop(objective, width, iterations):
    # 150 iterations draw their signs in blocks of 64, 64 and 22
    config = OptimizerConfig("spsa", iterations=iterations, seed=width)
    rng, oracle_rng = np.random.default_rng(width), np.random.default_rng(width)
    assert_equals_oracle(partial(optimizers._spsa, config=config, rng=rng),
                         partial(oracles.spsa_per_iteration, config=config, rng=oracle_rng),
                         ORACLE_OBJECTIVES[objective], np.linspace(-0.5, 0.7, width))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@ORACLE_CASES
@ORACLE_WIDTHS
def test_nelder_mead_equals_the_per_call_loop(objective, width):
    config = OptimizerConfig("nelder-mead", iterations=150)
    assert_equals_oracle(partial(optimizers._nelder_mead, config=config),
                         partial(oracles.nelder_mead_per_call, config=config),
                         ORACLE_OBJECTIVES[objective], np.linspace(-0.5, 0.7, width))


@pytest.mark.parametrize("objective", ["plain", "rows"])
def test_nelder_mead_stopping_on_tolerance_equals_the_per_call_loop(objective):
    config = OptimizerConfig("nelder-mead", iterations=5000)
    fn = quadratic_bowl if objective == "plain" else with_rows(quadratic_bowl)
    got = assert_equals_oracle(partial(optimizers._nelder_mead, config=config),
                               partial(oracles.nelder_mead_per_call, config=config),
                               fn, np.zeros(3))
    assert got.stop_reason == "tolerance"


def non_finite(kind: str, where):
    """wavy(x), or the value ``kind`` names ("nan", "inf", "-inf") where ``where(x)`` holds."""
    def objective(x):
        return float(kind) if where(x) else wavy(x)
    return objective


NON_FINITE = {
    "nan-above": non_finite("nan", lambda x: x[0] > 0.6),
    "inf-above": non_finite("inf", lambda x: x.sum() > 0.9),
    "-inf-below": non_finite("-inf", lambda x: x[0] < -1.2),
    "nan-everywhere": non_finite("nan", lambda x: True),
    "inf-everywhere": non_finite("inf", lambda x: True),
    "-inf-everywhere": non_finite("-inf", lambda x: True),
}


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("objective", NON_FINITE)
@pytest.mark.parametrize("width", [1, 2, 5])
def test_nelder_mead_on_non_finite_values_equals_the_per_call_loop(objective, width):
    # the tolerance test reads the sorted simplex's spread: NaN sorts last,
    # and an infinite spread (or inf - inf) never passes, as scipy's max does not
    config = OptimizerConfig("nelder-mead", iterations=150)
    for fn in (NON_FINITE[objective], with_rows(NON_FINITE[objective])):
        assert_equals_oracle(partial(optimizers._nelder_mead, config=config),
                             partial(oracles.nelder_mead_per_call, config=config),
                             fn, np.linspace(-0.5, 0.7, width))


@pytest.mark.parametrize("restarts", [1, 3])
@pytest.mark.parametrize("method", ["spsa", "nelder-mead"])
@SPSA_ANSATZ
def test_restarts_on_vqe_objectives_equal_the_former_loops(monkeypatch, method, ansatz,
                                                           restarts):
    # the RY objective has 24 parameters and the QAOA one 6, both with rows
    fn, _ = vqe_objective(monkeypatch, ansatz)
    config = OptimizerConfig(method, iterations=70, seed=4, restarts=restarts)
    initial = partial(vq._initial_params, ansatz)
    got_fn, got_points = recorded(fn)
    got = optimizers.minimize_restarts(got_fn, initial, config)
    monkeypatch.setattr(optimizers, "_spsa", oracles.spsa_per_iteration)
    monkeypatch.setattr(optimizers, "_nelder_mead", oracles.nelder_mead_per_call)
    want_fn, want_points = recorded(fn)
    want = optimizers.minimize_restarts(want_fn, initial, config)
    assert got_points == want_points
    assert_identical_outcomes(got, want)


def test_spsa_holds_one_block_of_signs_at_a_time():
    # a run's signs drawn at once would be 20,000 x 200 integers and as many
    # floats, about 64 MB
    config = OptimizerConfig("spsa", iterations=20_000, seed=1)
    tracemalloc.start()
    try:
        minimize(lambda x: 0.0, np.zeros(200), config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
