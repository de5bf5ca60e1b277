"""Derivative-free minimizers for the variational loops.

SPSA uses Spall's decaying gains a_k = SPSA_A / (k + 1 + 0.1 N)^SPSA_ALPHA
and c_k = SPSA_C / (k + 1)^SPSA_GAMMA, N the iteration count, with
Bernoulli perturbations; Nelder-Mead is a numpy port of scipy's
fixed-coefficient simplex method, started from the simplex that steps
SIMPLEX_STEP along each axis, and evaluates the same points in the same
order. Both are seed-deterministic and report a best-so-far trace per
iteration, the number of objective calls and why they stopped.

Objectives are deterministic: a point's value depends on the point alone.
An objective may carry a ``rows`` attribute: ``fn.rows(stack)`` takes a
``(B, P)`` array of points and returns a sequence of their B values in row
order, each equal to ``fn(row)``. SPSA evaluates f(x_k) together with the
+/- pair about x_k as one stack of three, and Nelder-Mead its initial
simplex and each shrink as one stack. Without ``rows`` (a plain function, or
a wrapper that does not pass it on) each point of a stack is its own call,
in the same order, so both see the same point sequence and give the same
outcome. A run looks ``rows`` up once.
"""

from dataclasses import dataclass

import numpy as np

METHODS = ("spsa", "nelder-mead")

# SPSA gain schedule
SPSA_A = 0.6
SPSA_C = 0.15
SPSA_ALPHA = 0.602
SPSA_GAMMA = 0.101
# Nelder-Mead initial simplex scale
SIMPLEX_STEP = 0.5
# SPSA's perturbation signs: indexed by ``rng.integers(0, 2, size)``, they give
# the values and generator state ``rng.choice((-1.0, 1.0), size)`` gives
_SIGNS = np.array((-1.0, 1.0))
# Iterations whose signs SPSA draws in one call: the same signs and generator
# state as a draw per iteration, without holding every iteration's signs.
SIGN_BLOCK = 64

# Bounds on ``--iterations`` and ``--restarts``: a run's objective calls grow
# with their product, so a larger value is refused before any is made.
MAX_ITERATIONS = 100_000
MAX_RESTARTS = 100


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "spsa"
    iterations: int = 200
    seed: int = 0
    restarts: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if not 1 <= self.iterations <= MAX_ITERATIONS:
            raise ValueError(f"iterations must lie in [1, {MAX_ITERATIONS}]")
        if not 1 <= self.restarts <= MAX_RESTARTS:
            raise ValueError(f"restarts must lie in [1, {MAX_RESTARTS}]")


@dataclass(frozen=True)
class OptimizeOutcome:
    x: np.ndarray
    value: float
    trace: list[float]
    evaluations: int
    stop_reason: str  # "tolerance" or "maxiter"


def _rows(fn):
    """``fn.rows`` when fn has one, else a function that calls fn on each row of a stack."""
    rows = getattr(fn, "rows", None)
    return rows if rows is not None else lambda stack: [fn(point) for point in stack]


def _spsa(fn, x0: np.ndarray, config: OptimizerConfig, rng: np.random.Generator) -> OptimizeOutcome:
    """SPSA from x0: iteration k evaluates ``[x_k, x_k + c_k*delta_k, x_k - c_k*delta_k]``.

    The three points are one stack, rebuilt each iteration in a buffer held
    for the run, as the step is; the last f(x) is a call of its own, on a copy of x.
    """
    rows, iterations = _rows(fn), config.iterations
    stability = 0.1 * iterations
    x = np.asarray(x0, dtype=float).copy()
    points, step, trace = np.empty((3, x.size)), np.empty(x.size), []
    for first in range(0, iterations, SIGN_BLOCK):
        signs = _SIGNS[rng.integers(0, 2, size=(min(SIGN_BLOCK, iterations - first), x.size))]
        for k, delta in enumerate(signs, first):
            c_k = SPSA_C / (k + 1) ** SPSA_GAMMA
            np.multiply(c_k, delta, out=step)
            points[0] = x
            np.add(x, step, out=points[1])
            np.subtract(x, step, out=points[2])
            f_x, f_plus, f_minus = rows(points)
            if not trace or f_x < best_f:
                best_f = f_x
                best_x = x.copy()
            trace.append(best_f)
            a_k = SPSA_A / (k + 1 + stability) ** SPSA_ALPHA
            np.multiply(a_k * ((f_plus - f_minus) / (2.0 * c_k)), delta, out=step)
            np.subtract(x, step, out=x)
    f_x = fn(x.copy())
    if f_x < best_f:
        best_f = f_x
        best_x = x.copy()
    trace.append(best_f)
    return OptimizeOutcome(x=best_x, value=best_f, trace=trace,
                           evaluations=1 + 3 * iterations, stop_reason="maxiter")


def _nelder_mead(fn, x0: np.ndarray, config: OptimizerConfig) -> OptimizeOutcome:
    """Nelder-Mead with rho=1, chi=2, psi=1/2, sigma=1/2 from an axis-step simplex.

    The operations, their order and the tie-breaking sorts are those of
    scipy.optimize.minimize(method="Nelder-Mead") 1.17 with ``initial_simplex``,
    ``maxiter=config.iterations``, ``xatol=1e-10`` and ``fatol=1e-12``, so the
    objective sees the same points bit for bit, each as a copy of the simplex
    row. The trace starts at f(x0), the value of the simplex's first row.
    """
    rows, n = _rows(fn), x0.size
    sim = np.vstack([x0] + [x0 + SIMPLEX_STEP * np.eye(n)[i] for i in range(n)])
    best_f, best_x, evaluations = None, None, 0

    def evaluate(points):
        # fn gets a copy of the points: it may write to its argument
        nonlocal best_f, best_x, evaluations
        values = rows(np.array(points))
        for params, value in zip(points, values):
            evaluations += 1
            if best_x is None or value < best_f:
                best_f = value
                best_x = params.copy()
        return values

    values = evaluate(sim)
    trace = [values[0]]
    fsim = np.array(values, dtype=float)
    # two sorts, as scipy does: argsort is not stable, so the second may reorder ties
    for _ in range(2):
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)

    stop_reason = "maxiter"
    iterations = 1
    while iterations < config.iterations:
        if (np.abs(sim[1:] - sim[0]).max() <= 1e-10
                and np.abs(fsim[0] - fsim[1:]).max() <= 1e-12):
            stop_reason = "tolerance"
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = evaluate(xr[None])[0]
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = evaluate(xe[None])[0]
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = evaluate(xc[None])[0]
                accept = fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = evaluate(xc[None])[0]
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                fsim[1:] = evaluate(sim[1:])
        iterations += 1
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind, 0)
        trace.append(best_f)
    trace.append(best_f)
    return OptimizeOutcome(x=best_x, value=best_f, trace=trace,
                           evaluations=evaluations, stop_reason=stop_reason)


def minimize(fn, x0, config: OptimizerConfig,
             rng: np.random.Generator | None = None) -> OptimizeOutcome:
    """Run one optimization from x0 under the configured method."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if config.method == "spsa":
        return _spsa(fn, np.asarray(x0, dtype=float), config, rng)
    return _nelder_mead(fn, np.asarray(x0, dtype=float), config)


def minimize_restarts(fn, initial, config: OptimizerConfig) -> OptimizeOutcome:
    """The best of ``config.restarts`` runs of ``minimize``, each from ``initial(rng)``.

    Restart r draws its start point, and SPSA its perturbations, from the
    generator of child r of ``SeedSequence(config.seed)``; the first run
    with the lowest value wins.
    """
    best = None
    for child in np.random.SeedSequence(config.seed).spawn(config.restarts):
        rng = np.random.default_rng(child)
        outcome = minimize(fn, initial(rng), config, rng=rng)
        if best is None or outcome.value < best.value:
            best = outcome
    return best
