"""Derivative-free minimizers for the variational loops.

SPSA uses the standard decaying gain schedules with Bernoulli perturbations;
Nelder-Mead is a numpy port of scipy's fixed-coefficient simplex method that
evaluates the same points in the same order. Both are seed-deterministic and
report a best-so-far trace per iteration, the number of objective calls and
why they stopped.

An objective may carry a ``rows`` attribute: ``fn.rows(stack)`` takes a
``(B, P)`` array of points and returns their B values in row order, each
equal to ``fn(row)`` and with the same side effects in the same order (an
objective that samples from its own generator draws for row 0, then row 1,
...). SPSA evaluates f(x_k) together with the +/- pair about x_k as one
stack of three, and Nelder-Mead its initial simplex and each shrink as one
stack. SPSA draws the perturbation of a stack before the stack's first
value, where the sequential loop draws it after, so an objective that
draws from the optimizer's own generator must not carry ``rows``. Without
``rows`` (a plain function, a sampled objective, or a wrapper that does not
pass it on) each point is its own call, in the same order, so both paths
see the same point sequence byte for byte and return the same outcome.
"""

from dataclasses import dataclass

import numpy as np

METHODS = ("spsa", "nelder-mead")


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "spsa"
    iterations: int = 200
    seed: int = 0
    restarts: int = 1
    # SPSA gain schedule
    a: float = 0.6
    c: float = 0.15
    alpha: float = 0.602
    gamma: float = 0.101
    # Nelder-Mead initial simplex scale
    simplex_step: float = 0.5

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class OptimizeOutcome:
    x: np.ndarray
    value: float
    trace: list[float]
    evaluations: int
    stop_reason: str  # "tolerance" or "maxiter"


def _values(fn, stack: np.ndarray) -> list:
    """fn at each row of ``stack``, in row order: one ``fn.rows`` call when fn has one."""
    rows = getattr(fn, "rows", None)
    if rows is None:
        return [fn(point) for point in stack]
    return list(rows(stack))


def _spsa(fn, x0: np.ndarray, config: OptimizerConfig, rng: np.random.Generator) -> OptimizeOutcome:
    """SPSA from x0. With ``fn.rows``, f(x_k) and the +/- pair about x_k are one stack.

    The stack ``[x_k, x_k + c_k*delta_k, x_k - c_k*delta_k]`` holds the
    points the sequential loop evaluates next, in its order; only delta_k
    is drawn before f(x_k) rather than after, which no objective with
    ``rows`` can tell (see the module docstring). The last f(x) is a call
    of its own.
    """
    rows = getattr(fn, "rows", None)
    stability = 0.1 * config.iterations
    x = np.asarray(x0, dtype=float).copy()

    def perturbed(k: int) -> tuple:
        """c_k, delta_k and the pair x_k +/- c_k*delta_k about the current x."""
        c_k = config.c / (k + 1) ** config.gamma
        delta = rng.choice((-1.0, 1.0), size=x.size)
        return c_k, delta, (x + c_k * delta, x - c_k * delta)

    if rows is None:
        best_f = fn(x)
    else:
        c_k, delta, pair = perturbed(0)
        best_f, f_plus, f_minus = rows(np.stack([x, *pair]))
    best_x = x.copy()
    trace = [best_f]
    for k in range(config.iterations):
        if rows is None:
            c_k, delta, pair = perturbed(k)
            f_plus, f_minus = fn(pair[0]), fn(pair[1])
        a_k = config.a / (k + 1 + stability) ** config.alpha
        diff = f_plus - f_minus
        x = x - a_k * (diff / (2.0 * c_k)) * delta
        if rows is None or k + 1 == config.iterations:
            f_x = fn(x)
        else:
            c_k, delta, pair = perturbed(k + 1)
            f_x, f_plus, f_minus = rows(np.stack([x, *pair]))
        if f_x < best_f:
            best_f = f_x
            best_x = x.copy()
        trace.append(best_f)
    return OptimizeOutcome(x=best_x, value=best_f, trace=trace,
                           evaluations=1 + 3 * config.iterations, stop_reason="maxiter")


def _nelder_mead(fn, x0: np.ndarray, config: OptimizerConfig) -> OptimizeOutcome:
    """Nelder-Mead with rho=1, chi=2, psi=1/2, sigma=1/2 from an axis-step simplex.

    The operations, their order and the tie-breaking sorts are those of
    scipy.optimize.minimize(method="Nelder-Mead") 1.17 with ``initial_simplex``,
    ``maxiter=config.iterations``, ``xatol=1e-10`` and ``fatol=1e-12``, so the
    objective sees the same points bit for bit, each as a copy of the simplex
    row. x0 is evaluated once before the simplex: objectives that draw from an
    RNG on every call depend on that call sequence.
    """
    n = x0.size
    sim = np.vstack([x0] + [x0 + config.simplex_step * np.eye(n)[i] for i in range(n)])
    best_f = fn(x0)
    best_x = x0.copy()
    evaluations = 1
    trace = [best_f]

    def evaluate(points):
        # each point goes to fn as a row of a copy: fn may write to its argument
        nonlocal best_f, best_x, evaluations
        stack = np.array(points)
        values = _values(fn, stack)
        for params, value in zip(stack, values):
            evaluations += 1
            if value < best_f:
                best_f = value
                best_x = np.array(params, dtype=float)
        return values

    fsim = np.array(evaluate(sim), dtype=float)
    # two sorts, as scipy does: argsort is not stable, so the second may reorder ties
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    stop_reason = "maxiter"
    iterations = 1
    while iterations < config.iterations:
        if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-10
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-12):
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
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
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
