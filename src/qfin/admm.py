"""Three-block ADMM heuristic for mixed-binary optimization.

The problem splits into a QUBO block over the binaries (solved by brute
force, VQE, or QAOA), a convex block over the continuous variables, and a
quadratically-penalized auxiliary block with a closed form, glued by a dual
update and a merit-ranked incumbent. The recorded residual is the
consensus ``A0 x + A1 xbar - y`` that the dual update drives to zero
(Gambella & Simonetto, arXiv:2001.02069).
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import inputs
from . import qubo as qb
from .optimizers import OptimizerConfig
from .simulator import MAX_QUBITS, CapacityError
from .variational import minimize_table

QUBO_SOLVERS = ("brute-force", "vqe", "qaoa")

# ``run`` stops once the consensus residual norm and the changes in xbar and y
# are all below TOLERANCE, or after ``max_iterations`` (at most MAX_ITERATIONS,
# each solving a QUBO). Block 1 by VQE or QAOA runs SPSA for VQE_ITERATIONS
# iterations on a depth-3 RY ansatz or QAOA_DEPTH levels. Block 2 takes at most
# BLOCK2_MAX_STEPS projected-gradient steps down to BLOCK2_TOLERANCE, each
# projection at most DYKSTRA_SWEEPS sweeps.
TOLERANCE = 1e-4
MAX_ITERATIONS = 10_000
VQE_ITERATIONS = 200
QAOA_DEPTH = 2
BLOCK2_MAX_STEPS = 5000
BLOCK2_TOLERANCE = 1e-8
DYKSTRA_SWEEPS = 200


@dataclass(frozen=True)
class MboProblem:
    """min x'Qx + a'x + phi(u) over binary x and box-bounded continuous u.

    Constraints: Gx = b (equality), g(x) <= 0 and l(x, u) <= 0 as linear rows,
    and the consensus structure A0 x + A1 u - y ~ 0 exploited by the solver.
    phi(u) = 0.5 u' P u + r' u.

    Every array's shape is checked here, so the blocks use each as it is. With
    n binaries, l continuous variables and d consensus rows (the lengths of
    ``q_linear`` and ``phi_linear`` and the rows of ``a0``), and e, i and j
    equality, inequality and joint rows (the rows of ``eq_matrix``,
    ``ineq_matrix`` and ``joint_x``), any of them 0: ``q_quadratic`` (n, n),
    ``q_linear`` (n,), ``eq_matrix`` (e, n), ``eq_rhs`` (e,), ``ineq_matrix``
    (i, n), ``ineq_rhs`` (i,), ``phi_quadratic`` (l, l), ``phi_linear``,
    ``u_lower`` and ``u_upper`` (l,), ``joint_x`` (j, n), ``joint_u`` (j, l),
    ``joint_rhs`` (j,), ``a0`` (d, n) and ``a1`` (d, l).
    """

    q_quadratic: np.ndarray
    q_linear: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    ineq_matrix: np.ndarray
    ineq_rhs: np.ndarray
    phi_quadratic: np.ndarray
    phi_linear: np.ndarray
    u_lower: np.ndarray
    u_upper: np.ndarray
    joint_x: np.ndarray
    joint_u: np.ndarray
    joint_rhs: np.ndarray
    a0: np.ndarray
    a1: np.ndarray

    def __post_init__(self):
        n, l = self.n_binary, self.n_continuous
        eq, ineq, joint, d = (m.shape[:1] for m in (self.eq_matrix, self.ineq_matrix,
                                                   self.joint_x, self.a0))
        shapes = dict(q_quadratic=(n, n), q_linear=(n,), eq_matrix=eq + (n,), eq_rhs=eq,
                      ineq_matrix=ineq + (n,), ineq_rhs=ineq, phi_quadratic=(l, l),
                      phi_linear=(l,), u_lower=(l,), u_upper=(l,), joint_x=joint + (n,),
                      joint_u=joint + (l,), joint_rhs=joint, a0=d + (n,), a1=d + (l,))
        for name, shape in shapes.items():
            array = getattr(self, name)
            if array.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, not {array.shape}")
            if name not in ("u_lower", "u_upper") and not np.all(np.isfinite(array)):
                raise ValueError(f"{name} must be finite")
        if not (np.all(self.u_lower < math.inf) and np.all(self.u_upper > -math.inf)):
            raise ValueError("u_lower must be below +inf and u_upper above -inf, neither NaN")
        if np.max(np.abs(self.q_quadratic - self.q_quadratic.T), initial=0.0) > 1e-12:
            raise ValueError("q_quadratic must be symmetric")

    @property
    def n_binary(self) -> int:
        return self.q_linear.size

    @property
    def n_continuous(self) -> int:
        return self.phi_linear.size

    @property
    def n_consensus(self) -> int:
        return self.a0.shape[0]

    def binary_objective(self, x: np.ndarray) -> float:
        return float(x @ self.q_quadratic @ x + self.q_linear @ x)

    def continuous_objective(self, u: np.ndarray) -> float:
        return float(0.5 * u @ self.phi_quadratic @ u + self.phi_linear @ u)


@dataclass(frozen=True)
class AdmmConfig:
    rho: float = 12.0
    beta: float = 11.0
    c: float = 10.0
    max_iterations: int = 100
    qubo_solver: str = "brute-force"
    seed: int = 0

    def __post_init__(self):
        # written so that NaN fails too
        if not all(0.0 < v < math.inf for v in (self.rho, self.beta, self.c)):
            raise ValueError("rho, beta, and c must be finite and positive")
        if not 1 <= self.max_iterations <= MAX_ITERATIONS:
            raise ValueError(f"max_iterations must lie in [1, {MAX_ITERATIONS}]")
        if self.qubo_solver not in QUBO_SOLVERS:
            raise ValueError(f"qubo_solver must be one of {QUBO_SOLVERS}")


def resolve_merit_weight(problem: MboProblem) -> float:
    """Ten times the largest linear objective coefficient (10 when there is none)."""
    scale = float(np.max(np.abs(problem.q_linear), initial=0.0))
    return 10.0 * scale if scale > 0.0 else 10.0


@dataclass
class AdmmIterate:
    k: int
    x: np.ndarray
    x_bar: np.ndarray
    y: np.ndarray
    lam: np.ndarray
    residual_norm: float
    merit: float
    block3_gradient_norm: float


@dataclass
class AdmmResult:
    x: np.ndarray
    x_bar: np.ndarray
    y: np.ndarray
    k_star: int
    merit: float
    trace: list[AdmmIterate]


def block1_fixed(problem: MboProblem, config: AdmmConfig) -> qb.Qubo:
    """Block 1 without its terms in x_bar, y and lam: the part no iterate changes."""
    g_mat, b_vec, a0 = problem.eq_matrix, problem.eq_rhs, problem.a0
    quadratic = (problem.q_quadratic + 0.5 * config.c * (g_mat.T @ g_mat)
                 + 0.5 * config.rho * (a0.T @ a0))
    return qb.Qubo(n=problem.n_binary, quadratic=0.5 * (quadratic + quadratic.T),
                   linear=problem.q_linear - config.c * (g_mat.T @ b_vec),
                   constant=0.5 * config.c * float(b_vec @ b_vec))


def block1_qubo(problem: MboProblem, x_bar: np.ndarray, y: np.ndarray,
                lam: np.ndarray, config: AdmmConfig,
                fixed: qb.Qubo) -> tuple[np.ndarray, float]:
    """Linear term and constant of the binary update's QUBO, the other blocks frozen.

    Expands q(x) + (c/2)||Gx - b||^2 + lam'A0 x + (rho/2)||A0 x + A1 xbar - y||^2;
    ``fixed`` is ``block1_fixed(problem, config)``, whose quadratic matrix,
    checked there, is the QUBO's. A non-finite term raises ``ValueError``
    as ``qb.Qubo`` would.
    """
    drift = problem.a1 @ x_bar - y
    linear = fixed.linear + problem.a0.T @ lam + config.rho * (problem.a0.T @ drift)
    constant = fixed.constant + 0.5 * config.rho * float(drift @ drift)
    if not np.isfinite(linear).all():
        raise ValueError("linear must be finite")
    if not math.isfinite(constant):
        raise ValueError("constant must be finite")
    return linear, constant


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a contiguous 1-D float vector, sqrt(v . v), without its dispatch."""
    return math.sqrt(v @ v)


def _project_box(u: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    return np.minimum(np.maximum(u, lower), upper)


def _project_feasible(u, lower, upper, halfspace_a, halfspace_b):
    """Dykstra alternating projection onto the box intersected with halfspaces."""
    if halfspace_a.size == 0:  # the box alone projects exactly, where sweeps would repeat it
        return _project_box(u, lower, upper)
    rows = [(halfspace_a[i], float(halfspace_b[i])) for i in range(halfspace_a.shape[0])]
    corrections = [np.zeros_like(u) for _ in range(len(rows) + 1)]
    z = u.copy()
    for _ in range(DYKSTRA_SWEEPS):
        previous = z.copy()
        w = z + corrections[0]
        z = _project_box(w, lower, upper)
        corrections[0] = w - z
        for i, (a_row, b_val) in enumerate(rows, start=1):
            w = z + corrections[i]
            excess = a_row @ w - b_val
            z = w - max(0.0, excess) / (a_row @ a_row) * a_row if excess > 0 else w
            corrections[i] = w - z
        if np.linalg.norm(z - previous) < 1e-14:
            break
    return z


class InfeasibleContinuousBlock(Exception):
    """The continuous feasible region for the current binaries is empty."""


def block2_curvature(problem: MboProblem, config: AdmmConfig) -> tuple[np.ndarray, float]:
    """Block 2's Hessian P + rho A1'A1 and its first step, the inverse of its top eigenvalue."""
    hess = problem.phi_quadratic + config.rho * (problem.a1.T @ problem.a1)
    lipschitz = max(float(np.linalg.eigvalsh(hess).max(initial=0.0)), 1e-12)
    return hess, 1.0 / lipschitz


def block2_convex(problem: MboProblem, x: np.ndarray, y: np.ndarray,
                  lam: np.ndarray, config: AdmmConfig,
                  curvature: tuple[np.ndarray, float]) -> np.ndarray:
    """Projected gradient descent for the continuous update.

    Minimizes phi(u) + lam'A1 u + (rho/2)||A0 x + A1 u - y||^2 over the box
    intersected with the joint rows l(x, u) <= 0, to first-order
    stationarity measured by the projected-gradient mapping. ``curvature``
    is ``block2_curvature(problem, config)``.
    """
    hess, step = curvature
    offset = problem.a0 @ x - y
    grad0 = problem.phi_linear + problem.a1.T @ lam + config.rho * (problem.a1.T @ offset)
    half_a = problem.joint_u
    half_b = problem.joint_rhs - problem.joint_x @ x

    def project(u):
        return _project_feasible(u, problem.u_lower, problem.u_upper, half_a, half_b)

    u = project(np.clip(np.zeros(problem.n_continuous), problem.u_lower, problem.u_upper))
    # Skipped when joint_u is empty. Without joint rows the test is an empty sum,
    # a few microseconds per iteration; without continuous variables the rows
    # bind x alone, which block 2 cannot repair and merit prices.
    if half_a.size and np.any(half_a @ u - half_b > 1e-6):
        raise InfeasibleContinuousBlock("joint constraints admit no continuous point")

    def value(u):
        return float(0.5 * u @ hess @ u + grad0 @ u)

    for _ in range(BLOCK2_MAX_STEPS):
        grad = hess @ u + grad0
        start = value(u)
        candidate = project(u - step * grad)
        moved = candidate - u
        # backtracking on the projected step; ``squared`` is that of the final candidate
        shrink = 0
        while value(candidate) > start + grad @ moved \
                + 0.5 / step * (squared := float(moved @ moved)) + 1e-15 and shrink < 60:
            step *= 0.5
            shrink += 1
            candidate = project(u - step * grad)
            moved = candidate - u
        mapping_norm = math.sqrt(squared) / step
        u = candidate
        if mapping_norm <= BLOCK2_TOLERANCE:
            break
    return u


def block3_y(problem: MboProblem, x: np.ndarray, x_bar: np.ndarray,
             lam: np.ndarray, config: AdmmConfig) -> np.ndarray:
    """Closed-form auxiliary update y = (lam + rho (A0 x + A1 xbar)) / (beta + rho)."""
    return (lam + config.rho * (problem.a0 @ x + problem.a1 @ x_bar)) / (config.beta + config.rho)


def dual_update(lam: np.ndarray, residual: np.ndarray, config: AdmmConfig) -> np.ndarray:
    """lam + rho r for the consensus residual r = A0 x + A1 xbar - y."""
    return lam + config.rho * residual


def merit(problem: MboProblem, x: np.ndarray, x_bar: np.ndarray,
          merit_weight: float) -> float:
    """Objective plus weighted rowwise positive-part constraint violations."""
    value = problem.binary_objective(x) + problem.continuous_objective(x_bar)
    violation = float(np.maximum(problem.ineq_matrix @ x - problem.ineq_rhs, 0.0).sum())
    # Skipped without joint rows only for speed: the empty sum would add 0.0 and
    # cost a few microseconds per iteration.
    if problem.joint_rhs.size:
        rows = problem.joint_x @ x + problem.joint_u @ x_bar
        violation += float(np.maximum(rows - problem.joint_rhs, 0.0).sum())
    return value + merit_weight * violation


@np.errstate(over="ignore", invalid="ignore")  # block 1's finite checks refuse an overflow
def run(problem: MboProblem, config: AdmmConfig) -> AdmmResult:
    """Iterate the three blocks and dual update, returning the merit-best iterate.

    The continuous variable starts at its finite upper bound (falling back to
    the lower bound, then zero) so capacity-style consensus rows begin from
    full availability. Each iterate records the norm of the consensus
    residual ``A0 x + A1 xbar - y``. The run stops after max_iterations, or
    at the first iterate whose residual norm and changes ||xbar_k - xbar_{k-1}||
    and ||y_k - y_{k-1}|| are all below TOLERANCE (at k = 1 the previous
    values are the start values): the primal residual and the change in the
    iterate together, as in Boyd et al. (2011), section 3.3. With the residual
    near zero lam barely moves, and with xbar and y repeated the next block-1
    QUBO is (nearly) the one just solved, so with the brute-force solver the
    iterate would repeat and no later one could displace the merit-best.
    VQE and QAOA draw a new SPSA seed per iteration, so for them the same
    stop ends a run that a later iteration might still have changed.

    Block 1's quadratic matrix does not depend on x_bar, y or lam: it is
    checked once, in ``block1_fixed``, and x'Qx is enumerated once per run
    (``qb.QuadraticEnumeration``). Each iteration forms only block 1's
    linear term and constant (``block1_qubo``), writes their subset sums
    into one held 2^n buffer and adds x'Qx and the constant there (the
    energies of ``qb.all_energies`` on each block, bit for bit), and hands
    that table to ``minimize_table``, whatever the solver. Block 2's Hessian
    and first step are computed once per run too, and the residual the
    trace records is the one the dual update adds.

    numpy's overflow warnings are off for the run: a block-1 term that
    overflows raises the ``ValueError`` of the finite checks in
    ``block1_fixed`` (``qb.Qubo``'s), ``block1_qubo`` and ``minimize_table``,
    the command's one line.
    """
    d = problem.n_consensus
    mu = resolve_merit_weight(problem)
    x_bar = np.where(np.isfinite(problem.u_upper), problem.u_upper,
                     np.where(np.isfinite(problem.u_lower), problem.u_lower, 0.0))
    y = np.zeros(d)
    lam = np.zeros(d)
    trace: list[AdmmIterate] = []
    fixed = block1_fixed(problem, config)
    curvature = block2_curvature(problem, config)
    enumeration = qb.QuadraticEnumeration(fixed.quadratic)
    energies = np.empty(1 << fixed.n)
    depth = 3 if config.qubo_solver == "vqe" else QAOA_DEPTH

    for k in range(1, config.max_iterations + 1):
        linear, constant = block1_qubo(problem, x_bar, y, lam, config, fixed)
        opt = (None if config.qubo_solver == "brute-force" else
               OptimizerConfig(method="spsa", iterations=VQE_ITERATIONS,
                               seed=config.seed * 100003 + k))
        table = enumeration.energies(linear, constant, out=energies)
        x = minimize_table(table, config.qubo_solver, depth, opt, 16)[0].astype(float)
        previous_x_bar, previous_y = x_bar, y
        x_bar = block2_convex(problem, x, y, lam, config, curvature)
        y = block3_y(problem, x, x_bar, lam, config)
        residual = problem.a0 @ x + problem.a1 @ x_bar - y
        gradient = config.beta * y - lam - config.rho * residual
        lam = dual_update(lam, residual, config)
        # every array here is fresh from its block, so the trace holds them uncopied
        trace.append(AdmmIterate(
            k=k, x=x, x_bar=x_bar, y=y, lam=lam,
            residual_norm=_norm(residual),
            merit=merit(problem, x, x_bar, mu),
            block3_gradient_norm=float(np.abs(gradient).max(initial=0.0)),
        ))
        if (trace[-1].residual_norm < TOLERANCE and _norm(x_bar - previous_x_bar) < TOLERANCE
                and _norm(y - previous_y) < TOLERANCE):
            break

    best = min(trace, key=lambda it: (it.merit, it.k))
    return AdmmResult(x=best.x, x_bar=best.x_bar, y=best.y, k_star=best.k,
                      merit=best.merit, trace=trace)


# ---------------------------------------------------------------------------
# combinatorial auction


@dataclass(frozen=True)
class Bid:
    quantities: tuple[int, ...]
    price: float

    def __post_init__(self):
        if not all(float(q).is_integer() and q >= 0 for q in self.quantities):
            raise ValueError("quantities must be nonnegative whole numbers")
        if not 0.0 <= self.price < math.inf:
            raise ValueError("price must be finite and nonnegative")
        object.__setattr__(self, "quantities", tuple(int(q) for q in self.quantities))


# 10 x the largest price x (1 + the total quantity) may be at most this. It
# bounds ADMM's merit weight times any capacity violation, and it keeps every
# profit of at most MAX_QUBITS bids finite, with room left for the sums
# around them.
AUCTION_VALUE_LIMIT = 1e300


def _auction_bids(bids, units) -> tuple[list[Bid], np.ndarray]:
    """``Bid``s (from ``(quantities, price)`` pairs too) and finite nonnegative float units.

    Every bid must quote a quantity per item, and the prices and quantities
    must keep within AUCTION_VALUE_LIMIT.
    """
    bids = [b if isinstance(b, Bid) else Bid(tuple(b[0]), float(b[1])) for b in bids]
    units = np.asarray(units, dtype=float)
    if not np.all((units >= 0.0) & (units < math.inf)):
        raise ValueError("units must be finite and nonnegative")
    if any(len(b.quantities) != units.size for b in bids):
        raise ValueError("every bid must quote all items")
    top = max((b.price for b in bids), default=0.0)
    total = sum(float(q) for b in bids for q in b.quantities)  # inf past the float range
    if top and 10.0 * top * (1.0 + total) > AUCTION_VALUE_LIMIT:
        raise ValueError("10 x the largest price x (1 + the total quantity) must be at most "
                         f"{AUCTION_VALUE_LIMIT:g}")
    return bids, units


def build_auction(bids, units) -> MboProblem:
    """Winner determination with multiple units per item.

    Maximizing revenue becomes minimizing -sum p_j x_j. Each capacity row
    ``sum_j qty[i][j] x_j <= u_i`` is routed through the continuous machinery
    with a nonnegative slack: the continuous variable holds the used capacity
    in [0, u_i] (its slack against u_i implicit), A0 is the capacity matrix,
    and A1 = -I ties the two through the consensus rows. The raw capacity
    rows also enter g(x) so the merit function prices violations.
    """
    bids, units = _auction_bids(bids, units)
    m = units.size
    n = len(bids)
    capacity = np.array([[b.quantities[i] for b in bids] for i in range(m)], dtype=float)
    prices = np.array([b.price for b in bids])
    return MboProblem(
        q_quadratic=np.zeros((n, n)), q_linear=-prices,
        eq_matrix=np.zeros((0, n)), eq_rhs=np.zeros(0),
        ineq_matrix=capacity, ineq_rhs=units,
        phi_quadratic=np.zeros((m, m)), phi_linear=np.zeros(m),
        u_lower=np.zeros(m), u_upper=units,
        joint_x=np.zeros((0, n)), joint_u=np.zeros((0, m)), joint_rhs=np.zeros(0),
        a0=capacity, a1=-np.eye(m),
    )


def auction_profit(bids, x) -> float:
    prices = np.array([b.price if isinstance(b, Bid) else float(b[1]) for b in bids])
    return float(prices @ np.asarray(x, dtype=float))


# The exact auction solve tables the subsets of its first AUCTION_TABLE_BITS
# bids and visits those of the rest one at a time.
AUCTION_TABLE_BITS = 16


def solve_auction_exact(bids, units) -> tuple[np.ndarray, float]:
    """Exhaustive winner determination; feasible subsets only.

    Each bid is the column (price, quantity of each item); a subset's profit
    and loads are its columns' sum, added in ascending bid order. The subsets
    of the first AUCTION_TABLE_BITS bids form one table, and each subset of
    the remaining bids adds its columns to it (``qb.subset_sum_blocks``). Of
    the subsets with load <= units + 1e-9 the lowest mask of highest profit
    wins; when no profit is positive no bid is accepted.
    """
    bids, units = _auction_bids(bids, units)
    n = len(bids)
    if n > MAX_QUBITS:
        raise CapacityError(f"exhaustive search supports at most {MAX_QUBITS} bids")
    columns = np.array([(b.price, *b.quantities) for b in bids], dtype=float)
    columns = columns.reshape(n, units.size + 1).T
    best, best_profit = 0, 0.0
    for start, sums in qb.subset_sum_blocks(columns, AUCTION_TABLE_BITS):
        feasible = np.all(sums[1:] <= units.reshape(-1, 1) + 1e-9, axis=0)
        profit = np.where(feasible, sums[0], -math.inf)
        index = int(np.argmax(profit))
        if profit[index] > best_profit:
            best, best_profit = start | index, float(profit[index])
    return qb.bits_of_index(best, n).astype(float), best_profit


AUCTION_MAX_QUANTITY = 6
AUCTION_PRICE_RANGE = (1.0, 30.0)


def random_auction(n_bids: int, n_items: int, units_per_item: int,
                   seed: int) -> tuple[list[Bid], np.ndarray]:
    """Seeded instance in the paper's shape: quantities in [1, AUCTION_MAX_QUANTITY]."""
    rng = np.random.default_rng(seed)
    bids = []
    for _ in range(n_bids):
        quantities = rng.integers(1, AUCTION_MAX_QUANTITY + 1, size=n_items)
        price = float(np.round(rng.uniform(*AUCTION_PRICE_RANGE), 2))
        bids.append(Bid(tuple(int(q) for q in quantities), price))
    return bids, np.full(n_items, float(units_per_item))


def write_auction_csv(path, bids, units) -> None:
    """Header ``price,qty_item_1,..`` rows per bid, then a ``units`` line."""
    bids, units = _auction_bids(bids, units)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["price"] + [f"qty_item_{i + 1}" for i in range(units.size)])
        for b in bids:
            writer.writerow([repr(float(b.price))] + [int(q) for q in b.quantities])
        writer.writerow(["units"] + [repr(float(u)) for u in units])


def read_auction_csv(path) -> tuple[list[Bid], np.ndarray]:
    """Bids and the final ``units`` row of an auction CSV; a bad row is refused by its line."""
    bids, units = [], None
    with inputs.rows(path, "auction") as rows:
        header = next(rows, None)
        if header is None or header[0] != "price":
            raise ValueError("auction CSV needs a price,qty_item_* header, bids, and a units line")
        for row in rows:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            if units is not None:
                raise ValueError("the units line must be the last line")
            values = [float(v) for v in row[1:]]
            if row[0] == "units":
                units = _auction_bids((), values)[1]
            else:
                bids.append(Bid(tuple(values), float(row[0])))
    if units is None:
        raise ValueError("auction CSV is missing its units line")
    if not bids:
        raise ValueError("auction CSV contains no bids")
    return _auction_bids(bids, units)
