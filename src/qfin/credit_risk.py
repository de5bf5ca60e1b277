"""Credit-portfolio loss statistics by amplitude estimation.

The CDF operator A = C * S * U acts on four registers laid out low to high:
the latent factor Z (n_z qubits), one default qubit per asset, the weighted
loss sum (n_s qubits), and the objective qubit marked when the loss is at or
below the probed threshold. The loss S * U leaves in the sum register has a
closed form, ``loss_pmf``, built without a statevector; ``var_bisection``
reads each probe's a = P[L <= t] off its prefix sums, and A as gates is the
oracle of that table. Classical enumeration oracles use exactly the same
linearized default probabilities as the circuit, so quantum/classical
comparisons are tight to machine precision.
"""

import csv
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import inputs
from .amplitude_estimation import EstimationProblem, run_ae
from .distributions import discretize_normal, loader_ops
from .simulator import MAX_QUBITS, CapacityError, GateOp, perm_gate, ry


_STANDARD_NORMAL = NormalDist()


@dataclass(frozen=True)
class Asset:
    """Loss given default (integer currency units), base default probability, and latent-factor sensitivity."""

    lgd: int
    p0: float
    rho: float

    def __post_init__(self):
        if not (isinstance(self.lgd, (int, np.integer)) and self.lgd >= 1):
            raise ValueError("lgd must be an integer >= 1")
        if not 0.0 < self.p0 < 1.0:
            raise ValueError("p0 must lie in (0, 1)")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")


@dataclass(frozen=True)
class CreditPortfolio:
    assets: tuple[Asset, ...]
    n_z: int
    z_low: float = -3.0
    z_high: float = 3.0

    def __post_init__(self):
        if not self.assets:
            raise ValueError("portfolio needs at least one asset")
        if self.n_z < 1:
            raise ValueError("n_z must be >= 1")
        if self.n_qubits > MAX_QUBITS:
            raise CapacityError(
                f"portfolio needs {self.n_qubits} qubits "
                f"(n_z={self.n_z} + K={self.n_assets} + n_s={self.n_sum} + 1), "
                f"ceiling {MAX_QUBITS}")

    @property
    def n_assets(self) -> int:
        return len(self.assets)

    @property
    def total_lgd(self) -> int:
        return sum(a.lgd for a in self.assets)

    @property
    def n_sum(self) -> int:
        return int(math.floor(math.log2(self.total_lgd))) + 1

    @property
    def n_qubits(self) -> int:
        return self.n_z + self.n_assets + self.n_sum + 1

    # register layout
    @property
    def z_register(self) -> tuple[int, ...]:
        return tuple(range(self.n_z))

    def asset_qubit(self, k: int) -> int:
        return self.n_z + k

    @property
    def sum_register(self) -> tuple[int, ...]:
        start = self.n_z + self.n_assets
        return tuple(range(start, start + self.n_sum))

    @property
    def objective_qubit(self) -> int:
        return self.n_z + self.n_assets + self.n_sum


def default_probability(asset: Asset, z: float) -> float:
    """Gaussian conditional independence model: Phi((Phi^-1(p0) - sqrt(rho) z)/sqrt(1-rho))."""
    if asset.rho == 0.0:
        return asset.p0
    shifted = ((_STANDARD_NORMAL.inv_cdf(asset.p0) - math.sqrt(asset.rho) * z)
               / math.sqrt(1.0 - asset.rho))
    # Phi through erfc: NormalDist.cdf's 1 + erf form cancels in the lower tail
    return 0.5 * math.erfc(-shifted / math.sqrt(2.0))


def latent_distribution(portfolio: CreditPortfolio):
    return discretize_normal(0.0, 1.0, portfolio.n_z, portfolio.z_low, portfolio.z_high)


def linear_angle_fit(portfolio: CreditPortfolio) -> list[tuple[float, float]]:
    """Per-asset least-squares fit of theta(z_i) = 2 arcsin sqrt(p_k(z_i)) to a_k*i + b_k."""
    dist = latent_distribution(portfolio)
    idx = np.arange(1 << portfolio.n_z, dtype=float)
    design = np.column_stack([idx, np.ones_like(idx)])
    fits = []
    for asset in portfolio.assets:
        theta = np.array([2.0 * math.asin(math.sqrt(default_probability(asset, z)))
                          for z in dist.grid])
        if np.allclose(theta, theta[0]):
            fits.append((0.0, float(theta[0])))
            continue
        coef, *_ = np.linalg.lstsq(design, theta, rcond=None)
        fits.append((float(coef[0]), float(coef[1])))
    return fits


def uncertainty_ops(portfolio: CreditPortfolio) -> tuple[GateOp, ...]:
    """U: load the latent normal, then index-linear controlled RY per asset.

    The rotation angle b_k + a_k*i is realized by an uncontrolled RY(b_k)
    followed by RY(a_k*2^j) controlled on latent bit j, since RY angles add.
    """
    ops = list(loader_ops(latent_distribution(portfolio)))
    fits = linear_angle_fit(portfolio)
    for k, (a_k, b_k) in enumerate(fits):
        target = portfolio.asset_qubit(k)
        ops.append(ry(b_k, target))
        if a_k != 0.0:
            for j, zq in enumerate(portfolio.z_register):
                ops.append(ry(a_k * (1 << j), target, controls=(zq,)))
    return tuple(ops)


def weighted_sum_ops(lgds, asset_qubits, sum_qubits) -> tuple[GateOp, ...]:
    """S: add sum(lgd_k * x_k) into the sum register, as one basis permutation."""
    k = len(lgds)
    n_s = len(sum_qubits)
    targets = tuple(asset_qubits) + tuple(sum_qubits)
    table = []
    for sub in range(1 << (k + n_s)):
        pattern = sub & ((1 << k) - 1)
        acc = sub >> k
        add = sum(lgd for bit, lgd in enumerate(lgds) if (pattern >> bit) & 1)
        table.append(pattern | (((acc + add) % (1 << n_s)) << k))
    return (perm_gate(targets, table),)


def comparator_ops(threshold: int, sum_qubits, objective: int) -> tuple[GateOp, ...]:
    """C: flip the objective iff the sum register reads <= threshold.

    Thresholds below 0 never fire; thresholds at or above 2^n_s always fire.
    """
    n_s = len(sum_qubits)
    targets = tuple(sum_qubits) + (objective,)
    table = []
    for sub in range(1 << (n_s + 1)):
        value = sub & ((1 << n_s) - 1)
        flag = sub >> n_s
        if value <= threshold:
            flag ^= 1
        table.append(value | (flag << n_s))
    return (perm_gate(targets, table),)


def loss_ops(portfolio: CreditPortfolio) -> tuple[GateOp, ...]:
    """S U: the sum register ends up holding the loss; the objective qubit is untouched."""
    lgds = [a.lgd for a in portfolio.assets]
    assets = [portfolio.asset_qubit(k) for k in range(portfolio.n_assets)]
    return uncertainty_ops(portfolio) + weighted_sum_ops(lgds, assets, portfolio.sum_register)


def cdf_operator(portfolio: CreditPortfolio, threshold: int) -> tuple[GateOp, ...]:
    """A = C S U for the loss CDF at the given threshold, on ``portfolio.n_qubits``."""
    return loss_ops(portfolio) + comparator_ops(threshold, portfolio.sum_register,
                                                portfolio.objective_qubit)


def estimation_problem(portfolio: CreditPortfolio, threshold: int) -> EstimationProblem:
    return EstimationProblem(cdf_operator(portfolio, threshold),
                             objective_qubit=portfolio.objective_qubit,
                             n_state_qubits=portfolio.n_qubits - 1)


def loss_pmf(portfolio: CreditPortfolio) -> np.ndarray:
    """P[L = l] for l = 0 .. 2^n_s - 1, the sum register's distribution after S U.

    Given latent index i the assets default independently with p_k(i) =
    sin^2((a_k i + b_k) / 2): row i starts at loss 0, and each asset keeps its
    mass with 1 - p_k(i) and moves it up by lgd_k with p_k(i); 2^n_s > total
    LGD, so nothing wraps. ``loss_ops`` is the gate-level oracle.
    """
    idx = np.arange(1 << portfolio.n_z)
    table = np.zeros((idx.size, 1 << portfolio.n_sum))
    table[:, 0] = 1.0
    for asset, (a_k, b_k) in zip(portfolio.assets, linear_angle_fit(portfolio)):
        p = np.sin(0.5 * (a_k * idx + b_k))[:, None] ** 2
        moved = p * table[:, :-asset.lgd]
        table *= 1.0 - p
        table[:, asset.lgd:] += moved
    return latent_distribution(portfolio).probabilities @ table


def loss_cdf(portfolio: CreditPortfolio) -> np.ndarray:
    """P[L <= l] for l = 0 .. 2^n_s - 1, the prefix sums of ``loss_pmf``."""
    return np.cumsum(loss_pmf(portfolio))


def cdf_estimate(cdf: np.ndarray, threshold: int, m: int) -> float:
    """Amplitude-estimated P[L <= threshold], given ``loss_cdf``'s table."""
    a = 0.0 if threshold < 0 else cdf[min(threshold, cdf.size - 1)]
    return run_ae(a, m).a_estimate


@dataclass(frozen=True)
class BisectionProbe:
    low: int
    mid: int
    high: int
    cdf: float


def var_bisection(cdf: np.ndarray, total_lgd: int, alpha: float,
                  m: int) -> tuple[int, list[BisectionProbe]]:
    """Smallest integer loss whose estimated CDF reaches alpha, given ``loss_cdf``'s table.

    The bracket starts at [-1, total LGD + 1] so the whole distribution is
    inside it; midpoints are floored to integers and each probe is recorded.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    low = -1
    high = total_lgd + 1
    trace: list[BisectionProbe] = []
    while high - low > 1:
        mid = (low + high) // 2
        est = cdf_estimate(cdf, mid, m)
        trace.append(BisectionProbe(low=low, mid=mid, high=high, cdf=est))
        if est >= alpha:
            high = mid
        else:
            low = mid
    return high, trace


@dataclass(frozen=True)
class LossDistribution:
    """Exact pmf of the total loss over integer loss values."""

    pmf: dict[int, float]

    def __post_init__(self):
        total = sum(self.pmf.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError("pmf must sum to 1")
        if any(v < 0 for v in self.pmf.values()) or any(k < 0 for k in self.pmf):
            raise ValueError("pmf must be a nonnegative distribution on nonnegative losses")

    def cdf(self, x: float) -> float:
        return sum(p for loss, p in self.pmf.items() if loss <= x)

    def mean(self) -> float:
        return sum(loss * p for loss, p in self.pmf.items())

    def value_at_risk(self, alpha: float) -> int:
        for loss in sorted(self.pmf):
            if self.cdf(loss) >= alpha:
                return loss
        return max(self.pmf)


def exact_loss_distribution(portfolio: CreditPortfolio) -> LossDistribution:
    """Classical enumeration over the latent grid and default patterns (linearized angles)."""
    if portfolio.n_assets > 20:
        raise CapacityError("classical enumeration supports at most 20 assets")
    dist = latent_distribution(portfolio)
    fits = linear_angle_fit(portfolio)
    k = portfolio.n_assets
    lgds = [a.lgd for a in portfolio.assets]
    pmf: dict[int, float] = {}
    for i, p_z in enumerate(dist.probabilities):
        p_def = [math.sin(0.5 * (a_k * i + b_k)) ** 2 for a_k, b_k in fits]
        for pattern in range(1 << k):
            weight = p_z
            loss = 0
            for bit in range(k):
                if (pattern >> bit) & 1:
                    weight *= p_def[bit]
                    loss += lgds[bit]
                else:
                    weight *= 1.0 - p_def[bit]
            pmf[loss] = pmf.get(loss, 0.0) + weight
    return LossDistribution(pmf)


def cvar(dist: LossDistribution, alpha: float) -> float:
    """Tail expectation E[L | L >= VaR_alpha] on the classical pmf."""
    var = dist.value_at_risk(alpha)
    tail = {loss: p for loss, p in dist.pmf.items() if loss >= var}
    mass = sum(tail.values())
    if mass <= 0.0:
        return float(var)
    return sum(loss * p for loss, p in tail.items()) / mass


def load_portfolio_csv(path) -> list[Asset]:
    """Read assets from a CSV with header ``lgd,p0,rho``; a bad row is refused by its file line."""
    assets = []
    with inputs.rows(path, "credit portfolio") as rows:
        header = next(rows, None)
        if header is None or not {"lgd", "p0", "rho"}.issubset(header):
            raise ValueError("portfolio CSV must have header lgd,p0,rho")
        lgd, p0, rho = (header.index(name) for name in ("lgd", "p0", "rho"))
        for row in rows:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            lgd_raw = float(row[lgd])
            if not lgd_raw.is_integer():  # also rejects NaN and inf
                raise ValueError("lgd must be an integer")
            assets.append(Asset(lgd=int(lgd_raw), p0=float(row[p0]), rho=float(row[rho])))
    if not assets:
        raise ValueError("portfolio CSV contains no assets")
    return assets


def write_portfolio_csv(path, assets) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lgd", "p0", "rho"])
        for a in assets:
            writer.writerow([int(a.lgd), repr(float(a.p0)), repr(float(a.rho))])
