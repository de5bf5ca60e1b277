"""Credit-portfolio loss statistics by amplitude estimation.

The CDF operator A = C * S * U acts on four registers laid out low to high:
the latent factor Z (n_z qubits), one default qubit per asset, the weighted
loss sum (n_s qubits), and the objective qubit marked when the loss is at or
below the probed threshold. Classical enumeration oracles use exactly the
same linearized default probabilities as the circuit, so quantum/classical
comparisons are tight to machine precision.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .amplitude_estimation import EstimationProblem, run_ae
from .distributions import discretize_normal, loader_ops
from .simulator import (
    MAX_QUBITS,
    CapacityError,
    Circuit,
    GateOp,
    perm_gate,
    ry,
)


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
    shifted = (norm.ppf(asset.p0) - math.sqrt(asset.rho) * z) / math.sqrt(1.0 - asset.rho)
    return float(norm.cdf(shifted))


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
        if portfolio.n_z == 0 or np.allclose(theta, theta[0]):
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


def uncertainty_operator(portfolio: CreditPortfolio) -> Circuit:
    return Circuit(portfolio.n_qubits, uncertainty_ops(portfolio))


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


def comparator_operator(threshold: int, n_s: int) -> Circuit:
    """Standalone comparator on n_s + 1 qubits (sum register low, objective on top)."""
    return Circuit(n_s + 1, comparator_ops(threshold, tuple(range(n_s)), n_s))


def cdf_operator(portfolio: CreditPortfolio, threshold: int) -> Circuit:
    """A = C S U for the loss CDF at the given threshold."""
    ops = uncertainty_ops(portfolio)
    lgds = [a.lgd for a in portfolio.assets]
    assets = [portfolio.asset_qubit(k) for k in range(portfolio.n_assets)]
    ops += weighted_sum_ops(lgds, assets, portfolio.sum_register)
    ops += comparator_ops(threshold, portfolio.sum_register, portfolio.objective_qubit)
    return Circuit(portfolio.n_qubits, ops)


def estimation_problem(portfolio: CreditPortfolio, threshold: int) -> EstimationProblem:
    return EstimationProblem(cdf_operator(portfolio, threshold),
                             objective_qubit=portfolio.objective_qubit,
                             n_state_qubits=portfolio.n_qubits - 1)


def cdf_estimate(portfolio: CreditPortfolio, threshold: int, m: int,
                 ceiling: int = MAX_QUBITS) -> float:
    """Amplitude-estimated P[L <= threshold]."""
    if portfolio.n_qubits + m > ceiling:
        raise CapacityError(
            f"portfolio needs {portfolio.n_qubits} qubits plus {m} counting, ceiling {ceiling}")
    return run_ae(estimation_problem(portfolio, threshold), m, ceiling=ceiling).a_estimate


@dataclass(frozen=True)
class BisectionProbe:
    low: int
    mid: int
    high: int
    cdf: float


def var_bisection(portfolio: CreditPortfolio, alpha: float, m: int,
                  ceiling: int = MAX_QUBITS) -> tuple[int, list[BisectionProbe]]:
    """Smallest integer loss whose estimated CDF reaches alpha.

    The bracket starts at [-1, total LGD + 1] so the whole distribution is
    inside it; midpoints are floored to integers and each probe is recorded.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    low = -1
    high = portfolio.total_lgd + 1
    trace: list[BisectionProbe] = []
    while high - low > 1:
        mid = (low + high) // 2
        est = cdf_estimate(portfolio, mid, m, ceiling=ceiling)
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


def expected_loss(portfolio: CreditPortfolio) -> float:
    return exact_loss_distribution(portfolio).mean()


def ecr(portfolio: CreditPortfolio, alpha: float, m: int,
        ceiling: int = MAX_QUBITS) -> float:
    """Economic capital requirement: estimated VaR minus the expected loss."""
    var, _ = var_bisection(portfolio, alpha, m, ceiling=ceiling)
    return var - expected_loss(portfolio)


def cvar(dist: LossDistribution, alpha: float) -> float:
    """Tail expectation E[L | L >= VaR_alpha] on the classical pmf."""
    var = dist.value_at_risk(alpha)
    tail = {loss: p for loss, p in dist.pmf.items() if loss >= var}
    mass = sum(tail.values())
    if mass <= 0.0:
        return float(var)
    return sum(loss * p for loss, p in tail.items()) / mass


def load_portfolio_csv(path) -> list[Asset]:
    """Read assets from a CSV with header ``lgd,p0,rho``."""
    assets = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"lgd", "p0", "rho"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError("portfolio CSV must have header lgd,p0,rho")
        for line, row in enumerate(reader, start=2):
            try:
                lgd_raw = float(row["lgd"])
                if lgd_raw != int(lgd_raw):
                    raise ValueError("lgd must be an integer")
                assets.append(Asset(lgd=int(lgd_raw), p0=float(row["p0"]),
                                    rho=float(row["rho"])))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad asset at line {line}: {exc}") from exc
    if not assets:
        raise ValueError("portfolio CSV contains no assets")
    return assets


def write_portfolio_csv(path, assets) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lgd", "p0", "rho"])
        for a in assets:
            writer.writerow([int(a.lgd), repr(float(a.p0)), repr(float(a.rho))])
