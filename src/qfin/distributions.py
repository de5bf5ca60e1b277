"""Discretize probability distributions and load them into qubit registers."""

import math
from dataclasses import dataclass

import numpy as np

from .simulator import GateOp, ry, x


@dataclass(frozen=True)
class DiscretizedDistribution:
    """Probabilities on a 2^n grid with an affine index-to-value map z_i = slope*i + intercept."""

    n_qubits: int
    probabilities: np.ndarray
    slope: float
    intercept: float

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.size != 1 << self.n_qubits:
            raise ValueError("probabilities length must be 2**n_qubits")
        if not np.all(np.isfinite(p)):
            raise ValueError("probabilities must be finite")
        if np.any(p < 0.0):
            raise ValueError("probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")

    @property
    def grid(self) -> np.ndarray:
        return self.slope * np.arange(1 << self.n_qubits) + self.intercept


def discretize_normal(mean: float, stddev: float, n_qubits: int,
                      low: float, high: float) -> DiscretizedDistribution:
    """Equally spaced grid on [low, high]; probabilities proportional to the density."""
    if stddev <= 0.0:
        raise ValueError("stddev must be positive")
    if not low < high:
        raise ValueError("low must be less than high")
    if not math.isfinite(high - low):
        raise ValueError("low and high must be finite, and so must high - low")
    n_points = 1 << n_qubits
    grid = np.linspace(low, high, n_points)
    z = (grid - mean) / stddev
    with np.errstate(over="ignore"):  # z**2 = inf has density 0, as it should
        weights = np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi) / stddev  # scipy's norm.pdf, bit for bit
    total = weights.sum()
    if not (math.isfinite(total) and total > 0.0):
        # a grid far enough in the tail underflows every weight to 0
        raise ValueError(f"normal density on [{low}, {high}] sums to {total}, "
                         "so it cannot be normalised")
    probs = weights / total
    slope = (high - low) / (n_points - 1) if n_points > 1 else 0.0
    return DiscretizedDistribution(n_qubits, probs, slope=slope, intercept=low)


def loader_ops(dist: DiscretizedDistribution) -> tuple[GateOp, ...]:
    """Exact conditional-rotation tree preparing sum_i sqrt(p_i)|i>.

    Qubit j is rotated by the conditional probability of its bit given the
    already-prepared lower bits, one RY controlled on all of them per prefix
    of those bits; a control on a zero bit is wrapped in X. The prefixes are
    visited in Gray-code order, and between two of them only the X gates
    whose zero pattern changes are emitted (the rest stay in place), so a
    level of 2^j prefixes needs about 2^j X gates instead of j * 2^j. X is an
    exact permutation and each prefix's RY acts on its own amplitudes, so the
    state equals that of bracketing every RY in its own X pairs, bit for bit.
    Amplitudes come out real and nonnegative. Gate count is exponential in n,
    which is fine at desk scale.
    """
    p = np.asarray(dist.probabilities, dtype=float)
    n = dist.n_qubits
    ops: list[GateOp] = []
    idx = np.arange(p.size)
    for j in range(n):
        block = 1 << j
        angles = np.zeros(block)
        for prefix in range(block):
            members = p[(idx & (block - 1)) == prefix]
            mass = members.sum()
            if mass <= 0.0:
                continue
            mass_one = p[(idx & ((block << 1) - 1)) == prefix + block].sum()
            ratio = min(1.0, max(0.0, mass_one / mass))
            angles[prefix] = 2.0 * math.asin(math.sqrt(ratio))
        if j == 0:
            ops.append(ry(angles[0], 0))
            continue
        if np.allclose(angles, angles[0], atol=1e-15):
            ops.append(ry(angles[0], j))
            continue
        lower = tuple(range(j))
        flipped = 0  # mask of the lower qubits wrapped in X now
        for step in range(block):
            prefix = step ^ (step >> 1)
            if angles[prefix] == 0.0:
                continue
            zeros = ~prefix & (block - 1)
            ops.extend(x(q) for q in lower if (zeros ^ flipped) >> q & 1)
            flipped = zeros
            ops.append(ry(angles[prefix], j, controls=lower))
        ops.extend(x(q) for q in lower if flipped >> q & 1)
    return tuple(ops)
