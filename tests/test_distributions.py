import math

import numpy as np
import pytest
from scipy.stats import norm

from qfin import credit_risk as cr
from qfin import distributions as dist
from qfin import simulator as sv


def test_symmetric_two_point_grid():
    d = dist.discretize_normal(0.0, 1.0, 1, -1.0, 1.0)
    assert np.allclose(d.probabilities, [0.5, 0.5])
    assert np.allclose(d.grid, [-1.0, 1.0])


def test_four_point_grid_matches_density_oracle():
    d = dist.discretize_normal(0.0, 1.0, 2, -2.0, 2.0)
    grid = np.linspace(-2.0, 2.0, 4)
    weights = norm.pdf(grid)
    assert np.allclose(d.probabilities, weights / weights.sum(), atol=1e-12)
    assert np.allclose(d.grid, grid)


@pytest.mark.parametrize("mean", [-1.7, 0.0, 0.4, 3.0])
@pytest.mark.parametrize("stddev", [0.3, 0.7, 1.0, 2.5])
@pytest.mark.parametrize("n_qubits", [1, 3, 6])
def test_density_equals_scipy_norm_pdf_bitwise(mean, stddev, n_qubits):
    for low, high in [(-3.0, 3.0), (-1.0, 4.0), (0.5, 0.75), (-2.2, 1.1)]:
        d = dist.discretize_normal(mean, stddev, n_qubits, low, high)
        weights = norm.pdf(np.linspace(low, high, 1 << n_qubits), loc=mean, scale=stddev)
        assert d.probabilities.tobytes() == (weights / weights.sum()).tobytes()


def test_probabilities_sum_to_one():
    d = dist.discretize_normal(1.3, 0.7, 4, -1.0, 4.0)
    assert d.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        dist.discretize_normal(0.0, 1.0, 2, 1.0, -1.0)
    with pytest.raises(ValueError):
        dist.discretize_normal(0.0, -1.0, 2, -1.0, 1.0)


@pytest.mark.parametrize("low,high", [(40.0, 50.0), (-1e200, 1e200), (-np.inf, 1.0),
                                      (-1e308, 1e308)])
def test_grid_without_normalisable_mass_rejected(low, high):
    # every weight underflows to 0 (or the span overflows): no NaN probabilities
    with pytest.raises(ValueError):
        dist.discretize_normal(0.0, 1.0, 2, low, high)


def test_distribution_validation():
    with pytest.raises(ValueError):
        dist.DiscretizedDistribution(1, np.array([0.6, 0.6]), 1.0, 0.0)
    with pytest.raises(ValueError):
        dist.DiscretizedDistribution(1, np.array([-0.1, 1.1]), 1.0, 0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            dist.DiscretizedDistribution(1, np.array([bad, 0.5]), 1.0, 0.0)


def test_loader_uniform_equals_equal_superposition():
    d = dist.DiscretizedDistribution(2, np.full(4, 0.25), 1.0, 0.0)
    state = sv.apply_ops(sv.new_zero_state(2), dist.loader_ops(d))
    assert np.allclose(np.abs(state.amplitudes) ** 2, 0.25, atol=1e-12)


def test_loader_point_mass():
    d = dist.DiscretizedDistribution(2, np.array([0.0, 0.0, 0.0, 1.0]), 1.0, 0.0)
    state = sv.apply_ops(sv.new_zero_state(2), dist.loader_ops(d))
    probs = np.abs(state.amplitudes) ** 2
    assert probs[3] == pytest.approx(1.0, abs=1e-12)


def test_loader_truncated_normal_readback():
    d = dist.discretize_normal(0.0, 1.0, 2, -2.0, 2.0)
    state = sv.apply_ops(sv.new_zero_state(2), dist.loader_ops(d))
    assert np.max(np.abs(np.abs(state.amplitudes) ** 2 - d.probabilities)) < 1e-9


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5)])
def test_loader_readback_random_distributions(n, seed):
    rng = np.random.default_rng(seed)
    p = rng.random(1 << n)
    p /= p.sum()
    d = dist.DiscretizedDistribution(n, p, 1.0, 0.0)
    state = sv.apply_ops(sv.new_zero_state(n), dist.loader_ops(d))
    assert np.max(np.abs(np.abs(state.amplitudes) ** 2 - p)) < 1e-9
    assert np.max(np.abs(state.amplitudes.imag)) < 1e-12
    assert np.min(state.amplitudes.real) > -1e-12


def test_loader_handles_zero_mass_branches():
    p = np.array([0.5, 0.0, 0.5, 0.0])
    d = dist.DiscretizedDistribution(2, p, 1.0, 0.0)
    state = sv.apply_ops(sv.new_zero_state(2), dist.loader_ops(d))
    assert np.max(np.abs(np.abs(state.amplitudes) ** 2 - p)) < 1e-12


# -- the loader's X flips against bracketing every controlled RY ------------

def former_loader_ops(d):
    """Every prefix's controlled RY wrapped in its own pair of X flips, prefixes in order."""
    p = np.asarray(d.probabilities, dtype=float)
    ops = []
    idx = np.arange(p.size)
    for j in range(d.n_qubits):
        block = 1 << j
        angles = np.zeros(block)
        for prefix in range(block):
            mass = p[(idx & (block - 1)) == prefix].sum()
            if mass <= 0.0:
                continue
            mass_one = p[(idx & ((block << 1) - 1)) == prefix + block].sum()
            angles[prefix] = 2.0 * math.asin(math.sqrt(min(1.0, max(0.0, mass_one / mass))))
        if j == 0 or np.allclose(angles, angles[0], atol=1e-15):
            ops.append(sv.ry(angles[0], j))
            continue
        lower = tuple(range(j))
        for prefix in range(block):
            if angles[prefix] == 0.0:
                continue
            flips = [sv.x(q) for q in lower if not (prefix >> q) & 1]
            ops.extend(flips)
            ops.append(sv.ry(angles[prefix], j, controls=lower))
            ops.extend(flips)
    return tuple(ops)


def seeded_distributions():
    for n in range(1, 7):
        for seed in range(4):
            rng = np.random.default_rng([n, seed])
            p = rng.random(1 << n)
            if seed % 2:
                p[rng.random(1 << n) < 0.3] = 0.0  # zero-mass branches and zero angles
            if p.sum() == 0.0:
                p[0] = 1.0
            yield dist.DiscretizedDistribution(n, p / p.sum(), 1.0, 0.0)
        yield dist.discretize_normal(0.0, 1.0, n, -3.0, 3.0)


def test_loader_state_equals_bracketed_flips_bitwise():
    for d in seeded_distributions():
        zero = sv.new_zero_state(d.n_qubits)
        got = sv.apply_ops(zero, dist.loader_ops(d)).amplitudes
        want = sv.apply_ops(zero, former_loader_ops(d)).amplitudes
        assert got.tobytes() == want.tobytes(), d.n_qubits
        assert (np.abs(got) ** 2).tobytes() == (np.abs(want) ** 2).tobytes()


def test_loader_keeps_the_rotations_and_drops_flips():
    for d in seeded_distributions():
        ops, former = dist.loader_ops(d), former_loader_ops(d)
        # the same rotations, prefixes in another order
        assert (sorted(repr(op) for op in ops if op.kind != "x")
                == sorted(repr(op) for op in former if op.kind != "x"))
        assert len(ops) <= len(former)
    # five controlled levels: 2^j - 1 moves plus at most 2j set-up and restore flips each
    d = dist.discretize_normal(0.0, 1.0, 6, -3.0, 3.0)
    flips = sum(op.kind == "x" for op in dist.loader_ops(d))
    assert flips <= sum((1 << j) - 1 + 2 * j for j in range(1, 6)) < 258
    assert sum(op.kind == "x" for op in former_loader_ops(d)) == 258


@pytest.mark.parametrize("n_z", [1, 2, 3, 4, 6])
def test_credit_operator_state_equals_bracketed_flips_bitwise(monkeypatch, n_z):
    portfolio = cr.CreditPortfolio(assets=(cr.Asset(1, 0.15, 0.1), cr.Asset(2, 0.25, 0.05)),
                                   n_z=n_z)
    zero = sv.new_zero_state(portfolio.n_qubits)
    got = [sv.apply_ops(zero, cr.cdf_operator(portfolio, x)).amplitudes for x in range(4)]
    monkeypatch.setattr(cr, "loader_ops", former_loader_ops)
    for x, amps in enumerate(got):
        want = sv.apply_ops(zero, cr.cdf_operator(portfolio, x)).amplitudes
        assert amps.tobytes() == want.tobytes(), x
