import numpy as np
import pytest
from scipy.stats import norm

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
