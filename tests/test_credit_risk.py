import json
import math

import numpy as np
import pytest
from scipy.stats import norm

from qfin import credit_risk as cr
from qfin import simulator as sv
from qfin.amplitude_estimation import error_bound, run_ae, true_amplitude
from qfin.cli import main

DEMO = cr.CreditPortfolio(assets=(cr.Asset(1, 0.15, 0.1), cr.Asset(2, 0.25, 0.05)),
                          n_z=2)


def test_asset_validation():
    with pytest.raises(ValueError):
        cr.Asset(lgd=0, p0=0.5, rho=0.0)
    with pytest.raises(ValueError):
        cr.Asset(lgd=1, p0=1.5, rho=0.0)
    with pytest.raises(ValueError):
        cr.Asset(lgd=1, p0=0.5, rho=1.0)


def test_default_probability_zero_sensitivity():
    asset = cr.Asset(1, 0.2, 0.0)
    for z in (-2.0, 0.0, 3.5):
        assert cr.default_probability(asset, z) == pytest.approx(0.2)


def test_default_probability_formula_oracle():
    asset = cr.Asset(1, 0.15, 0.1)
    want = norm.cdf(norm.ppf(0.15) / math.sqrt(0.9))
    assert cr.default_probability(asset, 0.0) == pytest.approx(want, abs=1e-12)


def scipy_default_probability(asset, z):
    """The model through scipy's normal kernels, the oracle for the stdlib ones."""
    if asset.rho == 0.0:
        return asset.p0
    shifted = (norm.ppf(asset.p0) - math.sqrt(asset.rho) * z) / math.sqrt(1.0 - asset.rho)
    return float(norm.cdf(shifted))


# The stdlib kernels round differently from scipy's. On this grid the worst
# measured deviations are |dp| 6.8e-15 and |d theta| 1.4e-14, theta = 2 asin
# sqrt(p) being the RY angle the circuit uses; the bounds leave about 1.5x.
# NormalDist.cdf's erf form would move theta by 6.6e-9 in the lower tail.
@pytest.mark.parametrize("p0", [1e-9, 0.001, 0.15, 0.5, 0.93, 1.0 - 1e-9])
@pytest.mark.parametrize("rho", [0.0, 0.01, 0.1, 0.5, 0.99])
def test_default_probability_equals_scipy_norm_bitwise(p0, rho):
    asset = cr.Asset(1, p0, rho)
    for z in np.linspace(-6.0, 6.0, 49):
        got = cr.default_probability(asset, z)
        want = scipy_default_probability(asset, z)
        assert type(got) is float
        assert abs(got - want) <= 1e-14
        assert abs(2.0 * math.asin(math.sqrt(got)) - 2.0 * math.asin(math.sqrt(want))) <= 2e-14
        if rho == 0.0:
            assert got == p0


def _assert_same_risk_var(got, want, path="result"):
    """Equal ints, strings and keys; floats within 1e-13 of each other."""
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-13, path
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _assert_same_risk_var(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_risk_var(g, w, f"{path}[{i}]")
    else:
        assert got == want, path


def _risk_var_assets(seed: int, wide: bool) -> list:
    """The benchmark's 3-asset shape, or one with p0 down to 1e-4 and rho up to 0.6."""
    rng = np.random.default_rng([seed, 1])
    if not wide:
        return [cr.Asset(int(lgd), float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.05, 0.3)))
                for lgd in rng.permutation([1, 2, 3])]
    return [cr.Asset(int(rng.integers(1, 5)), float(10 ** rng.uniform(-4.0, math.log10(0.3))),
                     float(rng.uniform(0.0, 0.6))) for _ in range(3)]


@pytest.mark.parametrize("wide", [False, True])
def test_risk_var_with_stdlib_kernels_matches_scipy_kernels(tmp_path, monkeypatch, capsys, wide):
    """``risk var --exact-oracle`` on 100 seeded portfolios per shape, stdlib vs scipy."""
    def run(seed, label):
        out = tmp_path / f"{seed}-{label}"
        assert main(["risk", "var", "--portfolio", str(portfolio), "--alpha", "0.95",
                     "--nz", "3", "--m", "6", "--exact-oracle", "--out-dir", str(out)]) == 0
        return json.loads((out / "result.json").read_text())

    for seed in range(100):
        portfolio = tmp_path / f"portfolio-{seed}.csv"
        cr.write_portfolio_csv(portfolio, _risk_var_assets(seed, wide))
        stdlib = run(seed, "stdlib")
        with monkeypatch.context() as patch:
            patch.setattr(cr, "default_probability", scipy_default_probability)
            scipy = run(seed, "scipy")
        assert stdlib["var"] == scipy["var"]
        assert stdlib["bisection"] == scipy["bisection"]
        assert stdlib["oracle"]["var"] == scipy["oracle"]["var"]
        _assert_same_risk_var(stdlib, scipy)
    capsys.readouterr()


def test_default_probability_monotone_decreasing_in_z():
    asset = cr.Asset(1, 0.3, 0.25)
    zs = np.linspace(-3, 3, 13)
    probs = [cr.default_probability(asset, z) for z in zs]
    assert all(a > b for a, b in zip(probs, probs[1:]))


def test_register_sizing_demo():
    # lgd sum 3 -> floor(log2 3) + 1 = 2 sum qubits; 2 + 2 + 2 + 1 = 7 total
    assert DEMO.n_sum == 2
    assert DEMO.n_qubits == 7


def test_uncertainty_zero_rho_single_asset():
    portfolio = cr.CreditPortfolio(assets=(cr.Asset(1, 0.3, 0.0),), n_z=1)
    state = sv.apply_ops(sv.new_zero_state(portfolio.n_qubits),
                         cr.uncertainty_ops(portfolio))
    assert sv.probability_of_one(state, portfolio.asset_qubit(0)) == pytest.approx(
        0.3, abs=1e-9)


def test_uncertainty_marginals_match_linearized_oracle():
    state = sv.apply_ops(sv.new_zero_state(DEMO.n_qubits), cr.uncertainty_ops(DEMO))
    latent = cr.latent_distribution(DEMO)
    fits = cr.linear_angle_fit(DEMO)
    for k in range(DEMO.n_assets):
        a_k, b_k = fits[k]
        want = sum(p * math.sin(0.5 * (a_k * i + b_k)) ** 2
                   for i, p in enumerate(latent.probabilities))
        got = sv.probability_of_one(state, DEMO.asset_qubit(k))
        assert got == pytest.approx(want, abs=1e-9)


def test_weighted_sum_exhaustive():
    lgds = [1, 2, 1, 3]
    n_s = int(math.floor(math.log2(sum(lgds)))) + 1
    ops = cr.weighted_sum_ops(lgds, list(range(4)), list(range(4, 4 + n_s)))
    for pattern in range(16):
        amps = np.zeros(1 << (4 + n_s), dtype=complex)
        amps[pattern] = 1.0
        out = sv.apply_ops(sv.Statevector(4 + n_s, amps), ops)
        landed = int(np.argmax(np.abs(out.amplitudes)))
        assert landed & 15 == pattern
        want = sum(l for bit, l in enumerate(lgds) if (pattern >> bit) & 1)
        assert landed >> 4 == want


def test_weighted_sum_is_basis_permutation():
    lgds = [1, 2]
    ops = cr.weighted_sum_ops(lgds, [0, 1], [2, 3])
    images = set()
    for basis in range(16):
        amps = np.zeros(16, dtype=complex)
        amps[basis] = 1.0
        out = sv.apply_ops(sv.Statevector(4, amps), ops)
        assert np.count_nonzero(np.abs(out.amplitudes) > 1e-12) == 1
        images.add(int(np.argmax(np.abs(out.amplitudes))))
    assert len(images) == 16


def test_comparator_truth_tables():
    n_s = 3
    for threshold in (-1, 0, 5, 7, 9):
        ops = cr.comparator_ops(threshold, tuple(range(n_s)), n_s)
        for value in range(8):
            amps = np.zeros(16, dtype=complex)
            amps[value] = 1.0
            out = sv.apply_ops(sv.Statevector(4, amps), ops)
            landed = int(np.argmax(np.abs(out.amplitudes)))
            flag = landed >> n_s
            assert landed & 7 == value
            assert flag == (1 if value <= threshold else 0)


def test_cdf_operator_amplitude_matches_classical_cdf():
    dist = cr.exact_loss_distribution(DEMO)
    for x in range(-1, 4):
        amplitude = true_amplitude(cr.estimation_problem(DEMO, x))
        assert amplitude == pytest.approx(dist.cdf(x), abs=1e-9)


def test_cdf_estimate_saturates_above_support():
    estimate = cr.cdf_estimate(cr.loss_cdf(DEMO), DEMO.total_lgd, m=4)
    assert estimate == pytest.approx(1.0, abs=error_bound(1.0, 16) + 1e-12)


def test_cdf_estimates_within_ae_bound_of_classical():
    dist = cr.exact_loss_distribution(DEMO)
    cdf = cr.loss_cdf(DEMO)
    for x in range(0, 4):
        classical = dist.cdf(x)
        estimate = cr.cdf_estimate(cdf, x, m=4)
        assert abs(estimate - classical) <= error_bound(classical, 16) + 1e-12


def test_composed_a_ae_mass_within_bound():
    """The full C S U estimation problem also honors the 8/pi^2 mass bound."""
    from qfin.amplitude_estimation import estimates_grid, readout_probabilities

    dist = cr.exact_loss_distribution(DEMO)
    grid = estimates_grid(4)
    for x in (0, 1, 2):
        a = dist.cdf(x)
        readout = readout_probabilities(
            true_amplitude(cr.estimation_problem(DEMO, x)), 4, np.arange(16))
        mass = float(readout[np.abs(grid - a) <= error_bound(a, 16)].sum())
        assert mass >= 8 / math.pi ** 2


def test_cdf_estimate_monotone_up_to_grid():
    cdf = cr.loss_cdf(DEMO)
    estimates = [cr.cdf_estimate(cdf, x, m=4) for x in range(0, 4)]
    slack = math.pi ** 2 / 256
    assert all(b >= a - slack for a, b in zip(estimates, estimates[1:]))


def test_var_bisection_paper_demo():
    var, trace = cr.var_bisection(cr.loss_cdf(DEMO), DEMO.total_lgd, 0.95, 4)
    assert var == 2
    assert len(trace) <= 2
    dist = cr.exact_loss_distribution(DEMO)
    for probe in trace:
        amplitude = true_amplitude(cr.estimation_problem(DEMO, probe.mid))
        assert amplitude == pytest.approx(dist.cdf(probe.mid), abs=1e-9)


def _seeded_portfolio(seed: int) -> cr.CreditPortfolio:
    """1-4 assets with LGD 1-4 and n_z 1-3: sum registers of 1-4 qubits."""
    rng = np.random.default_rng([seed, 23])
    assets = tuple(cr.Asset(int(rng.integers(1, 5)), float(rng.uniform(0.02, 0.5)),
                            float(rng.uniform(0.0, 0.5)))
                   for _ in range(int(rng.integers(1, 5))))
    return cr.CreditPortfolio(assets=assets, n_z=int(rng.integers(1, 4)))


@pytest.mark.parametrize("seed", range(24))
def test_loss_cdf_matches_the_comparator_path(seed):
    """Each prefix sum of S U's marginal is the a that C S U prepares, at every threshold."""
    portfolio = _seeded_portfolio(seed)
    cdf = cr.loss_cdf(portfolio)
    assert cdf.shape == (1 << portfolio.n_sum,)
    for threshold in range(-1, portfolio.total_lgd + 2):
        want = true_amplitude(cr.estimation_problem(portfolio, threshold))
        got = 0.0 if threshold < 0 else cdf[min(threshold, cdf.size - 1)]
        assert abs(got - want) <= 1e-14
        assert cr.cdf_estimate(cdf, threshold, 5) == run_ae(want, 5).a_estimate


def _gate_path_bisection(portfolio, alpha, m):
    """``var_bisection`` as it was: C S U built and run for every probe."""
    low, high = -1, portfolio.total_lgd + 1
    trace = []
    while high - low > 1:
        mid = (low + high) // 2
        est = run_ae(true_amplitude(cr.estimation_problem(portfolio, mid)), m).a_estimate
        trace.append(cr.BisectionProbe(low=low, mid=mid, high=high, cdf=est))
        if est >= alpha:
            high = mid
        else:
            low = mid
    return high, trace


def test_var_bisection_equals_the_gate_path_bisection():
    """VaR, every probe and every estimate, on 240 seeded portfolios."""
    for seed in range(240):
        portfolio = _seeded_portfolio(seed)
        alpha = (0.5, 0.9, 0.95, 0.99)[seed % 4]
        m = (3, 4, 6)[seed % 3]
        got = cr.var_bisection(cr.loss_cdf(portfolio), portfolio.total_lgd, alpha, m)
        assert got == _gate_path_bisection(portfolio, alpha, m)


@pytest.mark.parametrize("n_assets", [10, 12, 14])
def test_loss_pmf_equals_the_enumeration_at_width(n_assets):
    """At 19, 21 and 23 qubits, past where the gate path is cheap to run as an oracle."""
    rng = np.random.default_rng([n_assets, 26])
    assets = tuple(cr.Asset(int(rng.integers(1, 4)), float(rng.uniform(0.02, 0.4)),
                            float(rng.uniform(0.0, 0.4)))
                   for _ in range(n_assets))
    portfolio = cr.CreditPortfolio(assets=assets, n_z=3)
    want = np.zeros(1 << portfolio.n_sum)
    for loss, p in cr.exact_loss_distribution(portfolio).pmf.items():
        want[loss] = p
    got = cr.loss_pmf(portfolio)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13
    assert np.array_equal(cr.loss_cdf(portfolio), np.cumsum(got))


def test_var_bisection_at_the_ceiling_holds_no_register():
    import tracemalloc

    # 3 latent + 15 asset + 5 sum + 1 objective = 24 qubits; one S U pass
    # would hold a 2^23 complex state, 128 MiB
    assets = tuple(cr.Asset(1 + k % 2, 0.05 + 0.01 * k, 0.2) for k in range(15))
    portfolio = cr.CreditPortfolio(assets=assets, n_z=3)
    assert portfolio.n_qubits == sv.MAX_QUBITS
    tracemalloc.start()
    try:
        var, trace = cr.var_bisection(cr.loss_cdf(portfolio), portfolio.total_lgd, 0.95, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < var <= portfolio.total_lgd and trace
    assert peak < 1 << 20


def test_var_bisection_reads_one_estimate_per_probe(monkeypatch):
    portfolio = _seeded_portfolio(5)
    cdf = cr.loss_cdf(portfolio)
    tables, estimates = [], []
    loss_pmf, cdf_estimate = cr.loss_pmf, cr.cdf_estimate
    monkeypatch.setattr(cr, "loss_pmf", lambda *a: tables.append(1) or loss_pmf(*a))
    monkeypatch.setattr(cr, "cdf_estimate", lambda *a: estimates.append(1) or cdf_estimate(*a))
    _, trace = cr.var_bisection(cdf, portfolio.total_lgd, 0.95, 6)
    assert tables == []  # the bisection reads the table it is given
    assert len(estimates) == len(trace) > 1


def test_var_bisection_bernoulli():
    portfolio = cr.CreditPortfolio(assets=(cr.Asset(1, 0.9, 0.0),), n_z=1)
    var, _ = cr.var_bisection(cr.loss_cdf(portfolio), portfolio.total_lgd, 0.5, 4)
    # oracle: Bernoulli(0.9) on {0, 1}; CDF(0) = 0.1 < 0.5 <= CDF(1)
    assert var == 1


def test_var_bisection_alpha_validation():
    with pytest.raises(ValueError):
        cr.var_bisection(cr.loss_cdf(DEMO), DEMO.total_lgd, 0.0, 4)


def test_exact_loss_distribution_bernoulli():
    portfolio = cr.CreditPortfolio(assets=(cr.Asset(2, 0.3, 0.0),), n_z=1)
    dist = cr.exact_loss_distribution(portfolio)
    assert set(dist.pmf) == {0, 2}
    assert dist.pmf[2] == pytest.approx(0.3, abs=1e-9)


def test_exact_loss_distribution_demo_support_and_mass():
    dist = cr.exact_loss_distribution(DEMO)
    assert set(dist.pmf) == {0, 1, 2, 3}
    assert sum(dist.pmf.values()) == pytest.approx(1.0, abs=1e-12)


def test_expected_loss_and_ecr(tmp_path):
    """``risk var``'s expected loss and ECR, recomputed from the pmf."""
    path = tmp_path / "portfolio.csv"
    cr.write_portfolio_csv(path, DEMO.assets)
    out = tmp_path / "run"
    assert main(["risk", "var", "--portfolio", str(path), "--alpha", "0.95", "--nz", "2",
                 "--m", "4", "--out-dir", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    dist = cr.exact_loss_distribution(DEMO)
    expected = sum(k * v for k, v in dist.pmf.items())
    assert result["expected_loss"] == pytest.approx(expected)
    assert result["var"] == 2
    assert result["ecr"] == pytest.approx(2 - expected)


def test_cvar_deterministic_loss():
    dist = cr.LossDistribution({4: 1.0})
    assert dist.value_at_risk(0.9) == 4
    assert cr.cvar(dist, 0.9) == pytest.approx(4.0)


def test_cvar_dominates_var():
    dist = cr.exact_loss_distribution(DEMO)
    for alpha in (0.5, 0.9, 0.95, 0.99):
        assert cr.cvar(dist, alpha) >= dist.value_at_risk(alpha)


def test_cvar_tail_oracle():
    dist = cr.LossDistribution({0: 0.5, 1: 0.3, 5: 0.2})
    # VaR_0.9 = 5; E[L | L >= 5] = 5
    assert cr.cvar(dist, 0.9) == pytest.approx(5.0)
    # VaR_0.6 = 1; E[L | L >= 1] = (0.3 + 1.0)/0.5
    assert cr.cvar(dist, 0.6) == pytest.approx((1 * 0.3 + 5 * 0.2) / 0.5)


@pytest.mark.parametrize("seed", range(3))
def test_quantum_classical_agreement_random_portfolios(seed):
    rng = np.random.default_rng(seed)
    assets = tuple(cr.Asset(int(rng.integers(1, 4)), float(rng.uniform(0.05, 0.5)),
                            float(rng.uniform(0.0, 0.4)))
                   for _ in range(int(rng.integers(1, 4))))
    portfolio = cr.CreditPortfolio(assets=assets, n_z=2)
    dist = cr.exact_loss_distribution(portfolio)
    threshold = int(rng.integers(0, portfolio.total_lgd + 1))
    amplitude = true_amplitude(cr.estimation_problem(portfolio, threshold))
    assert amplitude == pytest.approx(dist.cdf(threshold), abs=1e-9)


def test_portfolio_csv_roundtrip(tmp_path):
    path = tmp_path / "portfolio.csv"
    cr.write_portfolio_csv(path, DEMO.assets)
    assets = cr.load_portfolio_csv(path)
    assert tuple(assets) == DEMO.assets


def test_portfolio_csv_rejects_fractional_lgd(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("lgd,p0,rho\n1.5,0.2,0.1\n")
    with pytest.raises(ValueError, match="line 2"):
        cr.load_portfolio_csv(path)


def test_portfolio_csv_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,0.2,0.1\n")
    with pytest.raises(ValueError):
        cr.load_portfolio_csv(path)
