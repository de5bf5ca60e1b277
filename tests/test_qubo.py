import tracemalloc

import numpy as np
import pytest

from qfin import qubo as qb
from oracles import energy_spread


def random_qubo(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) * scale
    return qb.Qubo(n=n, quadratic=(m + m.T) / 2, linear=rng.normal(size=n) * scale,
                   constant=float(rng.normal()))


def enumerate_energies(qubo):
    """Independent oracle: per-bitstring python loop."""
    out = []
    for index in range(1 << qubo.n):
        bits = np.array([(index >> i) & 1 for i in range(qubo.n)], dtype=float)
        out.append(float(qubo.linear @ bits + bits @ qubo.quadratic @ bits
                         + qubo.constant))
    return np.array(out)


def test_energy_constant_objective():
    qubo = qb.Qubo(n=3, quadratic=np.zeros((3, 3)), linear=np.zeros(3), constant=2.5)
    assert qb.energy(qubo, [0, 1, 1]) == pytest.approx(2.5)


def test_energy_direct_arithmetic():
    qubo = qb.Qubo(n=2, quadratic=np.array([[0.0, 1.0], [1.0, 0.0]]),
                   linear=np.zeros(2))
    assert qb.energy(qubo, [1, 1]) == pytest.approx(2.0)
    assert qb.energy(qubo, [1, 0]) == pytest.approx(0.0)


def test_energy_length_mismatch():
    qubo = random_qubo(3, 0)
    with pytest.raises(ValueError):
        qb.energy(qubo, [0, 1])


def test_symmetry_validation():
    with pytest.raises(ValueError):
        qb.Qubo(n=2, quadratic=np.array([[0.0, 1.0], [0.0, 0.0]]), linear=np.zeros(2))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_qubo_rejects_non_finite_quadratic(bad):
    with pytest.raises(ValueError, match="quadratic must be finite"):
        qb.Qubo(n=2, quadratic=np.array([[bad, 0.0], [0.0, 1.0]]), linear=np.zeros(2))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_qubo_rejects_non_finite_linear(bad):
    with pytest.raises(ValueError, match="linear must be finite"):
        qb.Qubo(n=2, quadratic=np.eye(2), linear=np.array([bad, 0.0]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_qubo_rejects_non_finite_constant(bad):
    with pytest.raises(ValueError, match="constant must be finite"):
        qb.Qubo(n=2, quadratic=np.eye(2), linear=np.zeros(2), constant=bad)


@pytest.mark.parametrize("seed", range(5))
def test_all_energies_matches_enumeration(seed):
    qubo = random_qubo(6, seed)
    assert np.allclose(qb.all_energies(qubo), enumerate_energies(qubo), atol=1e-12)


def test_fold_equality_feasible_points_unchanged():
    qubo = random_qubo(4, 1)
    folded = qb.fold_equality(qubo, np.ones((1, 4)), np.array([2.0]), 7.0)
    x = [1, 0, 1, 0]
    assert qb.energy(folded, x) == pytest.approx(qb.energy(qubo, x), abs=1e-12)


def test_fold_equality_budget_example():
    base = qb.Qubo(n=2, quadratic=np.zeros((2, 2)), linear=np.zeros(2))
    folded = qb.fold_equality(base, np.ones((1, 2)), np.array([1.0]), 10.0)
    assert qb.energy(folded, [0, 0]) == pytest.approx(10.0)
    assert qb.energy(folded, [1, 1]) == pytest.approx(10.0)
    assert qb.energy(folded, [0, 1]) == pytest.approx(0.0)
    assert qb.energy(folded, [1, 0]) == pytest.approx(0.0)


def test_fold_equality_checks_rows_and_width():
    qubo = random_qubo(3, 2)
    with pytest.raises(ValueError, match="row count"):
        qb.fold_equality(qubo, np.ones((2, 3)), np.ones(1), 1.0)
    with pytest.raises(ValueError, match="width"):
        qb.fold_equality(qubo, np.ones((1, 4)), np.ones(1), 1.0)


@pytest.mark.parametrize("seed", range(4))
def test_fold_equality_random_instances(seed):
    rng = np.random.default_rng(seed + 100)
    n = 6
    qubo = random_qubo(n, seed)
    a = rng.normal(size=(2, n))
    b = rng.normal(size=2)
    weight = float(rng.uniform(0.5, 5.0))
    folded = qb.fold_equality(qubo, a, b, weight)
    for index in range(1 << n):
        bits = np.array([(index >> i) & 1 for i in range(n)], dtype=float)
        residual = a @ bits - b
        want = qb.energy(qubo, bits) + weight * float(residual @ residual)
        assert qb.energy(folded, bits) == pytest.approx(want, abs=1e-9)


def test_to_ising_single_variable():
    qubo = qb.Qubo(n=1, quadratic=np.zeros((1, 1)), linear=np.array([1.0]))
    obs = qb.to_ising(qubo)
    assert obs.offset == pytest.approx(0.5)
    assert obs.terms == (((0,), -0.5),)


def test_to_ising_zero_qubo():
    qubo = qb.Qubo(n=3, quadratic=np.zeros((3, 3)), linear=np.zeros(3))
    obs = qb.to_ising(qubo)
    assert obs.terms == ()
    assert obs.offset == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_to_ising_energy_table_equality(seed):
    qubo = random_qubo(6, seed + 10)
    obs = qb.to_ising(qubo)
    assert np.allclose(obs.energy_table(6), enumerate_energies(qubo), atol=1e-10)


def test_brute_force_tie_break_lowest_index():
    qubo = qb.Qubo(n=4, quadratic=np.zeros((4, 4)), linear=np.zeros(4), constant=1.0)
    bits, value = qb.brute_force(qubo)
    assert value == pytest.approx(1.0)
    assert bits.tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("seed", range(5))
def test_brute_force_matches_enumeration(seed):
    qubo = random_qubo(7, seed + 20)
    bits, value = qb.brute_force(qubo)
    energies = enumerate_energies(qubo)
    assert value == pytest.approx(energies.min(), abs=1e-12)
    index = int(sum(b << i for i, b in enumerate(bits)))
    assert energies[index] == pytest.approx(value, abs=1e-12)


def test_penalty_soundness_sweep():
    rng = np.random.default_rng(77)
    for _ in range(3):
        n = 5
        qubo = random_qubo(n, int(rng.integers(1 << 30)))
        spread = energy_spread(qubo)
        folded = qb.fold_equality(qubo, np.ones((1, n)), np.array([2.0]), spread * 1.01 + 1e-9)
        bits, _ = qb.brute_force(folded)
        assert bits.sum() == 2


def test_portfolio_single_budget_symmetric():
    spec = qb.PortfolioSpec(mu=np.zeros(3), sigma=np.eye(3), q=1.0, budget=1)
    bits, _ = qb.brute_force(qb.build_portfolio_qubo(spec))
    assert bits.sum() == 1


def test_portfolio_budget_feasible_above_penalty_bound():
    rng = np.random.default_rng(123)
    w = rng.normal(size=(6, 6))
    sigma = w @ w.T / 6
    mu = rng.uniform(0.0, 0.1, size=6)
    unpenalized = qb.Qubo(n=6, quadratic=0.5 * sigma, linear=-mu)
    spread = energy_spread(unpenalized)
    spec = qb.PortfolioSpec(mu=mu, sigma=sigma, q=0.5, budget=3,
                            penalty=spread * 1.5)
    bits, _ = qb.brute_force(qb.build_portfolio_qubo(spec))
    assert bits.sum() == 3


def test_portfolio_validation():
    with pytest.raises(ValueError):
        qb.PortfolioSpec(mu=np.zeros(3), sigma=np.eye(2), q=1.0, budget=1)
    with pytest.raises(ValueError):
        qb.PortfolioSpec(mu=np.zeros(3), sigma=np.eye(3), q=-1.0, budget=1)
    with pytest.raises(ValueError):
        qb.PortfolioSpec(mu=np.zeros(3), sigma=np.eye(3), q=1.0, budget=3)
    with pytest.raises(ValueError):
        qb.PortfolioSpec(mu=np.zeros(2), sigma=-np.eye(2), q=1.0, budget=1)


@pytest.mark.parametrize("bad", ["mu", "sigma", "q", "penalty"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_portfolio_spec_rejects_non_finite_inputs(bad, value):
    fields = {"mu": np.zeros(3), "sigma": np.eye(3), "q": 1.0, "penalty": 2.0}
    if bad in ("mu", "sigma"):
        fields[bad] = fields[bad].copy()
        fields[bad].flat[1] = value
        if bad == "sigma":
            fields[bad][1, 0] = value
    else:
        fields[bad] = value
    with pytest.raises(ValueError, match="finite"):
        qb.PortfolioSpec(budget=1, **fields)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_diversification_spec_rejects_non_finite_inputs(value):
    rho = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.3], [0.2, 0.3, 1.0]])
    bad = rho.copy()
    bad[0, 2] = bad[2, 0] = value
    with pytest.raises(ValueError, match="finite"):
        qb.DiversificationSpec(rho=bad, q_clusters=2)
    with pytest.raises(ValueError, match="finite"):
        qb.DiversificationSpec(rho=rho, q_clusters=2, penalty=value)


def test_frontier_high_risk_aversion_empties_portfolio():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(4, 4))
    sigma = w @ w.T / 4 + 0.5 * np.eye(4)
    mu = rng.uniform(0.0, 0.1, size=4)
    points = qb.efficient_frontier(mu, sigma, [1e6])
    assert points[0].x.sum() == 0
    assert points[0].risk == pytest.approx(0.0)


def test_frontier_enumerates_pareto_nondominated_points():
    rng = np.random.default_rng(123)
    w = rng.normal(size=(6, 6))
    sigma = w @ w.T / 6
    mu = rng.uniform(0.0, 0.1, size=6)
    combos = [np.array([(i >> k) & 1 for k in range(6)], dtype=float)
              for i in range(64)]
    risks = np.array([c @ sigma @ c for c in combos])
    rets = np.array([mu @ c for c in combos])
    assert len(combos) == 64
    for point in qb.efficient_frontier(mu, sigma, [0.1, 0.5, 1.0, 2.0]):
        dominated = np.any((risks <= point.risk + 1e-12) & (rets >= point.ret - 1e-12)
                           & ((risks < point.risk - 1e-12) | (rets > point.ret + 1e-12)))
        assert not dominated


def test_frontier_rejects_nonpositive_q():
    with pytest.raises(ValueError):
        qb.efficient_frontier(np.zeros(2), np.eye(2), [0.0])


def test_diversification_forced_single_stock():
    spec = qb.DiversificationSpec(rho=np.eye(1), q_clusters=1)
    qubo = qb.build_diversification_qubo(spec)
    bits, value = qb.brute_force(qubo)
    decode = qb.decode_diversification(bits, 1)
    assert decode.feasible
    assert decode.selected == (0,)
    assert value == pytest.approx(-1.0)


def test_diversification_variable_count():
    rho = np.eye(3)
    spec = qb.DiversificationSpec(rho=rho, q_clusters=2)
    assert qb.build_diversification_qubo(spec).n == 12
    assert qb.diversification_variable_count(3) == 12


def test_diversification_penalty_separates_feasible_energy():
    rho = np.array([[1.0, 0.6, 0.1], [0.6, 1.0, 0.2], [0.1, 0.2, 1.0]])
    weight = 25.0
    spec = qb.DiversificationSpec(rho=rho, q_clusters=2, penalty=weight)
    qubo = qb.build_diversification_qubo(spec)
    n = 3
    for index in range(1 << 12):
        bits = np.array([(index >> i) & 1 for i in range(12)])
        x_mat = bits[:9].reshape(3, 3)
        y = bits[9:]
        penalty = (y.sum() - 2) ** 2 + ((x_mat.sum(axis=1) - 1) ** 2).sum()
        penalty += ((np.diag(x_mat) - y) ** 2).sum()
        penalty += (x_mat * (1 - y[None, :])).sum()
        similarity = float((rho * x_mat).sum())
        want = -similarity + weight * float(penalty)
        assert qb.energy(qubo, bits) == pytest.approx(want, abs=1e-9)


def test_diversification_decode_all_zero_is_infeasible():
    decode = qb.decode_diversification(np.zeros(12, dtype=int), 2)
    assert not decode.feasible
    assert "budget" in decode.violations


def test_diversification_brute_force_feasible_with_large_penalty():
    rho = np.array([[1.0, 0.8, 0.2], [0.8, 1.0, 0.3], [0.2, 0.3, 1.0]])
    base = qb.build_diversification_qubo(
        qb.DiversificationSpec(rho=rho, q_clusters=2, penalty=1e-9))
    # derived bound: spread of the (essentially unpenalized) objective
    spread = energy_spread(qb.Qubo(n=12, quadratic=np.zeros((12, 12)),
                                   linear=base.linear))
    spec = qb.DiversificationSpec(rho=rho, q_clusters=2, penalty=spread * 1.05)
    bits, _ = qb.brute_force(qb.build_diversification_qubo(spec))
    decode = qb.decode_diversification(bits, 2)
    assert decode.feasible
    assert len(decode.selected) == 2
    assert set(decode.assignment) == {0, 1, 2}


def test_portfolio_instance_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    w = rng.normal(size=(4, 4))
    spec = qb.PortfolioSpec(mu=rng.uniform(0, 0.2, 4), sigma=w @ w.T / 4,
                            q=0.7, budget=2, penalty=3.5)
    path = tmp_path / "portfolio.txt"
    qb.write_portfolio_instance(path, spec)
    loaded = qb.read_portfolio_instance(path)
    assert np.allclose(loaded.mu, spec.mu)
    assert np.allclose(loaded.sigma, spec.sigma)
    assert loaded.q == spec.q
    assert loaded.budget == spec.budget
    assert loaded.penalty == spec.penalty


def test_similarity_reader_rejects_ragged(tmp_path):
    path = tmp_path / "rho.csv"
    path.write_text("1.0,0.5\n0.5,1.0\n0.1,0.2\n")
    with pytest.raises(ValueError):
        qb.read_similarity_csv(path)


@pytest.mark.parametrize("text,message", [
    ("1.0,0.5\n0.5,1.0,0.2\n", "bad similarity line 2: 3 fields, the first row has 2"),
    ("# header\n1.0,0.5\n\n0.5\n", "bad similarity line 4: 1 fields, the first row has 2"),
    ("1.0,0.5\n0.5,\n", "bad similarity line 2: could not convert string to float: ''"),
    ("1.0,x\n0.5,1.0\n", "bad similarity line 1: could not convert string to float: 'x'"),
    ("1.0,0.5\n0.5,nan\n", "bad similarity line 2: similarities must be finite"),
    ("1.0,1e400\n0.5,1.0\n", "bad similarity line 1: similarities must be finite"),
], ids=["ragged-long", "ragged-short", "blank-field", "text", "nan", "overflow"])
def test_similarity_reader_names_the_bad_line(tmp_path, text, message):
    path = tmp_path / "rho.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        qb.read_similarity_csv(path)
    assert str(info.value) == message


def all_energies_reference(qubo, chunk=1 << 16):
    """The chunked einsum enumeration: x'Qx by ``np.einsum``, the linear term by dgemv."""
    dim = 1 << qubo.n
    out = np.empty(dim)
    shifts = np.arange(qubo.n)
    for start in range(0, dim, chunk):
        idx = np.arange(start, min(start + chunk, dim))
        bits = ((idx[:, None] >> shifts) & 1).astype(float)
        out[start:start + idx.size] = (
            bits @ qubo.linear + np.einsum("ij,jk,ik->i", bits, qubo.quadratic, bits)
            + qubo.constant)
    return out


def quadratic_form_loop(quadratic):
    """x'Qx of every state, its n^2 products added from 0.0 in (j, k) order, state by state."""
    n = quadratic.shape[0]
    out = np.empty(1 << n)
    for index in range(1 << n):
        bits = [float((index >> i) & 1) for i in range(n)]
        total = 0.0
        for j in range(n):
            for k in range(n):
                total += bits[j] * quadratic[j, k] * bits[k]
        out[index] = total
    return out


def doubling_quadratic(quadratic, index):
    """x'Qx of one state in the doubling's order, one scalar addition at a time.

    With j the top set bit and ``lower`` the bits below it, the cross terms
    Q[j, k] + Q[k, j] of the set bits k of ``lower`` are summed from 0.0 in
    ascending k, then x'Qx of ``lower`` and then Q[j, j] are added.
    """
    if index == 0:
        return 0.0
    j = index.bit_length() - 1
    lower = index - (1 << j)
    cross = 0.0
    for k in range(j):
        if lower >> k & 1:
            cross += quadratic[j, k] + quadratic[k, j]
    return (cross + doubling_quadratic(quadratic, lower)) + quadratic[j, j]


def doubling_energy(qubo, index):
    """(x'Qx + the linear terms of the set bits summed from 0.0 in ascending order) + constant."""
    linear = 0.0
    for i in range(qubo.n):
        if index >> i & 1:
            linear += qubo.linear[i]
    return (doubling_quadratic(qubo.quadratic, index) + linear) + qubo.constant


def checked_indices(n, seed):
    """Every state up to 2^10; above that the two ends, the 2^16 block edges and 4000 more."""
    dim = 1 << n
    if dim <= 1 << 10:
        return list(range(dim))
    edges = {0, 1, dim - 1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1} & set(range(dim))
    drawn = np.random.default_rng(seed).integers(0, dim, size=4000)
    return sorted(edges | set(drawn.tolist()))


def same_bits(got, want):
    return np.asarray(got).view(np.uint64).tolist() == np.asarray(want).view(np.uint64).tolist()


def asymmetric_within_tolerance(n, seed):
    """A Q that ``Qubo`` accepts as symmetric although Q[j, k] != Q[k, j] in the last bits."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-6, 6, size=(n, n))
    quadratic = m + m.T + np.triu(rng.uniform(-4e-13, 4e-13, size=(n, n)), 1)
    assert not np.array_equal(quadratic, quadratic.T)
    qb.Qubo(n=n, quadratic=quadratic, linear=np.zeros(n))
    return quadratic


def oracle_qubos():
    rng = np.random.default_rng(76)
    asymmetric = asymmetric_within_tolerance(6, 73)
    return [
        pytest.param(random_qubo(0, 30), id="n0"),
        pytest.param(random_qubo(1, 31, scale=3.7), id="n1"),
        pytest.param(random_qubo(6, 36, scale=3.7), id="n6"),
        pytest.param(random_qubo(9, 72, scale=1e3), id="n9-scale1e3"),
        pytest.param(qb.Qubo(n=6, quadratic=asymmetric, linear=rng.normal(size=6) * 1e3,
                             constant=-2.5), id="n6-asymmetric"),
        pytest.param(random_qubo(16, 46, scale=3.7), id="n16"),
        pytest.param(random_qubo(17, 47, scale=3.7), id="n17"),
    ]


@pytest.mark.parametrize("qubo", oracle_qubos())
def test_all_energies_equals_the_doubling_loop_bitwise(qubo):
    energies = qb.all_energies(qubo)
    indices = checked_indices(qubo.n, qubo.n)
    want = [doubling_energy(qubo, index) for index in indices]
    assert same_bits(energies[indices], want)


@pytest.mark.parametrize("qubo", oracle_qubos())
def test_all_energies_is_within_round_off_of_the_einsum_reference(qubo):
    # the sums run in another order, so they agree to within a few ulps of |terms|
    bits = ((np.arange(1 << qubo.n)[:, None] >> np.arange(qubo.n)) & 1).astype(float)
    magnitude = (bits @ np.abs(qubo.linear)
                 + np.einsum("ij,jk,ik->i", bits, np.abs(qubo.quadratic), bits)
                 + abs(qubo.constant))
    gap = np.abs(qb.all_energies(qubo) - all_energies_reference(qubo))
    assert np.all(gap <= 1e-12 * magnitude)


@pytest.mark.parametrize("n,chunk", [(6, 8), (7, 5)])
def test_all_energies_equals_reference_bitwise(monkeypatch, n, chunk):
    # the linear terms are added in blocks of the largest power of two <= ``chunk``
    qubo = random_qubo(n, 30 + n, scale=3.7)
    whole = qb.all_energies(qubo)
    blocks = qb.subset_sum_blocks
    monkeypatch.setattr(qb, "subset_sum_blocks",
                        lambda columns: blocks(columns, chunk.bit_length() - 1))
    energies = qb.all_energies(qubo)
    assert same_bits(energies, [doubling_energy(qubo, i) for i in range(1 << n)])
    assert same_bits(energies, whole)


@pytest.mark.parametrize("n,chunk", [(5, 1 << 16), (6, 8), (17, 1 << 16)])
def test_held_enumeration_serves_many_linear_terms_bitwise(monkeypatch, n, chunk):
    # the linear terms are added ``chunk`` states at a time
    blocks = qb.subset_sum_blocks
    monkeypatch.setattr(qb, "subset_sum_blocks",
                        lambda columns: blocks(columns, chunk.bit_length() - 1))
    base = random_qubo(n, 50 + n)
    form = qb.QuadraticEnumeration(base.quadratic)
    held_quad = form.quad.copy()
    rng = np.random.default_rng(n)
    indices = checked_indices(n, n)
    for _ in range(3):
        qubo = qb.Qubo(n=n, quadratic=base.quadratic, linear=rng.normal(size=n) * 5,
                       constant=float(rng.normal()))
        energies = form.energies(qubo.linear, qubo.constant)
        assert same_bits(energies[indices], [doubling_energy(qubo, i) for i in indices])
        assert same_bits(energies, qb.all_energies(qubo))
        bits, value = form.minimize(qubo.linear, qubo.constant)
        want_bits, want_value = qb.brute_force(qubo)
        assert np.array_equal(bits, want_bits) and value == want_value
    assert np.array_equal(form.quad, held_quad)


@pytest.mark.parametrize("quadratic", [
    np.zeros((0, 0)), np.array([[-2.5]]), random_qubo(6, 71, scale=3.1).quadratic,
    random_qubo(9, 72, scale=1e3).quadratic, asymmetric_within_tolerance(6, 73),
], ids=["n0", "n1", "n6", "n9", "n6-asymmetric"])
def test_enumerated_quadratic_form_equals_the_per_state_loop_bitwise(quadratic):
    got = qb.QuadraticEnumeration(quadratic).quad
    want = [doubling_quadratic(quadratic, index) for index in range(1 << quadratic.shape[0])]
    assert same_bits(got, want)
    # the (j, k)-order loop is an independent oracle, to round-off
    n = quadratic.shape[0]
    bits = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(float)
    magnitude = np.einsum("ij,jk,ik->i", bits, np.abs(quadratic), bits)
    assert np.all(np.abs(got - quadratic_form_loop(quadratic)) <= 1e-12 * magnitude)


def subset_sum_loop(columns):
    """Each mask's columns summed from 0.0 in ascending order, one scalar addition at a time."""
    out = np.empty((columns.shape[0], 1 << columns.shape[1]))
    for row, values in enumerate(columns):
        for mask in range(out.shape[1]):
            total = 0.0
            for j, value in enumerate(values):
                if mask >> j & 1:
                    total += value
            out[row, mask] = total
    return out


@pytest.mark.parametrize("table_bits", [0, 1, 2, 3, 16])
def test_subset_sum_blocks_equal_the_per_mask_loop_bitwise(table_bits):
    rng = np.random.default_rng(77)
    columns = rng.normal(size=(3, 7)) * 10.0 ** rng.integers(-8, 8, size=(3, 7))
    want = subset_sum_loop(columns)
    assert same_bits(qb.subset_sums(columns), want)
    blocks = list(qb.subset_sum_blocks(columns, table_bits))
    assert [start for start, _ in blocks] == list(range(0, 1 << 7, 1 << min(table_bits, 7)))
    assert same_bits(np.concatenate([sums for _, sums in blocks], axis=1), want)
    # one row of columns as a vector gives that row's table
    whole = np.concatenate([sums for _, sums in qb.subset_sum_blocks(columns[1], table_bits)])
    assert same_bits(whole, want[1])


def test_one_shot_enumeration_holds_one_table():
    n = 20
    qubo = random_qubo(n, 78)
    tracemalloc.start()
    try:
        energies = qb.all_energies(qubo)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert energies.nbytes == 8 << n
    # one 2^n table plus a few 2^16 tables of linear sums
    assert peak <= (8 << n) + 4 * (8 << 16)


def test_held_enumeration_minimize_keeps_lowest_index_tie_rule():
    form = qb.QuadraticEnumeration(np.zeros((3, 3)))
    # indices 4..7 all reach -1 + 2; the lowest of them wins
    bits, value = form.minimize(np.array([0.0, 0.0, -1.0]), 2.0)
    assert bits.tolist() == [0, 0, 1] and value == 1.0
    bits, value = form.minimize(np.zeros(3), 1.0)
    assert bits.tolist() == [0, 0, 0] and value == 1.0


def test_enumeration_capacity():
    with pytest.raises(qb.CapacityError):
        qb.QuadraticEnumeration(np.zeros((25, 25)))
    with pytest.raises(qb.CapacityError):
        qb.all_energies(qb.Qubo(n=25, quadratic=np.zeros((25, 25)), linear=np.zeros(25)))
