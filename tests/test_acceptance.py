"""Acceptance gate: one test per shipped criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
"""

import json
import math
import time

import numpy as np
import pytest

from qfin import admm
from qfin import classifier as clf
from qfin import credit_risk as cr
from qfin import qubo as qb
from qfin import simulator as sv
from qfin import variational as vq
from qfin.amplitude_estimation import (
    coverage_probability,
    qpe_failure_probability,
    true_amplitude,
)
from qfin.cli import main as cli_main
from qfin.optimizers import OptimizerConfig
from oracles import energy_spread, merit_history, predict, residual_history
from qpe_oracle import inverse_qft_ops

EIGHT_OVER_PI_SQ = 8.0 / math.pi ** 2


def report(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:02d}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def seeded_portfolio():
    rng = np.random.default_rng(123)
    w = rng.normal(size=(6, 6))
    sigma = w @ w.T / 6
    mu = rng.uniform(0.0, 0.1, size=6)
    return mu, sigma


def test_criterion_01_ae_bound_coverage():
    start = time.time()
    worst = 1.0
    for step in range(1, 20):
        a = step * 0.05
        worst = min(worst, coverage_probability(a, 4))
    elapsed = time.time() - start
    report(1, f"AE coverage >= 0.8106 at m=4 over the a grid "
              f"(worst {worst:.4f}, {elapsed:.1f}s)",
           worst >= 0.8106 and elapsed < 30.0)


def test_criterion_02_credit_risk_demo():
    start = time.time()
    portfolio = cr.CreditPortfolio(
        assets=(cr.Asset(1, 0.15, 0.1), cr.Asset(2, 0.25, 0.05)), n_z=2)
    assert portfolio.n_sum == 2
    var, trace = cr.var_bisection(cr.loss_cdf(portfolio), portfolio.total_lgd, 0.95, 4)
    dist = cr.exact_loss_distribution(portfolio)
    amplitude_ok = all(
        abs(true_amplitude(cr.estimation_problem(portfolio, probe.mid))
            - dist.cdf(probe.mid)) < 1e-9
        for probe in trace)
    elapsed = time.time() - start
    report(2, f"credit demo: VaR={var} in {len(trace)} probes, "
              f"quantum/classical CDF agree at 1e-9 ({elapsed:.1f}s)",
           var == 2 and len(trace) <= 2 and amplitude_ok and elapsed < 60.0)


def test_criterion_03_qubo_ising_exactness():
    rng = np.random.default_rng(31415)
    all_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 11))
        m = rng.normal(size=(n, n))
        qubo = qb.Qubo(n=n, quadratic=(m + m.T) / 2, linear=rng.normal(size=n),
                       constant=float(rng.normal()))
        table = qb.to_ising(qubo).energy_table(n)
        # independent per-bitstring enumeration
        direct = np.array([
            float(qubo.linear @ bits + bits @ qubo.quadratic @ bits + qubo.constant)
            for bits in ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)
        ])
        if np.max(np.abs(table - direct)) > 1e-10:
            all_ok = False
            break
        best_bits, best_value = qb.brute_force(qubo)
        # equality up to float summation order (observed differences ~1e-14)
        if abs(best_value - direct.min()) > 1e-10:
            all_ok = False
            break
        index = int(sum(int(b) << i for i, b in enumerate(best_bits)))
        if abs(direct[index] - best_value) > 1e-10:
            all_ok = False
            break
    report(3, "Ising/QUBO energies equal on all bitstrings for 50 seeded "
              "instances; brute force matches enumeration", all_ok)


def test_criterion_04_portfolio_structure():
    mu, sigma = seeded_portfolio()
    unpenalized = qb.Qubo(n=6, quadratic=0.5 * sigma, linear=-mu)
    penalty = energy_spread(unpenalized) * 1.5
    spec = qb.PortfolioSpec(mu=mu, sigma=sigma, q=0.5, budget=3, penalty=penalty)
    qubo = qb.build_portfolio_qubo(spec)
    best_bits, _ = qb.brute_force(qubo)
    table = qb.all_energies(qubo)
    successes = 0
    for seed in range(5):
        result = vq.vqe_minimize(
            table, vq.ry_ansatz(6, 3),
            OptimizerConfig(method="spsa", iterations=300, seed=seed), top_k=3)
        if all(bits.count("1") == 3 for bits, _, _ in result.top_states):
            successes += 1
    report(4, f"portfolio n=6 B=3: top-3 VQE states select 3 assets in "
              f"{successes}/5 restarts; optimum feasible={best_bits.sum() == 3}",
           successes >= 4 and best_bits.sum() == 3)


def test_criterion_05_efficient_frontier():
    mu, sigma = seeded_portfolio()
    q_values = [0.1, 0.25, 0.5, 1.0, 2.0]
    combos = [np.array([(i >> k) & 1 for k in range(6)], dtype=float)
              for i in range(64)]
    risks = np.array([c @ sigma @ c for c in combos])
    rets = np.array([mu @ c for c in combos])
    frontier = qb.efficient_frontier(mu, sigma, q_values)
    pareto_ok = not any(
        np.any((risks <= p.risk + 1e-12) & (rets >= p.ret - 1e-12)
               & ((risks < p.risk - 1e-12) | (rets > p.ret + 1e-12)))
        for p in frontier)

    successes = 0
    for seed in range(5):
        sweep_ok = True
        for q in q_values:
            qubo = qb.Qubo(n=6, quadratic=q * sigma, linear=-mu)
            energies = qb.all_energies(qubo)
            result = vq.vqe_minimize(
                energies, vq.ry_ansatz(6, 1),
                OptimizerConfig(method="nelder-mead", iterations=600, seed=seed,
                                restarts=2), top_k=1)
            bits, _, energy = result.top_states[0]
            if len(bits) != 6:  # must lie in the enumerated set
                sweep_ok = False
                break
            gap = (energy - energies.min()) / (energies.max() - energies.min())
            if gap > 0.05:
                sweep_ok = False
                break
        successes += sweep_ok
    report(5, f"frontier Pareto-nondominated over 64 combos={pareto_ok}; VQE top "
              f"state within 5% energy gap across the q sweep in {successes}/5 "
              "restarts", pareto_ok and successes >= 4)


def test_criterion_06_diversification():
    rng = np.random.default_rng(2024)
    base = rng.uniform(0.1, 0.9, size=(3, 3))
    rho = (base + base.T) / 2
    np.fill_diagonal(rho, 1.0)
    linear = np.zeros(12)
    for i in range(3):
        for j in range(3):
            linear[i * 3 + j] = -rho[i, j]
    bound = energy_spread(qb.Qubo(n=12, quadratic=np.zeros((12, 12)),
                                  linear=linear))
    spec = qb.DiversificationSpec(rho=rho, q_clusters=2, penalty=bound * 1.1)
    qubo = qb.build_diversification_qubo(spec)
    variables_ok = qubo.n == 12
    best_bits, _ = qb.brute_force(qubo)
    decode = qb.decode_diversification(best_bits, 2)
    brute_ok = decode.feasible and len(decode.selected) == 2

    table = qb.all_energies(qubo)
    feasible_runs = 0
    for seed in range(5):
        result = vq.vqe_minimize(
            table, vq.ry_ansatz(12, 1),
            OptimizerConfig(method="nelder-mead", iterations=400, seed=seed),
            top_k=1)
        sampled = qb.decode_diversification(
            [int(c) for c in result.top_states[0][0]], 2)
        feasible_runs += sampled.feasible
    report(6, f"diversification n=3 q=2: 12 variables={variables_ok}, brute-force "
              f"2-star feasible={brute_ok}, VQE feasible decode in "
              f"{feasible_runs}/5 restarts",
           variables_ok and brute_ok and feasible_runs >= 1)


def test_criterion_07_admm():
    # (a) + (c): the paper-shape 16-bid instance with rho=12, beta=11
    bids, units = admm.random_auction(16, 3, 6, seed=42)
    problem = admm.build_auction(bids, units)
    result = admm.run(problem, admm.AdmmConfig(rho=12.0, beta=11.0,
                                               max_iterations=100))
    gradient_ok = all(it.block3_gradient_norm < 1e-9 for it in result.trace)
    terminated = len(result.trace) <= 100
    trace_ok = (len(residual_history(result)) == len(result.trace)
                and len(merit_history(result)) == len(result.trace)
                and len(result.trace) > 0)

    # (b) unit-demand, ample capacity: merit-best equals the exhaustive optimum
    rng = np.random.default_rng(7)
    unit_bids = []
    for _ in range(12):
        quantities = rng.integers(0, 2, size=3)
        if quantities.sum() == 0:
            quantities[2] = 1
        unit_bids.append((tuple(int(q) for q in quantities),
                          float(np.round(rng.uniform(1.0, 9.0), 2))))
    unit_units = (12.0, 12.0, 12.0)
    exact_bits, exact_profit = admm.solve_auction_exact(unit_bids, unit_units)
    unit_result = admm.run(admm.build_auction(unit_bids, unit_units),
                           admm.AdmmConfig())
    unit_ok = (np.array_equal(unit_result.x, exact_bits)
               and admm.auction_profit(unit_bids, unit_result.x)
               == pytest.approx(exact_profit))

    report(7, f"3-ADMM-H: block-3 gradient at 1e-9={gradient_ok}, unit-demand "
              f"merit-best equals exhaustive optimum={unit_ok}, 16-bid run "
              f"terminated in {len(result.trace)} iterations with trace={trace_ok}",
           gradient_ok and terminated and trace_ok and unit_ok)


def test_criterion_08_vqc_properties():
    # readout bound on 1000 random (x, theta)
    config = clf.ModelConfig(n_qubits=2, continuous_names=("a", "b"))
    n_params = clf.separator_parameter_count(config)
    rng = np.random.default_rng(99)
    bound_ok = True
    for _ in range(1000):
        theta = rng.uniform(-math.pi, math.pi, n_params)
        bias = rng.normal()
        model = clf.VqcModel(config, theta, bias, np.zeros(2),
                             np.full(2, 2 * math.pi))
        x = rng.uniform(0.0, 2 * math.pi, 2)
        if abs(clf.decision(model, x) - bias) > 1.0 + 1e-9:
            bound_ok = False
            break

    # trainability on representable labels (margin >= 0.1; generated at 0.3)
    wins = 0
    for seed in range(5):
        data = clf.synthesize_separable(20, seed=seed + 100, margin=0.3)
        model, _, _ = clf.train(data, config,
                             OptimizerConfig(method="nelder-mead", iterations=200,
                                             seed=seed))
        if clf.accuracy(model, data) >= 0.95:
            wins += 1

    # QRAC single-axis recovery probability
    want = 0.5 + 0.5 / math.sqrt(3.0)
    recovery_ok = True
    for bits in [(0, 0, 0), (1, 0, 1), (0, 1, 1)]:
        state = sv.apply_ops(sv.new_zero_state(1), clf.qrac_encode_block(bits))
        a0, a1 = state.amplitudes
        bloch = (2 * (np.conj(a0) * a1).real, 2 * (np.conj(a0) * a1).imag,
                 abs(a0) ** 2 - abs(a1) ** 2)
        for axis, bit in enumerate(bits):
            got = 0.5 + 0.5 * ((-1.0) ** bit) * bloch[axis]
            if abs(got - want) > 1e-9:
                recovery_ok = False

    report(8, f"VQC: |f-b|<=1 on 1000 samples={bound_ok}, training hit 0.95 in "
              f"{wins}/5 seeds, QRAC recovery=1/2+1/(2*sqrt(3)) at 1e-9="
              f"{recovery_ok}", bound_ok and wins >= 4 and recovery_ok)


def test_criterion_09_qpe_failure_formula():
    monotone = all(
        qpe_failure_probability(s, p) > qpe_failure_probability(s, p + 1)
        for s in range(1, 7) for p in range(1, 6))

    def simulated_failure(s, p):
        t = s + p
        big_t = 1 << t
        phi = 0.5 / big_t  # half a bin off the grid
        ops = [sv.x(0)]
        counting = list(range(1, 1 + t))
        ops += [sv.h(q) for q in counting]
        for j, cq in enumerate(counting):
            ops.append(sv.phase_gate((0,), (0.0, 2 * math.pi * phi * (1 << j)),
                                     controls=(cq,)))
        ops += list(inverse_qft_ops(counting))
        state = sv.apply_ops(sv.new_zero_state(1 + t), ops)
        dist = sv.register_distribution(state, counting)
        y = np.arange(big_t)
        distance = np.minimum(np.abs(y - big_t * phi),
                              big_t - np.abs(y - big_t * phi))
        return 1.0 - float(dist[distance <= (1 << (p - 1))].sum())

    sim_ok = all(
        abs(simulated_failure(2, p) - qpe_failure_probability(2, p)) < 1e-6
        for p in (1, 2))
    report(9, f"QPE failure: monotone in p for s,p<=6={monotone}, matches exact "
              f"simulation at s=2, p in {{1,2}} within 1e-6={sim_ok}",
           monotone and sim_ok)


# Fixed before the sweep that chose the margin (CHANGES.md): over seeds 1-60
# of the same commands, the VQC's mean test accuracy ties the better of the
# majority rate and the logistic baseline on 8 seeds, beats it by less than
# 0.05 on 7, and by 0.05 or more on 44; seed 43 then drew no set at margin 0.3.
# Seeds 1-3 beat it by 0.090, 0.320 and 0.415.
SEPARABLE_SEEDS = (1, 2, 3)
SEPARABLE_EDGE = 0.05


def test_criterion_11_vqc_learns_separable_data(tmp_path):
    # ml synth --mode separable labels points by a reference VQC with a
    # margin, so the VQC can learn them and the linear baseline cannot fully;
    # the saved model, read record by record through the gate path, must
    # score the training set as ml train reports
    names = tuple(f"x{i}" for i in range(clf.SEPARABLE_FEATURES))
    ok, lines = True, []
    for seed in SEPARABLE_SEEDS:
        data, out = tmp_path / f"data-{seed}", tmp_path / f"train-{seed}"
        assert cli_main(["ml", "synth", "--mode", "separable", "--n", "200",
                         "--seed", str(seed), "--out-dir", str(data)]) == 0
        assert cli_main(["ml", "train", "--data", str(data / "dataset.csv"),
                         "--encoder", "map", "--optimizer", "nelder-mead",
                         "--iterations", "300", "--cross-validate", "--folds", "4",
                         "--seed", str(seed), "--out-dir", str(out)]) == 0
        dataset = clf.ingest_csv(data / "dataset.csv", continuous_names=names,
                                 categorical_names=(), vocab_sizes=())
        result = json.loads((out / "result.json").read_text())
        test = result["cross_validation"]["test_mean"]
        majority = max(np.mean(dataset.labels == 1), np.mean(dataset.labels == -1))
        logistic = result["baselines"]["logistic-regression"]["test_mean"]
        model = clf.load_model(out / "model.json")
        gate = np.mean([predict(model, x) == label
                        for x, label in zip(dataset.continuous, dataset.labels)])
        ok = (ok and test > max(majority, logistic) + SEPARABLE_EDGE
              and abs(gate - result["train_accuracy"]) <= 1 / len(dataset))
        lines.append(f"seed {seed} test {test:.3f} majority {majority:.3f} "
                     f"logistic {logistic:.3f} gate-path train {gate:.3f}")
    report(11, f"VQC beats majority and logistic by {SEPARABLE_EDGE} on separable "
               f"data, and the gate path agrees ({'; '.join(lines)})", ok)


def test_criterion_10_cli_determinism(tmp_path):
    cr.write_portfolio_csv(tmp_path / "portfolio.csv",
                           (cr.Asset(1, 0.15, 0.1), cr.Asset(2, 0.25, 0.05)))
    rng = np.random.default_rng(123)
    w = rng.normal(size=(6, 6))
    qb.write_portfolio_instance(
        tmp_path / "instance.txt",
        qb.PortfolioSpec(mu=rng.uniform(0, 0.1, 6), sigma=w @ w.T / 6, q=0.5,
                         budget=3))
    (tmp_path / "rho.csv").write_text("1.0,0.8,0.2\n0.8,1.0,0.3\n0.2,0.3,1.0\n")
    bids, units = admm.random_auction(6, 2, 5, seed=4)
    admm.write_auction_csv(tmp_path / "auction.csv", bids, units)

    synth_dir = tmp_path / "synth"
    assert cli_main(["ml", "synth", "--n", "16", "--mode", "separable", "--seed",
                     "2", "--out-dir", str(synth_dir)]) == 0
    train_dir = tmp_path / "train0"
    assert cli_main(["ml", "train", "--data", str(synth_dir / "dataset.csv"),
                     "--iterations", "40", "--out-dir", str(train_dir)]) == 0

    commands = {
        "risk-var": (["risk", "var", "--portfolio", str(tmp_path / "portfolio.csv"),
                      "--m", "3", "--seed", "5"], ["result.json"]),
        "opt-portfolio": (["opt", "portfolio", "--instance",
                           str(tmp_path / "instance.txt"), "--solver", "vqe",
                           "--iterations", "40", "--frontier", "--seed", "5"],
                          ["result.json", "frontier.csv"]),
        "opt-diversify": (["opt", "diversify", "--similarity",
                           str(tmp_path / "rho.csv"), "--clusters", "2",
                           "--seed", "5"], ["result.json"]),
        "opt-auction": (["opt", "auction", "--instance",
                         str(tmp_path / "auction.csv"), "--max-iterations", "15",
                         "--seed", "5"], ["result.json", "trace.json"]),
        "ml-synth": (["ml", "synth", "--n", "12", "--mode", "transactions",
                      "--seed", "5"], ["dataset.csv"]),
        "ml-train": (["ml", "train", "--data", str(synth_dir / "dataset.csv"),
                      "--iterations", "30", "--seed", "5"],
                     ["result.json", "model.json", "loss_trace.csv"]),
        "ml-eval": (["ml", "eval", "--model", str(train_dir / "model.json"),
                     "--data", str(synth_dir / "dataset.csv"), "--seed", "5"],
                    ["eval.json"]),
        "ae-calibrate": (["ae", "calibrate", "--m", "3", "--grid", "0.2",
                          "--s-max", "2", "--p-max", "2", "--seed", "5"],
                         ["coverage.csv", "qpe_failure.csv"]),
    }
    all_ok = True
    for name, (argv, artifacts) in commands.items():
        run_a = tmp_path / f"{name}-a"
        run_b = tmp_path / f"{name}-b"
        assert cli_main(argv + ["--out-dir", str(run_a)]) == 0
        assert cli_main(argv + ["--out-dir", str(run_b)]) == 0
        for artifact in artifacts:
            if (run_a / artifact).read_bytes() != (run_b / artifact).read_bytes():
                all_ok = False
    report(10, "replaying every CLI command reproduces byte-identical result files",
           all_ok)
