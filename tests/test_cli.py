import json

import numpy as np
import pytest

from qfin import admm
from qfin import credit_risk as cr
from qfin import qubo as qb
from qfin.cli import main


@pytest.fixture
def demo_portfolio_csv(tmp_path):
    path = tmp_path / "portfolio.csv"
    cr.write_portfolio_csv(path, (cr.Asset(1, 0.15, 0.1), cr.Asset(2, 0.25, 0.05)))
    return str(path)


@pytest.fixture
def portfolio_instance(tmp_path):
    rng = np.random.default_rng(123)
    w = rng.normal(size=(6, 6))
    sigma = w @ w.T / 6
    mu = rng.uniform(0.0, 0.1, size=6)
    spec = qb.PortfolioSpec(mu=mu, sigma=sigma, q=0.5, budget=3)
    path = tmp_path / "instance.txt"
    qb.write_portfolio_instance(path, spec)
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_risk_var_demo(tmp_path, demo_portfolio_csv, capsys):
    out = tmp_path / "run"
    code = main(["risk", "var", "--portfolio", demo_portfolio_csv, "--alpha", "0.95",
                 "--nz", "2", "--m", "4", "--exact-oracle", "--out-dir", str(out)])
    assert code == 0
    result = read_json(out / "result.json")
    assert result["var"] == 2
    assert len(result["bisection"]) <= 2
    assert result["ecr"] == pytest.approx(2 - result["expected_loss"])
    for probe in result["oracle"]["probe_deltas"]:
        assert abs(probe["quantum"] - probe["classical"]) <= probe["ae_bound"] + 1e-12
    assert "VaR_0.95 = 2" in capsys.readouterr().out
    manifest = read_json(out / "manifest.json")
    assert manifest["outputs"] == ["result.json"]


def test_risk_var_alpha_zero_returns_support_minimum(tmp_path, demo_portfolio_csv):
    out = tmp_path / "run"
    assert main(["risk", "var", "--portfolio", demo_portfolio_csv, "--alpha", "0",
                 "--out-dir", str(out)]) == 0
    result = read_json(out / "result.json")
    assert result["var"] == 0
    assert result["bisection"] == []


def test_risk_var_missing_file_exits_validation(tmp_path):
    code = main(["risk", "var", "--portfolio", str(tmp_path / "missing.csv"),
                 "--out-dir", str(tmp_path / "run")])
    assert code == 3


def test_risk_var_capacity_exit(tmp_path, demo_portfolio_csv):
    code = main(["risk", "var", "--portfolio", demo_portfolio_csv, "--nz", "12",
                 "--m", "12", "--out-dir", str(tmp_path / "run")])
    assert code == 4


def test_usage_error_exit_code():
    assert main(["risk", "var"]) == 2
    assert main(["opt", "nonsense"]) == 2


def test_opt_portfolio_brute_force_and_frontier(tmp_path, portfolio_instance):
    out = tmp_path / "run"
    code = main(["opt", "portfolio", "--instance", portfolio_instance,
                 "--solver", "brute-force", "--frontier", "--out-dir", str(out)])
    assert code == 0
    result = read_json(out / "result.json")
    assert result["budget_feasible"] is True
    assert sum(result["selection"]) == 3
    frontier = (out / "frontier.csv").read_text().strip().splitlines()
    assert frontier[0] == "q,risk,return,selection"
    assert len(frontier) == 6


def test_opt_portfolio_vqe_schema_matches_brute_force(tmp_path, portfolio_instance):
    out_bf = tmp_path / "bf"
    out_vqe = tmp_path / "vqe"
    assert main(["opt", "portfolio", "--instance", portfolio_instance,
                 "--solver", "brute-force", "--out-dir", str(out_bf)]) == 0
    assert main(["opt", "portfolio", "--instance", portfolio_instance,
                 "--solver", "vqe", "--iterations", "60", "--out-dir",
                 str(out_vqe)]) == 0
    bf = read_json(out_bf / "result.json")
    vqe = read_json(out_vqe / "result.json")
    shared = {"solver", "n", "budget", "selection", "energy", "budget_feasible",
              "risk", "return"}
    assert shared <= set(bf) and shared <= set(vqe)


def test_opt_diversify_twelve_variables(tmp_path):
    rho_path = tmp_path / "rho.csv"
    rho_path.write_text("1.0,0.8,0.2\n0.8,1.0,0.3\n0.2,0.3,1.0\n")
    out = tmp_path / "run"
    code = main(["opt", "diversify", "--similarity", str(rho_path), "--clusters", "2",
                 "--solver", "brute-force", "--out-dir", str(out)])
    assert code == 0
    result = read_json(out / "result.json")
    assert result["variables"] == 12
    assert result["feasible"] is True
    assert len(result["selected"]) == 2


def test_opt_auction_admm_trace(tmp_path):
    bids, units = admm.random_auction(8, 2, 5, seed=4)
    path = tmp_path / "auction.csv"
    admm.write_auction_csv(path, bids, units)
    out = tmp_path / "run"
    code = main(["opt", "auction", "--instance", str(path), "--solver", "admm",
                 "--rho", "12", "--beta", "11", "--max-iterations", "30",
                 "--out-dir", str(out)])
    assert code == 0
    trace = read_json(out / "trace.json")
    assert len(trace["residual_norm"]) <= 30
    assert len(trace["merit"]) == len(trace["residual_norm"])
    result = read_json(out / "result.json")
    assert result["iterations"] == len(trace["merit"])


def test_opt_auction_wrong_solver_exit(tmp_path):
    bids, units = admm.random_auction(4, 2, 5, seed=4)
    path = tmp_path / "auction.csv"
    admm.write_auction_csv(path, bids, units)
    code = main(["opt", "auction", "--instance", str(path), "--solver", "vqe",
                 "--out-dir", str(tmp_path / "run")])
    assert code == 5


def test_ml_synth_train_eval_pipeline(tmp_path):
    synth_dir = tmp_path / "synth"
    assert main(["ml", "synth", "--n", "20", "--mode", "separable", "--seed", "3",
                 "--out-dir", str(synth_dir)]) == 0
    train_dir = tmp_path / "train"
    assert main(["ml", "train", "--data", str(synth_dir / "dataset.csv"),
                 "--iterations", "200", "--seed", "1",
                 "--out-dir", str(train_dir)]) == 0
    result = read_json(train_dir / "result.json")
    assert result["train_accuracy"] >= 0.95
    eval_dir = tmp_path / "eval"
    assert main(["ml", "eval", "--model", str(train_dir / "model.json"),
                 "--data", str(synth_dir / "dataset.csv"),
                 "--out-dir", str(eval_dir)]) == 0
    evaluation = read_json(eval_dir / "eval.json")
    assert evaluation["accuracy"] >= 0.95


def test_ml_train_qrac_five_qubits(tmp_path):
    synth_dir = tmp_path / "synth"
    assert main(["ml", "synth", "--n", "30", "--mode", "transactions", "--seed", "5",
                 "--out-dir", str(synth_dir)]) == 0
    train_dir = tmp_path / "train"
    assert main(["ml", "train", "--data", str(synth_dir / "dataset.csv"),
                 "--encoder", "qrac", "--iterations", "5",
                 "--out-dir", str(train_dir)]) == 0
    result = read_json(train_dir / "result.json")
    assert result["n_qubits"] == 5
    model = read_json(train_dir / "model.json")
    assert model["config"]["n_qubits"] == 5


def test_ml_eval_schema_mismatch_exit(tmp_path):
    synth_a = tmp_path / "a"
    assert main(["ml", "synth", "--n", "12", "--mode", "separable",
                 "--out-dir", str(synth_a)]) == 0
    synth_b = tmp_path / "b"
    assert main(["ml", "synth", "--n", "12", "--mode", "transactions",
                 "--out-dir", str(synth_b)]) == 0
    train_dir = tmp_path / "train"
    assert main(["ml", "train", "--data", str(synth_a / "dataset.csv"),
                 "--iterations", "5", "--out-dir", str(train_dir)]) == 0
    code = main(["ml", "eval", "--model", str(train_dir / "model.json"),
                 "--data", str(synth_b / "dataset.csv"),
                 "--out-dir", str(tmp_path / "eval")])
    assert code == 3


def test_ae_calibrate_outputs(tmp_path):
    out = tmp_path / "run"
    code = main(["ae", "calibrate", "--m", "4", "--grid", "0.1",
                 "--s-max", "3", "--p-max", "3", "--out-dir", str(out)])
    assert code == 0
    lines = (out / "coverage.csv").read_text().strip().splitlines()
    assert lines[0] == "a,coverage,bound"
    for line in lines[1:]:
        a, coverage, bound = (float(v) for v in line.split(","))
        assert coverage >= 8 / np.pi ** 2
        from qfin.amplitude_estimation import error_bound
        assert bound == pytest.approx(error_bound(a, 16), abs=1e-12)
    failure = (out / "qpe_failure.csv").read_text().strip().splitlines()
    assert failure[0] == "s,p,failure_probability"
    assert len(failure) == 10


def _assert_one_line_validation_error(capsys):
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("validation error:")


@pytest.mark.parametrize("grid", ["0", "-0.1", "1.5"])
def test_ae_calibrate_rejects_grid_outside_unit_interval(tmp_path, capsys, grid):
    out = tmp_path / "run"
    code = main(["ae", "calibrate", "--m", "3", "--grid", grid, "--out-dir", str(out)])
    assert code == 3
    _assert_one_line_validation_error(capsys)
    assert not (out / "coverage.csv").exists()


def test_ml_synth_rejects_unreachable_margin(tmp_path, capsys):
    out = tmp_path / "synth"
    code = main(["ml", "synth", "--n", "10", "--mode", "separable", "--margin", "5",
                 "--out-dir", str(out)])
    assert code == 3
    _assert_one_line_validation_error(capsys)
    assert not (out / "dataset.csv").exists()


def test_replay_reproduces_bytes(tmp_path, demo_portfolio_csv):
    out = tmp_path / "run"
    assert main(["risk", "var", "--portfolio", demo_portfolio_csv,
                 "--out-dir", str(out), "--seed", "3"]) == 0
    before = (out / "result.json").read_bytes()
    assert main(["replay", str(out / "manifest.json")]) == 0
    assert (out / "result.json").read_bytes() == before


@pytest.mark.parametrize("argv_extra", [[], ["--seed", "11"]])
def test_vqe_runs_replay_byte_identical(tmp_path, portfolio_instance, argv_extra):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    base = ["opt", "portfolio", "--instance", portfolio_instance, "--solver", "vqe",
            "--iterations", "50"]
    assert main(base + argv_extra + ["--out-dir", str(out_a)]) == 0
    assert main(base + argv_extra + ["--out-dir", str(out_b)]) == 0
    assert (out_a / "result.json").read_bytes() == (out_b / "result.json").read_bytes()
