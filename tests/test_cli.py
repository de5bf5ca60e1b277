import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qfin

from qfin import admm
from qfin import cli
from qfin import classifier as clf
from qfin import credit_risk as cr
from qfin import optimizers
from qfin import qubo as qb
from qfin import simulator as sv
from qfin import variational as vq
from qfin.amplitude_estimation import MAX_COUNTING_QUBITS, coverage_probability
from qfin.cli import main
from oracles import predict


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


def _count_apply_ops(monkeypatch) -> list:
    """Count ``simulator.apply_ops`` calls through every qfin module that binds it."""
    calls = []
    original = sv.apply_ops

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "qfin" or name.startswith("qfin.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("alpha", ["0.95", "0"])
@pytest.mark.parametrize("n_assets", [2, 13])
def test_risk_var_applies_no_gate(tmp_path, monkeypatch, n_assets, alpha):
    """The loss distribution is a closed form: no gate is built or applied, at
    8 qubits or at 22, and the enumeration oracle runs only when asked for."""
    path = tmp_path / "portfolio.csv"
    cr.write_portfolio_csv(path, [cr.Asset(1 + k % 2, 0.15, 0.1) for k in range(n_assets)])
    calls = _count_apply_ops(monkeypatch)
    gates, enumerations = [], []
    post_init, enumerate_losses = sv.GateOp.__post_init__, cr.exact_loss_distribution
    monkeypatch.setattr(sv.GateOp, "__post_init__",
                        lambda op: gates.append(op) or post_init(op))
    monkeypatch.setattr(cr, "exact_loss_distribution",
                        lambda p: enumerations.append(p) or enumerate_losses(p))
    argv = ["risk", "var", "--portfolio", str(path), "--alpha", alpha, "--nz", "3", "--m", "6"]
    assert main(argv + ["--out-dir", str(tmp_path / "run")]) == 0
    qubits = read_json(tmp_path / "run" / "result.json")["n_qubits"]
    assert qubits == {2: 8, 13: 22}[n_assets]
    assert (calls, gates, enumerations) == ([], [], [])
    assert main(argv + ["--exact-oracle", "--out-dir", str(tmp_path / "oracle")]) == 0
    assert (calls, gates, len(enumerations)) == ([], [], 1)


@pytest.mark.parametrize("alpha", ["0.95", "0"])
def test_risk_var_builds_its_loss_table_once(tmp_path, monkeypatch, demo_portfolio_csv, alpha):
    tables, loss_pmf = [], cr.loss_pmf
    monkeypatch.setattr(cr, "loss_pmf", lambda p: tables.append(p) or loss_pmf(p))
    assert main(["risk", "var", "--portfolio", demo_portfolio_csv, "--alpha", alpha,
                 "--out-dir", str(tmp_path / "run")]) == 0
    assert len(tables) == 1


def test_ae_calibrate_applies_no_gate(tmp_path, monkeypatch):
    calls = _count_apply_ops(monkeypatch)
    assert main(["ae", "calibrate", "--m", "8", "--out-dir", str(tmp_path / "run")]) == 0
    assert calls == []


def test_risk_var_missing_file_exits_validation(tmp_path):
    code = main(["risk", "var", "--portfolio", str(tmp_path / "missing.csv"),
                 "--out-dir", str(tmp_path / "run")])
    assert code == 3


def test_risk_var_capacity_exit(tmp_path, demo_portfolio_csv, capsys):
    # an A register of 22 latent + 2 asset + 2 sum + 1 objective = 27 qubits
    out = tmp_path / "run"
    code = main(["risk", "var", "--portfolio", demo_portfolio_csv, "--nz", "22",
                 "--m", "4", "--out-dir", str(out)])
    assert code == 4
    _assert_one_line_error(capsys, "capacity error: portfolio needs 27 qubits")
    assert not (out / "result.json").exists()


def test_risk_var_counting_qubits_do_not_count_against_the_ceiling(tmp_path,
                                                                   demo_portfolio_csv):
    # a 7-qubit A register with 20 counting qubits: 27 together, over the 24 ceiling;
    # P[L <= 2] = 0.94993 is resolved below alpha = 0.95 (at m = 4 it reads 0.96)
    out = tmp_path / "run"
    assert main(["risk", "var", "--portfolio", demo_portfolio_csv, "--nz", "2", "--m", "20",
                 "--exact-oracle", "--out-dir", str(out)]) == 0
    result = read_json(out / "result.json")
    assert result["var"] == result["oracle"]["var"] == 3


def test_risk_var_refuses_m_over_its_bound(tmp_path, demo_portfolio_csv, capsys):
    out = tmp_path / "run"
    code = main(["risk", "var", "--portfolio", demo_portfolio_csv, "--nz", "2",
                 "--m", str(MAX_COUNTING_QUBITS + 1), "--out-dir", str(out)])
    assert code == 4
    _assert_one_line_error(capsys, f"capacity error: m={MAX_COUNTING_QUBITS + 1} counting")
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("flags", [["--alpha", "-5", "--m", "-3"], ["--alpha", "-5"],
                                   ["--alpha", "1"], ["--alpha", "nan"],
                                   ["--alpha", "0", "--m", "0"], ["--m", "-3"]])
def test_risk_var_checks_alpha_and_m_on_both_branches(tmp_path, demo_portfolio_csv,
                                                      capsys, flags):
    out = tmp_path / "run"
    code = main(["risk", "var", "--portfolio", demo_portfolio_csv, *flags,
                 "--out-dir", str(out)])
    assert code == 3
    _assert_one_line_error(capsys, "validation error:")
    assert not any(out.iterdir())


def test_risk_var_checks_m_above_its_bound_at_alpha_zero(tmp_path, demo_portfolio_csv,
                                                         capsys):
    out = tmp_path / "run"
    code = main(["risk", "var", "--portfolio", demo_portfolio_csv, "--alpha", "0",
                 "--m", str(MAX_COUNTING_QUBITS + 1), "--out-dir", str(out)])
    assert code == 4
    _assert_one_line_error(capsys, f"capacity error: m={MAX_COUNTING_QUBITS + 1} counting")
    assert not any(out.iterdir())


@pytest.mark.parametrize("bounds", [["--z-low", "40", "--z-high", "50"],
                                    ["--z-low=-inf", "--z-high", "3"]])
def test_risk_var_rejects_a_latent_grid_without_mass(tmp_path, demo_portfolio_csv, capsys,
                                                     bounds):
    out = tmp_path / "run"
    code = main(["risk", "var", "--portfolio", demo_portfolio_csv, *bounds,
                 "--out-dir", str(out)])
    assert code == 3
    _assert_one_line_error(capsys, "validation error:")
    assert not (out / "result.json").exists()


def test_usage_error_exit_code():
    assert main(["risk", "var"]) == 2
    assert main(["opt", "nonsense"]) == 2


# -- one parser per command, against the whole tree --------------------------

def _benchmark_argvs(work):
    """Every command line the benchmark's workloads issue, and one replay."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    commands = []
    for build in (workloads.build_credit_var, workloads.build_portfolio_vqe,
                  workloads.build_auction_admm, workloads.build_vqc_train):
        commands += build(cli, str(work), 1)
    return ([list(cmd.argv) + ["--out-dir", cmd.out_dir] for cmd in commands]
            + [["replay", str(work / "manifest.json")]])


def test_command_parsers_equal_the_tree_on_the_benchmark_argv(tmp_path, monkeypatch):
    argvs = _benchmark_argvs(tmp_path)
    trees = [cli.build_parser().parse_args(argv) for argv in argvs]

    def no_tree():
        raise AssertionError("the tree was built for a command line that names a command")

    monkeypatch.setattr(cli, "build_parser", no_tree)
    named = set()
    for argv, tree in zip(argvs, trees):
        assert cli.parse(argv) == tree, argv
        named.add(next(path for path in cli.COMMANDS if tuple(argv[:len(path)]) == path))
    assert named == set(cli.COMMANDS)


def _outcome(capsys, parse, argv):
    """(exit code, stdout, stderr) of a parse that exits, or None when it returns."""
    try:
        parse(argv)
    except SystemExit as exc:
        return (exc.code, *capsys.readouterr())
    return None


@pytest.mark.parametrize("path", list(cli.COMMANDS), ids="-".join)
def test_command_parsers_print_the_trees_help_and_usage_errors(capsys, path):
    # help, a missing required argument, a bad type, a bad choice and a
    # left-over argument, each as the tree prints it, with its exit code
    tails = [["--help"], ["--seed", "x"], ["--bogus"], ["a", "b", "c"]]
    tails += [[], ["--solver", "x"], ["--mode", "x"], ["--m", "1.5"], ["--alpha", "x"]]
    tree = cli.build_parser()
    for tail in tails:
        argv = list(path) + tail
        want = _outcome(capsys, tree.parse_args, argv)
        assert _outcome(capsys, cli.parse, argv) == want, argv
        if want is not None:  # a command line the tree accepts would run
            assert main(argv) == (want[0] or 0)
            assert capsys.readouterr() == want[1:], argv


def test_main_builds_the_tree_for_a_command_line_naming_no_command(capsys):
    for argv in ([], ["--help"], ["--version"], ["opt"], ["bogus"], ["opt", "bogus"]):
        want = _outcome(capsys, cli.build_parser().parse_args, argv)
        assert main(argv) == (want[0] or 0)
        assert capsys.readouterr() == want[1:], argv


def test_a_write_failing_mid_command_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    # the second file the command opens cannot be written: one stderr line,
    # exit 3 as for any file that cannot be read or written, and no manifest
    fresh, opened = cli._fresh, []

    def second_fails(path):
        opened.append(path)
        if len(opened) == 2:
            raise OSError(28, "No space left on device", path)
        return fresh(path)

    monkeypatch.setattr(cli, "_fresh", second_fails)
    out = tmp_path / "run"
    assert main(["ae", "calibrate", "--m", "2", "--out-dir", str(out)]) == 3
    _assert_one_line_error(capsys, "validation error: [Errno 28] No space left on device")
    assert [Path(p).name for p in opened] == ["coverage.csv", "qpe_failure.csv"]
    assert sorted(p.name for p in out.iterdir()) == ["coverage.csv"]


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


@pytest.mark.parametrize("q_values", ["nan", "inf", "-1", "0.5,nan", "0.5,0"])
def test_opt_portfolio_refuses_a_bad_q_value_before_writing(tmp_path, capsys,
                                                            portfolio_instance, q_values):
    out = tmp_path / "run"
    code = main(["opt", "portfolio", "--instance", portfolio_instance, "--solver", "brute-force",
                 "--frontier", "--q-values", q_values, "--out-dir", str(out)])
    assert code == 3
    assert capsys.readouterr().err.strip().splitlines() == [
        "validation error: risk aversion q must be finite and positive"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("flags,line", [
    (["--solver", "brute-force"], "lowest energy -inf is not finite"),
    (["--solver", "vqe"], "energy table must hold 16 finite energies"),
    (["--solver", "qaoa"], "energy table must hold 16 finite energies"),
    (["--solver", "brute-force", "--frontier"], "lowest energy -inf is not finite"),
], ids=["brute-force", "vqe", "qaoa", "frontier"])
def test_opt_portfolio_refuses_an_overflowing_energy_on_every_solver(tmp_path, flags, line):
    # every energy of two or more assets overflows to -inf; a fresh process shows
    # any numpy warning on stderr
    path = tmp_path / "instance.txt"
    qb.write_portfolio_instance(path, qb.PortfolioSpec(
        mu=[1e308] * 4, sigma=np.zeros((4, 4)), q=1.0, budget=2, penalty=1e-300))
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "qfin.cli", "opt", "portfolio", "--instance", str(path),
         "--iterations", "2", "--out-dir", str(out)] + flags,
        env=_subprocess_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == [f"validation error: {line}"]
    assert not (out / "result.json").exists()


def _count_table_builds(monkeypatch) -> dict:
    """Calls of ``qubo.all_energies``, at every qfin module that binds it, and
    constructions of ``qubo.QuadraticEnumeration``, counted as they happen."""
    counts = {"all_energies": 0, "QuadraticEnumeration": 0}
    all_energies, init = qb.all_energies, qb.QuadraticEnumeration.__init__

    def counted_all_energies(*args, **kwargs):
        counts["all_energies"] += 1
        return all_energies(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counts["QuadraticEnumeration"] += 1
        init(self, *args, **kwargs)

    for module in [m for name, m in sys.modules.items() if name.startswith("qfin")]:
        if getattr(module, "all_energies", None) is all_energies:
            monkeypatch.setattr(module, "all_energies", counted_all_energies)
    monkeypatch.setattr(qb.QuadraticEnumeration, "__init__", counted_init)
    return counts


@pytest.mark.parametrize("solver", ["brute-force", "vqe", "qaoa"])
def test_opt_portfolio_and_diversify_build_one_energy_table(tmp_path, monkeypatch,
                                                            portfolio_instance, solver):
    similarity = tmp_path / "rho.csv"
    similarity.write_text("1.0,0.8,0.2\n0.8,1.0,0.3\n0.2,0.3,1.0\n")
    for argv in (["opt", "portfolio", "--instance", portfolio_instance],
                 ["opt", "diversify", "--similarity", str(similarity), "--clusters", "2"]):
        counts = _count_table_builds(monkeypatch)
        assert main(argv + ["--solver", solver, "--iterations", "3", "--out-dir",
                            str(tmp_path / argv[1])]) == 0
        assert counts == {"all_energies": 1, "QuadraticEnumeration": 1}, argv[1]
        monkeypatch.undo()


@pytest.mark.parametrize("solver", ["brute-force", "vqe", "qaoa"])
def test_an_admm_run_enumerates_its_quadratic_form_once(tmp_path, monkeypatch, solver):
    path = tmp_path / "auction.csv"
    admm.write_auction_csv(path, *admm.random_auction(5, 2, 4, seed=2))
    counts = _count_table_builds(monkeypatch)
    assert main(["opt", "auction", "--instance", str(path), "--solver", "admm",
                 "--qubo-solver", solver, "--max-iterations", "4",
                 "--out-dir", str(tmp_path / "run")]) == 0
    assert read_json(tmp_path / "run" / "result.json")["iterations"] > 1
    assert counts == {"all_energies": 0, "QuadraticEnumeration": 1}


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


@pytest.mark.parametrize("solver", ["brute-force", "admm"])
def test_opt_auction_over_the_ceiling_exits_capacity_on_every_solver(tmp_path, capsys, solver):
    path = tmp_path / "auction.csv"
    admm.write_auction_csv(path, *admm.random_auction(sv.MAX_QUBITS + 1, 3, 6, seed=1))
    out = tmp_path / "run"
    code = main(["opt", "auction", "--instance", str(path), "--solver", solver,
                 "--out-dir", str(out)])
    assert code == 4
    _assert_one_line_error(capsys, "capacity error:")
    assert not any(out.iterdir())


def _auction_csv(tmp_path, units_line="units,5.0,5.0", first_bid="3.0,1,2"):
    path = tmp_path / "auction.csv"
    path.write_text(f"price,qty_item_1,qty_item_2\n{first_bid}\n4.5,2,1\n{units_line}\n")
    return str(path)


def _assert_one_line_error(capsys, prefix):
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith(prefix)
    assert "Traceback" not in err


@pytest.mark.parametrize("units_line,first_bid", [
    ("units,nan,5.0", "3.0,1,2"),
    ("units,-3,5.0", "3.0,1,2"),
    ("units,5.0,inf", "3.0,1,2"),
    ("units,5.0,5.0", "nan,1,2"),
    ("units,5.0,5.0", "inf,1,2"),
    ("units,5.0,5.0", "3.0,nan,2"),
    ("units,5.0,5.0", "3.0,inf,2"),
    ("units,5.0,5.0", "3.0,-1,2"),
])
@pytest.mark.parametrize("solver", ["admm", "brute-force"])
def test_opt_auction_rejects_bad_values(tmp_path, capsys, units_line, first_bid, solver):
    out = tmp_path / "run"
    code = main(["opt", "auction", "--instance", _auction_csv(tmp_path, units_line, first_bid),
                 "--solver", solver, "--out-dir", str(out)])
    assert code == 3
    _assert_one_line_error(capsys, "validation error:")
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("command,text,message", [
    (["opt", "auction", "--instance"], "price,qty_item_1\n3,x\n1,2\nunits,5\n",
     "bad auction line 2: could not convert string to float: 'x'"),
    (["opt", "auction", "--instance"], "price,qty_item_1\n3,1\n\n\n1,2,3\nunits,5\n",
     "bad auction line 5: expected 2 fields, got 3"),
    (["risk", "var", "--portfolio"], "lgd,p0,rho\n1,0.1,0.1\n\n\n2,x,0.1\n",
     "bad credit portfolio line 5: could not convert string to float: 'x'"),
    (["opt", "portfolio", "--instance"],
     "mu,0.1,0.2,0.3\n# covariance\nsigma,1.0,0.1\nsigma,0.1,1.0,0.0\nsigma,0,0,1\n"
     "q,0.5\nbudget,1\n",
     "bad portfolio instance line 3: sigma has 2 values, expected 3"),
])
def test_input_errors_name_the_file_line(tmp_path, capsys, command, text, message):
    path = tmp_path / "input"
    path.write_text(text)
    out = tmp_path / "run"
    assert main(command + [str(path), "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err.strip().splitlines() == [f"validation error: {message}"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("flag", ["--rho", "--beta", "--c"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_opt_auction_rejects_non_finite_admm_parameters(tmp_path, capsys, flag, value):
    out = tmp_path / "run"
    code = main(["opt", "auction", "--instance", _auction_csv(tmp_path), f"{flag}={value}",
                 "--out-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [
        "validation error: rho, beta, and c must be finite and positive"]
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("flag", ["--rho", "--c"])
def test_opt_auction_rejects_a_penalty_whose_half_may_round(tmp_path, capsys, flag):
    out = tmp_path / "run"
    code = main(["opt", "auction", "--instance", _auction_csv(tmp_path), flag, "5e-324",
                 "--out-dir", str(out)])
    assert code == 3
    assert capsys.readouterr().err.strip().splitlines() == [
        "validation error: rho and c must be at least 2^-1021 (4.450147717014403e-308)"]
    assert not (out / "result.json").exists()


def test_opt_auction_infeasible_continuous_block_exits_solver(tmp_path, capsys, monkeypatch):
    def infeasible(problem, config):
        raise admm.InfeasibleContinuousBlock("joint constraints admit no continuous point")

    monkeypatch.setattr(admm, "run", infeasible)
    out = tmp_path / "run"
    code = main(["opt", "auction", "--instance", _auction_csv(tmp_path), "--out-dir", str(out)])
    assert code == 5
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [
        "solver failure: joint constraints admit no continuous point"]
    assert not (out / "result.json").exists()


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


def test_ml_train_with_one_fold_writes_nothing(tmp_path, capsys):
    synth_dir = tmp_path / "synth"
    assert main(["ml", "synth", "--n", "24", "--seed", "1",
                 "--out-dir", str(synth_dir)]) == 0
    capsys.readouterr()
    train_dir = tmp_path / "train"
    code = main(["ml", "train", "--data", str(synth_dir / "dataset.csv"),
                 "--iterations", "3", "--cross-validate", "--folds", "1",
                 "--out-dir", str(train_dir)])
    assert code == 3
    _assert_one_line_error(capsys, "validation error: k must be >= 2")
    assert not any(train_dir.iterdir())


@pytest.mark.parametrize("seed", [1, 2])
def test_ml_cross_validation_matches_per_record_prediction(tmp_path, seed):
    from qfin import classifier as clf
    from qfin.optimizers import OptimizerConfig

    synth_dir = tmp_path / "synth"
    assert main(["ml", "synth", "--n", "24", "--seed", str(seed),
                 "--out-dir", str(synth_dir)]) == 0
    train_dir = tmp_path / "train"
    assert main(["ml", "train", "--data", str(synth_dir / "dataset.csv"),
                 "--encoder", "qrac", "--iterations", "6", "--cross-validate",
                 "--folds", "3", "--seed", str(seed), "--out-dir", str(train_dir)]) == 0
    dataset = clf.ingest_csv(synth_dir / "dataset.csv")
    config = clf.build_vqc_with_qrac(dataset.continuous_names, dataset.categorical_names,
                                     dataset.vocab_sizes, qrac_features=("method",))
    optimizer = OptimizerConfig(method="nelder-mead", iterations=6, seed=seed)

    def per_record_fit(train_set):
        model, _, _ = clf.train(train_set, config, optimizer)
        return lambda part: np.array([predict(model, part.continuous[i], part.categorical[i])
                                      for i in range(len(part))])

    want = clf.cross_validate(per_record_fit, dataset, k=3, seed=seed)
    assert read_json(train_dir / "result.json")["cross_validation"] == want


def test_ml_eval_figures_match_accuracy_and_empirical_risk(tmp_path):
    from qfin import classifier as clf

    for name, seed in (("train", "4"), ("heldout", "5")):
        assert main(["ml", "synth", "--n", "30", "--mode", "separable", "--seed", seed,
                     "--out-dir", str(tmp_path / name)]) == 0
    assert main(["ml", "train", "--data", str(tmp_path / "train" / "dataset.csv"),
                 "--iterations", "10", "--out-dir", str(tmp_path / "model")]) == 0
    heldout_csv = tmp_path / "heldout" / "dataset.csv"
    assert main(["ml", "eval", "--model", str(tmp_path / "model" / "model.json"),
                 "--data", str(heldout_csv), "--out-dir", str(tmp_path / "eval")]) == 0
    evaluation = read_json(tmp_path / "eval" / "eval.json")
    model = clf.load_model(tmp_path / "model" / "model.json")
    dataset = clf.ingest_csv(heldout_csv, continuous_names=("x0", "x1"),
                             categorical_names=(), vocab_sizes=())
    assert evaluation["accuracy"] == clf.accuracy(model, dataset)
    assert evaluation["absolute_risk"] == clf.empirical_risk(model, dataset, form="absolute")


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


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    """A saved model and a dataset it can score."""
    root = tmp_path_factory.mktemp("model")
    assert main(["ml", "synth", "--n", "12", "--mode", "separable", "--seed", "2",
                 "--out-dir", str(root / "synth")]) == 0
    assert main(["ml", "train", "--data", str(root / "synth" / "dataset.csv"),
                 "--iterations", "3", "--out-dir", str(root / "train")]) == 0
    return read_json(root / "train" / "model.json"), str(root / "synth" / "dataset.csv")


def _spoil(model, key, value):
    model = json.loads(json.dumps(model))
    if value is KeyError:
        del model[key]
    elif value is IndexError:
        model[key] = model[key][:-1]
    elif key.startswith("config."):
        model["config"][key.removeprefix("config.")] = value
    elif key in ("theta", "scaler_low", "scaler_high"):
        model[key][-1] = value
    else:
        model[key] = value
    return model


@pytest.mark.parametrize("spoil", [
    "list", ("bias", "x"), ("bias", float("nan")), ("bias", float("inf")), ("bias", True),
    ("theta", float("nan")), ("theta", "x"), ("scaler_low", float("inf")),
    ("scaler_high", -float("inf")), ("scaler_high", -1e9), ("config.n_qubits", "5"),
    ("config.n_qubits", 0), ("theta", KeyError), ("config", []), ("theta", IndexError),
    ("scaler_low", IndexError), ("scaler_high", IndexError), ("config.repetitions", 17),
    ("config.repetitions", 10 ** 4), ("config.vocab_sizes", [2]),
    ("config.qrac_features", ["x0"])])
def test_ml_eval_rejects_a_bad_model_file(tmp_path, capsys, trained_model, spoil):
    model, data = trained_model
    model = [1] if spoil == "list" else _spoil(model, *spoil)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    capsys.readouterr()
    out = tmp_path / "eval"
    assert main(["ml", "eval", "--model", str(path), "--data", data,
                 "--out-dir", str(out)]) == 3
    _assert_one_line_error(capsys, "validation error:")
    assert not (out / "eval.json").exists()


def test_ml_eval_refuses_a_register_over_the_ceiling(tmp_path, trained_model):
    model, data = trained_model
    n_qubits = model["config"]["n_qubits"] + 30
    model = _spoil(model, "config.latent_qubits", 30)
    model["config"]["n_qubits"] = n_qubits
    model["theta"] = [0.0] * (2 * n_qubits * (model["config"]["separator_layers"] + 1))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    out = tmp_path / "eval"
    proc = _run_under_memory_cap(["ml", "eval", "--model", str(path), "--data", data,
                                  "--out-dir", str(out)])
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.strip().splitlines() == [
        f"capacity error: classifier needs {n_qubits} qubits, ceiling 24"]
    assert not (out / "eval.json").exists()


def test_ml_eval_accepts_the_saved_model_unchanged(tmp_path, trained_model):
    model, data = trained_model
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert main(["ml", "eval", "--model", str(path), "--data", data,
                 "--out-dir", str(tmp_path / "eval")]) == 0


@pytest.mark.parametrize("manifest", ["[1]", "{}", '{"argv": "risk"}', '{"argv": [1]}',
                                      '{"argv": null}'])
def test_replay_rejects_a_malformed_manifest(tmp_path, capsys, manifest):
    path = tmp_path / "manifest.json"
    path.write_text(manifest)
    assert main(["replay", str(path)]) == 3
    _assert_one_line_error(capsys, "validation error:")


def test_replay_rejects_a_manifest_that_replays(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"argv": ["replay", str(path)]}))
    assert main(["replay", str(path)]) == 3
    _assert_one_line_error(capsys, "validation error:")


@pytest.mark.parametrize("fault,line", [
    (np.linalg.LinAlgError("Singular matrix"), "internal error: LinAlgError: Singular matrix"),
    (ZeroDivisionError("float division by zero"),
     "internal error: ZeroDivisionError: float division by zero"),
])
def test_unexpected_exception_exits_internal_error(tmp_path, capsys, monkeypatch,
                                                  demo_portfolio_csv, fault, line):
    def failing(*args, **kwargs):
        raise fault

    monkeypatch.setattr(cr, "var_bisection", failing)
    out = tmp_path / "run"
    assert main(["risk", "var", "--portfolio", demo_portfolio_csv,
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [line]
    assert not (out / "result.json").exists()


def _subprocess_env() -> dict:
    src = str(Path(qfin.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_importing_the_cli_loads_no_scipy(tmp_path, demo_portfolio_csv, portfolio_instance):
    """Every command, run in one fresh process, leaves no scipy module loaded."""
    similarity = tmp_path / "rho.csv"
    similarity.write_text("1.0,0.8,0.2\n0.8,1.0,0.3\n0.2,0.3,1.0\n")
    auction = tmp_path / "auction.csv"
    admm.write_auction_csv(auction, *admm.random_auction(4, 2, 5, seed=4))
    dataset = str(tmp_path / "synth" / "dataset.csv")
    model = str(tmp_path / "train" / "model.json")
    commands = [
        ["risk", "var", "--portfolio", demo_portfolio_csv, "--exact-oracle"],
        ["ae", "calibrate", "--m", "3"],
        ["opt", "portfolio", "--instance", portfolio_instance, "--solver", "brute-force"],
        ["opt", "portfolio", "--instance", portfolio_instance, "--solver", "qaoa",
         "--iterations", "5"],
        ["opt", "diversify", "--similarity", str(similarity), "--clusters", "2"],
        ["opt", "auction", "--instance", str(auction), "--max-iterations", "5"],
        ["ml", "synth", "--n", "12", "--mode", "separable", "--out-dir",
         str(tmp_path / "synth")],
        ["ml", "train", "--data", dataset, "--iterations", "3", "--out-dir",
         str(tmp_path / "train")],
        ["ml", "eval", "--model", model, "--data", dataset],
    ]
    commands = [argv if "--out-dir" in argv else argv + ["--out-dir", str(tmp_path / str(i))]
                for i, argv in enumerate(commands)]
    probe = ("import contextlib, io, json, sys\n"
             "from qfin.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
             "print(json.dumps([codes, sorted(m for m in sys.modules\n"
             "                                if m == 'scipy' or m.startswith('scipy.'))]))\n")
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(commands)],
                          env=_subprocess_env(), capture_output=True, text=True, check=True,
                          timeout=120)
    assert json.loads(proc.stdout) == [[0] * len(commands), []]


def _run_under_memory_cap(argv: list[str]) -> subprocess.CompletedProcess:
    """``qfin argv`` in a fresh process whose address space is capped at 3 GiB.

    A register over the ceiling asks numpy for a (2^n, records) block; under
    the cap a regression fails fast with a MemoryError instead of taking the
    host's pages.
    """
    probe = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
             "from qfin.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    return subprocess.run([sys.executable, "-c", probe] + argv,
                          env=dict(_subprocess_env(), OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=60)


def test_ml_train_refuses_a_register_over_the_ceiling(tmp_path):
    rng = np.random.default_rng(0)
    data = tmp_path / "wide.csv"
    with open(data, "w") as fh:
        fh.write(",".join(f"x{i}" for i in range(30)) + ",label\n")
        for r in range(8):
            fh.write(",".join(map(repr, rng.uniform(size=30).tolist())) + f",{(-1) ** r}\n")
    out = tmp_path / "run"
    proc = _run_under_memory_cap(["ml", "train", "--data", str(data), "--iterations", "3",
                                  "--out-dir", str(out)])
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.strip().splitlines() == [
        "capacity error: classifier needs 30 qubits, ceiling 24"]
    assert not (out / "model.json").exists()


@pytest.mark.parametrize("solver", ["vqe", "qaoa"])
def test_opt_diversify_refuses_a_variational_register_over_the_ceiling(tmp_path, solver):
    # five stocks make 5^2 + 5 = 30 QUBO variables, a 2^30-entry energy table
    rho = np.full((5, 5), 0.3)
    np.fill_diagonal(rho, 1.0)
    path = tmp_path / "rho.csv"
    np.savetxt(path, rho, delimiter=",")
    out = tmp_path / "run"
    proc = _run_under_memory_cap(["opt", "diversify", "--similarity", str(path), "--clusters",
                                  "2", "--solver", solver, "--out-dir", str(out)])
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.strip().splitlines() == [
        "capacity error: energy table of 30 qubits, ceiling 24"]
    assert not (out / "result.json").exists()


# -- size flags: each is bounded, and a value over its bound does no work ----

SIZE_FLAGS = [
    (["ml", "train", "--data", "{data}", "--layers", str(vq.MAX_DEPTH + 1)],
     f"depth must lie in [0, {vq.MAX_DEPTH}]"),
    (["opt", "portfolio", "--instance", "{instance}", "--solver", "vqe", "--optimizer",
      "nelder-mead", "--depth", str(vq.MAX_DEPTH + 1)], f"depth must lie in [0, {vq.MAX_DEPTH}]"),
    (["opt", "portfolio", "--instance", "{instance}", "--solver", "qaoa",
      "--depth", str(vq.MAX_DEPTH + 1)], f"depth must lie in [0, {vq.MAX_DEPTH}]"),
    (["opt", "portfolio", "--instance", "{instance}", "--solver", "vqe",
      "--iterations", str(optimizers.MAX_ITERATIONS + 1)],
     f"iterations must lie in [1, {optimizers.MAX_ITERATIONS}]"),
    (["ml", "train", "--data", "{data}", "--restarts", str(optimizers.MAX_RESTARTS + 1)],
     f"restarts must lie in [1, {optimizers.MAX_RESTARTS}]"),
    (["opt", "auction", "--instance", "{auction}",
      "--max-iterations", str(admm.MAX_ITERATIONS + 1)],
     f"max_iterations must lie in [1, {admm.MAX_ITERATIONS}]"),
    (["ml", "synth", "--n", str(clf.MAX_RECORDS + 1)],
     f"n_records must lie in [1, {clf.MAX_RECORDS}]"),
    (["ml", "synth", "--mode", "separable", "--n", str(clf.MAX_RECORDS + 1)],
     f"n_records must lie in [1, {clf.MAX_RECORDS}]"),
    (["ml", "synth", "--mode", "separable", "--n", "0"],
     f"n_records must lie in [1, {clf.MAX_RECORDS}]"),
]


@pytest.mark.parametrize("argv,message", SIZE_FLAGS, ids=[
    "ml-train-layers", "opt-vqe-depth", "opt-qaoa-depth", "opt-iterations",
    "ml-train-restarts", "opt-auction-max-iterations", "ml-synth-n", "ml-synth-separable-n",
    "ml-synth-separable-zero"])
def test_size_flag_over_its_bound_exits_validation(tmp_path, capsys, monkeypatch,
                                                   portfolio_instance, argv, message):
    data = tmp_path / "data"
    assert main(["ml", "synth", "--n", "12", "--out-dir", str(data)]) == 0
    paths = {"data": str(data / "dataset.csv"), "instance": portfolio_instance,
             "auction": _auction_csv(tmp_path)}
    capsys.readouterr()

    def refuse(*args, **kwargs):
        # past the bound, the run must stop before the work: fail fast, never allocate
        raise AssertionError("an over-bound run reached the work")

    monkeypatch.setattr(optimizers, "minimize", refuse)
    monkeypatch.setattr(admm, "run", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    out = tmp_path / "run"
    code = main([arg.format(**paths) for arg in argv] + ["--out-dir", str(out)])
    assert capsys.readouterr().err.strip().splitlines() == [f"validation error: {message}"]
    assert code == 3
    assert not (out / "result.json").exists() and not (out / "dataset.csv").exists()


def test_every_optimizer_and_admm_setting_is_a_flag(tmp_path, monkeypatch, portfolio_instance):
    """Non-default values of the flags reach every field of both config objects."""
    seen = []

    def capture(config):
        seen.append(config)
        raise RuntimeError("captured")

    monkeypatch.setattr(optimizers, "minimize", lambda fn, x0, config, rng=None: capture(config))
    monkeypatch.setattr(admm, "run", lambda problem, config: capture(config))
    assert main(["opt", "portfolio", "--instance", portfolio_instance, "--solver", "vqe",
                 "--optimizer", "nelder-mead", "--iterations", "7", "--restarts", "3",
                 "--seed", "5", "--out-dir", str(tmp_path / "portfolio")]) == 1
    assert main(["opt", "auction", "--instance", _auction_csv(tmp_path), "--rho", "3",
                 "--beta", "4", "--c", "5", "--max-iterations", "7", "--qubo-solver", "qaoa",
                 "--seed", "5", "--out-dir", str(tmp_path / "auction")]) == 1
    assert [type(config) for config in seen] == [optimizers.OptimizerConfig, admm.AdmmConfig]
    for config in seen:
        for field in dataclasses.fields(config):
            assert getattr(config, field.name) != field.default, field.name


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


# below 1e-4, np.arange(1e-9, 1, 1e-9) alone would allocate about 8 GB
@pytest.mark.parametrize("grid", ["0", "-0.1", "1.5", "1e-9", "9.99e-5"])
def test_ae_calibrate_rejects_grid_outside_unit_interval(tmp_path, capsys, grid):
    out = tmp_path / "run"
    code = main(["ae", "calibrate", "--m", "3", "--grid", grid, "--out-dir", str(out)])
    assert code == 3
    _assert_one_line_validation_error(capsys)
    assert not (out / "coverage.csv").exists()


@pytest.mark.parametrize("m", ["-1", "0", "9"])
def test_ae_calibrate_rejects_m_outside_range(tmp_path, capsys, m):
    out = tmp_path / "run"
    code = main(["ae", "calibrate", "--m", m, "--out-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.strip().splitlines() == ["validation error: calibration supports 1 <= m <= 8"]
    assert not (out / "coverage.csv").exists()


@pytest.mark.parametrize("s_max,p_max", [("12", "13"), ("1", "24"), ("0", "6"), ("6", "0"),
                                          ("40", "-20")])
def test_ae_calibrate_rejects_qpe_table_outside_bounds(tmp_path, capsys, s_max, p_max):
    # qpe_failure_probability sums 2^(p-1) terms: p = 40 would run for a day
    out = tmp_path / "run"
    code = main(["ae", "calibrate", "--m", "3", "--s-max", s_max, "--p-max", p_max,
                 "--out-dir", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [
        "validation error: calibration supports s_max, p_max >= 1 and s_max + p_max <= 24"]
    assert not (out / "coverage.csv").exists()


def _rerun_commands(tmp_path, demo_portfolio_csv, portfolio_instance):
    synth = tmp_path / "synth"
    similarity = tmp_path / "rho.csv"
    similarity.write_text("1.0,0.8,0.2\n0.8,1.0,0.3\n0.2,0.3,1.0\n")
    auction = tmp_path / "auction.csv"
    admm.write_auction_csv(auction, *admm.random_auction(8, 2, 5, seed=4))
    return {
        "risk-var": ["risk", "var", "--portfolio", demo_portfolio_csv, "--m", "3"],
        "portfolio-frontier": ["opt", "portfolio", "--instance", str(portfolio_instance),
                               "--solver", "vqe", "--iterations", "5", "--frontier"],
        "diversify": ["opt", "diversify", "--similarity", str(similarity), "--clusters", "2"],
        "auction-admm": ["opt", "auction", "--instance", str(auction), "--max-iterations", "10"],
        "auction-brute-force": ["opt", "auction", "--instance", str(auction),
                                "--solver", "brute-force"],
        "ml-synth": ["ml", "synth", "--n", "12", "--mode", "separable", "--seed", "2"],
        "ml-train": ["ml", "train", "--data", str(synth / "dataset.csv"), "--iterations", "3"],
        "ml-eval": ["ml", "eval", "--model", str(tmp_path / "model" / "model.json"),
                    "--data", str(synth / "dataset.csv")],
        "ae-calibrate": ["ae", "calibrate", "--m", "2", "--grid", "0.25",
                         "--s-max", "2", "--p-max", "2"],
    }


# each command of ``_rerun_commands`` and the files it writes besides the manifest
RERUN_OUTPUTS = {
    "risk-var": ["result.json"],
    "portfolio-frontier": ["frontier.csv", "result.json"],
    "diversify": ["result.json"],
    "auction-admm": ["result.json", "trace.json"],
    "auction-brute-force": ["result.json"],
    "ml-synth": ["dataset.csv"],
    "ml-train": ["loss_trace.csv", "model.json", "result.json"],
    "ml-eval": ["eval.json"],
    "ae-calibrate": ["coverage.csv", "qpe_failure.csv"],
}
# the options that name a file the command reads
INPUT_OPTIONS = ("--portfolio", "--instance", "--similarity", "--data", "--model")


def _write_ml_inputs(tmp_path):
    """The dataset and the model that the ml commands of ``_rerun_commands`` read."""
    assert main(["ml", "synth", "--n", "12", "--mode", "separable", "--seed", "2",
                 "--out-dir", str(tmp_path / "synth")]) == 0
    assert main(["ml", "train", "--data", str(tmp_path / "synth" / "dataset.csv"),
                 "--iterations", "3", "--out-dir", str(tmp_path / "model")]) == 0


@pytest.mark.parametrize("command", RERUN_OUTPUTS)
def test_rerun_creates_each_file_anew(tmp_path, demo_portfolio_csv, portfolio_instance,
                                      command):
    # a file rewritten in place is flushed on close by ext4; each output is
    # unlinked and created instead, so a hard link to it keeps the old bytes
    argv = _rerun_commands(tmp_path, demo_portfolio_csv, portfolio_instance)[command]
    _write_ml_inputs(tmp_path)
    out = tmp_path / "run"
    assert main(argv + ["--out-dir", str(out)]) == 0
    files = sorted(out.iterdir())
    old = {}
    for path in files:
        link = tmp_path / ("old-" + path.name)
        os.link(path, link)
        old[path.name] = (link, path.read_bytes())
    assert main(argv + ["--out-dir", str(out)]) == 0
    assert sorted(out.iterdir()) == files
    for path in files:
        link, before = old[path.name]
        assert not os.path.samefile(link, path), path.name
        assert link.read_bytes() == before
        assert path.read_bytes() == before


@pytest.mark.parametrize("command", RERUN_OUTPUTS)
def test_manifest_lists_every_output_and_digests_every_input(
        tmp_path, demo_portfolio_csv, portfolio_instance, command):
    argv = _rerun_commands(tmp_path, demo_portfolio_csv, portfolio_instance)[command]
    _write_ml_inputs(tmp_path)
    out = tmp_path / "run"
    assert main(argv + ["--out-dir", str(out)]) == 0
    manifest = read_json(out / "manifest.json")
    assert manifest["outputs"] == RERUN_OUTPUTS[command]
    assert sorted(p.name for p in out.iterdir()) == sorted(manifest["outputs"]
                                                           + ["manifest.json"])
    read = [Path(argv[i + 1]) for i, flag in enumerate(argv) if flag in INPUT_OPTIONS]
    assert manifest["inputs"] == {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in read}
    assert manifest["argv"] == argv + ["--out-dir", str(out)]


def test_a_command_failing_while_computing_writes_nothing(tmp_path, capsys, monkeypatch):
    # every file is computed before the first is written: a fault in the third
    # coverage row leaves neither a two-row coverage.csv nor any other file
    rows = []

    def third_row_fails(a, m):
        rows.append(a)
        if len(rows) == 3:
            raise ValueError("coverage fault")
        return coverage_probability(a, m)

    monkeypatch.setattr(cli, "coverage_probability", third_row_fails)
    out = tmp_path / "run"
    assert main(["ae", "calibrate", "--m", "2", "--out-dir", str(out)]) == 3
    _assert_one_line_error(capsys, "validation error: coverage fault")
    assert len(rows) == 3
    assert list(out.iterdir()) == []


def test_an_out_dir_that_cannot_be_made_exits_3_with_one_line(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "run"
    assert main(["ae", "calibrate", "--m", "2", "--out-dir", str(out)]) == 3
    _assert_one_line_error(capsys, "validation error: [Errno 20] Not a directory")


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


def _edited_instance(tmp_path, portfolio_instance, label, field, value):
    """Copy the instance with one field of the first line labelled ``label`` replaced."""
    lines = Path(portfolio_instance).read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith(label + ","):
            parts = line.split(",")
            parts[field] = value
            lines[i] = ",".join(parts)
            break
    else:
        lines.append(f"{label},{value}")
    path = tmp_path / "edited.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("label,field,value", [
    ("mu", 2, "nan"), ("mu", 1, "inf"), ("sigma", 3, "nan"), ("q", 1, "inf"),
    ("q", 1, "nan"), ("penalty", 1, "nan"), ("penalty", 1, "inf"),
])
@pytest.mark.parametrize("solver", ["vqe", "brute-force"])
def test_opt_portfolio_rejects_non_finite_inputs(tmp_path, capsys, portfolio_instance,
                                                 label, field, value, solver):
    out = tmp_path / "run"
    instance = _edited_instance(tmp_path, portfolio_instance, label, field, value)
    code = main(["opt", "portfolio", "--instance", instance, "--solver", solver,
                 "--iterations", "5", "--out-dir", str(out)])
    assert code == 3
    _assert_one_line_error(capsys, "validation error:")
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("rho_text,extra", [
    ("1.0,0.8,nan\n0.8,1.0,0.3\nnan,0.3,1.0\n", []),
    ("1.0,-inf,0.2\n-inf,1.0,0.3\n0.2,0.3,1.0\n", []),
    ("1.0,0.8,0.2\n0.8,1.0,0.3\n0.2,0.3,1.0\n", ["--penalty", "nan"]),
    ("1.0,0.8,0.2\n0.8,1.0,0.3\n0.2,0.3,1.0\n", ["--penalty", "inf"]),
])
def test_opt_diversify_rejects_non_finite_inputs(tmp_path, capsys, rho_text, extra):
    rho_path = tmp_path / "rho.csv"
    rho_path.write_text(rho_text)
    out = tmp_path / "run"
    code = main(["opt", "diversify", "--similarity", str(rho_path), "--clusters", "2",
                 "--solver", "vqe", "--iterations", "5", "--out-dir", str(out)] + extra)
    assert code == 3
    _assert_one_line_error(capsys, "validation error:")
    assert not (out / "result.json").exists()


@pytest.mark.parametrize("solver,command", [
    ("qaoa", "portfolio"), ("vqe", "portfolio"), ("qaoa", "diversify")])
def test_opt_top_k_is_checked_before_the_solve(tmp_path, capsys, monkeypatch,
                                               portfolio_instance, solver, command):
    def no_solve(*args, **kwargs):
        raise AssertionError("the optimizer ran")

    monkeypatch.setattr(optimizers, "minimize", no_solve)
    similarity = tmp_path / "rho.csv"
    similarity.write_text("1.0,0.8,0.2\n0.8,1.0,0.3\n0.2,0.3,1.0\n")
    source = (["--instance", portfolio_instance] if command == "portfolio"
              else ["--similarity", str(similarity), "--clusters", "2"])
    out = tmp_path / "run"
    code = main(["opt", command, *source, "--solver", solver, "--top-k", "0",
                 "--iterations", "2000", "--out-dir", str(out)])
    assert code == 3
    _assert_one_line_error(capsys, "validation error: top_k must be >= 1")
    assert not any(out.iterdir())


# -- the former per-call kernels, kept as the oracle for the grouped ones ---

def _former_column_entries(kinds, angles):
    """Per-column ``_matrix_1q`` entries, ``[r, j, i, 0, b]`` = m_ij of column b."""
    from qfin.simulator import _matrix_1q

    entries = np.array([[_matrix_1q(kind, angle) for angle in row]
                        for kind, row in zip(kinds, angles)])
    rows, columns = len(entries), entries.shape[1]
    entries = entries.reshape(rows, columns, 2, 2).transpose(0, 3, 2, 1)
    return np.ascontiguousarray(entries)[:, :, :, None]


def _former_split_view(amps, q, rows):
    return amps[:rows].reshape((rows >> (q + 1), 2, 1 << q) + amps.shape[1:], copy=False)


def _former_rotate_columns(view, entries):
    new = entries[0] * view[:, :1]
    new += entries[1] * view[:, 1:]
    view[...] = new


def former_compile_ansatz(ansatz):
    """RY and RX+RY state functions that allocate per rotation; QAOA's applies the gates."""
    from qfin import variational as vq

    n = ansatz.n_qubits
    if ansatz.kind == "qaoa":
        def gate_state(params):
            stack = vq._checked_stack(ansatz, params)
            amps = np.stack([sv.apply_ops(sv.new_zero_state(n), vq.ansatz_ops(ansatz, row))
                             .amplitudes for row in stack], axis=1)
            return amps if np.ndim(params) == 2 else amps[:, 0]
        return gate_state
    dim = 1 << n
    perm = vq._ladder_permutation(n) if ansatz.depth else None
    real = ansatz.kind == "ry-full-entanglement"
    kinds = ("ry",) if real else ("rx", "ry")
    param_kinds = [kind for kind in kinds for _ in range(n)] * (ansatz.depth + 1)

    def layered_state(params):
        stack = vq._checked_stack(ansatz, params)
        entries = _former_column_entries(param_kinds, stack.T.tolist())
        entries = entries.reshape((ansatz.depth + 1, -1) + entries.shape[1:])
        amps = np.zeros((dim, len(stack)), dtype=float if real else complex)
        amps[0] = 1.0
        for layer, layer_entries in enumerate(entries):
            if layer:
                amps = amps[perm]
            for j, matrix in enumerate(layer_entries):
                q = j % n
                rows = 2 << q if layer == 0 and j < n else dim
                _former_rotate_columns(_former_split_view(amps, q, rows), matrix)
        return amps if np.ndim(params) == 2 else amps[:, 0]

    return layered_state


def test_variational_commands_write_the_former_kernels_bytes(tmp_path, monkeypatch,
                                                            portfolio_instance):
    # a regression guard on whole commands: any change to SPSA's stacks
    # shows in a file. The grouped state functions round unlike the former
    # kernels, so every block a plan runs for the opt commands is held to
    # them: amplitudes within 1e-12, and QAOA's probabilities (its cost
    # layer also turns by the offset, a global phase the gates leave out)
    from test_optimizers import sequential_spsa

    from qfin import optimizers
    from qfin import variational as vq

    for name, seed in (("train", "5"), ("heldout", "6")):
        assert main(["ml", "synth", "--n", "30", "--mode", "transactions", "--seed", seed,
                     "--out-dir", str(tmp_path / name)]) == 0
    similarity = tmp_path / "rho.csv"
    similarity.write_text("1.0,0.8,0.2\n0.8,1.0,0.3\n0.2,0.3,1.0\n")

    def run(root, ml=True):
        for encoder in ("qrac", "map") if ml else ():
            model_dir = root / f"train-{encoder}"
            assert main(["ml", "train", "--data", str(tmp_path / "train" / "dataset.csv"),
                         "--encoder", encoder, "--iterations", "15", "--layers", "2",
                         "--out-dir", str(model_dir)]) == 0
            assert main(["ml", "eval", "--model", str(model_dir / "model.json"),
                         "--data", str(tmp_path / "heldout" / "dataset.csv"),
                         "--out-dir", str(root / f"eval-{encoder}")]) == 0
        for solver in ("vqe", "qaoa"):
            assert main(["opt", "portfolio", "--instance", portfolio_instance,
                         "--solver", solver, "--iterations", "25", "--seed", "3",
                         "--out-dir", str(root / solver)]) == 0
        # 12 qubits: three groups of four per layer
        assert main(["opt", "diversify", "--similarity", str(similarity), "--clusters", "2",
                     "--solver", "vqe", "--optimizer", "nelder-mead", "--depth", "1",
                     "--iterations", "80", "--seed", "3",
                     "--out-dir", str(root / "diversify")]) == 0
        return {str(path.relative_to(root)): path.read_bytes()
                for path in sorted(root.rglob("*")) if path.name != "manifest.json"
                and path.is_file()}

    planned = run(tmp_path / "planned")
    assert len(planned) == 2 * 4 + 3
    monkeypatch.setattr(optimizers, "_spsa", sequential_spsa)
    assert run(tmp_path / "sequential") == planned
    points, formers, grouped, run_plan = [], [], vq.compile_ansatz, vq._run

    def recording(ansatz):
        formers.append((ansatz.kind, former_compile_ansatz(ansatz)))
        return grouped(ansatz)

    def recorded_run(plan, stack):
        # each plan run belongs to the ansatz compiled last; its block as it ends
        last = run_plan(plan, stack)
        points.append(formers[-1] + (np.array(stack), last[:, :, 0].T.copy()))
        return last

    monkeypatch.setattr(vq, "compile_ansatz", recording)
    monkeypatch.setattr(vq, "_run", recorded_run)
    recorded = run(tmp_path / "recorded", ml=False)
    assert recorded == {name: planned[name] for name in recorded}
    assert len(recorded) == 3
    assert {kind for kind, *_ in points} == {"ry-full-entanglement", "qaoa"}
    for kind, former, params, got in points:
        # QAOA's gates turn by the whole energy table, as its plan does
        assert np.max(np.abs(got - former(params))) <= 1e-12


def test_a_default_vqe_portfolio_run_makes_iterations_plus_two_state_calls(
        tmp_path, monkeypatch, portfolio_instance):
    # SPSA's default 300 iterations: one plan run per stack of three, one
    # for the last f(x) alone, and one for the returned state; 1 + 3 * 300
    # evaluations
    from qfin import variational as vq

    calls, results, run_plan = [], [], vq._run
    minimize_table = vq.minimize_table

    def counted(plan, stack):
        calls.append((type(stack).__name__, np.shape(stack)))
        return run_plan(plan, stack)

    def kept(*args, **kwargs):
        results.append(minimize_table(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(vq, "_run", counted)
    monkeypatch.setattr(vq, "minimize_table", kept)
    assert main(["opt", "portfolio", "--instance", portfolio_instance, "--solver", "vqe",
                 "--out-dir", str(tmp_path / "out")]) == 0
    # depth 3: 4 layers of 6 angles; the last f(x) is a list of one row, and
    # the state function runs the checked stack of one
    assert calls == [("ndarray", (3, 24))] * 300 + [("list", (1, 24)), ("ndarray", (1, 24))]
    (_, _, run), = results
    assert (run.evaluations, run.stop_reason) == (1 + 3 * 300, "maxiter")
