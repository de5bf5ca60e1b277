"""Batch command-line surface over the toolkit.

Commands cover risk analysis (``risk var``), combinatorial optimization
(``opt portfolio|diversify|auction``), classification (``ml synth|train|eval``),
and amplitude-estimation calibration (``ae calibrate``). Every run writes a
manifest (arguments, seed, input digests, version) next to deterministic
result files, so rerunning the same manifest reproduces them byte for byte.

Exit codes: 0 success, 2 usage, 3 validation, 4 capacity, 5 solver failure.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from . import admm
from . import classifier as clf
from . import credit_risk as cr
from . import qubo as qb
from . import variational as vq
from .amplitude_estimation import (
    coverage_probability,
    error_bound,
    qpe_failure_probability,
)
from .optimizers import OptimizerConfig
from .simulator import CapacityError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_CAPACITY = 4
EXIT_SOLVER = 5


class SolverFailure(Exception):
    pass


def _digest(path: str) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            sha.update(chunk)
    return sha.hexdigest()


def _write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: str, argv: list[str], seed: int, inputs: list[str],
                    outputs: list[str]) -> None:
    manifest = {
        "argv": argv,
        "seed": seed,
        "version": __version__,
        "inputs": {os.path.basename(p): _digest(p) for p in inputs},
        "outputs": sorted(os.path.basename(p) for p in outputs),
    }
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def _table(rows: list[list[str]], header: list[str]) -> str:
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend("  ".join(str(c).ljust(w) for c, w in zip(row, widths)) for row in rows)
    return "\n".join(lines)


def _optimizer_from_args(args, seed: int) -> OptimizerConfig:
    return OptimizerConfig(method=args.optimizer, iterations=args.iterations,
                           seed=seed, restarts=args.restarts)


# ---------------------------------------------------------------------------
# risk var


def cmd_risk_var(args, argv) -> int:
    assets = cr.load_portfolio_csv(args.portfolio)
    portfolio = cr.CreditPortfolio(assets=tuple(assets), n_z=args.nz,
                                   z_low=args.z_low, z_high=args.z_high)
    if args.alpha <= 0.0:
        var = min(cr.exact_loss_distribution(portfolio).pmf)
        trace = []
    else:
        var, trace = cr.var_bisection(portfolio, args.alpha, args.m)
    expected = cr.expected_loss(portfolio)
    result = {
        "alpha": args.alpha,
        "m": args.m,
        "n_qubits": portfolio.n_qubits,
        "var": var,
        "expected_loss": expected,
        "ecr": var - expected,
        "bisection": [{"low": p.low, "mid": p.mid, "high": p.high, "cdf": p.cdf}
                      for p in trace],
    }
    if args.exact_oracle:
        dist = cr.exact_loss_distribution(portfolio)
        bound = error_bound(1.0, 1 << args.m)
        result["oracle"] = {
            "pmf": {str(k): v for k, v in sorted(dist.pmf.items())},
            "expected_loss": dist.mean(),
            "var": dist.value_at_risk(args.alpha) if args.alpha > 0 else min(dist.pmf),
            "cvar": cr.cvar(dist, args.alpha) if args.alpha > 0 else dist.mean(),
            "probe_deltas": [{"x": p.mid, "quantum": p.cdf,
                              "classical": dist.cdf(p.mid),
                              "ae_bound": error_bound(dist.cdf(p.mid), 1 << args.m)}
                             for p in trace],
        }
    out = os.path.join(args.out_dir, "result.json")
    _write_json(out, result)
    _write_manifest(args.out_dir, argv, args.seed, [args.portfolio], [out])
    print(f"VaR_{args.alpha} = {var}  E[L] = {expected:.6f}  ECR = {var - expected:.6f}")
    if trace:
        print(_table([[p.low, p.mid, p.high, f"{p.cdf:.6f}"] for p in trace],
                     ["low", "mid", "high", "cdf_estimate"]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# opt subcommands


def _solve_qubo_by(args, qubo: qb.Qubo, seed: int):
    observable = qb.to_ising(qubo)
    if args.solver == "brute-force":
        bits, value = qb.brute_force(qubo)
        return bits, value, None
    optimizer = _optimizer_from_args(args, seed)
    if args.solver == "vqe":
        result = vq.vqe_minimize(observable, vq.ry_ansatz(qubo.n, args.depth),
                                 optimizer, top_k=args.top_k)
    elif args.solver == "qaoa":
        result = vq.qaoa_minimize(observable, args.depth, optimizer,
                                  n_qubits=qubo.n, top_k=args.top_k)
    else:
        raise SolverFailure(f"solver {args.solver} cannot run on this problem")
    best = min(result.top_states, key=lambda entry: entry[2])
    bits = np.array([int(ch) for ch in best[0]])
    return bits, best[2], result


def cmd_opt_portfolio(args, argv) -> int:
    spec = qb.read_portfolio_instance(args.instance)
    qubo = qb.build_portfolio_qubo(spec)
    bits, value, variational = _solve_qubo_by(args, qubo, args.seed)
    outputs = []
    result = {
        "solver": args.solver,
        "n": spec.n,
        "budget": spec.budget,
        "selection": [int(b) for b in bits],
        "energy": value,
        "budget_feasible": bool(int(bits.sum()) == spec.budget),
        "risk": float(bits @ spec.sigma @ bits),
        "return": float(spec.mu @ bits),
    }
    if variational is not None:
        result["top_states"] = [
            {"bits": s, "probability": p, "energy": e}
            for s, p, e in variational.top_states]
    out = os.path.join(args.out_dir, "result.json")
    _write_json(out, result)
    outputs.append(out)
    if args.frontier:
        q_values = [float(v) for v in args.q_values.split(",")]
        points = qb.efficient_frontier(spec.mu, spec.sigma, q_values)
        frontier_path = os.path.join(args.out_dir, "frontier.csv")
        with open(frontier_path, "w") as fh:
            fh.write("q,risk,return,selection\n")
            for q, pt in zip(q_values, points):
                bitstring = "".join(str(int(b)) for b in pt.x)
                fh.write(f"{q!r},{pt.risk!r},{pt.ret!r},{bitstring}\n")
        outputs.append(frontier_path)
    _write_manifest(args.out_dir, argv, args.seed, [args.instance], outputs)
    print(f"selection {''.join(str(int(b)) for b in bits)}  energy {value:.6f}  "
          f"feasible {result['budget_feasible']}")
    return EXIT_OK


def cmd_opt_diversify(args, argv) -> int:
    rho = qb.read_similarity_csv(args.similarity)
    spec = qb.DiversificationSpec(rho=rho, q_clusters=args.clusters,
                                  penalty=args.penalty)
    qubo = qb.build_diversification_qubo(spec)
    bits, value, variational = _solve_qubo_by(args, qubo, args.seed)
    decode = qb.decode_diversification(bits, spec.q_clusters)
    result = {
        "solver": args.solver,
        "n": spec.n,
        "clusters": spec.q_clusters,
        "variables": qubo.n,
        "energy": value,
        "selected": list(decode.selected),
        "assignment": {str(k): v for k, v in sorted(decode.assignment.items())},
        "feasible": decode.feasible,
        "violations": list(decode.violations),
    }
    if variational is not None:
        result["top_states"] = [
            {"bits": s, "probability": p, "energy": e}
            for s, p, e in variational.top_states]
    out = os.path.join(args.out_dir, "result.json")
    _write_json(out, result)
    _write_manifest(args.out_dir, argv, args.seed, [args.similarity], [out])
    print(f"selected {decode.selected} assignment {decode.assignment} "
          f"feasible {decode.feasible}")
    return EXIT_OK


def cmd_opt_auction(args, argv) -> int:
    bids, units = admm.read_auction_csv(args.instance)
    problem = admm.build_auction(bids, units)
    if args.solver == "brute-force":
        bits, profit = admm.solve_auction_exact(bids, units)
        result = {"solver": "brute-force", "accepted": [int(b) for b in bits],
                  "profit": profit, "violation": 0.0}
        outputs = [os.path.join(args.out_dir, "result.json")]
        _write_json(outputs[0], result)
        _write_manifest(args.out_dir, argv, args.seed, [args.instance], outputs)
        print(f"accepted {''.join(str(int(b)) for b in bits)}  profit {profit}")
        return EXIT_OK
    if args.solver != "admm":
        raise SolverFailure(
            f"auction instances are mixed-binary; solver {args.solver!r} needs the admm wrapper")
    config = admm.AdmmConfig(rho=args.rho, beta=args.beta, c=args.c,
                             max_iterations=args.max_iterations,
                             qubo_solver=args.qubo_solver, seed=args.seed)
    outcome = admm.run(problem, config)
    profit = admm.auction_profit(bids, outcome.x)
    violation = float(np.maximum(problem.ineq_matrix @ outcome.x - problem.ineq_rhs,
                                 0.0).sum())
    result = {
        "solver": "admm", "qubo_solver": args.qubo_solver,
        "rho": args.rho, "beta": args.beta,
        "accepted": [int(b) for b in outcome.x],
        "profit": profit, "violation": violation,
        "iterations": len(outcome.trace), "k_star": outcome.k_star,
    }
    trace_payload = {
        "residual_norm": [it.residual_norm for it in outcome.trace],
        "merit": [it.merit for it in outcome.trace],
        "block3_gradient_norm": [it.block3_gradient_norm for it in outcome.trace],
    }
    out = os.path.join(args.out_dir, "result.json")
    trace_path = os.path.join(args.out_dir, "trace.json")
    _write_json(out, result)
    _write_json(trace_path, trace_payload)
    _write_manifest(args.out_dir, argv, args.seed, [args.instance], [out, trace_path])
    print(f"accepted {''.join(str(int(b)) for b in outcome.x)}  profit {profit}  "
          f"violation {violation}  iterations {len(outcome.trace)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ml subcommands


def cmd_ml_synth(args, argv) -> int:
    if args.mode == "transactions":
        dataset = clf.synthesize_transactions(args.n, args.seed)
    else:
        dataset = clf.synthesize_separable(args.n, args.seed, margin=args.margin)
    path = os.path.join(args.out_dir, "dataset.csv")
    clf.export_csv(path, dataset)
    _write_manifest(args.out_dir, argv, args.seed, [], [path])
    print(f"wrote {len(dataset)} records to {path} "
          f"(labels: +1 x{int((dataset.labels == 1).sum())}, "
          f"-1 x{int((dataset.labels == -1).sum())})")
    return EXIT_OK


def _load_any_dataset(path: str) -> clf.LabeledDataset:
    with open(path, newline="") as fh:
        header = fh.readline().strip().split(",")
    if header[:-1] == list(clf.TRANSACTION_CONTINUOUS) + list(clf.TRANSACTION_CATEGORICAL):
        return clf.ingest_csv(path)
    names = tuple(header[:-1])
    return clf.ingest_csv(path, continuous_names=names, categorical_names=(),
                          vocab_sizes=())


def cmd_ml_train(args, argv) -> int:
    dataset = _load_any_dataset(args.data)
    if args.encoder == "qrac":
        config = clf.build_vqc_with_qrac(
            dataset.continuous_names, dataset.categorical_names,
            dataset.vocab_sizes, qrac_features=("method",) if "method" in dataset.categorical_names else (),
            separator_layers=args.layers)
    else:
        n_qubits = dataset.continuous.shape[1] + dataset.categorical.shape[1]
        config = clf.ModelConfig(n_qubits=n_qubits, separator_layers=args.layers,
                                 continuous_names=dataset.continuous_names,
                                 categorical_names=dataset.categorical_names,
                                 vocab_sizes=dataset.vocab_sizes)
    optimizer = _optimizer_from_args(args, args.seed)
    model, trace = clf.train(dataset, config, optimizer, form=args.risk)
    train_accuracy = clf.accuracy(model, dataset)
    model_path = os.path.join(args.out_dir, "model.json")
    clf.save_model(model_path, model, provenance={
        "seed": args.seed, "optimizer": args.optimizer,
        "iterations": args.iterations, "risk": args.risk, "version": __version__})
    loss_path = os.path.join(args.out_dir, "loss_trace.csv")
    with open(loss_path, "w") as fh:
        fh.write("iteration,loss\n")
        for i, v in enumerate(trace):
            fh.write(f"{i},{v!r}\n")
    result = {
        "encoder": args.encoder, "n_qubits": config.n_qubits,
        "records": len(dataset), "risk_form": args.risk,
        "final_loss": trace[-1], "train_accuracy": train_accuracy,
    }
    outputs = [model_path, loss_path]
    if args.cross_validate:
        def trainer(train_set):
            m, _ = clf.train(train_set, config, optimizer, form=args.risk)
            def predict_fn(test_set):
                return np.array([clf.predict(m, test_set.continuous[i],
                                             test_set.categorical[i])
                                 for i in range(len(test_set))])
            return predict_fn, clf.accuracy(m, train_set)
        result["cross_validation"] = clf.cross_validate(
            trainer, dataset, k=args.folds, seed=args.seed)
        result["baselines"] = clf.classical_baselines(dataset, k=args.folds,
                                                      seed=args.seed)
    out = os.path.join(args.out_dir, "result.json")
    _write_json(out, result)
    outputs.append(out)
    _write_manifest(args.out_dir, argv, args.seed, [args.data], outputs)
    print(f"trained {config.n_qubits}-qubit model: loss {trace[0]:.4f} -> {trace[-1]:.4f},"
          f" train accuracy {train_accuracy:.3f}")
    return EXIT_OK


def cmd_ml_eval(args, argv) -> int:
    model = clf.load_model(args.model)
    dataset = _load_any_dataset(args.data)
    if tuple(dataset.continuous_names) != model.config.continuous_names \
            or tuple(dataset.categorical_names) != model.config.categorical_names:
        raise ValueError("dataset schema does not match the saved model")
    acc = clf.accuracy(model, dataset)
    risk_abs = clf.empirical_risk(model, dataset, form="absolute")
    result = {"records": len(dataset), "accuracy": acc, "absolute_risk": risk_abs}
    out = os.path.join(args.out_dir, "eval.json")
    _write_json(out, result)
    _write_manifest(args.out_dir, argv, args.seed, [args.model, args.data], [out])
    print(f"accuracy {acc:.3f} over {len(dataset)} records (absolute risk {risk_abs:.4f})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# ae calibrate


def cmd_ae_calibrate(args, argv) -> int:
    if args.m > 8:
        raise ValueError("calibration supports m <= 8")
    if not 0.0 < args.grid < 1.0:
        raise ValueError("grid step must lie in (0, 1)")
    big_m = 1 << args.m
    grid = np.arange(args.grid, 1.0, args.grid)
    coverage_path = os.path.join(args.out_dir, "coverage.csv")
    with open(coverage_path, "w") as fh:
        fh.write("a,coverage,bound\n")
        for a in grid:
            a = float(round(a, 10))
            fh.write(f"{a!r},{coverage_probability(a, args.m)!r},"
                     f"{error_bound(a, big_m)!r}\n")
    failure_path = os.path.join(args.out_dir, "qpe_failure.csv")
    with open(failure_path, "w") as fh:
        fh.write("s,p,failure_probability\n")
        for s in range(1, args.s_max + 1):
            for p in range(1, args.p_max + 1):
                fh.write(f"{s},{p},{qpe_failure_probability(s, p)!r}\n")
    _write_manifest(args.out_dir, argv, args.seed, [], [coverage_path, failure_path])
    print(f"wrote {coverage_path} ({grid.size} rows) and {failure_path}")
    return EXIT_OK


def cmd_replay(args, argv) -> int:
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    return main(manifest["argv"])


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qfin", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out-dir", default=".", help="directory for result files")
        p.add_argument("--verbosity", type=int, default=1)

    risk = sub.add_parser("risk", help="amplitude-estimation risk analysis")
    risk_sub = risk.add_subparsers(dest="subcommand", required=True)
    var = risk_sub.add_parser("var", help="value at risk via AE bisection")
    var.add_argument("--portfolio", required=True, help="CSV with header lgd,p0,rho")
    var.add_argument("--alpha", type=float, default=0.95)
    var.add_argument("--nz", type=int, default=2, help="latent register qubits")
    var.add_argument("--m", type=int, default=4, help="evaluation qubits")
    var.add_argument("--z-low", type=float, default=-3.0)
    var.add_argument("--z-high", type=float, default=3.0)
    var.add_argument("--exact-oracle", action="store_true")
    common(var)
    var.set_defaults(func=cmd_risk_var)

    opt = sub.add_parser("opt", help="combinatorial optimization")
    opt_sub = opt.add_subparsers(dest="subcommand", required=True)

    def solver_options(p, solvers):
        p.add_argument("--solver", choices=solvers, default=solvers[0])
        p.add_argument("--optimizer", choices=("spsa", "nelder-mead"), default="spsa")
        p.add_argument("--iterations", type=int, default=300)
        p.add_argument("--restarts", type=int, default=1)
        p.add_argument("--depth", type=int, default=3)
        p.add_argument("--top-k", type=int, default=8)

    portfolio = opt_sub.add_parser("portfolio", help="mean-variance selection")
    portfolio.add_argument("--instance", required=True)
    portfolio.add_argument("--frontier", action="store_true")
    portfolio.add_argument("--q-values", default="0.1,0.25,0.5,1.0,2.0")
    solver_options(portfolio, ("brute-force", "vqe", "qaoa"))
    common(portfolio)
    portfolio.set_defaults(func=cmd_opt_portfolio)

    diversify = opt_sub.add_parser("diversify", help="representative clustering")
    diversify.add_argument("--similarity", required=True, help="n x n CSV matrix")
    diversify.add_argument("--clusters", type=int, required=True)
    diversify.add_argument("--penalty", type=float, default=None)
    solver_options(diversify, ("brute-force", "vqe", "qaoa"))
    common(diversify)
    diversify.set_defaults(func=cmd_opt_diversify)

    auction = opt_sub.add_parser("auction", help="winner determination")
    auction.add_argument("--instance", required=True)
    auction.add_argument("--solver", choices=("admm", "brute-force", "vqe", "qaoa"),
                         default="admm")
    auction.add_argument("--qubo-solver", choices=admm.QUBO_SOLVERS,
                         default="brute-force")
    auction.add_argument("--rho", type=float, default=12.0)
    auction.add_argument("--beta", type=float, default=11.0)
    auction.add_argument("--c", type=float, default=10.0)
    auction.add_argument("--max-iterations", type=int, default=100)
    common(auction)
    auction.set_defaults(func=cmd_opt_auction)

    ml = sub.add_parser("ml", help="variational classification")
    ml_sub = ml.add_subparsers(dest="subcommand", required=True)

    synth = ml_sub.add_parser("synth", help="generate a seeded dataset")
    synth.add_argument("--n", type=int, default=100)
    synth.add_argument("--mode", choices=("transactions", "separable"),
                       default="transactions")
    synth.add_argument("--margin", type=float, default=0.3)
    common(synth)
    synth.set_defaults(func=cmd_ml_synth)

    train_p = ml_sub.add_parser("train", help="train a classifier")
    train_p.add_argument("--data", required=True)
    train_p.add_argument("--encoder", choices=("map", "qrac"), default="map")
    train_p.add_argument("--risk", choices=clf.RISK_FORMS, default="cross-entropy")
    train_p.add_argument("--layers", type=int, default=1)
    train_p.add_argument("--optimizer", choices=("spsa", "nelder-mead"),
                         default="nelder-mead")
    train_p.add_argument("--iterations", type=int, default=200)
    train_p.add_argument("--restarts", type=int, default=1)
    train_p.add_argument("--cross-validate", action="store_true")
    train_p.add_argument("--folds", type=int, default=5)
    common(train_p)
    train_p.set_defaults(func=cmd_ml_train)

    eval_p = ml_sub.add_parser("eval", help="evaluate a saved model")
    eval_p.add_argument("--model", required=True)
    eval_p.add_argument("--data", required=True)
    common(eval_p)
    eval_p.set_defaults(func=cmd_ml_eval)

    ae = sub.add_parser("ae", help="amplitude-estimation calibration")
    ae_sub = ae.add_subparsers(dest="subcommand", required=True)
    calibrate = ae_sub.add_parser("calibrate", help="coverage and QPE failure tables")
    calibrate.add_argument("--m", type=int, default=4)
    calibrate.add_argument("--grid", type=float, default=0.05)
    calibrate.add_argument("--s-max", type=int, default=6)
    calibrate.add_argument("--p-max", type=int, default=6)
    common(calibrate)
    calibrate.set_defaults(func=cmd_ae_calibrate)

    replay = sub.add_parser("replay", help="re-run a recorded manifest")
    replay.add_argument("manifest")
    replay.set_defaults(func=cmd_replay, seed=0, out_dir=".")

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    out_dir = getattr(args, "out_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    try:
        return args.func(args, argv)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
