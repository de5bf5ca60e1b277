"""Batch command-line surface over the toolkit.

Commands cover risk analysis (``risk var``), combinatorial optimization
(``opt portfolio|diversify|auction``), classification (``ml synth|train|eval``),
and amplitude-estimation calibration (``ae calibrate``). Every run writes a
manifest (arguments, seed, input digests, version) next to deterministic
result files, so rerunning the same manifest reproduces them byte for byte.

A command's handler only computes: it returns its files by name, the input
paths the manifest digests, and its stdout summary. ``main`` alone writes
them, so a command that fails while computing writes nothing.

Exit codes: 0 success, 1 internal error, 2 usage, 3 validation, 4 capacity,
5 solver failure.
"""

import argparse
import csv
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
    check_counting_qubits,
    coverage_probability,
    error_bound,
    qpe_failure_probability,
)
from .inputs import json_text
from .optimizers import OptimizerConfig
from .simulator import CapacityError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_CAPACITY = 4
EXIT_SOLVER = 5

# ``ae calibrate`` bounds: at most 9,999 grid points, and a QPE table of at
# most about 2^23 failure-sum terms (2^(p-1) for each s and p)
CALIBRATE_MIN_GRID = 1e-4
CALIBRATE_MAX_QPE_BITS = 24


class SolverFailure(Exception):
    pass


def _digest(path: str) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            sha.update(chunk)
    return sha.hexdigest()


def _fresh(path: str) -> str:
    """``path``, with any file there unlinked so that the writer creates a new one.

    ext4 flushes a file on close when it was truncated in place or renamed
    over, and a new file it does not; a hard link to the old file keeps the
    old bytes.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return path


def _path(args, name: str) -> str:
    """Where ``_write`` puts the file ``name``; a summary that names a file uses it too."""
    return os.path.join(args.out_dir, name)


def _write(args, argv: list[str], files: dict, inputs: list[str], summary: str) -> None:
    """The one writer of a command's results: ``files`` under ``--out-dir`` in
    order, each created anew, then ``manifest.json``, then ``summary`` on stdout.

    A dict is written as JSON and any other content as its text chunks. A file
    that cannot be written stops the run there: the files before it stay, and
    no manifest is written.
    """
    manifest = {
        "argv": argv,
        "seed": args.seed,
        "version": __version__,
        "inputs": {os.path.basename(p): _digest(p) for p in inputs},
        "outputs": sorted(files),
    }
    for name, content in [*files.items(), ("manifest.json", manifest)]:
        with open(_fresh(_path(args, name)), "w", newline="") as fh:
            fh.writelines([json_text(content)] if isinstance(content, dict) else content)
    print(summary)


def _table(rows: list[list[str]], header: list[str]) -> str:
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend("  ".join(str(c).ljust(w) for c, w in zip(row, widths)) for row in rows)
    return "\n".join(lines)


def _optimizer_from_args(args) -> OptimizerConfig:
    return OptimizerConfig(method=args.optimizer, iterations=args.iterations,
                           seed=args.seed, restarts=args.restarts)


# ---------------------------------------------------------------------------
# risk var


def cmd_risk_var(args):
    # both branches record alpha and m, so both are checked here
    if not 0.0 <= args.alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1)")
    check_counting_qubits(args.m)
    assets = cr.load_portfolio_csv(args.portfolio)
    portfolio = cr.CreditPortfolio(assets=tuple(assets), n_z=args.nz,
                                   z_low=args.z_low, z_high=args.z_high)
    pmf = cr.loss_pmf(portfolio)
    if args.alpha <= 0.0:
        var, trace = 0, []  # no default at all is the smallest loss
    else:
        var, trace = cr.var_bisection(np.cumsum(pmf), portfolio.total_lgd, args.alpha, args.m)
    expected = float(np.arange(pmf.size) @ pmf)
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
    summary = f"VaR_{args.alpha} = {var}  E[L] = {expected:.6f}  ECR = {var - expected:.6f}"
    if trace:
        summary += "\n" + _table([[p.low, p.mid, p.high, f"{p.cdf:.6f}"] for p in trace],
                                 ["low", "mid", "high", "cdf_estimate"])
    return {"result.json": result}, [args.portfolio], summary


# ---------------------------------------------------------------------------
# opt subcommands


def _solve_qubo_by(args, qubo: qb.Qubo):
    optimizer = None if args.solver == "brute-force" else _optimizer_from_args(args)
    return vq.minimize_table(qb.all_energies(qubo), args.solver, args.depth, optimizer,
                             args.top_k)


def _top_states(variational) -> list[dict]:
    return [{"bits": s, "probability": p, "energy": e}
            for s, p, e in variational.top_states]


def cmd_opt_portfolio(args):
    spec = qb.read_portfolio_instance(args.instance)
    if args.frontier:
        q_values = [float(v) for v in args.q_values.split(",")]
        points = qb.efficient_frontier(spec.mu, spec.sigma, q_values)
    qubo = qb.build_portfolio_qubo(spec)
    bits, value, variational = _solve_qubo_by(args, qubo)
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
        result["top_states"] = _top_states(variational)
    files = {"result.json": result}
    if args.frontier:
        files["frontier.csv"] = ["q,risk,return,selection\n"] + [
            f"{q!r},{pt.risk!r},{pt.ret!r},{''.join(str(int(b)) for b in pt.x)}\n"
            for q, pt in zip(q_values, points)]
    return files, [args.instance], (
        f"selection {''.join(str(int(b)) for b in bits)}  energy {value:.6f}  "
        f"feasible {result['budget_feasible']}")


def cmd_opt_diversify(args):
    rho = qb.read_similarity_csv(args.similarity)
    spec = qb.DiversificationSpec(rho=rho, q_clusters=args.clusters,
                                  penalty=args.penalty)
    qubo = qb.build_diversification_qubo(spec)
    bits, value, variational = _solve_qubo_by(args, qubo)
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
        result["top_states"] = _top_states(variational)
    return {"result.json": result}, [args.similarity], (
        f"selected {decode.selected} assignment {decode.assignment} "
        f"feasible {decode.feasible}")


def cmd_opt_auction(args):
    bids, units = admm.read_auction_csv(args.instance)
    problem = admm.build_auction(bids, units)
    if args.solver == "brute-force":
        bits, profit = admm.solve_auction_exact(bids, units)
        result = {"solver": "brute-force", "accepted": [int(b) for b in bits],
                  "profit": profit, "violation": 0.0}
        return {"result.json": result}, [args.instance], (
            f"accepted {''.join(str(int(b)) for b in bits)}  profit {profit}")
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
    trace = {
        "residual_norm": [it.residual_norm for it in outcome.trace],
        "merit": [it.merit for it in outcome.trace],
        "block3_gradient_norm": [it.block3_gradient_norm for it in outcome.trace],
    }
    return {"result.json": result, "trace.json": trace}, [args.instance], (
        f"accepted {''.join(str(int(b)) for b in outcome.x)}  profit {profit}  "
        f"violation {violation}  iterations {len(outcome.trace)}")


# ---------------------------------------------------------------------------
# ml subcommands


def cmd_ml_synth(args):
    if args.mode == "transactions":
        dataset = clf.synthesize_transactions(args.n, args.seed)
    else:
        dataset = clf.synthesize_separable(args.n, args.seed, margin=args.margin)
    return {"dataset.csv": clf.dataset_csv(dataset)}, [], (
        f"wrote {len(dataset)} records to {_path(args, 'dataset.csv')} "
        f"(labels: +1 x{int((dataset.labels == 1).sum())}, "
        f"-1 x{int((dataset.labels == -1).sum())})")


def cmd_ml_train(args):
    dataset = clf.ingest_csv(args.data)
    qrac = ("method",) if args.encoder == "qrac" and "method" in dataset.categorical_names else ()
    config = clf.build_vqc_with_qrac(dataset.continuous_names, dataset.categorical_names,
                                     dataset.vocab_sizes, qrac_features=qrac,
                                     separator_layers=args.layers)
    optimizer = _optimizer_from_args(args)
    model, trace, train_accuracy = clf.train(dataset, config, optimizer, form=args.risk)
    result = {
        "encoder": args.encoder, "n_qubits": config.n_qubits,
        "records": len(dataset), "risk_form": args.risk,
        "final_loss": trace[-1], "train_accuracy": train_accuracy,
    }
    if args.cross_validate:
        result["cross_validation"] = clf.cross_validate(
            clf.vqc_fit(config, optimizer, args.risk), dataset, k=args.folds, seed=args.seed)
        result["baselines"] = clf.classical_baselines(dataset, k=args.folds,
                                                      seed=args.seed)
    files = {
        "model.json": clf.model_payload(model, provenance={
            "seed": args.seed, "optimizer": args.optimizer,
            "iterations": args.iterations, "risk": args.risk, "version": __version__}),
        "loss_trace.csv": ["iteration,loss\n"] + [f"{i},{v!r}\n" for i, v in enumerate(trace)],
        "result.json": result,
    }
    return files, [args.data], (
        f"trained {config.n_qubits}-qubit model: loss {trace[0]:.4f} -> {trace[-1]:.4f},"
        f" train accuracy {train_accuracy:.3f}")


def cmd_ml_eval(args):
    model = clf.load_model(args.model)
    dataset = clf.ingest_csv(args.data, model.config.continuous_names,
                             model.config.categorical_names, model.config.vocab_sizes)
    acc, risk_abs = clf.evaluate(model, dataset)
    result = {"records": len(dataset), "accuracy": acc, "absolute_risk": risk_abs}
    return {"eval.json": result}, [args.model, args.data], (
        f"accuracy {acc:.3f} over {len(dataset)} records (absolute risk {risk_abs:.4f})")


# ---------------------------------------------------------------------------
# ae calibrate


def cmd_ae_calibrate(args):
    if not 1 <= args.m <= 8:
        raise ValueError("calibration supports 1 <= m <= 8")
    if not CALIBRATE_MIN_GRID <= args.grid < 1.0:
        raise ValueError(f"grid step must lie in [{CALIBRATE_MIN_GRID}, 1)")
    if not (args.s_max >= 1 and args.p_max >= 1
            and args.s_max + args.p_max <= CALIBRATE_MAX_QPE_BITS):
        raise ValueError("calibration supports s_max, p_max >= 1 and "
                         f"s_max + p_max <= {CALIBRATE_MAX_QPE_BITS}")
    big_m = 1 << args.m
    coverage = ["a,coverage,bound\n"]
    for a in np.arange(args.grid, 1.0, args.grid):
        a = float(round(a, 10))
        coverage.append(f"{a!r},{coverage_probability(a, args.m)!r},"
                        f"{error_bound(a, big_m)!r}\n")
    failure = ["s,p,failure_probability\n"] + [
        f"{s},{p},{qpe_failure_probability(s, p)!r}\n"
        for s in range(1, args.s_max + 1) for p in range(1, args.p_max + 1)]
    return {"coverage.csv": coverage, "qpe_failure.csv": failure}, [], (
        f"wrote {_path(args, 'coverage.csv')} ({len(coverage) - 1} rows) "
        f"and {_path(args, 'qpe_failure.csv')}")


def cmd_replay(args) -> list[str]:
    """The argv that the manifest records, for ``main`` to run again."""
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    argv_list = manifest.get("argv") if isinstance(manifest, dict) else None
    if not (isinstance(argv_list, list) and all(isinstance(a, str) for a in argv_list)):
        raise ValueError("manifest must be a JSON object whose argv is a list of strings")
    if argv_list[:1] == ["replay"]:
        raise ValueError("manifest argv must not be another replay")
    return argv_list


# ---------------------------------------------------------------------------
# parser: one table of commands. main builds the flat parser of the command
# argv names, and the whole tree only when argv names none.

COMMON = (("--seed", dict(type=int, default=0)),
          ("--out-dir", dict(default=".", help="directory for result files")),
          ("--verbosity", dict(type=int, default=1)))
SOLVER = (("--solver", dict(choices=("brute-force", "vqe", "qaoa"), default="brute-force")),
          ("--optimizer", dict(choices=("spsa", "nelder-mead"), default="spsa")),
          ("--iterations", dict(type=int, default=300)),
          ("--restarts", dict(type=int, default=1)),
          ("--depth", dict(type=int, default=3)),
          ("--top-k", dict(type=int, default=8)))
GROUPS = {"risk": "amplitude-estimation risk analysis", "opt": "combinatorial optimization",
          "ml": "variational classification", "ae": "amplitude-estimation calibration"}

# path -> (help, handler, arguments), in the order ``qfin --help`` lists them;
# every command but replay ends with the COMMON options
COMMANDS = {
    ("risk", "var"): ("value at risk via AE bisection", cmd_risk_var, (
        ("--portfolio", dict(required=True, help="CSV with header lgd,p0,rho")),
        ("--alpha", dict(type=float, default=0.95)),
        ("--nz", dict(type=int, default=2, help="latent register qubits")),
        ("--m", dict(type=int, default=4, help="evaluation qubits")),
        ("--z-low", dict(type=float, default=-3.0)),
        ("--z-high", dict(type=float, default=3.0)),
        ("--exact-oracle", dict(action="store_true"))) + COMMON),
    ("opt", "portfolio"): ("mean-variance selection", cmd_opt_portfolio, (
        ("--instance", dict(required=True)),
        ("--frontier", dict(action="store_true")),
        ("--q-values", dict(default="0.1,0.25,0.5,1.0,2.0"))) + SOLVER + COMMON),
    ("opt", "diversify"): ("representative clustering", cmd_opt_diversify, (
        ("--similarity", dict(required=True, help="n x n CSV matrix")),
        ("--clusters", dict(type=int, required=True)),
        ("--penalty", dict(type=float, default=None))) + SOLVER + COMMON),
    ("opt", "auction"): ("winner determination", cmd_opt_auction, (
        ("--instance", dict(required=True)),
        ("--solver", dict(choices=("admm", "brute-force", "vqe", "qaoa"), default="admm")),
        ("--qubo-solver", dict(choices=admm.QUBO_SOLVERS, default="brute-force")),
        ("--rho", dict(type=float, default=12.0)),
        ("--beta", dict(type=float, default=11.0)),
        ("--c", dict(type=float, default=10.0)),
        ("--max-iterations", dict(type=int, default=100))) + COMMON),
    ("ml", "synth"): ("generate a seeded dataset", cmd_ml_synth, (
        ("--n", dict(type=int, default=100)),
        ("--mode", dict(choices=("transactions", "separable"), default="transactions")),
        ("--margin", dict(type=float, default=0.3))) + COMMON),
    ("ml", "train"): ("train a classifier", cmd_ml_train, (
        ("--data", dict(required=True)),
        ("--encoder", dict(choices=("map", "qrac"), default="map")),
        ("--risk", dict(choices=clf.RISK_FORMS, default="cross-entropy")),
        ("--layers", dict(type=int, default=1)),
        ("--optimizer", dict(choices=("spsa", "nelder-mead"), default="nelder-mead")),
        ("--iterations", dict(type=int, default=200)),
        ("--restarts", dict(type=int, default=1)),
        ("--cross-validate", dict(action="store_true")),
        ("--folds", dict(type=int, default=5))) + COMMON),
    ("ml", "eval"): ("evaluate a saved model", cmd_ml_eval, (
        ("--model", dict(required=True)),
        ("--data", dict(required=True))) + COMMON),
    ("ae", "calibrate"): ("coverage and QPE failure tables", cmd_ae_calibrate, (
        ("--m", dict(type=int, default=4)),
        ("--grid", dict(type=float, default=0.05)),
        ("--s-max", dict(type=int, default=6)),
        ("--p-max", dict(type=int, default=6))) + COMMON),
    # replay writes nothing of its own: no seed or output options
    ("replay",): ("re-run a recorded manifest", cmd_replay, (("manifest", {}),)),
}


def _fill(parser: argparse.ArgumentParser, path: tuple) -> argparse.ArgumentParser:
    _, handler, arguments = COMMANDS[path]
    for name, options in arguments:
        parser.add_argument(name, **options)
    parser.set_defaults(func=handler, **dict(zip(("command", "subcommand"), path)))
    return parser


def command_parser(path: tuple) -> argparse.ArgumentParser:
    """The parser of the command at ``path``: it parses as the tree's subparser does."""
    return _fill(argparse.ArgumentParser(prog=" ".join(("qfin",) + path)), path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qfin", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for path, (help_text, _, _) in COMMANDS.items():
        if len(path) == 1:
            _fill(sub.add_parser(path[0], help=help_text), path)
            continue
        if path[0] not in groups:
            group = sub.add_parser(path[0], help=GROUPS[path[0]])
            groups[path[0]] = group.add_subparsers(dest="subcommand", required=True)
        _fill(groups[path[0]].add_parser(path[1], help=help_text), path)
    return parser


def parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed by its command's parser, or by the tree when it names none.

    The tree also reports what a command's parser leaves over, so that the
    message carries the tree's usage line.
    """
    path = next((p for p in COMMANDS if tuple(argv[:len(p)]) == p), None)
    if path is not None:
        args, extra = command_parser(path).parse_known_args(argv[len(path):])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if args.command == "replay":
            return main(args.func(args))
        os.makedirs(args.out_dir, exist_ok=True)
        _write(args, argv, *args.func(args))
        return EXIT_OK
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (SolverFailure, admm.InfeasibleContinuousBlock) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except np.linalg.LinAlgError as exc:
        # a ValueError subclass, but a numerical fault rather than bad input
        print(f"internal error: LinAlgError: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError, json.JSONDecodeError, KeyError, csv.Error) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        # a fault of the program, not of its input: still one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
