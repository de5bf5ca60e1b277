"""The benchmark's workloads: seeded inputs, command lists and oracle checks.

Every input is written by the library's own seeded writers (or by ``qfin ml
synth``), so the program under test receives only files. Each workload is a
fixed list of ``qfin`` commands; the benchmark replays the list as a closed
loop and checks the results afterwards, outside the timed section.

Shapes are fixed so that the work per command barely depends on the seed:
only the values inside the inputs change with it (the Nelder-Mead loops take
a few percent more or fewer evaluations on some inputs).
"""

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

ALPHA = 0.95
CREDIT_NZ = 3
CREDIT_M = 6
CREDIT_LGDS = (1, 2, 3)          # permuted per seed; total 6 keeps n_s = 3
CALIBRATE_M = 8
PORTFOLIO_ASSETS = 6
PORTFOLIO_BUDGET = 3
DIVERSIFY_STOCKS = 3
DIVERSIFY_CLUSTERS = 2
AUCTION_SHAPE = (16, 3, 6)       # bids, items, units per item (the paper's shape)
VQC_TRAIN_RECORDS = 40
VQC_HELDOUT_RECORDS = 120
VQC_ITERATIONS = 60
HELDOUT_SEED_OFFSET = 1_000_000
ENERGY_GAP_TOLERANCE = 0.05      # acceptance criterion 05's tolerance
AE_COVERAGE_FLOOR = 8.0 / math.pi ** 2


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``out_dir`` is relative to the checkout root."""

    name: str
    argv: tuple[str, ...]
    out_dir: str
    pipeline: str = ""


@dataclass
class Verdict:
    """Outcome of checking one command's result files.

    ``problems`` lists disagreements between a result file and an independent
    recomputation (the result is wrong as written). ``miss`` marks a result
    that is well formed but fails its oracle (a heuristic missed the answer).
    """

    command: str
    pipeline: str = ""
    checked: bool = False
    miss: bool = False
    gap: float | None = None
    problems: list[str] = field(default_factory=list)
    note: str = ""

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


@dataclass(frozen=True)
class Pipeline:
    """One of qfin's pipelines: how to write its inputs and check its results."""

    name: str
    shapes: dict
    build: object   # (cli module, work_dir, seed) -> list[Command]
    check: object   # (work_dir, seed, commands) -> list[Verdict]


@dataclass(frozen=True)
class Workload:
    """The commands of one or more pipelines, replayed as one closed loop."""

    name: str
    pipelines: tuple[Pipeline, ...]

    @property
    def shapes(self) -> dict:
        return {p.name: p.shapes for p in self.pipelines}

    def build(self, cli, work: str, seed: int) -> list[Command]:
        commands = []
        for p in self.pipelines:
            sub = os.path.join(work, p.name)
            os.makedirs(sub)
            commands += [replace(c, pipeline=p.name) for c in p.build(cli, sub, seed)]
        return commands

    def check(self, work: str, seed: int, commands: list[Command]) -> list[Verdict]:
        verdicts = []
        for p in self.pipelines:
            sub = os.path.join(work, p.name)
            mine = [c for c in commands if c.pipeline == p.name]
            try:
                found = p.check(sub, seed, mine)
            except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
                # A command that failed may have left no result to check.
                found = [Verdict(p.name, problems=[f"results could not be checked: {exc!r}"])]
            for verdict in found:
                verdict.pipeline = p.name
                verdicts.append(verdict)
        return verdicts


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# credit_var


def _credit_assets(seed: int):
    from qfin import credit_risk as cr

    rng = np.random.default_rng([seed, 1])
    lgds = rng.permutation(CREDIT_LGDS)
    return [cr.Asset(int(lgd), float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.05, 0.3)))
            for lgd in lgds]


def build_credit_var(cli, work: str, seed: int) -> list[Command]:
    from qfin import credit_risk as cr

    portfolio = os.path.join(work, "portfolio.csv")
    cr.write_portfolio_csv(portfolio, _credit_assets(seed))
    return [
        Command("risk-var", ("risk", "var", "--portfolio", portfolio, "--alpha", str(ALPHA),
                             "--nz", str(CREDIT_NZ), "--m", str(CREDIT_M), "--exact-oracle",
                             "--seed", str(seed)), os.path.join(work, "risk-var")),
        Command("ae-calibrate", ("ae", "calibrate", "--m", str(CALIBRATE_M),
                                 "--seed", str(seed)), os.path.join(work, "ae-calibrate")),
    ]


def _check_risk_var(cmd: Command, seed: int) -> Verdict:
    from qfin import credit_risk as cr
    from qfin.amplitude_estimation import error_bound

    verdict = Verdict(cmd.name, checked=True)
    result = _read_json(os.path.join(cmd.out_dir, "result.json"))
    portfolio = cr.CreditPortfolio(assets=tuple(_credit_assets(seed)), n_z=CREDIT_NZ)
    dist = cr.exact_loss_distribution(portfolio)
    exact_var = dist.value_at_risk(ALPHA)
    verdict.expect(result["n_qubits"] == portfolio.n_qubits, "register width differs")
    verdict.expect(_close(result["expected_loss"], dist.mean()), "expected loss differs")
    low, high = -1, portfolio.total_lgd + 1
    big_m = 1 << CREDIT_M
    for probe in result["bisection"]:
        verdict.expect((probe["low"], probe["high"]) == (low, high)
                       and probe["mid"] == (low + high) // 2, "bisection bracket is inconsistent")
        classical = dist.cdf(probe["mid"])
        if abs(probe["cdf"] - classical) > error_bound(classical, big_m):
            verdict.miss = True
        if probe["cdf"] >= ALPHA:
            high = probe["mid"]
        else:
            low = probe["mid"]
    for probe, row in zip(result["bisection"], result["oracle"]["probe_deltas"]):
        verdict.expect(_close(row["classical"], dist.cdf(probe["mid"])),
                       "reported classical CDF differs from enumeration")
    verdict.expect(high - low == 1 and result["var"] == high,
                   "VaR is not the end of its own bisection")
    verdict.expect(result["oracle"]["var"] == exact_var, "reported oracle VaR differs")
    verdict.miss = verdict.miss or result["var"] != exact_var
    verdict.gap = float(abs(result["var"] - exact_var))
    verdict.note = f"VaR {result['var']} exact {exact_var}"
    return verdict


def _check_calibrate(cmd: Command) -> Verdict:
    from qfin.amplitude_estimation import error_bound

    verdict = Verdict(cmd.name, checked=True)
    with open(os.path.join(cmd.out_dir, "coverage.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    verdict.expect(len(rows) > 0, "empty coverage table")
    worst = 1.0
    for row in rows:
        a, coverage, bound = float(row["a"]), float(row["coverage"]), float(row["bound"])
        verdict.expect(0.0 <= coverage <= 1.0 + 1e-12, "coverage outside [0, 1]")
        verdict.expect(_close(bound, error_bound(a, 1 << CALIBRATE_M)), "bound column differs")
        worst = min(worst, coverage)
    # Canonical AE lands within the bound with probability at least 8/pi^2.
    verdict.miss = worst < AE_COVERAGE_FLOOR
    verdict.note = f"min coverage {worst:.4f}"
    return verdict


def check_credit_var(work: str, seed: int, commands: list[Command]) -> list[Verdict]:
    return [_check_risk_var(commands[0], seed), _check_calibrate(commands[1])]


# ---------------------------------------------------------------------------
# portfolio_vqe


def build_portfolio_vqe(cli, work: str, seed: int) -> list[Command]:
    from qfin import qubo as qb

    rng = np.random.default_rng([seed, 2])
    w = rng.normal(size=(PORTFOLIO_ASSETS, PORTFOLIO_ASSETS))
    instance = os.path.join(work, "instance.txt")
    qb.write_portfolio_instance(instance, qb.PortfolioSpec(
        mu=rng.uniform(0.0, 0.1, PORTFOLIO_ASSETS), sigma=w @ w.T / PORTFOLIO_ASSETS,
        q=0.5, budget=PORTFOLIO_BUDGET))
    base = rng.uniform(0.1, 0.9, size=(DIVERSIFY_STOCKS, DIVERSIFY_STOCKS))
    rho = (base + base.T) / 2.0
    np.fill_diagonal(rho, 1.0)
    similarity = os.path.join(work, "similarity.csv")
    # The library reads this plain n x n CSV but has no writer for it.
    with open(similarity, "w") as fh:
        for row in rho:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return [
        Command("opt-portfolio-vqe", ("opt", "portfolio", "--instance", instance,
                                      "--solver", "vqe", "--seed", str(seed)),
                os.path.join(work, "portfolio-vqe")),
        Command("opt-portfolio-qaoa", ("opt", "portfolio", "--instance", instance,
                                       "--solver", "qaoa", "--seed", str(seed)),
                os.path.join(work, "portfolio-qaoa")),
        Command("opt-diversify-vqe", ("opt", "diversify", "--similarity", similarity,
                                      "--clusters", str(DIVERSIFY_CLUSTERS), "--solver", "vqe",
                                      "--optimizer", "nelder-mead", "--depth", "1",
                                      "--seed", str(seed)),
                os.path.join(work, "diversify-vqe")),
    ]


def _normalised_gap(qubo, value: float) -> float:
    from qfin import qubo as qb

    _, e_min = qb.brute_force(qubo)
    e_max = float(qb.all_energies(qubo).max())
    return (value - e_min) / (e_max - e_min) if e_max > e_min else 0.0


def _check_portfolio(cmd: Command, instance: str) -> Verdict:
    from qfin import qubo as qb

    verdict = Verdict(cmd.name, checked=True)
    result = _read_json(os.path.join(cmd.out_dir, "result.json"))
    spec = qb.read_portfolio_instance(instance)
    qubo = qb.build_portfolio_qubo(spec)
    bits = np.array(result["selection"], dtype=float)
    energy = qb.energy(qubo, bits)
    feasible = int(bits.sum()) == spec.budget
    verdict.expect(_close(result["energy"], energy), "energy differs from the QUBO")
    verdict.expect(result["budget_feasible"] == feasible, "budget flag is wrong")
    verdict.expect(_close(result["risk"], float(bits @ spec.sigma @ bits)), "risk differs")
    verdict.expect(_close(result["return"], float(spec.mu @ bits)), "return differs")
    verdict.gap = _normalised_gap(qubo, energy)
    verdict.miss = not feasible or verdict.gap > ENERGY_GAP_TOLERANCE
    verdict.note = f"gap {verdict.gap:.4f} feasible {feasible}"
    return verdict


def _check_diversify(cmd: Command, similarity: str) -> Verdict:
    from qfin import qubo as qb

    verdict = Verdict(cmd.name, checked=True)
    result = _read_json(os.path.join(cmd.out_dir, "result.json"))
    spec = qb.DiversificationSpec(rho=qb.read_similarity_csv(similarity),
                                  q_clusters=DIVERSIFY_CLUSTERS)
    qubo = qb.build_diversification_qubo(spec)
    best = min(result["top_states"], key=lambda s: s["energy"])
    bits = np.array([int(ch) for ch in best["bits"]], dtype=float)
    energy = qb.energy(qubo, bits)
    decode = qb.decode_diversification(bits.astype(int), DIVERSIFY_CLUSTERS)
    verdict.expect(_close(result["energy"], energy), "energy differs from the QUBO")
    verdict.expect(result["feasible"] == decode.feasible
                   and result["selected"] == list(decode.selected), "decode differs")
    verdict.gap = _normalised_gap(qubo, energy)
    verdict.miss = not decode.feasible or verdict.gap > ENERGY_GAP_TOLERANCE
    verdict.note = f"gap {verdict.gap:.4f} feasible {decode.feasible}"
    return verdict


def check_portfolio_vqe(work: str, seed: int, commands: list[Command]) -> list[Verdict]:
    instance = os.path.join(work, "instance.txt")
    return [_check_portfolio(commands[0], instance), _check_portfolio(commands[1], instance),
            _check_diversify(commands[2], os.path.join(work, "similarity.csv"))]


# ---------------------------------------------------------------------------
# auction_admm


def build_auction_admm(cli, work: str, seed: int) -> list[Command]:
    from qfin import admm

    bids, units = admm.random_auction(*AUCTION_SHAPE, seed=seed)
    instance = os.path.join(work, "auction.csv")
    admm.write_auction_csv(instance, bids, units)
    return [Command("opt-auction-admm", ("opt", "auction", "--instance", instance,
                                         "--solver", "admm", "--rho", "12", "--beta", "11",
                                         "--seed", str(seed)),
                    os.path.join(work, "auction-admm"))]


def check_auction_admm(work: str, seed: int, commands: list[Command]) -> list[Verdict]:
    from qfin import admm

    cmd = commands[0]
    verdict = Verdict(cmd.name, checked=True)
    result = _read_json(os.path.join(cmd.out_dir, "result.json"))
    bids, units = admm.read_auction_csv(os.path.join(work, "auction.csv"))
    x = np.array(result["accepted"], dtype=float)
    load = np.array([[b.quantities[i] for b in bids] for i in range(units.size)]) @ x
    violation = float(np.maximum(load - units, 0.0).sum())
    profit = admm.auction_profit(bids, x)
    verdict.expect(_close(result["violation"], violation), "violation differs")
    verdict.expect(_close(result["profit"], profit), "profit differs")
    verdict.expect(1 <= result["k_star"] <= result["iterations"], "k* outside the trace")
    _, exact = admm.solve_auction_exact(bids, units)
    verdict.miss = violation > 0.0
    # Negative when an infeasible allocation over-sells the supply.
    verdict.gap = (exact - profit) / exact
    verdict.note = (f"violation {violation} profit {profit:.2f} exact {exact:.2f} "
                    f"k* {result['k_star']}/{result['iterations']}")
    return [verdict]


# ---------------------------------------------------------------------------
# vqc_train


def build_vqc_train(cli, work: str, seed: int) -> list[Command]:
    train_dir = os.path.join(work, "train-data")
    heldout_dir = os.path.join(work, "heldout-data")
    model_dir = os.path.join(work, "model")
    # The held-out set is an input, written once by the same synth command.
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["ml", "synth", "--n", str(VQC_HELDOUT_RECORDS),
                         "--mode", "transactions", "--seed", str(seed + HELDOUT_SEED_OFFSET),
                         "--out-dir", heldout_dir])
    if code != 0:
        raise RuntimeError(f"ml synth for the held-out set exited {code}")
    return [
        Command("ml-synth-train", ("ml", "synth", "--n", str(VQC_TRAIN_RECORDS),
                                   "--mode", "transactions", "--seed", str(seed)), train_dir),
        Command("ml-train-qrac", ("ml", "train", "--data", os.path.join(train_dir, "dataset.csv"),
                                  "--encoder", "qrac", "--optimizer", "nelder-mead",
                                  "--iterations", str(VQC_ITERATIONS), "--seed", str(seed)),
                model_dir),
        Command("ml-eval", ("ml", "eval", "--model", os.path.join(model_dir, "model.json"),
                            "--data", os.path.join(heldout_dir, "dataset.csv"),
                            "--seed", str(seed)), os.path.join(work, "eval")),
    ]


def _labels(path: str) -> list[int]:
    with open(path, newline="") as fh:
        return [int(row["label"]) for row in csv.DictReader(fh)]


def check_vqc_train(work: str, seed: int, commands: list[Command]) -> list[Verdict]:
    from qfin import classifier as clf

    synth, train_cmd, cmd = commands
    synth_verdict = Verdict(synth.name)
    labels = _labels(os.path.join(synth.out_dir, "dataset.csv"))
    synth_verdict.expect(len(labels) == VQC_TRAIN_RECORDS and set(labels) <= {-1, 1},
                         "dataset shape is wrong")
    train = Verdict(train_cmd.name)
    result = _read_json(os.path.join(train_cmd.out_dir, "result.json"))
    train.expect(result["records"] == VQC_TRAIN_RECORDS, "trained on the wrong record count")
    verdicts = [synth_verdict, train]

    verdict = Verdict(cmd.name, checked=True)
    result = _read_json(os.path.join(cmd.out_dir, "eval.json"))
    heldout_csv = os.path.join(work, "heldout-data", "dataset.csv")
    labels = _labels(heldout_csv)
    verdict.expect(len(labels) == VQC_HELDOUT_RECORDS and set(labels) <= {-1, 1},
                   "held-out dataset shape is wrong")
    majority = max(labels.count(1), labels.count(-1)) / len(labels)
    model = clf.load_model(os.path.join(train_cmd.out_dir, "model.json"))
    rescored = clf.accuracy(model, clf.ingest_csv(heldout_csv))
    verdict.expect(result["records"] == len(labels), "scored the wrong record count")
    verdict.expect(result["accuracy"] == rescored, "accuracy differs from a rescoring")
    verdict.miss = result["accuracy"] < majority
    verdict.gap = 1.0 - result["accuracy"]
    verdict.note = f"accuracy {result['accuracy']:.4f} majority {majority:.4f}"
    verdicts.append(verdict)
    return verdicts


# Unit of each pipeline's oracle gap.
GAP_UNITS = {"credit_var": "loss", "portfolio_vqe": "ratio", "vqc_train": "ratio",
             "auction_admm": "ratio"}

PIPELINES = (
    Pipeline("credit_var", {
        "commands": ["risk var --nz 3 --m 6 --exact-oracle", "ae calibrate --m 8"],
        "assets": 3, "lgd": "permutation of 1,2,3", "a_register_qubits": 10,
        "counting_qubits": CREDIT_M, "total_qubits": 16, "probes_per_var": 3,
        "calibrate_qubits": 1 + CALIBRATE_M}, build_credit_var, check_credit_var),
    Pipeline("portfolio_vqe", {
        "commands": ["opt portfolio --solver vqe", "opt portfolio --solver qaoa",
                     "opt diversify --solver vqe --optimizer nelder-mead --depth 1"],
        "portfolio_qubits": PORTFOLIO_ASSETS, "budget": PORTFOLIO_BUDGET,
        "diversify_stocks": DIVERSIFY_STOCKS, "diversify_qubits": 12},
        build_portfolio_vqe, check_portfolio_vqe),
    Pipeline("vqc_train", {
        "commands": ["ml synth --mode transactions",
                     "ml train --encoder qrac --optimizer nelder-mead", "ml eval"],
        "train_records": VQC_TRAIN_RECORDS, "heldout_records": VQC_HELDOUT_RECORDS,
        "iterations": VQC_ITERATIONS, "qubits": 5}, build_vqc_train, check_vqc_train),
    Pipeline("auction_admm", {
        "commands": ["opt auction --solver admm --rho 12 --beta 11"],
        "bids": AUCTION_SHAPE[0], "items": AUCTION_SHAPE[1],
        "units_per_item": AUCTION_SHAPE[2], "qubo_variables": AUCTION_SHAPE[0]},
        build_auction_admm, check_auction_admm),
)

# The pipelines share two workloads so that each run can last about 36 s: on a
# shared 2-core VM shorter runs drift too much for a steady median.
WORKLOADS = {w.name: w for w in (
    Workload("statevector", PIPELINES[:3]),
    Workload("auction_admm", PIPELINES[3:]),
)}
