"""Paired per-seed verdicts for a change that may move last bits.

    python tools/verdicts.py BASE

BASE is a git revision. Its ``src`` is unpacked by ``git archive`` into a
temporary directory and compared with the working tree. Each side runs
``python -m qfin.cli`` with its own ``src`` on the same inputs, one row per
command:

- ``vqe``, ``qaoa``, ``diversify``: ``opt portfolio`` by VQE and by QAOA and
  ``opt diversify`` by VQE, on the inputs of the benchmark's
  ``build_portfolio_vqe`` (``perfbench/workloads.py``). Its
  ``_check_portfolio`` and ``_check_diversify`` score them: the energy gap to
  the brute-force optimum, normalised by the energy range and floored at 0
  (the two energies are sums in different orders, so an optimum may read
  -1e-17), feasibility, and a miss (infeasible, or a gap above the
  benchmark's tolerance).
- ``risk var``: on ``build_credit_var``'s portfolio, scored by
  ``_check_risk_var``: the gap |VaR - exact VaR| and a miss (a VaR off the
  exact one, or a probe outside the AE error bound).
- ``admm``: ``opt auction --solver admm`` on ``build_auction_admm``'s
  instance, scored by ``check_auction_admm``: the profit gap to
  ``solve_auction_exact``, feasibility, and a miss (a capacity violation
  above 0). An infeasible allocation scores gap 1.0: the check's own gap is
  negative when an allocation over-sells, and the sign test would read that
  as better. The table also shows each side's ADMM iterations.
- ``risk var wide``: the same command and score on a wider portfolio drawn
  here (``wide_assets``) and written with ``qfin``'s own writer: 12 assets
  with LGDs 1-3, an A register of about 21 qubits. ``score_risk_var`` is
  ``_check_risk_var``'s rule for any portfolio.
- ``vqe wide``, ``qaoa wide``: ``opt portfolio`` by VQE and by QAOA, with
  the command's defaults, on a 12-asset instance drawn here as the benchmark
  draws its 6-asset one (``wide_portfolio``) and written with
  ``qubo.write_portfolio_instance``; ``_check_portfolio`` scores them. At 12
  qubits a rotation layer splits into three qubit groups, where the
  benchmark's 6 qubits give two, so these rows judge a middle group too.
- ``vqc``: ``ml synth --mode separable --n 200`` is run once per seed with
  the working tree, and both sides run ``ml train --encoder map --optimizer
  nelder-mead --iterations 300 --cross-validate --folds 4`` on that one
  file. The gap is 1 - the VQC's mean test accuracy; a miss is a mean test
  accuracy at or below the larger of the majority rate and the logistic
  baseline's. Every seed draws a set (a reference model that cannot clear
  the margin is redrawn), so no seed is left out. Balanced accuracy and the
  fraction predicted +1 would need per-fold predictions, which the command
  does not record, so the row has neither.

The sweep is fixed: seeds 1-60 (``SEEDS``), run by ``--jobs`` worker
processes (2 by default; 1 runs them in this process). Each seed has its
own work directory and shares no state with another, and the report keeps
the seed order whatever order the seeds finish in. A worker, and every
command it runs, has its share of the cores as ``OPENBLAS_NUM_THREADS``
unless that is set: OpenBLAS threads spin while they wait, and two commands
with a thread per core each ran the sweep slower than one at a time.

The tool prints a paired per-seed table of gap and feasibility (the miss,
for ``risk var`` and ``vqc``), then one summary line per row. A row's
``changed`` counts the seeds on which any file the command writes (the
manifest without its ``argv``) or its stdout differs from the base's.

Rule: a change passes when
  1. no row is worse under a one-sided sign test at p < 0.05, on misses and
     on gaps, over the paired seeds; a seed whose two sides tie is left out
     of that test;
  2. every result agrees with its oracle's recomputation (no problems); and
  3. rerunning each command at the working tree gives the same bytes.
Misses already occur at the base, so "every seed passes" cannot be the rule.
The exit status is 0 when the change passes and 1 when it does not.
"""

import argparse
import dataclasses
import functools
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROWS = ("vqe", "qaoa", "diversify", "risk var", "admm", "vqc")  # the benchmark's inputs
# inputs drawn here, wider than the benchmark's
WIDE_ROWS = ("risk var wide", "vqe wide", "qaoa wide")
ALL_ROWS = ROWS + WIDE_ROWS
ENERGY_ROWS = ("vqe", "qaoa", "diversify", "vqe wide", "qaoa wide")  # normalised energy gaps
MISS_ROWS = ("risk var", "vqc", "risk var wide")  # third cell is the miss, not feasibility
SIGNIFICANCE = 0.05
JOBS = 2  # worker processes, each running one command at a time
SEEDS = range(1, 61)  # fixed, so every change is judged on the same sweep
SEPARABLE_RECORDS = 200
WIDE_ASSETS, WIDE_BUDGET = 12, 6  # the wide rows' assets; the portfolio rows' budget
WIDE_ALPHA, WIDE_NZ, WIDE_M = 0.95, 3, 6
VQC_TRAIN = ("--encoder", "map", "--optimizer", "nelder-mead", "--iterations", "300",
             "--cross-validate", "--folds", "4")


@dataclasses.dataclass(frozen=True)
class Outcome:
    """One command's scored result on one seed."""

    gap: float
    feasible: bool
    miss: bool
    outputs: tuple = ()  # what the command wrote, as ``_compared`` reads it
    iterations: int = 0  # ADMM iterations; 0 for the other rows


def sign_test(worse: int, better: int) -> float:
    """One-sided sign-test p-value that ``worse`` of the untied pairs are worse by chance."""
    n = worse + better
    return sum(math.comb(n, k) for k in range(worse, n + 1)) / 2 ** n


def row_gap(row: str, gap: float, feasible: bool) -> float:
    """The gap the sign test compares for ``row``, from its oracle check's gap.

    Energy gaps are floored at 0, so round-off below an optimum ties with
    it; an infeasible ADMM allocation scores 1.0, the worst a feasible one
    can score, since the check's gap is negative when it over-sells.
    """
    if row in ENERGY_ROWS:
        return max(0.0, gap)
    if row == "admm" and not feasible:
        return 1.0
    return gap


def compare(base: list[Outcome], new: list[Outcome]) -> dict:
    """One row's paired comparison: counts, sign tests and the verdict."""
    if len(base) != len(new):
        raise ValueError("the two sides must score the same seeds")
    pairs = list(zip(base, new))
    miss = (sum(n.miss and not b.miss for b, n in pairs),
            sum(b.miss and not n.miss for b, n in pairs))
    gap = (sum(n.gap > b.gap for b, n in pairs), sum(n.gap < b.gap for b, n in pairs))
    p_miss, p_gap = sign_test(*miss), sign_test(*gap)
    return {
        "seeds": len(pairs),
        "changed": sum(b.outputs != n.outputs for b, n in pairs),
        "misses": (sum(b.miss for b in base), sum(n.miss for n in new)),
        "miss": miss + (p_miss,),
        "gap": gap + (p_gap,),
        "passes": p_miss >= SIGNIFICANCE and p_gap >= SIGNIFICANCE,
    }


def _outputs(out_dir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def _compared(out_dir: Path, stdout: str) -> tuple:
    """What a seed's ``changed`` compares: every file the command wrote, the
    manifest without its ``argv`` (which names each side's own out-dir), and
    its stdout with the out-dir masked."""
    files = _outputs(out_dir)
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["argv"]
    return files, manifest, stdout.replace(str(out_dir), "<out-dir>")


def _run(src: Path, cmd) -> str:
    """Run ``cmd`` with ``src`` and return its stdout; a non-zero exit raises, so
    no seed drops out of a row."""
    argv = [sys.executable, "-m", "qfin.cli", *cmd.argv, "--out-dir", cmd.out_dir]
    done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{' '.join(argv[3:])} with {src} exited {done.returncode}: "
                           f"{done.stderr}")
    return done.stdout


def _vqc_command(workloads, src: Path, work: Path, seed: int):
    """The ``vqc`` row's train command, on the set the seed's synth writes."""
    _run(src, workloads.Command("ml-synth-separable", (
        "ml", "synth", "--mode", "separable", "--n", str(SEPARABLE_RECORDS),
        "--seed", str(seed)), str(work / "separable")))
    data = str(work / "separable" / "dataset.csv")
    return workloads.Command("ml-train-cv", (
        "ml", "train", "--data", data, *VQC_TRAIN, "--seed", str(seed)), "")


def wide_assets(seed: int) -> list:
    """The ``risk var wide`` row's portfolio: LGDs 1-3, p0 and rho in [0.05, 0.3)."""
    import numpy as np
    from qfin import credit_risk as cr

    rng = np.random.default_rng([seed, WIDE_ASSETS])
    return [cr.Asset(int(rng.integers(1, 4)), float(rng.uniform(0.05, 0.3)),
                     float(rng.uniform(0.05, 0.3))) for _ in range(WIDE_ASSETS)]


def _wide_command(workloads, work: Path, seed: int):
    """The ``risk var wide`` row's command, on the portfolio it writes for the seed."""
    from qfin import credit_risk as cr

    portfolio = work / "wide.csv"
    cr.write_portfolio_csv(portfolio, wide_assets(seed))
    return workloads.Command("risk-var-wide", (
        "risk", "var", "--portfolio", str(portfolio), "--alpha", str(WIDE_ALPHA),
        "--nz", str(WIDE_NZ), "--m", str(WIDE_M), "--exact-oracle", "--seed", str(seed)), "")


def wide_portfolio(path: Path, seed: int) -> Path:
    """Write the wide portfolio rows' instance for ``seed`` to ``path``: the
    benchmark's draw (``build_portfolio_vqe``) at 12 assets and budget 6."""
    import numpy as np
    from qfin import qubo as qb

    n = WIDE_ASSETS
    rng = np.random.default_rng([seed, 2, n])
    w = rng.normal(size=(n, n))
    qb.write_portfolio_instance(path, qb.PortfolioSpec(
        mu=rng.uniform(0.0, 0.1, n), sigma=w @ w.T / n, q=0.5, budget=WIDE_BUDGET))
    return path


def _wide_portfolio_commands(workloads, work: Path, seed: int) -> list:
    """The ``vqe wide`` and ``qaoa wide`` rows' commands, on the instance they write."""
    instance = str(wide_portfolio(work / "wide-instance.txt", seed))
    return [workloads.Command(f"opt-portfolio-{solver}-wide", (
        "opt", "portfolio", "--instance", instance, "--solver", solver, "--seed", str(seed)), "")
        for solver in ("vqe", "qaoa")]


def score_risk_var(result: dict, assets, verdict):
    """Score a ``risk var`` result on ``assets`` into ``verdict`` as the benchmark's
    ``_check_risk_var`` does, at the row's alpha, n_z and m: the gap
    |VaR - exact VaR|, and a miss for a VaR off the exact one or a probe
    outside the AE error bound; an inconsistent result is a problem."""
    from qfin import credit_risk as cr
    from qfin.amplitude_estimation import error_bound

    def close(a, b):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)

    portfolio = cr.CreditPortfolio(assets=tuple(assets), n_z=WIDE_NZ)
    dist = cr.exact_loss_distribution(portfolio)
    exact_var = dist.value_at_risk(WIDE_ALPHA)
    verdict.expect(result["n_qubits"] == portfolio.n_qubits, "register width differs")
    verdict.expect(close(result["expected_loss"], dist.mean()), "expected loss differs")
    low, high = -1, portfolio.total_lgd + 1
    for probe in result["bisection"]:
        verdict.expect((probe["low"], probe["high"]) == (low, high)
                       and probe["mid"] == (low + high) // 2, "bisection bracket is inconsistent")
        classical = dist.cdf(probe["mid"])
        verdict.miss |= abs(probe["cdf"] - classical) > error_bound(classical, 1 << WIDE_M)
        low, high = (low, probe["mid"]) if probe["cdf"] >= WIDE_ALPHA else (probe["mid"], high)
    for probe, row in zip(result["bisection"], result["oracle"]["probe_deltas"]):
        verdict.expect(close(row["classical"], dist.cdf(probe["mid"])),
                       "reported classical CDF differs from enumeration")
    verdict.expect(high - low == 1 and result["var"] == high,
                   "VaR is not the end of its own bisection")
    verdict.expect(result["oracle"]["var"] == exact_var, "reported oracle VaR differs")
    verdict.miss |= result["var"] != exact_var
    verdict.gap = float(abs(result["var"] - exact_var))
    return verdict


def _score(workloads, row, cmd, work: Path, seed: int,
           stdout: str) -> tuple[Outcome, list[str]]:
    fields = json.loads(Path(cmd.out_dir, "result.json").read_bytes())
    iterations = 0
    if row == "vqc":
        labels = workloads._labels(str(work / "separable" / "dataset.csv"))
        majority = max(labels.count(1), labels.count(-1)) / len(labels)
        test = fields["cross_validation"]["test_mean"]
        logistic = fields["baselines"]["logistic-regression"]["test_mean"]
        verdict = workloads.Verdict(cmd.name, gap=1.0 - test,
                                    miss=test <= max(majority, logistic))
        feasible = True
    elif row == "admm":
        verdict = workloads.check_auction_admm(str(work), seed, [cmd])[0]
        feasible, iterations = not verdict.miss, fields["iterations"]
    elif row == "risk var wide":
        verdict = score_risk_var(fields, wide_assets(seed), workloads.Verdict(cmd.name))
        feasible = True
    elif row == "risk var":
        verdict = workloads._check_risk_var(cmd, seed)
        feasible = True  # every integer loss is an admissible VaR
    elif row == "diversify":
        verdict = workloads._check_diversify(cmd, str(work / "similarity.csv"))
        feasible = fields["feasible"]
    else:
        instance = "wide-instance.txt" if row in WIDE_ROWS else "instance.txt"
        verdict = workloads._check_portfolio(cmd, str(work / instance))
        feasible = fields["budget_feasible"]
    gap = row_gap(row, verdict.gap, feasible)
    outputs = _compared(Path(cmd.out_dir), stdout)
    return Outcome(gap, feasible, verdict.miss, outputs, iterations), verdict.problems


def _workloads(new_src: Path):
    """The benchmark's ``workloads`` module, with the new side's ``qfin`` on the path."""
    for path in (str(ROOT / "perfbench"), str(new_src)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads
    return workloads


def seed_outcomes(base_src: Path, new_src: Path, scratch: Path, seed: int):
    """One seed's outcomes on both sides, the new side's problems, and its rerun faults.

    ``outcomes[side][row]`` is the seed's outcome. The seed's inputs and
    outputs go in its own directory under ``scratch``.
    """
    workloads = _workloads(new_src)
    outcomes = {side: {} for side in ("base", "new")}
    problems, unstable = [], []
    work = scratch / f"seed-{seed}"
    work.mkdir()
    # the builders write their inputs through qfin; they do not run the CLI
    commands = (workloads.build_portfolio_vqe(None, str(work), seed)
                + workloads.build_credit_var(None, str(work), seed)[:1]
                + workloads.build_auction_admm(None, str(work), seed)
                + [_vqc_command(workloads, new_src, work, seed),
                   _wide_command(workloads, work, seed)]
                + _wide_portfolio_commands(workloads, work, seed))
    for side, src in (("base", base_src), ("new", new_src)):
        for row, cmd in zip(ALL_ROWS, commands):
            cmd = dataclasses.replace(cmd, out_dir=str(work / side / row))
            stdout = _run(src, cmd)
            outcome, found = _score(workloads, row, cmd, work, seed, stdout)
            outcomes[side][row] = outcome
            if side == "new":
                problems += [f"seed {seed} {row}: {p}" for p in found]
                first = _outputs(Path(cmd.out_dir))
                _run(src, cmd)
                if _outputs(Path(cmd.out_dir)) != first:
                    unstable.append(f"seed {seed} {row}")
    return outcomes, problems, unstable


def sweep(base_src: Path, new_src: Path, seeds, scratch: Path, jobs: int = JOBS,
          work=seed_outcomes):
    """Both sides' outcomes per row and seed, the new side's problems, and its rerun faults.

    ``work(base_src, new_src, scratch, seed)`` runs one seed, as
    ``seed_outcomes``; with ``jobs`` above 1 the seeds run in that many
    spawned worker processes, each with its share of the cores as
    ``OPENBLAS_NUM_THREADS`` unless that is set. ``outcomes[side][row]``
    maps each seed to its outcome, and the problems and rerun faults are
    listed in seed order.
    """
    one_seed = functools.partial(work, base_src, new_src, scratch)
    if jobs == 1:
        results = [one_seed(seed) for seed in seeds]
    else:
        shared = "OPENBLAS_NUM_THREADS" not in os.environ
        if shared:  # the workers start in the pool's map; they and their commands inherit it
            os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, (os.cpu_count() or 1) // jobs))
        try:
            context = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(jobs, mp_context=context) as pool:
                results = list(pool.map(one_seed, seeds))  # in seed order
        finally:
            if shared:
                del os.environ["OPENBLAS_NUM_THREADS"]
    outcomes = {side: {row: {} for row in ALL_ROWS} for side in ("base", "new")}
    problems, unstable = [], []
    for seed, (by_side, found, changed) in zip(seeds, results):
        for side, rows in by_side.items():
            for row, outcome in rows.items():
                outcomes[side][row][seed] = outcome
        problems += found
        unstable += changed
    return outcomes, problems, unstable


def _cells(row: str, b: Outcome, n: Outcome) -> list[str]:
    def flag(outcome):
        return "y" if (outcome.miss if row in MISS_ROWS else outcome.feasible) else "n"

    cells = [f"{b.gap:.4f}", f"{n.gap:.4f}", f"{flag(b)}/{flag(n)}"]
    return cells + [f"{b.iterations}/{n.iterations}"] if row == "admm" else cells


def report(seeds, outcomes, problems, unstable) -> bool:
    """Print the per-seed table and the row summaries; True when the change passes."""
    header = ["seed"]
    for row in ALL_ROWS:
        header += [f"{row} gap base", f"{row} gap new",
                   f"{row} {'miss' if row in MISS_ROWS else 'feasible'}"]
        header += ["admm iterations"] if row == "admm" else []
    print("| " + " | ".join(header) + " |")
    print("|" + " --- |" * len(header))
    for seed in seeds:
        cells = [str(seed)]
        for row in ALL_ROWS:
            cells += _cells(row, outcomes["base"][row][seed], outcomes["new"][row][seed])
        print("| " + " | ".join(cells) + " |")
    print()
    print("| row | seeds | changed | misses base → new | misses worse/better, p "
          "| gaps worse/better, p | verdict |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    passes = not problems and not unstable
    for row in ALL_ROWS:
        c = compare(list(outcomes["base"][row].values()), list(outcomes["new"][row].values()))
        passes = passes and c["passes"]
        print(f"| {row} | {c['seeds']} | {c['changed']} | {c['misses'][0]} → {c['misses'][1]} "
              f"| {c['miss'][0]}/{c['miss'][1]}, {c['miss'][2]:.3g} "
              f"| {c['gap'][0]}/{c['gap'][1]}, {c['gap'][2]:.3g} "
              f"| {'pass' if c['passes'] else 'worse'} |")
    print()
    print(f"oracle problems: {len(problems)}; reruns that changed bytes: {len(unstable)}")
    for line in problems + unstable:
        print(f"  {line}")
    print("PASS" if passes else "FAIL")
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare the working tree with")
    parser.add_argument("--jobs", type=int, default=JOBS,
                        help=f"worker processes for the seeds (default {JOBS}; 1 runs them here)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    with tempfile.TemporaryDirectory(prefix="qfin-verdicts-") as tmp:
        checkout = Path(tmp, "base")
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base, "src"],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(checkout, filter="data")
        scratch = Path(tmp, "runs")
        scratch.mkdir()
        found = sweep(checkout / "src", ROOT / "src", SEEDS, scratch, args.jobs)
    return 0 if report(SEEDS, *found) else 1


if __name__ == "__main__":
    sys.exit(main())
