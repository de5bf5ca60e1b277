"""Paired per-seed verdicts for a change that may move last bits.

    python tools/verdicts.py BASE

BASE is a git revision. Its ``src`` is unpacked by ``git archive`` into a
temporary directory and compared with the working tree. Each seed's inputs
come from the benchmark's ``build_portfolio_vqe`` and ``build_credit_var``
(``perfbench/workloads.py``), and both sides run the same four commands on
them: ``opt portfolio`` by VQE (row ``vqe``) and by QAOA (row ``qaoa``),
``opt diversify`` by VQE (row ``diversify``) and ``risk var`` (row
``risk var``). Each side runs ``python -m qfin.cli`` with its own ``src``.
The benchmark's ``_check_portfolio`` and ``_check_diversify`` score the
first three: the energy gap to the brute-force optimum, normalised by the
energy range, feasibility, and a miss (infeasible, or a gap above the
benchmark's tolerance). Its ``_check_risk_var`` scores ``risk var``: the gap
|VaR - exact VaR| and a miss (a VaR off the exact one, or a probe outside
the AE error bound). The sweep is fixed: seeds 1-60 (``SEEDS``). The tool
prints a paired per-seed table of gap and feasibility (the miss, for
``risk var``), then one summary line per row.

Rule: a change passes when
  1. no row is worse under a one-sided sign test at p < 0.05, on misses and
     on gaps, over the paired seeds; a seed whose two sides tie is left out
     of that test;
  2. every result agrees with its oracle's recomputation (no problems); and
  3. rerunning each command at the working tree gives the same bytes.
Misses already occur at the base, so "every seed passes" cannot be the rule.
The exit status is 0 when the change passes and 1 when it does not.

The ADMM and classifier rows are not covered yet.
"""

import argparse
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROWS = ("vqe", "qaoa", "diversify", "risk var")  # the builders' commands, in order
SIGNIFICANCE = 0.05
SEEDS = range(1, 61)  # fixed, so every change is judged on the same sweep


@dataclasses.dataclass(frozen=True)
class Outcome:
    """One command's scored result on one seed."""

    gap: float
    feasible: bool
    miss: bool
    result: bytes = b""  # result.json as written


def sign_test(worse: int, better: int) -> float:
    """One-sided sign-test p-value that ``worse`` of the untied pairs are worse by chance."""
    n = worse + better
    return sum(math.comb(n, k) for k in range(worse, n + 1)) / 2 ** n


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
        "changed": sum(b.result != n.result for b, n in pairs),
        "misses": (sum(b.miss for b in base), sum(n.miss for n in new)),
        "miss": miss + (p_miss,),
        "gap": gap + (p_gap,),
        "passes": p_miss >= SIGNIFICANCE and p_gap >= SIGNIFICANCE,
    }


def _outputs(out_dir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def _run(src: Path, cmd) -> None:
    argv = [sys.executable, "-m", "qfin.cli", *cmd.argv, "--out-dir", cmd.out_dir]
    done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    if done.returncode:
        raise RuntimeError(f"{' '.join(argv[3:])} exited {done.returncode}: {done.stderr}")


def _score(workloads, cmd, work: Path, seed: int) -> tuple[Outcome, list[str]]:
    result = Path(cmd.out_dir, "result.json").read_bytes()
    fields = json.loads(result)
    if cmd.name == "risk-var":
        verdict = workloads._check_risk_var(cmd, seed)
        feasible = True  # every integer loss is an admissible VaR
    elif cmd.name == "opt-diversify-vqe":
        verdict = workloads._check_diversify(cmd, str(work / "similarity.csv"))
        feasible = fields["feasible"]
    else:
        verdict = workloads._check_portfolio(cmd, str(work / "instance.txt"))
        feasible = fields["budget_feasible"]
    return Outcome(verdict.gap, feasible, verdict.miss, result), verdict.problems


def sweep(base_src: Path, new_src: Path, seeds, scratch: Path):
    """Both sides' outcomes per row, the new side's problems, and its rerun faults."""
    sys.path[:0] = [str(new_src), str(ROOT / "perfbench")]
    import workloads

    outcomes = {side: {row: [] for row in ROWS} for side in ("base", "new")}
    problems, unstable = [], []
    for seed in seeds:
        work = scratch / f"seed-{seed}"
        work.mkdir()
        # the builders write their inputs through qfin; they do not run the CLI
        commands = (workloads.build_portfolio_vqe(None, str(work), seed)
                    + workloads.build_credit_var(None, str(work), seed)[:1])
        for side, src in (("base", base_src), ("new", new_src)):
            for row, cmd in zip(ROWS, commands):
                cmd = dataclasses.replace(cmd, out_dir=str(work / side / row))
                _run(src, cmd)
                outcome, found = _score(workloads, cmd, work, seed)
                outcomes[side][row].append(outcome)
                if side == "new":
                    problems += [f"seed {seed} {row}: {p}" for p in found]
                    first = _outputs(Path(cmd.out_dir))
                    _run(src, cmd)
                    if _outputs(Path(cmd.out_dir)) != first:
                        unstable.append(f"seed {seed} {row}")
    return outcomes, problems, unstable


def _flag(row: str, outcome: Outcome) -> str:
    """The third cell: feasibility, or for ``risk var`` the miss."""
    return "y" if (outcome.miss if row == "risk var" else outcome.feasible) else "n"


def report(seeds, outcomes, problems, unstable) -> bool:
    """Print the per-seed table and the row summaries; True when the change passes."""
    header = ["seed"] + [f"{row} {what}" for row in ROWS
                         for what in ("gap base", "gap new",
                                      "miss" if row == "risk var" else "feasible")]
    print("| " + " | ".join(header) + " |")
    print("|" + " --- |" * len(header))
    for i, seed in enumerate(seeds):
        cells = [str(seed)]
        for row in ROWS:
            b, n = outcomes["base"][row][i], outcomes["new"][row][i]
            cells += [f"{b.gap:.4f}", f"{n.gap:.4f}", f"{_flag(row, b)}/{_flag(row, n)}"]
        print("| " + " | ".join(cells) + " |")
    print()
    print("| row | seeds | changed | misses base → new | misses worse/better, p "
          "| gaps worse/better, p | verdict |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    passes = not problems and not unstable
    for row in ROWS:
        c = compare(outcomes["base"][row], outcomes["new"][row])
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
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="qfin-verdicts-") as tmp:
        checkout = Path(tmp, "base")
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base, "src"],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(checkout, filter="data")
        scratch = Path(tmp, "runs")
        scratch.mkdir()
        found = sweep(checkout / "src", ROOT / "src", SEEDS, scratch)
    return 0 if report(SEEDS, *found) else 1


if __name__ == "__main__":
    sys.exit(main())
