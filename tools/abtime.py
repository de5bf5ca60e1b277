"""Time two checkouts' ``qfin`` in one process, their passes interleaved.

    python tools/abtime.py BASE CHANGE [--workload statevector] [--seed 11] [--passes 20]

BASE and CHANGE are checkout directories. Each one's ``src/qfin`` is copied
into a temporary directory as a package of its own (``qfin_base``,
``qfin_change``), so that both import side by side; the copy works because
no ``src/qfin`` module imports ``qfin`` absolutely. The command list is the
``--workload`` of this checkout's ``perfbench/workloads.py``, which is read
and not written to. Each side writes its inputs with its own package, as
the benchmark does, into its own temporary directory, and replays its list
once to warm up. Then the sides take turns, one pass each per pair, BASE
first in even pairs and CHANGE first in odd ones. A pass is
``perfbench/run.py``'s ``run_pass``, with ``qfin`` bound to the side's
package: its commands go through the side's ``cli.main`` after its
``functools`` caches are emptied, timed and checked as a benchmark pass is.

Alternating in one process puts both sides under the same host drift and
in one interpreter, numpy and BLAS; separate benchmark runs, minutes apart,
see the host's speed move by more than most changes. Times are not scaled
to a nominal host speed.

Prints each command's median wall time on each side with the ratio of the
two medians CHANGE / BASE, and the median of its paired ratios (CHANGE's
run over BASE's in the same pair) with the number of pairs CHANGE won; then
the median and quartiles of each side's pass times, and the median of the
paired pass ratios with the number of pairs CHANGE won. The paired figures
are the ones to cite: a ratio of medians takes each side's median from
other pairs, so host drift between pairs moves it. Exits with the failure
when a command fails on either side.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import os
import pkgutil
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")


def load_runner():
    """This checkout's ``perfbench/run.py``, imported by path with ``perfbench``
    on ``sys.path`` for its ``tracing`` and ``workloads``, and no bytecode
    cache written there."""
    perfbench = str(ROOT / "perfbench")
    spec = importlib.util.spec_from_file_location("abtime_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, perfbench)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(perfbench)
        sys.dont_write_bytecode = dont_write
    return module


def load_package(checkout: Path, name: str, into: Path):
    """``checkout``'s ``src/qfin`` copied to ``into/name`` and imported whole."""
    source = checkout / "src" / "qfin"
    if not (source / "__init__.py").is_file():
        raise SystemExit(f"{checkout} holds no src/qfin package")
    shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    importlib.invalidate_caches()
    package = importlib.import_module(name)
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{name}.{info.name}")
    return package


def modules_of(name: str) -> dict:
    """The package ``name``'s imported modules, by their name inside it ("" the package)."""
    return {key[len(name):]: module for key, module in sys.modules.items()
            if key == name or key.startswith(name + ".")}


@contextlib.contextmanager
def imported_as_qfin(name: str):
    """``import qfin`` finds package ``name`` inside the block: the workload
    builders write their inputs with ``from qfin import ...``."""
    saved = modules_of("qfin")
    for suffix in saved:
        del sys.modules["qfin" + suffix]
    aliases = modules_of(name)
    sys.modules.update({"qfin" + suffix: module for suffix, module in aliases.items()})
    try:
        yield
    finally:
        for suffix in aliases:
            del sys.modules["qfin" + suffix]
        sys.modules.update({"qfin" + suffix: module for suffix, module in saved.items()})


class Side:
    """One checkout's package, its commands and its wall times."""

    def __init__(self, label: str, checkout: Path, packages: Path, work: Path,
                 workload, seed: int):
        self.label, self.name = label, f"qfin_{label}"
        self.cli = load_package(checkout, self.name, packages).cli
        os.makedirs(work)
        with imported_as_qfin(self.name), contextlib.redirect_stdout(io.StringIO()):
            self.commands = workload.build(self.cli, str(work), seed)
        self.passes, self.walls = [], {cmd.name: [] for cmd in self.commands}

    def run_pass(self, runner, record: bool = True) -> None:
        with imported_as_qfin(self.name):
            wall, runs = runner.run_pass(self.cli, self.commands)
        for run in runs:
            if run.failure:
                raise SystemExit(f"{self.label}: {run.name}: {run.failure}")
        if record:
            self.passes.append(wall)
            for run in runs:
                self.walls[run.name].append(run.wall_s)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def paired(before: list[float], after: list[float]) -> tuple[list[float], int]:
    """The pairs' ratios after / before, and the number of pairs where after is lower."""
    ratios = [late / early for early, late in zip(before, after)]
    return ratios, sum(ratio < 1.0 for ratio in ratios)


def report(base: Side, change: Side) -> None:
    width = max(len(name) for name in base.walls)
    print(f"{'command':<{width}}  {'base_s':>10}  {'change_s':>10}  change/base  "
          f"paired  wins")
    for name, walls in base.walls.items():
        before, after = statistics.median(walls), statistics.median(change.walls[name])
        ratios, wins = paired(walls, change.walls[name])
        print(f"{name:<{width}}  {before:10.5f}  {after:10.5f}  {after / before:11.3f}  "
              f"{statistics.median(ratios):6.3f}  {wins}/{len(ratios)}")
    for side in (base, change):
        low, median, high = quartiles(side.passes)
        print(f"{side.label} pass: median {median:.4f} s, quartiles {low:.4f}-{high:.4f} s, "
              f"{len(side.passes)} passes")
    ratios, wins = paired(base.passes, change.passes)
    low, median, high = quartiles(ratios)
    print(f"paired pass ratio change/base: median {median:.4f}, quartiles {low:.4f}-{high:.4f}; "
          f"change faster in {wins} of {len(ratios)} pairs")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout directory of the base side")
    parser.add_argument("change", type=Path, help="checkout directory of the change side")
    parser.add_argument("--workload", default="statevector")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--passes", type=int, default=20, help="pairs of timed passes")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    runner = load_runner()
    if args.workload not in runner.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"one of {', '.join(runner.WORKLOADS)}")
    workload = runner.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="abtime-") as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp / "packages"))
        try:
            sides = [Side(label, checkout.resolve(), tmp / "packages", tmp / label, workload,
                          args.seed)
                     for label, checkout in zip(SIDES, (args.base, args.change))]
            for side in sides:
                side.run_pass(runner, record=False)
            for pair in range(args.passes):
                for side in sides if pair % 2 == 0 else sides[::-1]:
                    side.run_pass(runner)
        finally:
            sys.path.remove(str(tmp / "packages"))
            for label in SIDES:
                for suffix in modules_of(f"qfin_{label}"):
                    del sys.modules[f"qfin_{label}{suffix}"]
        report(*sides)
    return 0


if __name__ == "__main__":
    sys.exit(main())
