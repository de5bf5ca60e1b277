"""qfin benchmark: seeded CLI workloads, checked against the classical oracles.

Run from the root of a qfin checkout:

    python3 perfbench/run.py --workload statevector --seed 1 --seconds 36 --trace 0

One client in one process issues the workload's commands through
``qfin.cli.main(argv)`` as a closed loop: each command starts after the
previous one returns, with qfin's ``functools`` caches emptied as a fresh
process has them. A run measures the set-up time (fresh-process imports of
``qfin.cli``), replays the command list once to warm up, then replays it
until ``--seconds`` have passed. Result files are digested after every pass
and checked against the oracles once the timed passes are over. A fixed
pure-Python loop, run between the timed steps, measures how fast the host
is at the moment, and the reported times are scaled to a nominal host speed.

With ``--trace 1`` the run also wraps qfin's public functions from outside
(see ``tracing.py``), replays the list twice more under the wrappers and
prints per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``correct`` is false
when any command fails, a result file disagrees with an independent
recomputation, digests differ between passes, or the traced work counters
do not repeat. A result that is well formed but misses its oracle (a
heuristic that returns an infeasible auction allocation, say) is counted in
``oracle_miss_ratio`` instead. The full record, with the environment, goes to
``.perfbench-out/`` in the checkout.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

from tracing import (Tracer, consistency_problems, installed, is_time, layer_metrics,
                     qfin_modules, unit_of)
from workloads import GAP_UNITS, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = ".perfbench-work"
OUT_DIR = ".perfbench-out"
SETUP_SAMPLES = 5
TRACED_PASSES = 2
IMPORT_PROBE = "import qfin.cli"
IMPORT_MODULES = ("numpy", "scipy.stats", "scipy.optimize")
# The host this was tuned on is a shared VM whose speed drifts by 20-40% over
# minutes, for qfin and for any other code alike. A fixed pure-Python loop, run
# around every set-up import and between commands, measures the current speed;
# reported times are scaled to the speed at which the loop takes PROBE_NOMINAL_S.
PROBE_LOOPS = 200_000
PROBE_NOMINAL_S = 0.02
# Counters that must repeat exactly from one traced pass to the next.
WORK_COUNTERS = ("simulator.gates", "optimizers.evaluations", "credit_risk.cdf_estimate.calls",
                 "admm.iterations", "classifier.decision.calls")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# environment and set-up


def _subprocess_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes now; it runs no qfin code."""
    start = perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return perf_counter() - start


def measure_setup(samples: int, probes: list) -> list[float]:
    """Wall time of fresh ``import qfin.cli`` processes, one after another.

    The host's speed is probed before each import and after the last one.
    """
    times = []
    for _ in range(samples):
        probes.append(speed_probe())
        start = perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_subprocess_env(), cwd=ROOT,
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    probes.append(speed_probe())
    return times


def import_breakdown() -> dict[str, float]:
    """Cumulative import seconds from ``python -X importtime -c 'import qfin.cli'``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
                          env=_subprocess_env(), cwd=ROOT, check=True, timeout=120,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    cumulative = {}
    top_level = 0.0
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)", line)
        if not match:
            continue
        seconds, indent, name = int(match.group(2)) * 1e-6, match.group(3), match.group(4)
        cumulative.setdefault(name, seconds)
        if (name == "qfin" or name.startswith("qfin.")) and len(indent) == 1:
            top_level += seconds
    out = {"setup.import.qfin_s": top_level}
    for module in IMPORT_MODULES:
        out[f"setup.import.{module}_s"] = cumulative.get(module, 0.0)
    return out


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def _source_digest() -> str:
    sha = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        sha.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as fh:
            sha.update(hashlib.sha256(fh.read()).digest())
    return sha.hexdigest()


def _blas_threads():
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") \
        or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
        "cpu": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# running commands


@dataclass
class CommandRun:
    name: str
    wall_s: float
    failure: str | None     # why the command counts as failed
    digests: dict           # {file name: sha256}


def _nonfinite(path: str) -> bool:
    if path.endswith(".json"):
        bad = []
        with open(path) as fh:
            json.load(fh, parse_constant=bad.append)
        return bool(bad)
    if path.endswith(".csv"):
        with open(path) as fh:
            for line in fh:
                for cell in line.strip().split(","):
                    try:
                        if not math.isfinite(float(cell)):
                            return True
                    except ValueError:
                        pass
    return False


def _inspect_outputs(out_dir: str) -> tuple[dict, bool]:
    digests, nonfinite = {}, False
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
        path = os.path.join(out_dir, name)
        with open(path, "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
        nonfinite = nonfinite or _nonfinite(path)
    return digests, nonfinite


def run_command(cli, cmd) -> CommandRun:
    """Issue one command in-process; inspect its files after the clock stops."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(cmd.argv) + ["--out-dir", cmd.out_dir])
    except Exception:
        code, failure = None, "traceback: " + traceback.format_exc().strip().splitlines()[-1]
    wall_s = perf_counter() - start
    if failure is None and code != 0:
        failure = f"exit code {code}: {err.getvalue().strip()[:200]}"
    elif failure is None and "Traceback (most recent call last)" in err.getvalue():
        failure = "traceback on stderr"
    digests, nonfinite = _inspect_outputs(cmd.out_dir)
    if failure is None and nonfinite:
        failure = "non-finite number in a result file"
    return CommandRun(cmd.name, wall_s, failure, digests)


def clear_caches() -> None:
    """Empty every ``functools`` cache in qfin's modules, as a fresh process has them.

    A ``qfin`` command starts in a new process, so it pays for filling these
    caches every time; the in-process loop would otherwise keep them warm.
    """
    cleared = set()
    for module in qfin_modules():
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and id(value) not in cleared:
                clear()
                cleared.add(id(value))


def run_pass(cli, commands, tracer=None, probes=None) -> tuple[float, list[CommandRun]]:
    """Replay the command list once; return the pass wall time and each command's run.

    With ``probes``, the host's speed is probed before each command and after
    the last one, outside the timed calls.
    """
    runs, wall_s = [], 0.0
    for index, cmd in enumerate(commands):
        if os.path.isdir(cmd.out_dir):
            shutil.rmtree(cmd.out_dir)
        clear_caches()
        if probes is not None:
            probes.append(speed_probe())
        if tracer is not None:
            tracer.command = f"{index}:{cmd.name}"
        run = run_command(cli, cmd)
        wall_s += run.wall_s
        runs.append(run)
    if probes is not None:
        probes.append(speed_probe())
    return wall_s, runs


# ---------------------------------------------------------------------------
# the run


def _quality(verdicts) -> dict:
    checked = [v for v in verdicts if v.checked]
    gaps = {}
    for v in checked:
        if v.gap is not None:
            gaps.setdefault(v.pipeline, []).append(v.gap)
    return {
        "oracle_miss_ratio": sum(v.miss for v in checked) / len(checked) if checked else 0.0,
        "checked": len(checked),
        "gaps": gaps,
    }


def _results(commands, name: str) -> list[dict]:
    """Result files of the commands called ``name``; a failed command may have none."""
    results = []
    for cmd in commands:
        path = os.path.join(cmd.out_dir, "result.json")
        if cmd.name == name and os.path.isfile(path):
            with open(path) as fh:
                results.append(json.load(fh))
    return results


def coverage_problems(commands, metrics: dict) -> list[str]:
    """Counts the wrappers saw that must equal what the result files report."""
    problems = []
    if metrics["cli.main.calls"] != len(commands):
        problems.append("cli.main wrapper missed commands")
    probes = sum(len(r["bisection"]) for r in _results(commands, "risk-var"))
    if metrics["credit_risk.cdf_estimate.calls"] != probes:
        problems.append("cdf_estimate wrapper missed AE probes")
    iterations = sum(r["iterations"] for r in _results(commands, "opt-auction-admm"))
    if metrics["admm.iterations"] != iterations:
        problems.append("admm.run wrapper missed iterations")
    return problems


def execute(args, workload) -> dict:
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "shapes": workload.shapes, "environment": environment()}
    setup_probes, pass_probes = [], []
    if args.trace:
        record["setup"] = import_breakdown()
    else:
        record["setup_samples_s"] = measure_setup(SETUP_SAMPLES, setup_probes)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import qfin.cli as cli

    work = os.path.join(WORK_DIR, f"{workload.name}-seed{args.seed}")
    if os.path.isdir(work):
        shutil.rmtree(work)
    os.makedirs(work)
    commands = workload.build(cli, work, args.seed)

    problems = []
    all_runs = []

    def record_pass(runs, reference):
        all_runs.extend(runs)
        for run in runs:
            if run.failure is None and reference is not None \
                    and run.digests != reference[run.name]:
                run.failure = "result digests differ from the first pass"

    _, warm = run_pass(cli, commands)
    record_pass(warm, None)
    reference = {run.name: run.digests for run in warm}

    # Start another pass while it would end, on the last pass's pace, within --seconds.
    pass_walls, command_walls = [], {cmd.name: [] for cmd in commands}
    start = perf_counter()
    while not pass_walls or perf_counter() - start + pass_walls[-1] / 2 < args.seconds:
        pass_probes.append([])
        wall_s, runs = run_pass(cli, commands, probes=pass_probes[-1])
        record_pass(runs, reference)
        pass_walls.append(wall_s)
        for run in runs:
            command_walls[run.name].append(run.wall_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers, traced_walls = [], []
    if args.trace:
        for i in range(TRACED_PASSES):
            tracer = Tracer()
            with installed(tracer):
                wall_s, runs = run_pass(cli, commands, tracer)
            record_pass(runs, reference)
            traced_walls.append(wall_s)
            metrics = layer_metrics(tracer)
            metrics["cli.bytes_written"] = sum(
                os.path.getsize(os.path.join(c.out_dir, f)) for c in commands
                if os.path.isdir(c.out_dir) for f in os.listdir(c.out_dir))
            problems += consistency_problems(tracer)
            problems += coverage_problems(commands, metrics)
            layers.append(metrics)
            if i == 0:
                os.makedirs(OUT_DIR, exist_ok=True)
                tracer.dump(os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-spans.jsonl"))
        for key in WORK_COUNTERS:
            if len({m[key] for m in layers}) > 1:
                problems.append(f"work counter {key} differs between traced passes")

    verdicts = workload.check(work, args.seed, commands)
    for verdict in verdicts:
        problems += [f"{verdict.command}: {p}" for p in verdict.problems]
    failures = [f"{run.name}: {run.failure}" for run in all_runs if run.failure]
    quality = _quality(verdicts)
    record.update({
        "commands": [{"name": c.name, "pipeline": c.pipeline, "argv": list(c.argv)}
                     for c in commands],
        "digests": reference,
        "verdicts": [vars(v) for v in verdicts],
        "failures": failures,
        "problems": problems,
        "attempted": len(all_runs),
        "failed": len(failures),
        "fail_ratio": len(failures) / len(all_runs),
        "quality": quality,
        "pass_walls_s": pass_walls,
        "setup_probes_s": setup_probes,
        "pass_probes_s": pass_probes,
        "command_walls_s": command_walls,
        "traced_walls_s": traced_walls,
        "peak_rss_mb": peak_rss_mb,
    })
    if layers:
        record["layers"] = _combine_layers(layers)
    shutil.rmtree(work)
    with contextlib.suppress(OSError):  # still holds another run's inputs
        os.rmdir(WORK_DIR)
    return record


def _combine_layers(layers: list[dict]) -> dict:
    """Counts from the first traced pass (they repeat); times averaged over the passes."""
    return {key: statistics.fmean(m[key] for m in layers) if is_time(key) else layers[0][key]
            for key in layers[0]}


def all_probes(record: dict) -> list[float]:
    return record["setup_probes_s"] + [p for probes in record["pass_probes_s"] for p in probes]


def speed_scale(probes: list[float]) -> float:
    """Factor that scales times measured among these probes to the nominal host speed."""
    return PROBE_NOMINAL_S / statistics.median(probes)


def scaled_command_walls(record: dict) -> dict[str, list[float]]:
    """Each command's time in each timed pass, scaled by that pass's probes."""
    scales = [speed_scale(probes) for probes in record["pass_probes_s"]]
    return {name: [t * s for t, s in zip(times, scales)]
            for name, times in record["command_walls_s"].items()}


def _cmd_p50(record: dict, cmds: dict, pipeline: str | None = None) -> float:
    """Median over the commands (of one pipeline) of each command's median time.

    Each command enters as its median over the passes, so the result does not
    hinge on the one sample that falls between two groups of commands.
    """
    times = [cmds[c["name"]] for c in record["commands"]
             if pipeline is None or c["pipeline"] == pipeline]
    return statistics.median(statistics.median(t) for t in times) if times else 0.0


def result_metrics(record: dict) -> dict[str, tuple[float, str, int]]:
    """(value, unit, sample count) for every metric the run reports."""
    cmds = scaled_command_walls(record)
    passes = len(record["pass_walls_s"])
    if not record["trace"]:
        setup = record["setup_samples_s"]
        walls = [sum(times[i] for times in cmds.values()) for i in range(passes)]
        return {
            "setup_s": (statistics.median(setup) * speed_scale(all_probes(record)), "s",
                        len(setup)),
            "wall_s": (statistics.median(walls), "s", passes),
            "cmd_p50_s": (_cmd_p50(record, cmds), "s", passes * len(cmds)),
            "peak_rss_mb": (record["peak_rss_mb"], "MiB", 1),
        }
    metrics = {k: (v, unit_of(k), 1) for k, v in record["setup"].items()}
    traced = record["traced_walls_s"]
    untraced = statistics.median(record["pass_walls_s"])
    metrics.update({k: (v, unit_of(k), len(traced)) for k, v in record["layers"].items()})
    for pipeline in GAP_UNITS:
        metrics[f"pipeline.{pipeline}.cmd_p50_s"] = (_cmd_p50(record, cmds, pipeline), "s",
                                                     passes)
    probes = all_probes(record)
    metrics["host.probe_s"] = (statistics.median(probes), "s", len(probes))
    metrics["trace.wall_s"] = (statistics.fmean(traced), "s", len(traced))
    metrics["trace.untraced_wall_s"] = (untraced, "s", passes)
    metrics["trace.overhead_ratio"] = (statistics.fmean(traced) / untraced - 1.0, "ratio",
                                       len(traced))
    return metrics


def quality_metrics(record: dict) -> dict[str, tuple[float, str, int]]:
    """Failure and oracle figures; each pipeline's mean gap is in its own unit."""
    q = record["quality"]
    metrics = {
        "quality.fail_ratio": (record["fail_ratio"], "ratio", record["attempted"]),
        "quality.oracle_miss_ratio": (q["oracle_miss_ratio"], "ratio", q["checked"]),
    }
    for pipeline, unit in GAP_UNITS.items():
        gaps = q["gaps"].get(pipeline, [])
        metrics[f"quality.{pipeline}.oracle_gap"] = (
            statistics.fmean(gaps) if gaps else 0.0, unit, len(gaps))
    return metrics


def report(record: dict, metrics: dict) -> None:
    env = record["environment"]
    print(f"perfbench workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("closed loop, 1 client, in-process qfin.cli.main; commands: "
          + ", ".join(c["name"] for c in record["commands"]))
    print(f"{'metric':44s} {'value':>16s} {'unit':8s} samples")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:44s} {value:16.6g} {unit:8s} {samples}")
    probes = all_probes(record)
    print(f"host speed probe: median {statistics.median(probes):.6f} s over {len(probes)} "
          f"samples; times are scaled to a {PROBE_NOMINAL_S} s probe, the set-up by the "
          f"run's median probe and each pass by its own")
    if not record["trace"]:
        print(f"unscaled: setup_s {statistics.median(record['setup_samples_s']):.4f} s, "
              f"wall_s {statistics.median(record['pass_walls_s']):.4f} s")
    for name, times in record["command_walls_s"].items():
        print(f"command {name}: median {statistics.median(times):.4f} s unscaled over "
              f"{len(times)} passes")
    for v in record["verdicts"]:
        if v["checked"]:
            print(f"oracle {v['command']}: {'MISS' if v['miss'] else 'ok'} {v['note']}")
    for line in record["failures"] + record["problems"]:
        print("FAILED: " + line)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qfin", "cli.py")):
        print(f"perfbench: no qfin source tree under {ROOT}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    record = execute(args, WORKLOADS[args.workload])
    metrics = result_metrics(record)
    shown = dict(metrics, **quality_metrics(record))
    if args.trace:
        metrics = shown
    report(record, shown)
    record["metrics"] = {k: {"value": v, "unit": u, "samples": n}
                         for k, (v, u, n) in shown.items()}
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{record['workload']}-seed{record['seed']}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    correct = not record["failures"] and not record["problems"]
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
