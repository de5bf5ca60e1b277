"""Outside-in tracing of qfin's public functions, installed from the benchmark.

The shim replaces each traced function with a wrapper that records a span
(name, start, end, parent span, command id) and a few work counters. qfin
modules bind names with ``from .x import y``, so a wrapper is installed at
every qfin module attribute that holds the original function, not only at
the defining module. Every attribute is restored on exit.

Spans are kept in memory; ``Tracer.dump`` writes them out after the run.
"""

import functools
import inspect
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute) pairs; a dotted attribute names a method on a class.
TRACED = (
    ("simulator", "apply_ops"),
    ("simulator", "register_distribution"),
    ("simulator", "IsingObservable.energy_table"),
    ("amplitude_estimation", "run_ae"),
    ("amplitude_estimation", "grover_ops"),
    ("amplitude_estimation", "coverage_probability"),
    ("credit_risk", "var_bisection"),
    ("credit_risk", "cdf_estimate"),
    ("credit_risk", "cdf_operator"),
    ("credit_risk", "uncertainty_ops"),
    ("credit_risk", "exact_loss_distribution"),
    ("distributions", "discretize_normal"),
    ("distributions", "loader_ops"),
    ("qubo", "brute_force"),
    ("qubo", "all_energies"),
    ("qubo", "to_ising"),
    ("qubo", "build_portfolio_qubo"),
    ("qubo", "build_diversification_qubo"),
    ("optimizers", "minimize"),
    ("variational", "vqe_minimize"),
    ("variational", "qaoa_minimize"),
    ("variational", "ansatz_ops"),
    ("variational", "cost_phase_ops"),
    ("variational", "prepare_state"),
    ("variational", "sample_solutions"),
    ("admm", "run"),
    ("admm", "block1_qubo"),
    ("admm", "block2_convex"),
    ("admm", "block3_y"),
    ("admm", "dual_update"),
    ("admm", "merit"),
    ("classifier", "train"),
    ("classifier", "decisions"),
    ("classifier", "decision"),
    ("classifier", "model_state"),
    ("classifier", "feature_map_ops"),
    ("classifier", "accuracy"),
    ("classifier", "empirical_risk"),
    ("cli", "main"),
)

MODULES = ("simulator", "amplitude_estimation", "credit_risk", "distributions", "qubo",
           "optimizers", "variational", "admm", "classifier", "cli")

GATE_KINDS = ("h", "x", "rx", "ry", "rz", "cnot", "swap", "phase", "perm")

# One complex128 amplitude read and written per gate: 2 x 16 bytes.
BYTES_PER_AMP_UPDATE = 32

OBJECTIVE = "optimizers.objective"


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []          # [name, parent, command, start, end]
        self.stack = []
        self.command = None
        self.calls = Counter()
        self.errors = Counter()
        self.counters = Counter()
        self.max_width = 0
        self.feature_inputs = set()
        self.k_stars = []
        self.missing = []        # traced names the program does not define

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, self.command, perf_counter(), None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = perf_counter()
        if self.stack.pop() != sid:
            raise RuntimeError("spans closed out of order")

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, (name, parent, command, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "command": command,
                                     "name": name, "start": start, "end": end}) + "\n")

    # -- hooks run before the wrapped call; they may replace arguments ------

    def _before_apply_ops(self, bound):
        names = list(bound.arguments)
        state = bound.arguments[names[0]]
        ops = tuple(bound.arguments[names[1]])  # a generator would be consumed by counting
        bound.arguments[names[1]] = ops
        self._count_gates(state.n_qubits, ops)

    def _count_gates(self, width: int, ops) -> None:
        self.counters["simulator.gates"] += len(ops)
        self.counters["simulator.amp_updates"] += len(ops) << width
        self.max_width = max(self.max_width, width)
        for op in ops:
            self.counters["simulator.gates." + op.kind] += 1

    def _before_run_ae(self, bound):
        self.counters["amplitude_estimation.controlled_q"] += (1 << bound.arguments["m"]) - 1

    def _before_all_energies(self, bound):
        self.counters["qubo.enumerated_states"] += 1 << bound.arguments["qubo"].n

    def _before_feature_map_ops(self, bound):
        x = bound.arguments["x"]
        self.feature_inputs.add(tuple(float(v) for v in x))

    def _before_minimize(self, bound):
        names = list(bound.arguments)
        fn = bound.arguments[names[0]]
        best = [float("inf")]

        def objective(params):
            self.calls[OBJECTIVE] += 1
            sid = self.open(OBJECTIVE)
            try:
                value = fn(params)
            finally:
                self.close(sid)
            self.counters["optimizers.evaluations"] += 1
            if value < best[0]:
                best[0] = value
                self.counters["optimizers.improving"] += 1
            return value

        bound.arguments[names[0]] = objective

    # -- hooks run after the wrapped call returns ---------------------------

    def _after_admm_run(self, result):
        self.counters["admm.iterations"] += len(result.trace)
        self.k_stars.append(result.k_star)

    def hooks(self, span: str):
        before = {
            "simulator.apply_ops": self._before_apply_ops,
            "amplitude_estimation.run_ae": self._before_run_ae,
            "qubo.all_energies": self._before_all_energies,
            "classifier.feature_map_ops": self._before_feature_map_ops,
            "optimizers.minimize": self._before_minimize,
        }.get(span)
        after = {"admm.run": self._after_admm_run}.get(span)
        return before, after


def _wrap(tracer: Tracer, module: str, span: str, fn):
    before, after = tracer.hooks(span)
    signature = inspect.signature(fn) if before else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before:
            bound = signature.bind(*args, **kwargs)
            before(bound)
            args, kwargs = bound.args, bound.kwargs
        tracer.calls[span] += 1
        sid = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.errors[module] += 1
            raise
        finally:
            tracer.close(sid)
        if after:
            after(result)
        return result

    return wrapper


def qfin_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qfin" or name.startswith("qfin."))]


@contextmanager
def installed(tracer: Tracer):
    """Install wrappers for every binding of each traced function; restore on exit.

    A traced name the program no longer defines is listed in ``tracer.missing``,
    so a renamed function makes the run incorrect instead of reading 0.
    """
    patches = []   # (owner, attribute, original, wrapper)
    modules = qfin_modules()
    for module, attribute in TRACED:
        before = len(patches)
        owner = sys.modules.get("qfin." + module)
        span = module + "." + attribute.split(".")[-1]
        if owner is not None and "." in attribute:
            cls_name, method = attribute.split(".")
            cls = getattr(owner, cls_name, None)
            if cls is not None and method in vars(cls):
                original = vars(cls)[method]
                patches.append((cls, method, original, _wrap(tracer, module, span, original)))
        elif owner is not None and callable(getattr(owner, attribute, None)):
            original = getattr(owner, attribute)
            wrapper = _wrap(tracer, module, span, original)
            for consumer in modules:
                for name, value in list(vars(consumer).items()):
                    if value is original:
                        patches.append((consumer, name, original, wrapper))
        if len(patches) == before:
            tracer.missing.append(f"{module}.{attribute}")
    try:
        for owner, name, _, wrapper in patches:
            setattr(owner, name, wrapper)
        yield patches
    finally:
        for owner, name, original, _ in reversed(patches):
            setattr(owner, name, original)
        for owner, name, original, _ in patches:
            if vars(owner)[name] is not original:
                raise RuntimeError(f"failed to restore {owner.__name__}.{name}")


class _SpanIndex:
    """Spans grouped by name, with parent links, for busy and self time."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name = {}
        self.children = [[] for _ in spans]
        for sid, span in enumerate(spans):
            self.by_name.setdefault(span[0], []).append(sid)
            if span[1] >= 0:
                self.children[span[1]].append(sid)

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def has_ancestor(self, sid: int, name: str) -> bool:
        parent = self.spans[sid][1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def duration(self, sid: int) -> float:
        return self.spans[sid][4] - self.spans[sid][3]

    def busy(self, name: str) -> float:
        """Summed duration of the outermost spans called ``name``."""
        return sum(self.duration(sid) for sid in self.by_name.get(name, ())
                   if not self.has_ancestor(sid, name))

    def busy_under(self, name: str, ancestor: str) -> tuple[int, float]:
        """Count and summed duration of ``name`` spans inside an ``ancestor`` span."""
        hits = [sid for sid in self.by_name.get(name, ()) if self.has_ancestor(sid, ancestor)]
        return len(hits), sum(self.duration(sid) for sid in hits)

    def self_time(self, name: str) -> float:
        """Busy time of ``name`` minus the time its direct child spans cover."""
        return sum(self.duration(sid) - sum(self.duration(c) for c in self.children[sid])
                   for sid in self.by_name.get(name, ()))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by their benchmark names."""
    index = _SpanIndex(tracer.spans)
    calls, busy, busy_under = index.calls, index.busy, index.busy_under
    c = tracer.counters
    m = {}
    m["simulator.apply_ops.calls"] = calls("simulator.apply_ops")
    m["simulator.apply_ops.busy_s"] = busy("simulator.apply_ops")
    m["simulator.gates"] = c["simulator.gates"]
    for kind in GATE_KINDS:
        m["simulator.gates." + kind] = c["simulator.gates." + kind]
    m["simulator.amp_updates"] = c["simulator.amp_updates"]
    m["simulator.bytes_computed"] = c["simulator.amp_updates"] * BYTES_PER_AMP_UPDATE
    m["simulator.max_width"] = tracer.max_width
    m["simulator.s_per_gate"] = _ratio(busy("simulator.apply_ops"), c["simulator.gates"])
    m["simulator.energy_table.calls"] = calls("simulator.energy_table")
    m["simulator.energy_table.busy_s"] = busy("simulator.energy_table")
    m["simulator.register_distribution.busy_s"] = busy("simulator.register_distribution")

    m["amplitude_estimation.run_ae.calls"] = calls("amplitude_estimation.run_ae")
    m["amplitude_estimation.run_ae.busy_s"] = busy("amplitude_estimation.run_ae")
    m["amplitude_estimation.run_ae.self_s"] = index.self_time("amplitude_estimation.run_ae")
    m["amplitude_estimation.controlled_q"] = c["amplitude_estimation.controlled_q"]

    m["credit_risk.var_bisection.busy_s"] = busy("credit_risk.var_bisection")
    m["credit_risk.cdf_estimate.calls"] = calls("credit_risk.cdf_estimate")
    m["credit_risk.cdf_operator.busy_s"] = busy("credit_risk.cdf_operator")
    m["credit_risk.exact_loss_distribution.busy_s"] = busy("credit_risk.exact_loss_distribution")
    m["distributions.loader_ops.busy_s"] = busy("distributions.loader_ops")

    m["qubo.brute_force.calls"] = calls("qubo.brute_force")
    m["qubo.brute_force.busy_s"] = busy("qubo.brute_force")
    m["qubo.all_energies.calls"] = calls("qubo.all_energies")
    m["qubo.all_energies.busy_s"] = busy("qubo.all_energies")
    m["qubo.enumerated_states"] = c["qubo.enumerated_states"]
    m["qubo.to_ising.busy_s"] = busy("qubo.to_ising")

    minimize_busy = busy("optimizers.minimize")
    objective_busy = busy(OBJECTIVE)
    m["optimizers.minimize.calls"] = calls("optimizers.minimize")
    m["optimizers.minimize.busy_s"] = minimize_busy
    m["optimizers.evaluations"] = c["optimizers.evaluations"]
    m["optimizers.objective.busy_s"] = objective_busy
    m["optimizers.self_s"] = minimize_busy - objective_busy
    m["optimizers.improving_ratio"] = _ratio(c["optimizers.improving"],
                                             c["optimizers.evaluations"])

    m["variational.vqe_minimize.busy_s"] = busy("variational.vqe_minimize")
    m["variational.ansatz_ops.calls"] = calls("variational.ansatz_ops")
    m["variational.ansatz_ops.busy_s"] = busy("variational.ansatz_ops")
    m["variational.cost_phase_ops.busy_s"] = busy("variational.cost_phase_ops")
    m["variational.prepare_state.busy_s"] = busy("variational.prepare_state")
    n_obj, obj_s = busy_under(OBJECTIVE, "variational.vqe_minimize")
    m["variational.objective_call_s"] = _ratio(obj_s, n_obj)

    iterations = c["admm.iterations"]
    m["admm.run.busy_s"] = busy("admm.run")
    m["admm.iterations"] = iterations
    m["admm.k_star"] = _ratio(sum(tracer.k_stars), len(tracer.k_stars))
    m["admm.useful_ratio"] = _ratio(sum(tracer.k_stars), iterations)
    m["admm.block1_qubo.busy_s"] = busy("admm.block1_qubo")
    m["admm.block1_solve.busy_s"] = busy_under("qubo.brute_force", "admm.run")[1]
    m["admm.block2_convex.busy_s"] = busy("admm.block2_convex")
    m["admm.block3_y.busy_s"] = busy("admm.block3_y")
    m["admm.dual_update.busy_s"] = busy("admm.dual_update")
    m["admm.merit.busy_s"] = busy("admm.merit")

    builds = calls("classifier.feature_map_ops")
    m["classifier.train.busy_s"] = busy("classifier.train")
    m["classifier.decisions.calls"] = calls("classifier.decisions")
    m["classifier.decision.calls"] = calls("classifier.decision")
    m["classifier.model_state.busy_s"] = busy("classifier.model_state")
    m["classifier.feature_map_ops.calls"] = builds
    m["classifier.feature_map_ops.busy_s"] = busy("classifier.feature_map_ops")
    m["classifier.feature_map_reuse"] = _ratio(len(tracer.feature_inputs), builds)
    m["classifier.s_per_record"] = _ratio(busy("classifier.decision"),
                                          calls("classifier.decision"))

    m["cli.main.calls"] = calls("cli.main")
    m["cli.self_s"] = index.self_time("cli.main")
    for module in MODULES:
        m[module + ".errors"] = tracer.errors[module]
    return m


def consistency_problems(tracer: Tracer) -> list[str]:
    """Span bookkeeping that must hold after a traced pass."""
    problems = [f"traced function {name} not found" for name in tracer.missing]
    if tracer.stack:
        problems.append(f"{len(tracer.stack)} spans left open")
    spans_by_name = Counter(span[0] for span in tracer.spans)
    if spans_by_name != tracer.calls:
        problems.append("span totals differ from call counts")
    return problems


_COUNT_SUFFIXES = (".calls", ".errors", "gates", "amp_updates", "controlled_q",
                   "enumerated_states", "evaluations", "iterations", "k_star")


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name == "simulator.s_per_gate":
        return "s/gate"
    if name == "classifier.s_per_record":
        return "s/record"
    if name.endswith("_s"):
        return "s"
    if name == "simulator.bytes_computed" or name == "cli.bytes_written":
        return "B"
    if name == "simulator.max_width":
        return "qubits"
    if name.endswith(_COUNT_SUFFIXES) or name.startswith("simulator.gates."):
        return "count"
    return "ratio"


def is_time(name: str) -> bool:
    return unit_of(name).startswith("s")
