"""Every top-level definition in ``src/qfin`` is run by a command or checked by a test.

``tools/reach.py`` walks the package by name from ``cli.main`` (the run
path) and from the names that ``tests/``, ``tools/`` and ``perfbench/``
mention (the test path). A definition neither reaches is dead code.
"""

import importlib.util
from pathlib import Path

REACH = Path(__file__).resolve().parent.parent / "tools" / "reach.py"


def _reach_module():
    spec = importlib.util.spec_from_file_location("tools_reach", REACH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _reach_module()


def test_every_definition_is_reached_by_the_run_or_the_test_path():
    definitions, run, test = reach.paths()
    assert sorted(key for key in definitions if key not in run | test) == []


def test_the_run_path_follows_calls_and_the_command_table():
    _, run, _ = reach.paths()
    # a handler is reached only through cli.COMMANDS, a module-level table,
    # and a baseline's step only through classifier.BASELINES
    assert {("cli", "cmd_ml_train"), ("classifier", "vqc_fit"), ("classifier", "_fit_baseline"),
            ("classifier", "_hinge_step"), ("credit_risk", "var_bisection")} <= run


def test_a_definition_nothing_mentions_is_reached_by_neither_path():
    # the name is built here, so that no file the test path reads mentions it
    name = "_".join(("never", "mentioned"))
    definitions, top_level = reach.package()
    definitions[("classifier", name)] = reach.ast.parse(
        f"def {name}():\n    return decisions()\n").body[0]
    run = reach.reach(definitions, top_level, [("cli", "main")])
    test = reach.reach(definitions, reach.user_names())
    assert ("classifier", name) not in run | test
    # what it mentions stays reached through other paths
    assert ("classifier", "decisions") in run


def test_the_run_path_leaves_the_gate_engine():
    # the gate engine's state type, readout and layout helpers are test
    # oracles only; the gate constructors (h, x, rx, ry) are left out, since
    # the walk goes by name and those names are also local variable names.
    # So is the term-by-term Ising table: every energy and phase table on
    # the run path comes from qubo's doubling recursion
    _, run, _ = reach.paths()
    engine = {("simulator", name) for name in (
        "Statevector", "basis_probabilities", "_split", "phase_layout", "apply_ops",
        "_apply_inplace", "new_zero_state", "inverse_op", "phase_gate", "perm_gate",
        "z_diagonal", "IsingObservable")} | {("qubo", "to_ising")}
    assert sorted(run & engine) == []
