"""``tools/abtime.py`` times two copies of ``src/qfin`` side by side in one process."""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("abtime", ROOT / "tools" / "abtime.py")
abtime = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abtime)


def test_no_package_module_imports_qfin_absolutely():
    # the copies import as qfin_base and qfin_change: an absolute import
    # would reach the installed qfin instead of the copy's own module
    found = []
    for path in sorted((ROOT / "src" / "qfin").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name == "qfin" or name.startswith("qfin.")]
    assert found == []


def test_a_run_times_both_sides_and_writes_nothing_to_perfbench(capsys):
    perfbench = ROOT / "perfbench"
    before = {p: p.stat().st_mtime_ns for p in perfbench.rglob("*")}
    qfin_modules = {key: module for key, module in sys.modules.items()
                    if key == "qfin" or key.startswith("qfin.")}
    assert abtime.main([str(ROOT), str(ROOT), "--workload", "auction_admm", "--seed", "1",
                        "--passes", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["command", "base_s", "change_s", "change/base"]
    assert lines[1].split()[0] == "opt-auction-admm"
    assert lines[2].startswith("base pass: median") and lines[2].endswith("2 passes")
    assert lines[3].startswith("change pass: median") and lines[3].endswith("2 passes")
    assert lines[4].startswith("paired pass ratio change/base: median")
    assert lines[4].endswith("of 2 pairs")
    assert {p: p.stat().st_mtime_ns for p in perfbench.rglob("*")} == before
    # the workload builders' ``qfin`` is the real one again, and the copies are gone
    assert {key: module for key, module in sys.modules.items()
            if key == "qfin" or key.startswith("qfin.")} == qfin_modules
    assert not any(key.startswith(("qfin_base", "qfin_change")) for key in sys.modules)
