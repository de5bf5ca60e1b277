"""Which top-level definitions of ``src/qfin`` a run reaches, by an AST walk.

    python tools/reach.py

A definition is a top-level function or class of a ``src/qfin`` module.
The walk goes by name: a reached definition reaches every definition, in
any module, whose name it mentions (as a name or an attribute), and a class
is reached whole.

- The run path starts at ``cli.main`` and at the names the modules mention
  at top level, outside their definitions: importing ``qfin.cli`` runs those
  statements, and ``cli.COMMANDS`` is how ``main`` reaches each handler.
- The test path starts at the names that ``tests/``, ``tools/`` and
  ``perfbench/`` mention, string constants included, because
  ``perfbench/tracing.py`` names the functions it traces in strings.

Prints each definition the run path does not reach, with its lines (from
``def`` or ``class`` to its last line), then the totals. Exits 1 when some
definition is reached by neither path: that is code nothing runs or checks.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qfin"
USERS = ("tests", "tools", "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def mentioned(node: ast.AST, strings: bool = False) -> set[str]:
    """The names and attributes ``node`` mentions, and with ``strings`` the
    identifiers among the dotted parts of its string constants."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(part for part in sub.value.split(".") if part.isidentifier())
    return names


def package() -> tuple[dict, set[str]]:
    """``{(module, name): node}`` of every definition, and the names the
    modules mention at top level outside them."""
    definitions, top_level = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, DEFINITIONS):
                definitions[(path.stem, node.name)] = node
            else:
                top_level |= mentioned(node)
    return definitions, top_level


def reach(definitions: dict, names: set[str], start=()) -> set[tuple[str, str]]:
    """The definitions reached from ``start`` and from every definition named in ``names``."""
    by_name = {}
    for key in definitions:
        by_name.setdefault(key[1], []).append(key)
    todo = [*start, *(key for name in names for key in by_name.get(name, ()))]
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo.extend(k for name in mentioned(definitions[key]) for k in by_name.get(name, ()))
    return reached


def user_names() -> set[str]:
    names = set()
    for folder in USERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            names |= mentioned(ast.parse(path.read_text()), strings=True)
    return names


def paths() -> tuple[dict, set, set]:
    """The definitions, those the run path reaches and those the test path reaches."""
    definitions, top_level = package()
    run = reach(definitions, top_level, [("cli", "main")])
    return definitions, run, reach(definitions, user_names())


def lines(node: ast.AST) -> int:
    return node.end_lineno - node.lineno + 1


def main() -> int:
    definitions, run, test = paths()
    unreached = sorted(key for key in definitions if key not in run)
    for module, name in unreached:
        node = definitions[(module, name)]
        mark = "" if (module, name) in test else "  (reached by neither path)"
        print(f"{module}.{name}  lines {node.lineno}-{node.end_lineno} ({lines(node)}){mark}")
    total = sum(lines(definitions[key]) for key in unreached)
    print(f"{len(unreached)} of {len(definitions)} definitions, {total} lines, "
          f"not reached from cli.main")
    return 1 if any(key not in test for key in unreached) else 0


if __name__ == "__main__":
    sys.exit(main())
