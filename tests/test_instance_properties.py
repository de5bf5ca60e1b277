"""Property tests for the portfolio instance reader behind ``opt portfolio``.

Each case takes a valid instance written by ``write_portfolio_instance``,
puts blank and comment lines between its lines, and spoils one field of one
line: a NaN or infinite value (``1e400`` included, which parses as inf), a
negative ``q``, ``budget`` or ``penalty``, a blank field, text, an extra or a
missing column, or a ``sigma`` row made ragged. The command must refuse it
with exit code 3 and one stderr line naming the file line, blank and comment
lines counted, without a traceback and without writing any file. A ``mu``
line a column too wide or too narrow is named by the first ``sigma`` line,
whose width it then contradicts; an empty extra field fails to parse on the
``mu`` line itself.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qfin import qubo as qb
from qfin.cli import main

ASSETS = 4
SPEC = qb.PortfolioSpec(mu=np.array([0.05, 0.08, 0.02, 0.11]),
                        sigma=np.array([[1.0, 0.2, 0.1, 0.0], [0.2, 0.8, 0.0, 0.1],
                                        [0.1, 0.0, 0.5, 0.2], [0.0, 0.1, 0.2, 0.9]]),
                        q=0.5, budget=2, penalty=3.0)
SCALARS = {"q": ASSETS + 1, "budget": ASSETS + 2, "penalty": ASSETS + 3}
MUTATIONS = ("nan", "inf", "negative", "blank", "text", "extra-column", "missing-column",
             "ragged-sigma")
FILLERS = ("", "   ", "# a comment", "#")


def filler_lists(count: int):
    """For each of ``count`` lines, up to two ``FILLERS`` lines to go before it."""
    return st.lists(st.lists(st.sampled_from(FILLERS), max_size=2),
                    min_size=count, max_size=count)


def with_fillers(lines: list[str], fillers: list[list[str]]) -> str:
    """The file text of ``lines``, each after its fillers."""
    return "".join("".join(f + "\n" for f in before) + line + "\n"
                   for before, line in zip(fillers, lines))


def file_line(index: int, fillers: list[list[str]]) -> int:
    """The file line of ``lines[index]`` in ``with_fillers(lines, fillers)``."""
    return index + 1 + sum(len(before) for before in fillers[:index + 1])


def valid_lines() -> list[str]:
    """``mu``, one ``sigma`` line per asset, then ``q``, ``budget`` and ``penalty``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.txt"
        qb.write_portfolio_instance(path, SPEC)
        return path.read_text().splitlines()


@st.composite
def spoiled_fields(draw):
    """(mutation, line, column or None to append, new field text or None to drop, fillers).

    Line 0 is ``mu``, lines 1 to ``ASSETS`` are ``sigma`` rows. Column 0 is
    the label, which is left alone. ``fillers`` holds the blank or comment
    lines that go before each line.
    """
    mutation = draw(st.sampled_from(MUTATIONS))
    line = draw(st.integers(0, ASSETS + 3))
    column = 1 if line > ASSETS else draw(st.integers(1, ASSETS))
    if mutation == "nan":
        value = draw(st.sampled_from(["nan", "NaN", "-nan"]))
    elif mutation == "inf":
        value = draw(st.sampled_from(["inf", "-inf", "Infinity", "-INF", "1e400", "-1e999"]))
    elif mutation == "negative":
        # a negative return or covariance is valid; these three must be positive
        label = draw(st.sampled_from(sorted(SCALARS)))
        line, column = SCALARS[label], 1
        value = (str(-draw(st.integers(0, 10 ** 6))) if label == "budget"
                 else repr(-draw(st.floats(0.0, 1e6))))
    elif mutation == "blank":
        value = draw(st.sampled_from(["", " "]))
    elif mutation == "text":
        value = draw(st.sampled_from(["x", "0.5.1", "1;0", "--1", "0x1"]))
    elif mutation == "extra-column":
        column, value = None, draw(st.sampled_from(["0", "1.5", ""]))
    elif mutation == "missing-column":
        value = None
    else:
        line = draw(st.integers(1, ASSETS))
        column, value = draw(st.sampled_from([(None, "0.1"), (ASSETS, None)]))
    fillers = draw(filler_lists(ASSETS + 4))
    return mutation, line, column, value, fillers


@settings(max_examples=80, deadline=None, database=None)
@given(case=spoiled_fields())
def test_opt_portfolio_rejects_a_spoiled_instance(case):
    mutation, line, column, value, fillers = case
    lines = valid_lines()
    fields = lines[line].split(",")
    if column is None:
        fields.append(value)
    elif value is None:
        del fields[column]
    else:
        fields[column] = value
    lines[line] = ",".join(fields)
    text = with_fillers(lines, fillers)
    # a mu line of another width is contradicted by the first sigma line,
    # unless its extra field is empty and refused there already
    named = (1 if line == 0 and mutation in ("extra-column", "missing-column") and value != ""
             else line)
    line_no = file_line(named, fillers)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        instance = root / "instance.txt"
        instance.write_text(text)
        out = root / "run"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["opt", "portfolio", "--instance", str(instance),
                         "--solver", "brute-force", "--out-dir", str(out)])
        assert code == 3, (mutation, lines[line])
        message = err.getvalue().strip().splitlines()
        assert len(message) == 1 and message[0].startswith("validation error:")
        assert f"line {line_no}:" in message[0]
        assert "Traceback" not in err.getvalue()
        assert list(out.iterdir()) == []


def test_the_unspoiled_instance_runs(tmp_path):
    instance = tmp_path / "instance.txt"
    instance.write_text("# instance\n\n" + "\n\n".join(valid_lines()) + "\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["opt", "portfolio", "--instance", str(instance), "--solver", "brute-force",
                     "--out-dir", str(tmp_path / "run")]) == 0
    loaded = qb.read_portfolio_instance(instance)
    assert (loaded.mu.tolist(), loaded.sigma.tolist(), loaded.q, loaded.budget,
            loaded.penalty) == (SPEC.mu.tolist(), SPEC.sigma.tolist(), 0.5, 2, 3.0)
