"""Property tests for the similarity reader behind ``opt diversify``.

Each case takes a valid symmetric similarity CSV, puts blank and comment
lines before its rows, and spoils one field of one row: a NaN or infinite
value (``1e400`` included, which parses as inf), a blank field, text, an
extra or a missing column. The command must refuse it with exit code 3 and
one stderr line naming the row's file line, blank and comment lines counted,
without a traceback and without writing a result file. The first row sets
the width, so a first row with a column too many or too few is named by the
second row's line.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qfin.cli import main
from test_instance_properties import file_line, filler_lists, with_fillers

RHO = ((1.0, 0.8, 0.2), (0.8, 1.0, 0.3), (0.2, 0.3, 1.0))
MUTATIONS = ("nan", "inf", "blank", "text", "extra-column", "missing-column")


def valid_lines() -> list[str]:
    return [",".join(repr(v) for v in row) for row in RHO]


@st.composite
def spoiled_fields(draw):
    """(mutation, row, column or None to append, new field text or None to drop, fillers).

    ``fillers`` holds the blank or comment lines that go before each row.
    """
    mutation = draw(st.sampled_from(MUTATIONS))
    row = draw(st.integers(0, len(RHO) - 1))
    column = draw(st.integers(0, len(RHO) - 1))
    if mutation == "nan":
        value = draw(st.sampled_from(["nan", "NaN", "-nan"]))
    elif mutation == "inf":
        value = draw(st.sampled_from(["inf", "-inf", "Infinity", "-INF", "1e400", "-1e999"]))
    elif mutation == "blank":
        value = draw(st.sampled_from(["", " "]))
    elif mutation == "text":
        value = draw(st.sampled_from(["x", "0.5.1", "1;0", "--1", "0x1"]))
    elif mutation == "extra-column":
        column, value = None, draw(st.sampled_from(["0", "0.5", "1e3"]))
    else:
        value = None
    fillers = draw(filler_lists(len(RHO)))
    return mutation, row, column, value, fillers


def run_diversify(text: str) -> tuple[int, str, Path]:
    """Exit code, stderr and out dir of ``opt diversify`` on a file of ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        similarity = root / "rho.csv"
        similarity.write_text(text)
        out = root / "run"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["opt", "diversify", "--similarity", str(similarity),
                         "--clusters", "2", "--out-dir", str(out)])
        return code, err.getvalue(), (out / "result.json").exists()


@settings(max_examples=60, deadline=None, database=None)
@given(case=spoiled_fields())
def test_diversify_rejects_a_spoiled_similarity(case):
    mutation, row, column, value, fillers = case
    lines = valid_lines()
    fields = lines[row].split(",")
    if column is None:
        fields.append(value)
    elif value is None:
        del fields[column]
    else:
        fields[column] = value
    lines[row] = ",".join(fields)
    text = with_fillers(lines, fillers)
    code, err, wrote = run_diversify(text)
    assert code == 3, (mutation, lines[row])
    message = err.strip().splitlines()
    assert len(message) == 1 and message[0].startswith("validation error:")
    named = 1 if mutation in ("extra-column", "missing-column") and row == 0 else row
    line_no = file_line(named, fillers)
    assert f"line {line_no}:" in message[0]
    assert "Traceback" not in err
    assert not wrote


def test_the_unspoiled_similarity_runs():
    code, err, wrote = run_diversify("\n".join(valid_lines()) + "\n")
    assert (code, err, wrote) == (0, "", True)
