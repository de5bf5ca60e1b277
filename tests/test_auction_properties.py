"""Property tests for the auction reader behind ``opt auction``.

Each case takes a valid auction CSV written by ``write_auction_csv``, puts
blank and comment lines before its rows (the header's too), and spoils one
field of one bid or of the ``units`` row: a NaN or infinite value (``1e400``
included, which parses as inf), a negative value, a blank field, text, an
extra or a missing column. The command must refuse it with exit code 3 and
one stderr line naming the row's file line, blank and comment lines
counted, without a traceback and without writing any file.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qfin import admm
from qfin.cli import main
from test_instance_properties import file_line, filler_lists, with_fillers

BIDS, ITEMS = 4, 2
MUTATIONS = ("nan", "inf", "negative", "blank", "text", "extra-column", "missing-column")


def valid_lines() -> list[str]:
    """Header, one row per bid, then the ``units`` row."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "auction.csv"
        admm.write_auction_csv(path, *admm.random_auction(BIDS, ITEMS, 5, seed=4))
        return path.read_text().splitlines()


@st.composite
def spoiled_fields(draw):
    """(mutation, row, column or None to append, new field text or None to drop, fillers).

    Row 1 to ``BIDS`` is a bid, row ``BIDS + 1`` the ``units`` row, whose
    label in column 0 is left alone. ``fillers`` holds the blank or comment
    lines that go before each row.
    """
    mutation = draw(st.sampled_from(MUTATIONS))
    row = draw(st.integers(1, BIDS + 1))
    column = draw(st.integers(1 if row == BIDS + 1 else 0, ITEMS))
    if mutation == "nan":
        value = draw(st.sampled_from(["nan", "NaN", "-nan"]))
    elif mutation == "inf":
        value = draw(st.sampled_from(["inf", "-inf", "Infinity", "-INF", "1e400", "-1e999"]))
    elif mutation == "negative":
        value = str(-draw(st.integers(1, 10 ** 6))) if draw(st.booleans()) \
            else repr(-draw(st.floats(1e-9, 1e6)))
    elif mutation == "blank":
        value = draw(st.sampled_from(["", " "]))
    elif mutation == "text":
        value = draw(st.sampled_from(["x", "0.5.1", "1;0", "--1", "0x1"]))
    elif mutation == "extra-column":
        column, value = None, draw(st.sampled_from(["0", "1.5", ""]))
    else:
        value = None
    fillers = draw(filler_lists(BIDS + 2))
    return mutation, row, column, value, fillers


@settings(max_examples=60, deadline=None, database=None)
@given(case=spoiled_fields())
def test_opt_auction_rejects_a_spoiled_row(case):
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
    line_no = file_line(row, fillers)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        auction = root / "auction.csv"
        auction.write_text(text)
        out = root / "run"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["opt", "auction", "--instance", str(auction),
                         "--solver", "brute-force", "--out-dir", str(out)])
        assert code == 3, (mutation, lines[row])
        message = err.getvalue().strip().splitlines()
        assert len(message) == 1 and message[0].startswith("validation error:")
        assert f"line {line_no}:" in message[0]
        assert "Traceback" not in err.getvalue()
        assert list(out.iterdir()) == []


def test_the_unspoiled_auction_runs(tmp_path):
    auction = tmp_path / "auction.csv"
    auction.write_text("\n\n".join(valid_lines()) + "\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["opt", "auction", "--instance", str(auction), "--solver", "brute-force",
                     "--out-dir", str(tmp_path / "run")]) == 0
    assert admm.read_auction_csv(auction)[0] == admm.random_auction(BIDS, ITEMS, 5, seed=4)[0]
