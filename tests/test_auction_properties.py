"""Property tests for the auction reader behind ``opt auction``.

Each case takes a valid auction CSV written by ``write_auction_csv``, puts
blank and comment lines before its rows (the header's too), and spoils one
field of one bid or of the ``units`` row: a NaN or infinite value (``1e400``
included, which parses as inf), a negative value, a blank field, text, an
extra or a missing column. The command must refuse it with exit code 3 and
one stderr line naming the row's file line, blank and comment lines
counted, without a traceback and without writing any file.

Finite values too large for the auction's arithmetic are refused the same
way, by the limit on 10 x the largest price x (1 + the total quantity); over
prices and quantities up to 1e308 the command exits 0 with only finite
numbers written, or 3.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
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


def run_auction(text: str, solver: str, root: Path) -> tuple[int, str, Path]:
    """``opt auction`` on the instance ``text``: exit code, stderr and the out-dir."""
    auction = root / "auction.csv"
    auction.write_text(text)
    out = root / "run"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["opt", "auction", "--instance", str(auction), "--solver", solver,
                     "--out-dir", str(out)])
    return code, err.getvalue(), out


LIMIT_MESSAGE = ("validation error: 10 x the largest price x (1 + the total quantity) "
                 "must be at most 1e+300")
OVERFLOWING = {
    # the profit of both bids, 2.5e308, overflows
    "profit": "price,qty_item_1\n1e308,1\n1.5e308,1\nunits,2.0\n",
    # the merit weight, 10 x 2e307, overflows
    "merit-weight": "price,qty_item_1\n1e307,1\n2e307,1\nunits,1.0\n",
}


@pytest.mark.parametrize("solver", ["brute-force", "admm"])
@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_opt_auction_refuses_prices_that_overflow(tmp_path, name, solver):
    code, err, out = run_auction(OVERFLOWING[name], solver, tmp_path)
    assert code == 3
    assert err.splitlines() == [LIMIT_MESSAGE]
    assert list(out.iterdir()) == []


def test_opt_auction_stops_on_a_non_finite_block1_term(tmp_path):
    # within the limit (10 x 5 x (1 + 2e150 + 1)), but rho A0' drift overflows in block 1
    # and the command prints its one message line, with no numpy warning
    text = "price,qty_item_1\n5.0,1e150\n4.0,1e150\n3.0,1\nunits,1e300\n"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err, out = run_auction(text, "admm", tmp_path)
    assert [str(w.message) for w in caught] == []
    assert code == 3
    assert err.splitlines() == ["validation error: linear must be finite"]
    assert list(out.iterdir()) == []


def numbers(value):
    """Every number in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [n for item in value for n in numbers(item)]
    return [value] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


@st.composite
def large_auctions(draw):
    """CSV text of 1-3 bids on 1-2 items, prices and quantities in [1, 1e308], units in [0, 1e308]."""
    items = draw(st.integers(1, 2))
    values = st.floats(1.0, 1e308)
    lines = ["price," + ",".join(f"qty_item_{i + 1}" for i in range(items))]
    for _ in range(draw(st.integers(1, 3))):
        quantities = [repr(float(math.floor(draw(values)))) for _ in range(items)]
        lines.append(",".join([repr(draw(values))] + quantities))
    units = [repr(draw(st.floats(0.0, 1e308))) for _ in range(items)]
    return "\n".join(lines + ["units," + ",".join(units)]) + "\n"


@settings(max_examples=80, deadline=None, database=None)
@given(text=large_auctions(), solver=st.sampled_from(["brute-force", "admm"]))
def test_opt_auction_exits_0_or_3_and_writes_only_finite_numbers(text, solver):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, err, out = run_auction(text, solver, Path(tmp))
        assert [str(w.message) for w in caught] == [], err
        assert code in (0, 3), err
        if code == 3:
            assert len(err.splitlines()) == 1 and list(out.iterdir()) == []
        else:
            for path in out.iterdir():
                assert all(math.isfinite(n) for n in numbers(json.loads(path.read_text()))), \
                    path.name
