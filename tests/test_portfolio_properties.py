"""Property tests for the portfolio reader behind ``risk var``.

Each case takes a valid ``lgd,p0,rho`` CSV written by ``write_portfolio_csv``,
puts blank and comment lines before its rows (the header's too), and spoils
one field of one asset: a NaN or infinite value (``1e400`` included, which
parses as inf), a negative value, a blank field, an extra or a missing
column, a non-integer ``lgd``, or a ``p0`` outside [0, 1]. The command must
refuse it with exit code 3 and one stderr line naming the asset's file line,
blank and comment lines counted, without a traceback and without writing any
file.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qfin import credit_risk as cr
from qfin.cli import main
from test_instance_properties import file_line, filler_lists, with_fillers

ASSETS = (cr.Asset(1, 0.15, 0.1), cr.Asset(2, 0.25, 0.05), cr.Asset(1, 0.05, 0.3))
COLUMNS = ("lgd", "p0", "rho")
MUTATIONS = ("nan", "inf", "negative", "blank", "extra-column", "missing-column",
             "non-integer-lgd", "p0-out-of-range")


def valid_lines() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "portfolio.csv"
        cr.write_portfolio_csv(path, ASSETS)
        return path.read_text().splitlines()


@st.composite
def spoiled_fields(draw):
    """(mutation, asset line, column or None to append, new field text or None to drop, fillers).

    ``fillers`` holds the blank or comment lines that go before each line.
    """
    mutation = draw(st.sampled_from(MUTATIONS))
    line = draw(st.integers(1, len(ASSETS)))
    column = draw(st.integers(0, len(COLUMNS) - 1))
    if mutation == "nan":
        value = draw(st.sampled_from(["nan", "NaN", "-nan"]))
    elif mutation == "inf":
        value = draw(st.sampled_from(["inf", "-inf", "Infinity", "-INF", "1e400", "-1e999"]))
    elif mutation == "negative":
        value = (str(-draw(st.integers(1, 10 ** 6))) if column == 0
                 else repr(-draw(st.floats(1e-9, 1e6))))
    elif mutation == "blank":
        value = draw(st.sampled_from(["", " "]))
    elif mutation == "extra-column":
        column, value = None, draw(st.sampled_from(["0", "1.5", ""]))
    elif mutation == "missing-column":
        value = None
    elif mutation == "non-integer-lgd":
        column = 0
        value = repr(draw(st.integers(1, 50)) + draw(st.sampled_from([0.5, 0.25, 1e-3])))
    else:
        column = 1
        value = repr(draw(st.floats(1.0, 1e6, exclude_min=True)
                          | st.floats(-1e6, 0.0, exclude_max=True)))
    fillers = draw(filler_lists(len(ASSETS) + 1))
    return mutation, line, column, value, fillers


@settings(max_examples=60, deadline=None, database=None)
@given(case=spoiled_fields())
def test_risk_var_rejects_a_spoiled_asset(case):
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
    line_no = file_line(line, fillers)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        portfolio = root / "portfolio.csv"
        portfolio.write_text(text)
        out = root / "run"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["risk", "var", "--portfolio", str(portfolio), "--nz", "2",
                         "--m", "3", "--out-dir", str(out)])
        assert code == 3, (mutation, lines[line])
        message = err.getvalue().strip().splitlines()
        assert len(message) == 1 and message[0].startswith("validation error:")
        assert f"line {line_no}:" in message[0]
        assert "Traceback" not in err.getvalue()
        assert not out.exists() or list(out.iterdir()) == []


def test_the_unspoiled_portfolio_runs(tmp_path):
    portfolio = tmp_path / "portfolio.csv"
    portfolio.write_text("\n".join(valid_lines()) + "\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["risk", "var", "--portfolio", str(portfolio), "--nz", "2", "--m", "3",
                     "--out-dir", str(tmp_path / "run")]) == 0
    assert cr.load_portfolio_csv(portfolio) == list(ASSETS)


def test_risk_var_rejects_an_infinite_lgd(tmp_path, capsys):
    # float("1e400") is inf, and int(inf) raised OverflowError past the reader
    for value in ("inf", "1e400"):
        portfolio = tmp_path / f"portfolio-{value}.csv"
        portfolio.write_text(f"lgd,p0,rho\n1,0.1,0.1\n{value},0.2,0.1\n")
        out = tmp_path / value
        assert main(["risk", "var", "--portfolio", str(portfolio), "--nz", "2",
                     "--m", "3", "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["validation error: bad credit portfolio line 3: lgd must be an integer"]
        assert not out.exists() or list(out.iterdir()) == []
