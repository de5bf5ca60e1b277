"""Property tests for the dataset reader behind ``ml train`` and ``ml eval``.

Each case takes a valid ``ml synth`` CSV, puts blank and comment lines
before its rows (the header's too), and spoils one field of one record: a
NaN or infinite continuous feature, a blank field, an extra column, a
categorical code outside its vocabulary, or a label of 0. Both commands must
refuse it with exit code 3 and one stderr line naming the record's file
line, blank and comment lines counted, without a traceback and without
writing any file.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfin.classifier import TRANSACTION_VOCABS
from qfin.cli import main
from test_instance_properties import file_line, filler_lists, with_fillers

RECORDS = 12
MUTATIONS = ("nan", "inf", "blank", "extra-column", "code-out-of-range", "label-zero")


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A valid transactions CSV and a model trained on it."""
    root = tmp_path_factory.mktemp("reader")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ml", "synth", "--n", str(RECORDS), "--mode", "transactions",
                     "--seed", "3", "--out-dir", str(root / "synth")]) == 0
        assert main(["ml", "train", "--data", str(root / "synth" / "dataset.csv"),
                     "--encoder", "qrac", "--iterations", "3",
                     "--out-dir", str(root / "model")]) == 0
    lines = (root / "synth" / "dataset.csv").read_text().splitlines()
    return lines, str(root / "model" / "model.json")


@st.composite
def spoiled_fields(draw):
    """(mutation, record line, column or None to append, new field text, fillers).

    A record's fields are time, amount, method, zip, mcc and label.
    ``fillers`` holds the blank or comment lines that go before each line.
    """
    mutation = draw(st.sampled_from(MUTATIONS))
    line = draw(st.integers(1, RECORDS))
    if mutation == "nan":
        column, value = draw(st.integers(0, 1)), draw(st.sampled_from(["nan", "NaN", "-nan"]))
    elif mutation == "inf":
        column = draw(st.integers(0, 1))
        value = draw(st.sampled_from(["inf", "-inf", "Infinity", "-INF", "1e999"]))
    elif mutation == "blank":
        column, value = draw(st.integers(0, 5)), draw(st.sampled_from(["", " "]))
    elif mutation == "extra-column":
        column, value = None, draw(st.sampled_from(["0", "1.5", ""]))
    elif mutation == "code-out-of-range":
        k = draw(st.integers(0, len(TRANSACTION_VOCABS) - 1))
        code = draw(st.integers(TRANSACTION_VOCABS[k], 10 ** 6) | st.integers(-10 ** 6, -1))
        column, value = 2 + k, str(code)
    else:
        column, value = 5, draw(st.sampled_from(["0", "-0", "+0"]))
    fillers = draw(filler_lists(RECORDS + 1))
    return mutation, line, column, value, fillers


@settings(max_examples=40, deadline=None, database=None)
@given(case=spoiled_fields())
def test_ml_commands_reject_a_spoiled_record(valid, case):
    mutation, line, column, value, fillers = case
    lines, model = valid
    lines = list(lines)
    fields = lines[line].split(",")
    if column is None:
        fields.append(value)
    else:
        fields[column] = value
    lines[line] = ",".join(fields)
    text = with_fillers(lines, fillers)
    line_no = file_line(line, fillers)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        data = root / "dataset.csv"
        data.write_text(text)
        for command in (["ml", "train", "--data", str(data), "--iterations", "3"],
                        ["ml", "eval", "--model", model, "--data", str(data)]):
            out = root / command[1]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(command + ["--out-dir", str(out)])
            assert code == 3, (mutation, command[1])
            message = err.getvalue().strip().splitlines()
            assert len(message) == 1 and message[0].startswith("validation error:")
            assert f"line {line_no}:" in message[0]
            assert "Traceback" not in err.getvalue()
            assert list(out.iterdir()) == []
