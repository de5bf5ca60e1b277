"""Property tests for the model file reader behind ``ml eval``.

Each case takes a ``model.json`` written by ``ml train`` (QRAC encoder, so
every configuration list is in use) and spoils one entry: a value or a list
element of a wrong type, a list one entry too short or too long,
``repetitions`` above ``MAX_REPETITIONS``, or a register widened past the
qubit ceiling by ``latent_qubits`` (with ``n_qubits`` and ``theta`` kept
consistent). The command must refuse it with one stderr line, without a
traceback and without writing any file: exit code 4 for the over-wide
register, 3 for every other case. Over-wide registers are drawn at 40 qubits
and more, where no host could allocate the block a regression would ask for.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfin.classifier import MAX_REPETITIONS
from qfin.cli import main
from qfin.simulator import MAX_QUBITS

INTS = ("n_qubits", "repetitions", "separator_layers", "latent_qubits")
NAME_LISTS = ("qrac_features", "continuous_names", "categorical_names")
VECTORS = ("theta", "scaler_low", "scaler_high")
MUTATIONS = ("wrong-type", "wrong-length", "repetitions-over-bound", "register-over-ceiling")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A saved QRAC model and the dataset it scores."""
    root = tmp_path_factory.mktemp("model")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ml", "synth", "--n", "12", "--mode", "transactions", "--seed", "3",
                     "--out-dir", str(root / "synth")]) == 0
        assert main(["ml", "train", "--data", str(root / "synth" / "dataset.csv"),
                     "--encoder", "qrac", "--iterations", "3",
                     "--out-dir", str(root / "train")]) == 0
    model = json.loads((root / "train" / "model.json").read_text())
    return model, str(root / "synth" / "dataset.csv")


def _wrong_type(draw, model):
    """Replace one entry, or one element of a list entry, by a value of another type."""
    where = draw(st.sampled_from(
        [("config", key) for key in INTS + NAME_LISTS + ("vocab_sizes",)]
        + [(key,) for key in VECTORS + ("bias", "config")]))
    if where[-1] in INTS:
        return where, draw(st.sampled_from(["2", 2.5, 2.0, None, True, [2], {}]))
    if where[-1] == "bias":
        return where, draw(st.sampled_from(["x", None, True, [0.0], {}]))
    if where == ("config",):
        return where, draw(st.sampled_from([[], "config", None, 1]))
    entry = model[where[0]] if len(where) == 1 else model["config"][where[1]]
    if draw(st.booleans()):
        return where, draw(st.sampled_from(["x", None, {}, 1.0]))
    if where[-1] in NAME_LISTS:
        wrong = draw(st.sampled_from([3, 1.5, None, True, ["method"]]))
    elif where[-1] == "vocab_sizes":
        wrong = draw(st.sampled_from(["3", 3.0, -1, None, True]))
    else:
        wrong = draw(st.sampled_from(["x", None, True, [1.0], {}]))
    index = draw(st.integers(0, len(entry) - 1))
    return where, entry[:index] + [wrong] + entry[index + 1:]


def _wrong_length(draw, model):
    """Drop one element of a list entry, or append one to it."""
    where = draw(st.sampled_from([("config", key) for key in NAME_LISTS + ("vocab_sizes",)]
                                 + [(key,) for key in VECTORS]))
    entry = model[where[0]] if len(where) == 1 else model["config"][where[1]]
    if draw(st.booleans()):
        return where, entry[:-1]
    extra = {"vocab_sizes": 4, "theta": 0.5, "scaler_low": 0.0, "scaler_high": 1.0}
    return where, entry + [extra.get(where[-1], "extra")]


@st.composite
def spoiled_models(draw, model):
    """(mutation, spoiled model payload)."""
    mutation = draw(st.sampled_from(MUTATIONS))
    spoiled = copy.deepcopy(model)
    config = spoiled["config"]
    if mutation == "repetitions-over-bound":
        # up to 10^4: a regression that accepts them then runs for seconds, not hours
        config["repetitions"] = draw(st.integers(MAX_REPETITIONS + 1, 10 ** 4))
        return mutation, spoiled
    if mutation == "register-over-ceiling":
        extra = draw(st.integers(40, 64)) - config["n_qubits"]
        config["latent_qubits"] += extra
        config["n_qubits"] += extra
        spoiled["theta"] = [0.25] * (2 * config["n_qubits"] * (config["separator_layers"] + 1))
        return mutation, spoiled
    where, value = (_wrong_type if mutation == "wrong-type" else _wrong_length)(draw, model)
    (spoiled if len(where) == 1 else config)[where[-1]] = value
    return mutation, spoiled


def run_eval(payload, data: str) -> tuple[int, str, list]:
    """Exit code, stderr and written files of ``ml eval`` on a model file holding ``payload``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path = root / "model.json"
        path.write_text(json.dumps(payload))
        out = root / "eval"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["ml", "eval", "--model", str(path), "--data", data,
                         "--out-dir", str(out)])
        return code, err.getvalue(), list(out.iterdir())


@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data())
def test_ml_eval_rejects_a_spoiled_model(trained, data):
    model, dataset = trained
    mutation, spoiled = data.draw(spoiled_models(model))
    code, err, written = run_eval(spoiled, dataset)
    over_wide = mutation == "register-over-ceiling"
    assert code == (4 if over_wide else 3), (mutation, err)
    message = err.strip().splitlines()
    assert len(message) == 1
    if over_wide:
        assert message[0] == (f"capacity error: classifier needs {spoiled['config']['n_qubits']}"
                              f" qubits, ceiling {MAX_QUBITS}")
    else:
        assert message[0].startswith("validation error:")
    assert "Traceback" not in err
    assert written == []


def test_the_unspoiled_model_evaluates(trained):
    model, dataset = trained
    code, err, written = run_eval(model, dataset)
    assert (code, err, sorted(p.name for p in written)) == (0, "", ["eval.json", "manifest.json"])
