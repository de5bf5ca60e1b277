"""The one row source under the five input readers.

Each format is read with CSV quoting, skips blank and ``#`` rows wherever
they stand, names a bad row by the file line it starts on, and refuses it as
``bad <what> line N: <reason>``. Each reader's own schema checks are pinned
by its property tests; these tests pin what the five share, and the rules of
the formats whose labels may appear only once.
"""

import contextlib
import io

import pytest

from qfin import admm
from qfin import classifier as clf
from qfin import credit_risk as cr
from qfin import qubo as qb
from qfin.cli import main

# (reader, what, a valid file, the same file with a quoted field over two
# lines and then a bad row that starts on ``line`` and spans two lines too)
READERS = {
    "auction": (admm.read_auction_csv, "auction",
                "price,qty_item_1\n3.0,1\n2.0,2\nunits,5.0\n",
                'price,qty_item_1\n"3.0\n",1\nx,"2\n"\nunits,5.0\n', 4),
    "credit portfolio": (cr.load_portfolio_csv, "credit portfolio",
                         "lgd,p0,rho\n1,0.1,0.1\n2,0.2,0.1\n",
                         'lgd,p0,rho\n1,"0.1\n",0.1\n2,x,"0.1\n"\n', 4),
    "portfolio instance": (qb.read_portfolio_instance, "portfolio instance",
                           "mu,0.1,0.2\nsigma,1.0,0.1\nsigma,0.1,1.0\nq,0.5\nbudget,1\n",
                           'mu,"0.1\n",0.2\nsigma,x,"0.1\n"\nsigma,0.1,1.0\nq,0.5\nbudget,1\n',
                           3),
    "similarity": (qb.read_similarity_csv, "similarity",
                   "1.0,0.5\n0.5,1.0\n",
                   '"1.0\n",0.5\nx,"1.0\n"\n', 3),
    "dataset": (clf.ingest_csv, "dataset",
                "x0,x1,label\n0.5,1.0,1\n1.5,2.0,-1\n",
                'x0,x1,label\n"0.5\n",1.0,1\nx,"2.0\n",-1\n', 4),
}


@pytest.mark.parametrize("name", READERS)
def test_a_bad_row_is_named_by_the_line_it_starts_on(tmp_path, name):
    read, what, _, text, line = READERS[name]
    path = tmp_path / "input"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value).startswith(f"bad {what} line {line}: ")


@pytest.mark.parametrize("name", READERS)
def test_blank_and_comment_lines_before_the_header_are_skipped(tmp_path, name):
    read, _, text, _, _ = READERS[name]
    plain, noted = tmp_path / "plain", tmp_path / "noted"
    plain.write_text(text)
    noted.write_text("\n# note\n   \n" + text.replace("\n", "\n#\n", 1))
    assert repr(read(noted)) == repr(read(plain))


@pytest.mark.parametrize("name", READERS)
def test_a_field_over_the_csv_size_limit_exits_3(tmp_path, capsys, name):
    command = {"auction": ["opt", "auction", "--instance"],
               "credit portfolio": ["risk", "var", "--portfolio"],
               "portfolio instance": ["opt", "portfolio", "--instance"],
               "similarity": ["opt", "diversify", "--clusters", "1", "--similarity"],
               "dataset": ["ml", "train", "--data"]}[name]
    path = tmp_path / "input"
    path.write_text(READERS[name][2] + "9" * 200_000 + "\n")
    out = tmp_path / "run"
    assert main(command + [str(path), "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err.startswith("validation error:")
    assert list(out.iterdir()) == []


def test_ml_train_reads_a_quoted_header(tmp_path):
    data = tmp_path / "dataset.csv"
    data.write_text('"x0","x1",label\n0.5,1.0,1\n1.5,2.0,-1\n2.5,0.5,1\n')
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ml", "train", "--data", str(data), "--iterations", "2",
                     "--out-dir", str(tmp_path / "run")]) == 0
    assert clf.ingest_csv(data).continuous_names == ("x0", "x1")


@pytest.mark.parametrize("text", ["", "\n# no header\n"])
def test_an_empty_dataset_is_refused_for_its_missing_header(tmp_path, capsys, text):
    data = tmp_path / "dataset.csv"
    data.write_text(text)
    assert main(["ml", "train", "--data", str(data), "--out-dir", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err.strip().splitlines() == [
        "validation error: dataset CSV has no header line"]


INSTANCE = "mu,0.1,0.2\nsigma,1.0,0.1\nsigma,0.1,1.0\nq,0.5\nbudget,1\npenalty,2.0\n"


@pytest.mark.parametrize("label,line", [("mu", "mu,0.3,0.4"), ("q", "q,0.7"),
                                        ("budget", "budget,1"), ("penalty", "penalty,3.0")])
def test_an_instance_label_appears_once(tmp_path, label, line):
    path = tmp_path / "instance.txt"
    path.write_text(INSTANCE + f"# again\n{line}\n")
    with pytest.raises(ValueError) as info:
        qb.read_portfolio_instance(path)
    assert str(info.value) == f"bad portfolio instance line 8: a second {label} line"


@pytest.mark.parametrize("after", ["units,9.0", "4.0,1"])
def test_nothing_follows_the_auction_units_line(tmp_path, after):
    path = tmp_path / "auction.csv"
    path.write_text(f"price,qty_item_1\n3.0,1\nunits,2.0\n\n{after}\n")
    with pytest.raises(ValueError) as info:
        admm.read_auction_csv(path)
    assert str(info.value) == "bad auction line 5: the units line must be the last line"
