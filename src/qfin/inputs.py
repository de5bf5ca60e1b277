"""qfin's file forms. ``rows`` is the row source under every input file: CSV
rows, less those whose fields are all blank or whose first field starts with
``#`` (before a header too), each numbered by the file line it starts on and
refused by it as ``bad <what> line N: <reason>``. ``json_text`` is the one
form of every JSON file qfin writes."""

import csv
import json
import math
from contextlib import contextmanager


@contextmanager
def rows(path, what):
    """The fields of each kept row of ``path``. A ValueError raised in the ``with``
    block once a row is out is refused by the file line of the last row out."""
    line = None

    def kept(reader):
        nonlocal line
        start = 1
        for fields in reader:
            first = fields[0].lstrip() if fields else ""
            if first[:1] != "#" and (first or any(f.strip() for f in fields)):
                line = start
                yield fields
            start = reader.line_num + 1

    with open(path, newline="") as fh:
        try:
            yield kept(csv.reader(fh))
        except ValueError as exc:
            if line is None:
                raise
            raise ValueError(f"bad {what} line {line}: {exc}") from exc


def finite_floats(fields, what) -> list[float]:
    """The fields as floats, refused as ``<what> must be finite`` if one is NaN or infinite."""
    values = [float(v) for v in fields]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{what} must be finite")
    return values


def json_text(payload) -> str:
    """``payload`` as qfin writes JSON: indented by 2, keys sorted, one closing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
