"""Deterministic CSV/JSON rendering for sweep records and reports.

CSV columns come in a fixed order; booleans are lowercased; floats use
their shortest round-trip repr; fractions are written n/d, in JSON as
strings.  JSON output is an object with a metadata block followed by the
records, indented two spaces.  Rendering the same records twice yields
identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from operator import itemgetter

from .errors import BudgetError


def _ratio(value: Fraction) -> str:
    """A Fraction as the text n/d; json.dumps calls it on any value it
    cannot write itself."""
    if type(value) is not Fraction:
        raise TypeError(f"cannot render {type(value).__name__}")
    return f"{value.numerator}/{value.denominator}"


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return _ratio(value) if type(value) is Fraction else str(value)


def _digits(n: int) -> int:
    """The decimal digits of n >= 1.  math.log10 of a b-bit int is off by
    under b * 2**-50, so only one that close to an integer k takes 10**k."""
    x = math.log10(n)
    k = round(x)
    return k + (n >= 10**k) if abs(x - k) <= n.bit_length() * 2.0**-50 else math.floor(x) + 1


def writable(values: Iterable) -> Iterator:
    """values, one at a time, refused with BudgetError at the first int, or
    numerator and then denominator of a Fraction, that CPython will not
    write as text: one of more than sys.get_int_max_str_digits() digits
    (4300 by default, 0 for no cap), as that takes time quadratic in them."""
    limit = sys.get_int_max_str_digits()
    bound = 10**limit if limit else math.inf
    for value in values:
        for n in (value.numerator, value.denominator) if type(value) is Fraction else (value,):
            if type(n) is int and abs(n) >= bound:
                raise BudgetError(f"exact value of {_digits(abs(n))} digits exceeds the "
                                  f"{limit}-digit cap on written integers") from None
        yield value


# Cell types the csv module writes as their str() unaided: str, int and float
# (whose str is its repr).  The check is on the exact type, so bool, an int
# the csv module would write as True, goes through _cell, as do numpy scalars.
_RAW = {int, float, str}


def _csv(records: list[dict], fieldnames: list[str]) -> str:
    """The CSV text, a column at a time: a column of raw cells goes to the
    writer as it is, any other through _cell."""
    columns = [list(map(itemgetter(name), records)) for name in fieldnames]
    cells = [col if set(map(type, col)) <= _RAW else list(map(_cell, col)) for col in columns]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    writer.writerows(zip(*cells) if cells else [()] * len(records))
    return buf.getvalue()


def _json(records: list[dict], fieldnames: list[str], metadata: dict | None) -> str:
    """The text of json.dumps({"metadata": ..., "records": ...}, indent=2,
    default=_ratio) with the records written by the C encoder: with scalar
    values, a record's lines at indent 2 are those of its one-line form with
    each item separator followed by a newline and that indent."""
    head = json.dumps({"metadata": metadata or {}, "records": []}, indent=2, default=_ratio)
    if not records:
        return head + "\n"
    encode = json.JSONEncoder(separators=(",\n      ", ": "), default=_ratio).encode
    items = (encode({name: rec[name] for name in fieldnames})[1:-1] for rec in records)
    body = ",\n".join(f"    {{\n      {item}\n    }}" if item else "    {}" for item in items)
    return head.removesuffix("[]\n}") + f"[\n{body}\n  ]\n}}\n"


def render_records(records: list[dict], fieldnames: list[str], fmt: str,
                   metadata: dict | None = None) -> str:
    """records as CSV (a header row of fieldnames) or as JSON (an object of
    metadata and the records), each record written as its fields in order.
    Values are scalars: bool, int, float, str, Fraction, None, or a numpy
    scalar in CSV."""
    try:
        if fmt == "csv":
            return _csv(records, fieldnames)
        if fmt == "json":
            return _json(records, fieldnames, metadata)
    except ValueError:
        for _ in writable(rec[name] for rec in records for name in fieldnames):
            pass
        raise
    raise ValueError(f"unknown format {fmt!r}")


def write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        # an unwritable path is a configuration error, not a failed check
        raise ValueError(f"cannot write {out!r}: {exc.strerror or exc}") from exc
