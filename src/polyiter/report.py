"""Deterministic CSV/JSON rendering for sweep records and reports.

CSV columns come in a fixed order; booleans are lowercased; floats use
their shortest round-trip repr; fractions are written n/d, in JSON as
strings.  JSON output is an object with a metadata block followed by the
records, indented two spaces.  A record is a row: a tuple of its values in
column order.  Rendering the same records twice yields identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import chain, repeat
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


def _csv(records: list[Sequence], fieldnames: Sequence[str]) -> str:
    """The CSV text: a column whose cells are all raw goes to the writer as
    it is, any other through _cell.  Columns are read from the rows as the
    writer takes them, never held as lists."""
    def column(i: int) -> Iterator:
        cells = map(itemgetter(i), records)
        return cells if set(map(type, map(itemgetter(i), records))) <= _RAW else map(_cell, cells)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fieldnames)
    writer.writerows(zip(*map(column, range(len(fieldnames)))) if fieldnames
                     else [()] * len(records))
    return buf.getvalue()


def _json(records: list[Sequence], fieldnames: Sequence[str], metadata: dict | None) -> str:
    """The text of json.dumps({"metadata": ..., "records": ...}, indent=2,
    default=_ratio) with the records written by the C encoder: with scalar
    values, a record's lines at indent 2 are those of its one-line form with
    each item separator followed by a newline and that indent.  The text is
    joined once, from the head and each record's lines with what follows
    them."""
    head = json.dumps({"metadata": metadata or {}, "records": []}, indent=2, default=_ratio)
    if not records:
        return head + "\n"
    encode = json.JSONEncoder(separators=(",\n      ", ": "), default=_ratio).encode
    items = (encode(dict(zip(fieldnames, rec)))[1:-1] for rec in records)
    ends = chain(repeat(",\n", len(records) - 1), ["\n  ]\n}\n"])
    texts = (f"    {{\n      {item}\n    }}{end}" if item else f"    {{}}{end}"
             for item, end in zip(items, ends))
    return "".join(chain([head.removesuffix("[]\n}"), "[\n"], texts))


def render_records(records: list[Sequence], fieldnames: Sequence[str], fmt: str,
                   metadata: dict | None = None) -> str:
    """records as CSV (a header row of fieldnames) or as JSON (an object of
    metadata and the records), each record a row of values aligned with
    fieldnames.  Values are scalars: bool, int, float, str, Fraction, None,
    or a numpy scalar in CSV."""
    try:
        if fmt == "csv":
            return _csv(records, fieldnames)
        if fmt == "json":
            return _json(records, fieldnames, metadata)
    except ValueError:
        for _ in writable(value for rec in records for value in rec):
            pass
        raise
    raise ValueError(f"unknown format {fmt!r}")


# Characters handed to a text stream per write, so that it never holds the
# whole text encoded next to the text itself.
_WRITE_SLICE = 1 << 20


def _write(handle, text: str) -> None:
    for start in range(0, len(text), _WRITE_SLICE):
        handle.write(text[start:start + _WRITE_SLICE])


def write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        _write(sys.stdout, text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            _write(handle, text)
    except OSError as exc:
        # an unwritable path is a configuration error, not a failed check
        raise ValueError(f"cannot write {out!r}: {exc.strerror or exc}") from exc
