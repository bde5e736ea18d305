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


def render_records(records: list[dict], fieldnames: list[str], fmt: str,
                   metadata: dict | None = None) -> str:
    try:
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(fieldnames)
            for rec in records:
                writer.writerow([_cell(rec[name]) for name in fieldnames])
            return buf.getvalue()
        if fmt == "json":
            payload = {
                "metadata": metadata or {},
                "records": [{name: rec[name] for name in fieldnames} for rec in records],
            }
            return json.dumps(payload, indent=2, default=_ratio) + "\n"
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
