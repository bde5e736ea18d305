"""Deterministic CSV/JSON rendering for sweep records and reports.

CSV columns come in a fixed order; booleans are lowercased; floats use
their shortest round-trip repr.  JSON output is an object with a metadata
block followed by the records, indented two spaces.  Rendering the same
records twice yields identical bytes.
"""

from __future__ import annotations

import csv
import io
import json
import sys


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_records(records: list[dict], fieldnames: list[str], fmt: str,
                   metadata: dict | None = None) -> str:
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
        return json.dumps(payload, indent=2) + "\n"
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
