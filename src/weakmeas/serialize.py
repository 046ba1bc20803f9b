"""Deterministic JSON/CSV emission shared by the CLI.

Complex numbers travel as [re, im] pairs; observables as row-major lists of
such pairs. All emitted files are byte-stable functions of their inputs:
keys are sorted, floats go through repr (shortest round-trip), and no
timestamps or environment data are written. Every CSV ends with a comment
line carrying the config hash and seed so outputs are self-identifying.

Tables are formatted a column at a time, ``_CHUNK_ROWS`` rows at a time, and
each chunk is written as soon as it is formatted. A column of 64-bit floats
(Python or numpy) goes through ``float.__repr__`` in one pass, a column of
64-bit integers through ``str(int(v))``; any other column is formatted cell
by cell, as ``format_cell`` plus RFC-4180 quoting in CSV and as
``json.dumps`` in JSON. A JSON float column holding NaN or an infinity is
such a column, so those cells read ``NaN``/``Infinity`` as ``json`` writes
them. The bytes are exactly those of ``csv.writer`` over ``format_cell``
cells, and of ``json.dumps(jsonable(payload), sort_keys=True, indent=2)``:
the writers only get there without a Python call per cell.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import islice
from pathlib import Path

import numpy as np

_CHUNK_ROWS = 1024
_FLOAT_TYPES = frozenset({float, np.float64})
_INT_TYPES = frozenset({int, np.int64})
_CSV_QUOTE_TRIGGERS = (",", '"', "\r", "\n")


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and complex values."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def canonical_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:16]


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _chunks(rows):
    it = iter(rows)
    while chunk := list(islice(it, _CHUNK_ROWS)):
        yield chunk


def _format_column(column, cell, finite_floats: bool = False) -> list[str]:
    """Text of every cell of one column; ``cell`` formats a column of other types."""
    types = set(map(type, column))
    if types <= _FLOAT_TYPES and (not finite_floats or all(map(math.isfinite, column))):
        return list(map(float.__repr__, column))
    if types <= _INT_TYPES:
        return list(map(str, map(int, column)))
    return list(map(cell, column))


def _csv_cell(value) -> str:
    text = format_cell(value)
    if any(c in text for c in _CSV_QUOTE_TRIGGERS):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_lines(rows: list) -> str:
    """CRLF-terminated CSV lines of rows that all have the same length."""
    columns = [_format_column(col, _csv_cell) for col in zip(*rows)]
    if not columns:
        return "\r\n" * len(rows)
    if len(columns) == 1:  # csv.writer quotes a lone empty field
        columns[0] = ['""' if text == "" else text for text in columns[0]]
    return "\r\n".join(map(",".join, zip(*columns))) + "\r\n"


def write_csv(path: Path, header: list[str], rows, metadata: str) -> None:
    """RFC-4180 CSV with header and a trailing '# ...' metadata comment.

    ``rows`` is any iterable of sequences; it is read ``_CHUNK_ROWS`` at a time.
    """
    with open(path, "w", newline="") as fh:
        fh.write(_csv_lines([header]))
        for chunk in _chunks(rows):
            if len(set(map(len, chunk))) == 1:
                fh.write(_csv_lines(chunk))
            else:
                fh.write("".join(_csv_lines([row]) for row in chunk))
        fh.write(f"# {metadata}\n")


def _json_value(value, indent: str) -> str:
    """``json.dumps`` of one value, laid out as if nested at ``indent``."""
    return json.dumps(jsonable(value), sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _json_cell(value) -> str:
    return _json_value(value, "      ")


def _json_rows(rows: list) -> str:
    """Rows of a top-level ``"rows"`` list, joined as ``json.dumps`` joins them."""
    if not set(map(type, rows)) <= {list, tuple} or len(set(map(len, rows))) != 1:
        return ",\n    ".join(_json_value(row, "    ") for row in rows)
    columns = [_format_column(col, _json_cell, finite_floats=True) for col in zip(*rows)]
    if not columns:
        return ",\n    ".join(["[]"] * len(rows))
    cells = map(",\n      ".join, zip(*columns))
    return "[\n      " + "\n    ],\n    [\n      ".join(cells) + "\n    ]"


def write_json(path: Path, payload: dict) -> None:
    """``json.dumps(jsonable(payload), sort_keys=True, indent=2)`` plus a newline.

    ``payload`` has str keys. Its values are rendered one at a time, and a
    ``"rows"`` list ``_CHUNK_ROWS`` rows at a time.
    """
    with open(path, "w") as fh:
        if not payload:
            fh.write("{}\n")
            return
        sep = "{\n  "
        for key in sorted(payload):
            fh.write(f"{sep}{json.dumps(key)}: ")
            sep = ",\n  "
            value = payload[key]
            if key != "rows" or type(value) is not list or not value:
                fh.write(_json_value(value, "  "))
            else:
                row_sep = "[\n    "
                for chunk in _chunks(value):
                    fh.write(row_sep + _json_rows(chunk))
                    row_sep = ",\n    "
                fh.write("\n  ]")
        fh.write("\n}\n")
