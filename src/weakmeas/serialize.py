"""Deterministic JSON/CSV emission shared by the CLI.

Complex numbers travel as [re, im] pairs; observables as row-major lists of
such pairs. All emitted files are byte-stable functions of their inputs:
keys are sorted, floats are written as ``repr`` writes them (shortest
round-trip), and no timestamps or environment data are written. Every CSV
ends with a comment line carrying the config hash and seed so outputs are
self-identifying.

Tables are structured arrays, written by column ``_CHUNK_ROWS`` rows at a
time. Each field slice is formatted in one pass: float64 through ``orjson``
(the same shortest round-trip digits as ``repr``), with ``float.__repr__``
for the values whose notation differs there (nonzero |x| outside [1e-4,
1e16), NaN and infinities); bool as ``0``/``1``; int64 through ``str``; any
other field (labels, None, mixed objects, and in JSON NaN or infinities)
cell by cell. The bytes are those of ``csv.writer`` over ``format_cell`` and
of ``json.dumps(jsonable(payload), sort_keys=True, indent=2)`` over the
table's rows, a bool field being written as the integers 0 and 1.
"""

from __future__ import annotations

import hashlib
import json
from itertools import islice
from pathlib import Path

import numpy as np

_CHUNK_ROWS = 1024
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


def _column_chunks(table):
    """(row count, field columns) of each ``_CHUNK_ROWS`` rows of a structured array."""
    if not isinstance(table, np.ndarray):
        # The same table given record by record, as perfbench/spans.py's CSV
        # row counter gives it: each chunk of records is rebuilt into an array.
        # This can go once that hook counts len(rows) instead.
        it = iter(table)
        while chunk := list(islice(it, _CHUNK_ROWS)):
            yield from _column_chunks(np.array(chunk, dtype=chunk[0].dtype))
        return
    for start in range(0, len(table), _CHUNK_ROWS):
        block = table[start : start + _CHUNK_ROWS]
        yield len(block), [block[name] for name in table.dtype.names]


def _float_texts(column: np.ndarray) -> list[str]:
    """``float.__repr__`` of each value of a float64 column.

    orjson writes the same shortest round-trip digits as ``repr`` at about a
    tenth of the cost, but in other notation outside [1e-4, 1e16) (``0.00001``
    for ``1e-05``, ``1e16`` for ``1e+16``) and ``null`` for NaN and
    infinities; those values alone go through ``repr``.
    """
    # Imported here, not at module level: importing orjson costs about 13 ms,
    # and every command pays the import of weakmeas.cli, table or no table.
    import orjson

    column = np.ascontiguousarray(column)  # orjson takes C-contiguous arrays only
    texts = orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    magnitude = np.abs(column)
    other_notation = (column != 0) & ~((magnitude >= 1e-4) & (magnitude < 1e16))  # NaN too
    for i in np.flatnonzero(other_notation).tolist():
        texts[i] = float.__repr__(float(column[i]))
    return texts


def _format_column(column: np.ndarray, cell, finite_floats: bool = False) -> list[str]:
    """Text of every cell of one column; ``cell`` formats a column of other types."""
    if column.dtype == np.float64 and (not finite_floats or np.isfinite(column).all()):
        return _float_texts(column)
    if column.dtype == np.bool_:
        return np.where(column, "1", "0").tolist()
    if column.dtype == np.int64:
        return list(map(str, column.tolist()))
    return list(map(cell, column.tolist()))


def _csv_cell(value) -> str:
    text = format_cell(value)
    if any(c in text for c in _CSV_QUOTE_TRIGGERS):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_lines(n: int, columns: list) -> str:
    """CRLF-terminated CSV lines of ``n`` rows given as columns."""
    texts = [_format_column(col, _csv_cell) for col in columns]
    if not texts:
        return "\r\n" * n
    if len(texts) == 1:  # csv.writer quotes a lone empty field
        texts[0] = ['""' if text == "" else text for text in texts[0]]
    return "\r\n".join(map(",".join, zip(*texts))) + "\r\n"


def write_csv(path: Path, header: list[str], rows, metadata: str) -> None:
    """RFC-4180 CSV with header and a trailing '# ...' metadata comment.

    ``rows`` is a structured array, or its records one at a time.
    """
    with open(path, "w", newline="") as fh:
        fh.write(_csv_lines(1, [np.array([name], dtype=object) for name in header]))
        for n, columns in _column_chunks(rows):
            fh.write(_csv_lines(n, columns))
        fh.write(f"# {metadata}\n")


def _json_value(value, indent: str) -> str:
    """``json.dumps`` of one value, laid out as if nested at ``indent``."""
    return json.dumps(jsonable(value), sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _json_cell(value) -> str:
    return _json_value(value, "      ")


def _json_rows(n: int, columns: list) -> str:
    """``n`` rows of a top-level ``"rows"`` list, joined as ``json.dumps`` joins them."""
    texts = [_format_column(col, _json_cell, finite_floats=True) for col in columns]
    if not texts:
        return ",\n    ".join(["[]"] * n)
    cells = map(",\n      ".join, zip(*texts))
    return "[\n      " + "\n    ],\n    [\n      ".join(cells) + "\n    ]"


def write_json(path: Path, payload: dict) -> None:
    """``json.dumps(jsonable(payload), sort_keys=True, indent=2)`` plus a newline.

    ``payload`` has str keys. Its values are rendered one at a time. A
    ``"rows"`` value that is a structured array is written ``_CHUNK_ROWS``
    rows at a time.
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
            is_table = isinstance(value, np.ndarray) and value.dtype.names is not None
            if key == "rows" and is_table and len(value):
                row_sep = "[\n    "
                for n, columns in _column_chunks(value):
                    fh.write(row_sep + _json_rows(n, columns))
                    row_sep = ",\n    "
                fh.write("\n  ]")
            else:
                fh.write(_json_value(value, "  "))
        fh.write("\n}\n")
