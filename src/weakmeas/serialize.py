"""Deterministic JSON/CSV emission shared by the CLI.

Complex numbers travel as [re, im] pairs; observables as row-major lists of
such pairs. All emitted files are byte-stable functions of their inputs:
keys are sorted, floats are written as ``repr`` writes them (shortest
round-trip), and no timestamps or environment data are written. Every CSV
ends with a comment line carrying the config hash and seed so outputs are
self-identifying.

Tables are structured arrays, written by column a chunk at a time, and files
are written as UTF-8 bytes. A chunk of single-meter records (one float64
field, optionally followed by one bool field) with no NaN or infinity is
laid out as bytes, ``_RECORD_CHUNK_ROWS`` rows at a time: one orjson dump of
the floats, ``repr``'s text spliced in for the few values orjson writes in
another notation (|x| in [1e-9, 1e-4) or from 1e16 up), every ``,``
replaced by the row template with a ``0`` flag, and the flag byte of each
kept row set to ``1``. Every other chunk (records holding NaN or an
infinity, or any other field layout) is formatted ``_CHUNK_ROWS`` rows and
a field slice at a time: float64 through ``orjson``, its exponent notation
made ``repr``'s by one text fix, with ``float.__repr__`` only for |x| in
[1e-5, 1e-4) and non-finite values; bool as ``0``/``1``; int64 through
``str``; any other field (labels, None, mixed objects, and in JSON NaN or
infinities) cell by cell. Both routes write the bytes of ``csv.writer`` over
``format_cell`` and of ``json.dumps(jsonable(payload), sort_keys=True,
indent=2)`` over the table's rows, a bool field being written as the
integers 0 and 1.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import islice
from pathlib import Path

import numpy as np

# Rows per chunk. A chunk formatted cell by cell holds a str per cell, and 1,024
# rows keep the largest grid's chunks small. A records chunk costs a few numpy
# passes and one orjson dump, so it can be longer, until its buffers outgrow what
# the allocator keeps for reuse and every chunk faults in fresh pages. Writing
# 65,536 JSON records in-process on a 2-vCPU VM took no page faults and about
# 14 ms at 4,096 rows, and 1,610 faults and about 20 ms at 16,384.
_CHUNK_ROWS = 1024
_RECORD_CHUNK_ROWS = 4096
_RECORD_DTYPES = (np.dtype(np.float64), np.dtype(np.bool_))
_CSV_QUOTE_TRIGGERS = (",", '"', "\r", "\n")
# (head, cell separator, row separator, tail) of a chunk of table rows
_CSV_LAYOUT = ("", ",", "\r\n", "\r\n")
_JSON_LAYOUT = ("[\n      ", ",\n      ", "\n    ],\n    [\n      ", "\n    ]")


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


def config_hash(config: dict) -> str:
    """The first 16 hex digits of the sha256 of ``config`` as compact JSON with
    sorted keys. ``config`` must be JSON-native: it is not converted first."""
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _is_records(dtypes: list) -> bool:
    """A float64 field, optionally followed by a bool field: single-meter records."""
    return 0 < len(dtypes) <= 2 and tuple(dtypes) == _RECORD_DTYPES[: len(dtypes)]


def _column_chunks(table):
    """(row count, field columns) of each chunk of a structured array: each
    ``_RECORD_CHUNK_ROWS`` rows of single-meter records, each ``_CHUNK_ROWS``
    rows of any other table."""
    if not isinstance(table, np.ndarray):
        # The same table given record by record, as perfbench/spans.py's CSV
        # row counter gives it: each chunk of records is rebuilt into an array.
        # This can go once that hook counts len(rows) instead.
        it = iter(table)
        while chunk := list(islice(it, _CHUNK_ROWS)):
            yield from _column_chunks(np.array(chunk, dtype=chunk[0].dtype))
        return
    fields = table.dtype.names
    size = _RECORD_CHUNK_ROWS if _is_records([table.dtype[name] for name in fields]) else _CHUNK_ROWS
    for start in range(0, len(table), size):
        block = table[start : start + size]
        yield len(block), [block[name] for name in fields]


def _dump_floats(column: np.ndarray) -> bytes:
    """orjson's JSON list of a C-contiguous float64 column."""
    # Imported here, not at module level: importing orjson costs about 13 ms,
    # and every command pays the import of weakmeas.cli, table or no table.
    import orjson

    return orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY)


def _written_as_repr(magnitude: np.ndarray) -> np.ndarray:
    """Where orjson writes ``repr``'s text: 0, |x| below 1e-9 and in [1e-4, 1e16).
    NaN is in neither."""
    return (magnitude < 1e-9) | (magnitude >= 1e-4) & (magnitude < 1e16)


def _float_texts(column: np.ndarray) -> list[str]:
    """``float.__repr__`` of each value of a float64 column.

    orjson writes the same shortest round-trip digits as ``repr`` at about a
    tenth of the cost, in the same notation for 0, |x| below 1e-9 and |x| in
    [1e-4, 1e16). Elsewhere its exponent notation differs by one text fix,
    made once over each range's dump: one-digit exponents in [1e-9, 1e-5)
    (``1e-7`` for ``1e-07``) and no ``+`` from 1e16 up (``1e16`` for
    ``1e+16``). It writes plain decimals in [1e-5, 1e-4) and ``null`` for NaN
    and infinities; those values alone go through ``repr``.
    """

    def dumps(values: np.ndarray) -> str:
        return _dump_floats(values)[1:-1].decode()

    column = np.ascontiguousarray(column)  # orjson takes C-contiguous arrays only
    texts = dumps(column).split(",")
    magnitude = np.abs(column)
    if _written_as_repr(magnitude).all():
        return texts
    for lo, hi, old, new in ((1e-9, 1e-5, "e-", "e-0"), (1e16, np.inf, "e", "e+")):
        rows = np.flatnonzero((magnitude >= lo) & (magnitude < hi))
        for i, text in zip(rows.tolist(), dumps(column[rows]).replace(old, new).split(",")):
            texts[i] = text
    rows = np.flatnonzero((magnitude >= 1e-5) & (magnitude < 1e-4) | ~np.isfinite(column))
    for i, text in zip(rows.tolist(), map(float.__repr__, column[rows].tolist())):
        texts[i] = text
    return texts


def _commas(text: bytes) -> np.ndarray:
    return np.flatnonzero(np.frombuffer(text, np.uint8) == ord(","))


def _spliced(dump: bytearray, rows: np.ndarray, values: list[float]) -> bytearray:
    """``dump``, a float list whose ``]`` is a ``,``, with the text of each row
    in ``rows`` replaced by ``repr``'s text of its value."""
    commas = _commas(dump)
    ends = commas[rows]
    starts = np.where(rows > 0, commas[rows - 1], 0) + 1  # the "[" bounds row 0
    pieces, pos = [], 0
    for start, end, value in zip(starts.tolist(), ends.tolist(), values):
        pieces += (dump[pos:start], float.__repr__(value).encode())
        pos = end
    pieces.append(dump[pos:])
    return bytearray().join(pieces)


def _record_rows(columns: list, layout: tuple[str, str, str, str]) -> list | None:
    """A chunk of single-meter records as byte pieces, or None where it is not
    one: a float64 column, optionally followed by a bool column, with no NaN or
    infinity.

    The floats are dumped once and the closing ``]`` made a ``,``. Where
    orjson's notation is not ``repr``'s (|x| in [1e-9, 1e-4) or from 1e16 up),
    ``repr``'s text is spliced in between the commas that bound the value.
    Every ``,`` then becomes the row template with a ``0`` flag, and each kept
    row's flag byte, at comma_i + i (len(template) - 1) + len(cell separator),
    is set to ``1``. The pieces are views of that one buffer and the layout's
    ends, so no text of the chunk is copied or decoded.
    """
    if not _is_records([column.dtype for column in columns]):
        return None
    column = np.ascontiguousarray(columns[0])
    tails = np.flatnonzero(~_written_as_repr(np.abs(column)))
    tail_values = column[tails].tolist()
    if not all(map(math.isfinite, tail_values)):
        return None
    flags = columns[1] if len(columns) == 2 else None
    head, cell_sep, row_sep, tail = layout
    template = (cell_sep + "0" if flags is not None else "") + row_sep
    dump = bytearray(_dump_floats(column))
    dump[-1] = ord(",")
    if tails.size:
        dump = _spliced(dump, tails, tail_values)
    text = dump.replace(b",", template.encode())
    if flags is not None:
        kept = np.flatnonzero(flags)
        flag_at = _commas(dump)[kept] + kept * (len(template) - 1) + len(cell_sep)
        np.frombuffer(text, np.uint8)[flag_at] = ord("1")
    return [head.encode(), memoryview(text)[1 : -len(row_sep)], tail.encode()]


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


def _joined(texts: list[list[str]], layout: tuple[str, str, str, str]) -> str:
    """The rows of column texts ``texts`` laid out as ``layout`` lays out a chunk."""
    head, cell_sep, row_sep, tail = layout
    return head + row_sep.join(map(cell_sep.join, zip(*texts))) + tail


def _csv_lines(n: int, columns: list) -> list:
    """CRLF-terminated CSV lines of ``n`` rows given as columns, as byte pieces."""
    if (pieces := _record_rows(columns, _CSV_LAYOUT)) is not None:
        return pieces
    texts = [_format_column(col, _csv_cell) for col in columns]
    if not texts:
        return [b"\r\n" * n]
    if len(texts) == 1:  # csv.writer quotes a lone empty field
        texts[0] = ['""' if text == "" else text for text in texts[0]]
    return [_joined(texts, _CSV_LAYOUT).encode()]


def write_csv(path: Path, header: list[str], rows, metadata: str) -> None:
    """RFC-4180 CSV in UTF-8 with header and a trailing '# ...' metadata comment.

    ``rows`` is a structured array, or its records one at a time.
    """
    with open(path, "wb") as fh:
        fh.writelines(_csv_lines(1, [np.array([name], dtype=object) for name in header]))
        for n, columns in _column_chunks(rows):
            fh.writelines(_csv_lines(n, columns))
        fh.write(f"# {metadata}\n".encode())


def _json_value(value, indent: str) -> str:
    """``json.dumps`` of one value, laid out as if nested at ``indent``."""
    return json.dumps(jsonable(value), sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _json_cell(value) -> str:
    return _json_value(value, "      ")


def _json_rows(n: int, columns: list) -> list:
    """``n`` rows of a top-level ``"rows"`` list, joined as ``json.dumps`` joins
    them, as byte pieces."""
    if (pieces := _record_rows(columns, _JSON_LAYOUT)) is not None:
        return pieces
    texts = [_format_column(col, _json_cell, finite_floats=True) for col in columns]
    if not texts:
        return [",\n    ".join(["[]"] * n).encode()]
    return [_joined(texts, _JSON_LAYOUT).encode()]


def write_json(path: Path, payload: dict) -> None:
    """``json.dumps(jsonable(payload), sort_keys=True, indent=2)`` plus a newline.

    ``payload`` has str keys. Its values are rendered one at a time. A
    ``"rows"`` value that is a structured array is written a chunk at a time.
    """
    with open(path, "wb") as fh:
        if not payload:
            fh.write(b"{}\n")
            return
        sep = "{\n  "
        for key in sorted(payload):
            fh.write(f"{sep}{json.dumps(key)}: ".encode())
            sep = ",\n  "
            value = payload[key]
            is_table = isinstance(value, np.ndarray) and value.dtype.names is not None
            if key == "rows" and is_table and len(value):
                row_sep = b"[\n    "
                for n, columns in _column_chunks(value):
                    fh.write(row_sep)
                    fh.writelines(_json_rows(n, columns))
                    row_sep = b",\n    "
                fh.write(b"\n  ]")
            else:
                fh.write(_json_value(value, "  ").encode())
        fh.write(b"\n}\n")
