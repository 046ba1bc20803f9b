"""Deterministic JSON/CSV emission shared by the CLI.

Complex numbers travel as [re, im] pairs; observables as row-major lists of
such pairs. All emitted files are byte-stable functions of their inputs:
keys are sorted, floats are written as ``repr`` writes them (shortest
round-trip), and no timestamps or environment data are written. Every CSV
ends with a comment line carrying the config hash and seed so outputs are
self-identifying. The hash is the sha256 of ``json.dumps(config,
sort_keys=True, separators=(",", ":"))``. orjson writes that text with its
number notation fixed in place (``_compact_json``); ``json.dumps`` itself
writes it for a config orjson would write otherwise: one with an int past 64
bits, non-ASCII text, NaN or an infinity, or a string holding a backslash or
text a number fix would match.

Tables are structured arrays, written as UTF-8 bytes a chunk of
``_CHUNK_CELLS`` cells at a time. A chunk of float64 fields, optionally
followed by one bool field, with no NaN or infinity, is laid out as bytes by
``_float_rows``: one orjson dump, its notation made ``repr``'s in place with
numpy. Any other chunk (the CLI's small mixed tables, or one holding NaN or
an infinity) is written from its rows as Python values, as is the CSV
header: by ``csv.writer`` over ``format_cell``, and row by row by
``json.dumps(jsonable(row), sort_keys=True, indent=2)``. Both routes write
those writers' bytes, a bool field being written as the integers 0 and 1.
"""

from __future__ import annotations

import hashlib
import json
import re
from itertools import islice
from pathlib import Path

import numpy as np

# Cells per chunk, in whole rows; a bool field's one-byte cells are not counted. A
# float chunk's traced peak, orjson's dump buffer (256 kB once a dump passes 64 kB)
# and its bytearray copy, grows with the chunk: on a 2-vCPU VM the 10,201 x 3 grid's
# was 334, 377 and 499 kB at 4,096, 6,144 and 8,192 cells, against 395 kB cell by
# cell. Each chunk has a fixed cost too: with one-meter records cut at 3,072 rows
# (their bool cells counted), perfbench's simulate_records ran 5% slower than with
# the 4,096-row chunks before.
_CHUNK_CELLS = 6144
# Placeholder bytes of _float_rows; orjson's dump of floats is ASCII without them
_SHORT_EXPONENT, _PLUS_EXPONENT, _DROPPED = 0x01, 0x02, 0x7F
# (head, cell separator, row separator, tail) of a chunk of table rows
_CSV_LAYOUT = ("", ",", "\r\n", "\r\n")
_JSON_LAYOUT = ("[\n      ", ",\n      ", "\n    ],\n    [\n      ", "\n    ]")
# Where orjson's compact JSON writes a number in another notation than repr,
# and the fix of each. Every pattern begins with a literal, so a search skips
# to its next occurrence instead of testing every digit. Exponents: orjson
# writes one from 1e16 up (no "+") and below 1e-5 (no zero pad).
_OTHER_NOTATION = re.compile(rb"e-?[0-9]|0\.0000")
_REPR_FIXES = (
    (re.compile(rb"e(?=[0-9])"), b"e+"),
    (re.compile(rb"e-(?=[0-9](?![0-9]))"), b"e-0"),
    # |x| in [1e-5, 1e-4), the token's start (after a sign, if any)
    (re.compile(rb"0\.0000(?<=[-,:[]0\.0000)[0-9]*"), lambda m: float.__repr__(float(m[0])).encode()),
)
_STRING = re.compile(rb'"[^"]*"')


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
    return hashlib.sha256(_compact_json(config)).hexdigest()[:16]


def _compact_json(config: dict) -> bytes:
    """``json.dumps(config, sort_keys=True, separators=(",", ":"))`` as bytes.

    orjson writes the same text, but for the numbers it writes in another
    notation than ``repr``: exponents (``1e-7`` for ``1e-07``, ``1e16`` for
    ``1e+16``) and the plain decimals of |x| in [1e-5, 1e-4) (``0.00001`` for
    ``1e-05``). Its digits round-trip, so fixing the exponents' text and
    rewriting those decimals with ``float.__repr__`` is exact. ``json.dumps``
    writes the text where that would not give its bytes: an int past 64 bits,
    which orjson refuses; non-ASCII text or DEL, which ``json.dumps`` escapes;
    NaN and infinities, which orjson writes as ``null``; and a string holding
    a backslash or text a fix would match, which the fixes cannot tell apart
    from numbers.
    """
    import orjson  # see _float_rows

    try:
        text = orjson.dumps(config, option=orjson.OPT_SORT_KEYS)
    except orjson.JSONEncodeError:  # an int past 64 bits
        text = None
    if (
        text is None
        or not text.isascii()
        or any(mark in text for mark in (b"\\", b"\x7f", b"null"))
        or _OTHER_NOTATION.search(b"".join(_STRING.findall(text)))
    ):
        return json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    for pattern, repl in _REPR_FIXES:
        text = pattern.sub(repl, text)
    return text


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _chunk_rows(dtype: np.dtype) -> int:
    """Rows of ``_CHUNK_CELLS`` cells; a bool field's cells, one byte each, are not counted."""
    return _CHUNK_CELLS // max(sum(dtype[name] != np.bool_ for name in dtype.names), 1)


def _column_chunks(table):
    """Each chunk of a structured array: ``_CHUNK_CELLS`` cells in whole rows."""
    if not isinstance(table, np.ndarray):
        # The same table given record by record, as perfbench/spans.py's CSV
        # row counter gives it: each chunk of records is rebuilt into an array.
        # This can go once that hook counts len(rows) instead.
        it = iter(table)
        for first in it:
            chunk = [first, *islice(it, _chunk_rows(first.dtype) - 1)]
            yield from _column_chunks(np.array(chunk, dtype=first.dtype))
        return
    size = _chunk_rows(table.dtype)
    for start in range(0, len(table), size):
        yield table[start : start + size]


def _float_table(block: np.ndarray):
    """(values, flags) of a chunk of float64 fields, optionally followed by a
    bool field: the floats as one C-contiguous (rows, fields) array, and the
    bool column or None. None for any other chunk, or one with NaN or an
    infinity."""
    names, flags = block.dtype.names, None
    if names and block.dtype[-1] == np.bool_:
        names, flags = names[:-1], block[names[-1]]
    if not names or any(block.dtype[name] != np.float64 for name in names):
        return None
    if flags is None and block.dtype == np.dtype([(name, np.float64) for name in names]):
        values = np.ascontiguousarray(block).view(np.float64).reshape(len(block), -1)  # already interleaved
    else:
        values = np.column_stack([block[name] for name in names])
    return (values, flags) if np.isfinite(values).all() else None


def _repr_notation(buf: np.ndarray, flat: np.ndarray, magnitude: np.ndarray, ends: np.ndarray) -> tuple:
    """Mark where ``buf``, orjson's dump of the finite values ``flat``
    (``magnitude`` their absolute values, ``ends[i]`` the byte after value
    i's text), has another notation than ``repr``. Returns the (placeholder,
    text) fixes and the bytes they add to each value's text.

    orjson writes |x| in [1e-5, 1e-4) as ``0.0000DR`` for ``D.Re-05``: ``0D``
    becomes ``D.``, the ``0.000`` before it (and a ``.`` no digit follows)
    ``_DROPPED``, and the terminator gets its high bit set, to be ``e-05`` and
    itself. One-digit exponents below 1e-5 lack a zero (``1e-7``): their ``-``
    becomes ``_SHORT_EXPONENT``. Exponents from 1e16 up lack a ``+``
    (``1e16``): their ``e`` becomes ``_PLUS_EXPONENT``.
    """
    fixes, growth = [], np.zeros(flat.size, np.intp)
    mid = np.flatnonzero((magnitude >= 1e-5) & (magnitude < 1e-4))
    if mid.size:
        last = ends[mid]
        start = np.where(mid > 0, ends[mid - 1], 0) + 1 + (flat[mid] < 0)  # "[" bounds value 0
        buf[start[:, None] + np.arange(5)] = _DROPPED
        buf[start + 5] = buf[start + 6]
        buf[start + 6] = np.where(last > start + 7, ord("."), _DROPPED)
        growth[mid] = np.where(last > start + 7, -1, -2)
        buf[last] |= 0x80
        fixes.append((bytes([_DROPPED]), b""))
        terminators = np.flatnonzero(np.bincount(buf[last])).tolist()  # np.unique imports numpy.ma: 1.6 MB
        fixes += [(bytes([t]), b"e-05" + bytes([t & 0x7F])) for t in terminators]
    if ((magnitude >= 1e-9) & (magnitude < 1e-5) | (magnitude >= 1e16)).any():
        exponents = np.flatnonzero(buf == ord("e"))
        minus = buf[exponents + 1] == ord("-")
        short = exponents[minus][buf[exponents[minus] + 3] < ord("0")]  # a terminator, not a second digit
        buf[short + 1] = _SHORT_EXPONENT
        buf[exponents[~minus]] = _PLUS_EXPONENT
        fixes += [(bytes([_SHORT_EXPONENT]), b"-0")] * bool(short.size)
        fixes += [(bytes([_PLUS_EXPONENT]), b"e+")] * bool((~minus).any())
        growth[np.searchsorted(ends, np.concatenate([short, exponents[~minus]]))] = 1
    return fixes, growth


def _float_rows(values: np.ndarray, flags, layout: tuple[str, str, str, str]) -> list:
    """The rows of a finite C-contiguous (rows, fields) float64 array, each
    ending in a 0/1 cell where ``flags`` is a bool column, laid out as
    ``layout`` lays out a chunk: ``float.__repr__``'s text of every value as
    byte pieces, with no Python loop over cells.

    One orjson dump writes ``repr``'s digits; its ``]`` becomes a ``,``, each
    row-end ``,`` a ``\r`` (in one column every ``,`` ends a row, and stays),
    and ``_repr_notation`` marks the numbers to write in another notation.
    One ``replace`` per placeholder writes its text, the row ends' last, with
    a ``0`` flag; each kept row's flag byte is then set to ``1``.
    """
    # Imported here, not at module level: importing orjson costs about 13 ms,
    # and every command pays the import of weakmeas.cli, table or no table.
    import orjson

    head, cell_sep, row_sep, tail = layout
    m = values.shape[1]
    flat = values.reshape(-1)
    text = bytearray(orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY))
    buf = np.frombuffer(text, np.uint8)
    buf[-1] = ord(",")
    ends = np.flatnonzero(buf == ord(","))  # the byte after each value's text
    row_end = ord("\r") if m > 1 else ord(",")
    if m > 1:
        buf[ends[m - 1 :: m]] = row_end
    template = ((cell_sep + "0") * (flags is not None) + row_sep).encode()
    kept = np.flatnonzero(flags) if flags is not None else np.empty(0, np.intp)
    # each kept row's flag byte, after the bytes that the cell separators, row
    # templates and notation fixes (added below) add before it
    cells_grow = (m - 1) * (len(cell_sep) - 1)
    flag_at = ends[m - 1 :: m][kept] + kept * (len(template) - 1 + cells_grow) + cells_grow + len(cell_sep)
    magnitude = np.abs(flat)
    notation = []
    if ((magnitude >= 1e-9) & (magnitude < 1e-4) | (magnitude >= 1e16)).any():
        notation, growth = _repr_notation(buf, flat, magnitude, ends)
        flag_at += np.cumsum(growth.reshape(-1, m).sum(axis=1))[kept]
    del buf, ends, magnitude  # each replace below copies the text: hold no more
    cell_fix = [(b",", cell_sep.encode())] * (m > 1 and cell_sep != ",")
    for placeholder, fix in [*notation, *cell_fix, (bytes([row_end]), template)]:
        text = text.replace(placeholder, fix)
    np.frombuffer(text, np.uint8)[flag_at] = ord("1")
    return [head.encode(), memoryview(text)[1 : -len(row_sep)], tail.encode()]


def _python_rows(block: np.ndarray) -> list[tuple]:
    """A chunk's rows as tuples of Python values, a bool field as the ints 0 and 1."""
    dtype = [(name, np.int8 if block.dtype[name] == np.bool_ else block.dtype[name]) for name in block.dtype.names]
    return block.astype(dtype).tolist()


def _csv_text(rows) -> bytes:
    """``csv.writer``'s CRLF-terminated lines of ``rows``, each cell through ``format_cell``."""
    import csv  # imported here, as orjson is (see _float_rows)
    import io

    out = io.StringIO()
    csv.writer(out).writerows(map(format_cell, row) for row in rows)
    return out.getvalue().encode()


def _csv_lines(block: np.ndarray) -> list:
    """CRLF-terminated CSV lines of a chunk, as byte pieces."""
    if (floats := _float_table(block)) is not None:
        return _float_rows(*floats, _CSV_LAYOUT)
    return [_csv_text(_python_rows(block))]


def write_csv(path: Path, header: list[str], rows, metadata: str) -> None:
    """RFC-4180 CSV in UTF-8 with header and a trailing '# ...' metadata comment.

    ``rows`` is a structured array, or its records one at a time.
    """
    with open(path, "wb") as fh:
        fh.write(_csv_text([header]))
        for block in _column_chunks(rows):
            fh.writelines(_csv_lines(block))
        fh.write(f"# {metadata}\n".encode())


def _json_value(value, indent: str) -> str:
    """``json.dumps`` of one value, laid out as if nested at ``indent``."""
    return json.dumps(jsonable(value), sort_keys=True, indent=2).replace("\n", "\n" + indent)


def _json_rows(block: np.ndarray) -> list:
    """A chunk's rows in a top-level ``"rows"`` list, joined as ``json.dumps``
    joins them, as byte pieces."""
    if (floats := _float_table(block)) is not None:
        return _float_rows(*floats, _JSON_LAYOUT)
    return [",\n    ".join(_json_value(row, "    ") for row in _python_rows(block)).encode()]


def write_json(path: Path, payload: dict) -> None:
    """``json.dumps(jsonable(payload), sort_keys=True, indent=2)`` plus a newline.

    ``payload`` has str keys. Its values are rendered one at a time. A
    ``"rows"`` value that is a structured array is written a chunk at a time.
    """
    with open(path, "wb") as fh:
        fh.write(b"{")
        for i, key in enumerate(sorted(payload)):
            fh.write(f'{"," if i else ""}\n  {json.dumps(key)}: '.encode())
            value = payload[key]
            if key == "rows" and isinstance(value, np.ndarray) and value.dtype.names is not None and len(value):
                for j, block in enumerate(_column_chunks(value)):
                    fh.write(b",\n    " if j else b"[\n    ")
                    fh.writelines(_json_rows(block))
                fh.write(b"\n  ]")
            else:
                fh.write(_json_value(value, "  ").encode())
        fh.write(b"\n}\n" if payload else b"}\n")
