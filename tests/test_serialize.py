"""Table writers: byte equality with the straightforward cell-by-cell writers.

``reference_csv`` and ``reference_json`` are the writers the chunked column
formatting replaced: ``csv.writer`` over ``format_cell`` cells, and
``json.dumps(jsonable(payload), sort_keys=True, indent=2)``. They take the
rows of each case; ``write_csv``/``write_json`` take the same rows as a
structured array, whole and (CSV) record by record, and must write the same
bytes.
"""

import csv
import hashlib
import json
import math
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakmeas import cli, serialize
from weakmeas import montecarlo as mc
from conftest import run_python
from weakmeas.montecarlo import _DTYPE_ONE
from weakmeas.serialize import (
    _CHUNK_ROWS,
    _RECORD_CHUNK_ROWS,
    _float_texts,
    format_cell,
    jsonable,
    write_csv,
    write_json,
)

METADATA = "config_sha256=0123456789abcdef seed=7"


def reference_csv(path, header, rows, metadata):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(v) for v in row])
        fh.write(f"# {metadata}\n")


def reference_json(path, payload):
    path.write_text(json.dumps(jsonable(payload), sort_keys=True, indent=2) + "\n")


def as_table(header, rows, dtypes) -> np.ndarray:
    """The rows as a structured array, field j named header[j] with dtypes[j]."""
    return np.array([tuple(row) for row in rows], dtype=list(zip(header, dtypes)))


def assert_same_bytes(got_path, want_path):
    """The two files hold the same bytes. A failure names the first differing
    offset with 40 bytes on either side: pytest's own diff of two ~100 kB
    files, redone at every hypothesis shrink step, took about 1 GB."""
    got, want = got_path.read_bytes(), want_path.read_bytes()
    at = None
    if got != want:
        n = min(len(got), len(want))
        diff = np.flatnonzero(np.frombuffer(got[:n], np.uint8) != np.frombuffer(want[:n], np.uint8))
        at = int(diff[0]) if diff.size else n
        window = slice(max(at - 40, 0), at + 40)
        got, want = got[window], want[window]
    assert got == want, f"{got_path} first differs from {want_path} at byte {at}"


def assert_table_bytes(out_dir, table: np.ndarray, rows):
    """Both formats of one table, laid out as the CLI lays tables out,
    against the reference writers over ``rows``."""
    header = list(table.dtype.names)
    reference_csv(out_dir / "want.csv", header, rows, METADATA)
    # whole, and record by record as perfbench's traced CSV writer passes it on
    for given in (table, iter(table)):
        write_csv(out_dir / "got.csv", header, given, METADATA)
        assert_same_bytes(out_dir / "got.csv", out_dir / "want.csv")
    payload = {"columns": header, "rows": table, "metadata": METADATA}
    write_json(out_dir / "got.json", payload)
    reference_json(out_dir / "want.json", {**payload, "rows": rows})
    assert_same_bytes(out_dir / "got.json", out_dir / "want.json")


def assert_json_bytes(out_dir, payload):
    write_json(out_dir / "got.json", payload)
    reference_json(out_dir / "want.json", payload)
    assert_same_bytes(out_dir / "got.json", out_dir / "want.json")


class TestSameBytes:
    def test_mixed_rows_with_none_and_labels(self, tmp_path):
        # the dtypes np.asarray gives the columns of a coupling-grid table
        rows = [
            ["lambda", 0.2, np.float64(0.5), 1, None],
            ["lambda", 0.1, np.float64(-0.25), np.int64(2), None],
            ["extrapolation", 0.0, None, 3, 1.5e-17],
        ]
        header = ["row", "lambda", "prob", "n", "fit_residual"]
        assert_table_bytes(tmp_path, as_table(header, rows, ["U13", "f8", "O", "i8", "O"]), rows)

    def test_str_cells_that_need_quoting(self, tmp_path):
        cells = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "plain", "", " lead"]
        rows = [[c, i] for i, c in enumerate(cells)]
        assert_table_bytes(tmp_path, as_table(["label, quoted", "i"], rows, ["U16", "i8"]), rows)

    def test_bool_and_numpy_scalar_cells(self, tmp_path):
        # Python bools in an object field are cells (JSON true/false), unlike a bool field's 0/1
        rows = [
            [True, np.float64(1.5), np.int64(3), np.float32(0.1), np.int32(-4), 2.5, 7],
            [False, np.float64(-0.0), np.int64(-7), np.float32(2.0), np.int32(5), np.float64(3.0), np.int64(8)],
        ]
        table = as_table(list("abcdefg"), rows, ["O", "f8", "i8", "f4", "i4", "f8", "i8"])
        assert_table_bytes(tmp_path, table, rows)

    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_nan_and_infinities(self, tmp_path, kind):
        values = [1.0, math.nan, math.inf, -math.inf, -0.0]
        rows = [[kind(v), kind(-v), i] for i, v in enumerate(values)]
        dtype = "O" if kind is np.float64 else "f8"
        assert_table_bytes(tmp_path, as_table(["x", "minus_x", "i"], rows, [dtype, dtype, "i8"]), rows)

    def test_zero_rows(self, tmp_path):
        assert_table_bytes(tmp_path, as_table(["x", "postselected"], [], ["f8", "?"]), [])

    def test_zero_fields(self, tmp_path):
        assert_table_bytes(tmp_path, np.zeros(3, dtype=[]), [[], [], []])

    def test_one_column_with_empty_cells(self, tmp_path):
        # csv.writer quotes a row's only field when it is empty
        rows = [[None], [""], [1.0], ["x"]]
        assert_table_bytes(tmp_path, as_table(["value"], rows, ["O"]), rows)

    def test_nested_and_complex_cells(self, tmp_path):
        rows = [[1 + 2j, [0.5, None], "a"], [np.complex128(-1j), [1, 2], "b"]]
        assert_table_bytes(tmp_path, as_table(["z", "pair", "label"], rows, ["O", "O", "O"]), rows)

    @pytest.mark.parametrize("n", [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1])
    def test_chunk_boundaries(self, tmp_path, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        kept = (rng.random(n) < 0.3).astype(np.int64)
        rows = [list(r) for r in zip(x.tolist(), x, kept.tolist(), kept)]
        rows[-1][0] = None  # the None makes x an object field, written cell by cell
        table = as_table(["x", "x64", "kept", "kept64"], rows, ["O", "f8", "i8", "i8"])
        assert_table_bytes(tmp_path, table, rows)

    def test_non_table_payloads(self, tmp_path):
        assert_json_bytes(tmp_path, {})
        assert_json_bytes(
            tmp_path,
            {
                "means": (np.float64(0.25), None),
                "array": np.arange(3.0),
                "nested": {"z": 1, "a": [1.5, {"k": math.inf}], "empty": []},
                "weak_value": 1 - 2j,
                "label": 'quote " and é',
                "rows": [{"b": 1, "a": 2}, 3, [4.0]],
            },
        )
        assert_json_bytes(tmp_path, {"rows": "not a table", "metadata": METADATA})


# The ends of the range where orjson's notation is repr's, [1e-4, 1e16), the ends of its
# other notations below it (plain decimals down to 1e-5, one-digit exponents down to
# 1e-9), and their neighbours
NOTATION_EDGES = [
    float(np.nextafter(edge, toward)) for edge in (1e-4, 1e16, 1e-5, 1e-9) for toward in (0.0, math.inf)
]
SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e-300, 1e300, 1e16, 1e-5, 0.1,
    math.nan, math.inf, -math.inf,
    1e-4, 1e-9, *NOTATION_EDGES, 1e15, 9999999999999998.0, -1e-4, -9999999999999998.0,
]
floats = st.one_of(st.floats(allow_subnormal=True), st.sampled_from(SPECIAL_FLOATS))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("serialize")


@given(
    columns=st.lists(st.lists(floats, min_size=1, max_size=40), min_size=1, max_size=3),
    numpy_scalars=st.booleans(),
)
def test_random_float_columns(out_dir, columns, numpy_scalars):
    # numpy scalars go in object fields, written cell by cell; floats in float64 fields
    kind, dtype = (np.float64, "O") if numpy_scalars else (float, "f8")
    n = min(map(len, columns))
    rows = [[kind(col[i]) for col in columns] for i in range(n)]
    table = as_table([f"c{j}" for j in range(len(columns))], rows, [dtype] * len(columns))
    assert_table_bytes(out_dir, table, rows)


# Magnitudes only from the ranges on either side of orjson's notation changes: below
# 1e-9, one-digit exponents [1e-9, 1e-5), plain decimals [1e-5, 1e-4), exponents
# without a "+" from 1e16 up, and zero, NaN and infinity
TAIL_MAGNITUDES = st.one_of(
    st.floats(5e-324, 1e-9, exclude_max=True),
    st.floats(1e-9, 1e-5, exclude_max=True),
    st.floats(1e-5, 1e-4, exclude_max=True),
    st.floats(1e16, 1.7976931348623157e308),
    st.sampled_from([0.0, math.nan, math.inf]),
)
tail_floats = st.tuples(TAIL_MAGNITUDES, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


@settings(max_examples=40)
@given(
    n=st.sampled_from([_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1]),
    pools=st.lists(st.lists(tail_floats, min_size=1, max_size=12), min_size=1, max_size=3),
    runs=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_tail_float_columns(out_dir, n, pools, runs, seed):
    # runs: each pool value fills one stretch of rows, so some chunks hold a single range
    rng = np.random.default_rng(seed)
    table = np.empty(n, dtype=[(f"c{j}", "f8") for j in range(len(pools))])
    for j, pool in enumerate(pools):
        picks = rng.integers(len(pool), size=n)
        table[f"c{j}"] = np.array(pool)[np.sort(picks) if runs else picks]
    assert_table_bytes(out_dir, table, table.tolist())


# A column table is a structured array. Its reference rows are the cells the
# row-by-row writers were given: bools as the integers 0 and 1.
ROW_COUNTS = [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 3]
LABELS = np.array(["lambda", "extrapolation", None, "a,b", 'say "hi"', "", 1.5, -0.0, math.nan], dtype=object)
KIND_DTYPES = {"float": "f8", "repeated": "f8", "bool": "?", "int": "i8", "object": "O"}


def reference_rows(table: np.ndarray) -> list[list]:
    return [[int(v) if type(v) is bool else v for v in row] for row in table.tolist()]


def assert_column_table_bytes(out_dir, table: np.ndarray):
    assert_table_bytes(out_dir, table, reference_rows(table))


@settings(max_examples=60)
@given(
    n=st.sampled_from(ROW_COUNTS),
    kinds=st.lists(st.sampled_from(sorted(KIND_DTYPES)), min_size=1, max_size=4),
    pool=st.lists(floats, min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_tables(out_dir, n, kinds, pool, seed):
    rng = np.random.default_rng(seed)
    table = np.empty(n, dtype=[(f"c{j}", KIND_DTYPES[k]) for j, k in enumerate(kinds)])
    for j, kind in enumerate(kinds):
        if kind == "float":  # mostly distinct, over the whole exponent range
            values = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
            table[f"c{j}"] = np.concatenate([pool, values])[:n]
        elif kind == "repeated":  # few distinct values
            table[f"c{j}"] = rng.choice(np.array(pool), n)
        elif kind == "bool":
            table[f"c{j}"] = rng.random(n) < 0.5
        elif kind == "int":
            table[f"c{j}"] = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, n, dtype=np.int64, endpoint=True)
        else:
            table[f"c{j}"] = LABELS[rng.integers(len(LABELS), size=n)]
    assert_column_table_bytes(out_dir, table)


# Single-meter records: a float64 field x, with or without a bool field. Stretches of
# _CHUNK_ROWS rows take turns drawing x from floats orjson writes as repr does and
# from tail floats, NaN and infinities among them, which send a chunk to the per-cell
# route.
plain_floats = floats.filter(lambda v: abs(v) < 1e-9 or 1e-4 <= abs(v) < 1e16)


@settings(max_examples=60)
@given(
    n=st.sampled_from(ROW_COUNTS),
    plain=st.lists(plain_floats, min_size=1, max_size=8),
    tails=st.lists(tail_floats, min_size=1, max_size=8),
    flags=st.sampled_from(["none", "all 0", "all 1", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_record_tables(out_dir, n, plain, tails, flags, seed):
    rng = np.random.default_rng(seed)
    table = np.empty(n, dtype=_DTYPE_ONE if flags != "none" else [("x", "f8")])
    odd_chunk = np.arange(n) // _CHUNK_ROWS % 2 == 1
    table["x"] = np.where(odd_chunk, rng.choice(np.array(tails), n), rng.choice(np.array(plain), n))
    if flags != "none":
        table["postselected"] = {"all 0": False, "all 1": True, "random": rng.random(n) < 0.5}[flags]
    assert_column_table_bytes(out_dir, table)


def test_plain_records_take_the_byte_route(tmp_path, monkeypatch):
    # a chunk that fell back to the per-cell route would reach _float_texts
    rng = np.random.default_rng(20)
    table = np.empty(70_000, dtype=_DTYPE_ONE)
    table["x"] = rng.normal(size=table.size)
    table["x"][np.abs(table["x"]) < 1e-4] += 1.0  # no |x| in [1e-9, 1e-4): every chunk is plain
    table["postselected"] = rng.random(table.size) < 0.3

    def per_cell_route(column):
        raise AssertionError("a plain records chunk was formatted cell by cell")

    monkeypatch.setattr(serialize, "_float_texts", per_cell_route)
    assert_column_table_bytes(tmp_path, table)


# Finite floats orjson writes in another notation than repr: |x| in [1e-9, 1e-4) and
# from 1e16 up, their edges among them
finite_tail_floats = st.tuples(
    st.one_of(
        st.floats(1e-9, 1e-4, exclude_max=True),
        st.floats(1e16, 1.7976931348623157e308),
        st.sampled_from([1e-9, 1e-5, float(np.nextafter(1e-4, 0.0)), 1e16]),
    ),
    st.booleans(),
).map(lambda t: -t[0] if t[1] else t[0])
RECORD_ROW_COUNTS = [_CHUNK_ROWS - 1, _CHUNK_ROWS + 1, _RECORD_CHUNK_ROWS - 1, _RECORD_CHUNK_ROWS, _RECORD_CHUNK_ROWS + 1]


def per_cell_route(column):
    raise AssertionError("a finite records chunk was formatted cell by cell")


@settings(max_examples=40)
@given(
    n=st.sampled_from(RECORD_ROW_COUNTS),
    plain=st.lists(plain_floats | st.sampled_from([0.0, -0.0, 1e-4, -1e-4]), min_size=1, max_size=8),
    tails=st.lists(finite_tail_floats, min_size=1, max_size=8),
    share=st.sampled_from([1e-3, 0.1, 0.5, 1.0]),
    flags=st.sampled_from(["none", "all 0", "all 1", "random"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_finite_tail_records_take_the_byte_route(out_dir, n, plain, tails, share, flags, seed):
    # plain and tail floats mixed in every chunk, each chunk's first row a tail float
    rng = np.random.default_rng(seed)
    table = np.empty(n, dtype=_DTYPE_ONE if flags != "none" else [("x", "f8")])
    table["x"] = np.where(rng.random(n) < share, rng.choice(np.array(tails), n), rng.choice(np.array(plain), n))
    table["x"][::_CHUNK_ROWS] = tails[0]
    if flags != "none":
        table["postselected"] = {"all 0": False, "all 1": True, "random": rng.random(n) < 0.5}[flags]
    with mock.patch.object(serialize, "_float_texts", per_cell_route):
        assert_column_table_bytes(out_dir, table)


@pytest.mark.parametrize("flags", [False, True])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_records_with_nan_or_infinity_fall_back(tmp_path, monkeypatch, bad, flags):
    # the chunk holding the value is formatted cell by cell, the next one is not
    rng = np.random.default_rng(21)
    n = _RECORD_CHUNK_ROWS + 1
    table = np.empty(n, dtype=_DTYPE_ONE if flags else [("x", "f8")])
    table["x"] = rng.normal(size=n)
    table["x"][5] = bad
    if flags:
        table["postselected"] = rng.random(n) < 0.3
    sizes = []

    def counted(column):
        sizes.append(column.size)
        return _float_texts(column)

    monkeypatch.setattr(serialize, "_float_texts", counted)
    assert_column_table_bytes(tmp_path, table)
    # CSV whole, then record by record in _CHUNK_ROWS rows; JSON writes NaN and
    # infinities cell by cell, through json.dumps
    assert sizes == [_RECORD_CHUNK_ROWS, _CHUNK_ROWS]


class TestFloatTexts:
    def test_same_text_as_repr_over_the_float_range(self):
        rng = np.random.default_rng(15)
        bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 400_000, dtype=np.int64, endpoint=True)
        decades = np.arange(-320, 309)  # 1e-320 (subnormal) to 1e308, 1,000 values in each decade
        mantissas = rng.uniform(1.0, 10.0, (decades.size, 1000)) * rng.choice([-1.0, 1.0], (decades.size, 1000))
        with np.errstate(over="ignore"):  # 9.x * 1e308 is inf, which is kept as one more special value
            spread = (mantissas * 10.0 ** decades[:, None].astype(float)).ravel()
        values = np.concatenate([bits.view(np.float64), spread, [0.0, -0.0], SPECIAL_FLOATS])
        assert values.size > 10**6
        assert _float_texts(values) == list(map(float.__repr__, values.tolist()))

    def test_importing_the_cli_leaves_orjson_unloaded(self):
        # orjson is imported by the first config read or table written, so its
        # import is not part of importing the CLI
        proc = run_python("-c", "import sys, weakmeas.cli; print('orjson' in sys.modules)")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def reference_hash(config) -> str:
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# Floats from 5e-324 to 1e308, log-uniform and with the edges of orjson's notations
HASH_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
        st.sampled_from([1.0, -1.0]),
        st.floats(1.0, 10.0, exclude_max=True),
        st.integers(-323, 307),
    ),
    st.sampled_from(
        [0.0, -0.0, 5e-324, 1e308, *[s * e for s in (1.0, -1.0) for e in (1e-9, 1e-5, 1e-4, 1e16)]]
        + [math.nextafter(e, t) for e in (1e-9, 1e-5, 1e-4, 1e16) for t in (0.0, math.inf)]
        + [10.00001, -200.000015, 100000.00001]  # "0.0000" inside repr's own text
    ),
)
# Ints around +-2**63 and 2**64 and up to 2**70
HASH_INTS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.builds(lambda edge, step: edge + step, st.sampled_from([2**63, -(2**63), 2**64, -(2**64)]), st.integers(-2, 2)),
)
# Strings of digits, signs, points and exponents, which a number fix must not touch
HASH_TEXT = st.text(alphabet="0123456789eE.-+:,[]{} \"\\ax", max_size=12) | st.text(max_size=4)
HASH_LEAVES = st.one_of(st.none(), st.booleans(), HASH_FLOATS, HASH_INTS, HASH_TEXT)


class TestConfigHash:
    @settings(max_examples=200)
    @given(
        st.dictionaries(
            HASH_TEXT,
            st.recursive(
                HASH_LEAVES,
                lambda inner: st.lists(inner, max_size=5) | st.dictionaries(HASH_TEXT, inner, max_size=4),
                max_leaves=30,
            ),
            max_size=6,
        ),
        st.fixed_dictionaries({}, optional={"grid": st.fixed_dictionaries({"xmin": HASH_FLOATS, "xmax": HASH_FLOATS, "points": HASH_INTS})}),
    )
    def test_same_hash_as_json_dumps(self, config, grid):
        config = {**config, **grid}
        assert serialize.config_hash(config) == reference_hash(config)

    def test_non_finite_and_non_ascii_configs(self):
        for config in ({"x": math.nan}, {"x": [-math.inf, 1e-7]}, {"é": 1e16}, {"x": "\x7f"}, {"x": "\n1e5"}, {"x": 2**70}):
            assert serialize.config_hash(config) == reference_hash(config)

    def test_number_fixes_skip_json_dumps(self):
        # every notation orjson writes differently is fixed in its own text
        config = {"a": [1e-7, -1.5e-5, 1e-4, 9.99e-5, 1e16, -2.5e300, 5e-324, 0.1, 10.00001], "b": "xprime", "n": 2**64 - 1}
        want = reference_hash(config)
        with mock.patch.object(json, "dumps", side_effect=AssertionError):
            assert serialize.config_hash(config) == want


class TestColumnTables:
    def test_signed_zeros_stay_apart_in_repeated_columns(self, tmp_path):
        table = np.zeros(_CHUNK_ROWS + 1, dtype=[("x", "f8"), ("kept", "?")])
        table["x"][::2] = -0.0
        assert_column_table_bytes(tmp_path, table)
        lines = (tmp_path / "got.csv").read_text().splitlines()
        assert lines[1:3] == ["-0.0,0", "0.0,0"]

    def test_grid_columns_as_the_cli_writes_them(self, tmp_path):
        xs = np.linspace(-6.1, 6.1, 101)
        table = np.empty(xs.size**2, dtype=[("x1", "f8"), ("x2", "f8"), ("density", "f8")])
        table["x1"], table["x2"] = np.repeat(xs, xs.size), np.tile(xs, xs.size)
        table["density"] = np.exp(-table["x1"] ** 2 - table["x2"] ** 2)
        assert_column_table_bytes(tmp_path, table)


class TestSimulateRecords:
    """``simulate`` output against the reference writers fed record by record."""

    TRIALS = 70_000  # two Monte Carlo blocks and many write chunks

    @pytest.mark.parametrize("protocol", ["sequential", "single"])
    def test_records_match_reference_writers(self, tmp_path, protocol):
        doc = {
            "protocol": protocol,
            "observable": [[0, 0], [1, 0], [1, 0], [0, 0]],
            "observable_b": [[1, 0], [0, 0], [0, 0], [-1, 0]],
            "psi": [[1, 0], [0, 0]],
            "phi": [[0.6, 0], [0, 0.8]],
            "lambda": 0.3,
            "trials": self.TRIALS,
            "seed": 11,
        }
        cfg = cli.parse_config("simulate", json.dumps(doc))
        records, stats = mc.run_plan(cli._build_plan(cfg.params))
        two = "x2" in records.dtype.names
        header = ["x", "x2", "postselected"] if two else ["x", "postselected"]
        rows = [
            [r["x"], r["x2"], int(r["postselected"])] if two else [r["x"], int(r["postselected"])]
            for r in records
        ]
        metadata = cli._metadata(cfg)
        want = tmp_path / "want"
        want.mkdir()
        reference_csv(want / "records.csv", header, rows, metadata)
        reference_json(want / "records.json", {"columns": header, "rows": rows, "metadata": metadata})
        reference_json(want / "stats.json", {**asdict(stats), "metadata": metadata})

        for fmt in ("csv", "json"):
            got = tmp_path / fmt
            assert cli.main(["simulate", "--config", json.dumps(doc), "--out", str(got), "--format", fmt]) == 0
            for name in (f"records.{fmt}", "stats.json"):
                assert_same_bytes(got / name, want / name)

        with open(tmp_path / "csv" / "records.csv", newline="") as fh:
            lines = [line for line in fh if not line.startswith("#")]
        csv_rows = [[float(v) for v in row] for row in csv.reader(lines[1:])]
        json_rows = json.loads((tmp_path / "json" / "records.json").read_text())["rows"]
        assert len(json_rows) == self.TRIALS
        assert json_rows == csv_rows
