"""Table writers: byte equality with the straightforward cell-by-cell writers.

``reference_csv`` and ``reference_json`` are the writers the chunked column
formatting replaced: ``csv.writer`` over ``format_cell`` cells, and
``json.dumps(jsonable(payload), sort_keys=True, indent=2)``. They take the
rows of each case; ``write_csv``/``write_json`` take the same rows as a
structured array, whole and (CSV) record by record, and must write the same
bytes.
"""

import csv
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weakmeas import cli
from weakmeas import montecarlo as mc
from conftest import run_python
from weakmeas.serialize import _CHUNK_ROWS, _float_texts, format_cell, jsonable, write_csv, write_json

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


def assert_table_bytes(out_dir, table: np.ndarray, rows):
    """Both formats of one table, laid out as the CLI lays tables out,
    against the reference writers over ``rows``."""
    header = list(table.dtype.names)
    reference_csv(out_dir / "want.csv", header, rows, METADATA)
    # whole, and record by record as perfbench's traced CSV writer passes it on
    for given in (table, iter(table)):
        write_csv(out_dir / "got.csv", header, given, METADATA)
        assert (out_dir / "got.csv").read_bytes() == (out_dir / "want.csv").read_bytes()
    payload = {"columns": header, "rows": table, "metadata": METADATA}
    write_json(out_dir / "got.json", payload)
    reference_json(out_dir / "want.json", {**payload, "rows": rows})
    assert (out_dir / "got.json").read_bytes() == (out_dir / "want.json").read_bytes()


def assert_json_bytes(out_dir, payload):
    write_json(out_dir / "got.json", payload)
    reference_json(out_dir / "want.json", payload)
    assert (out_dir / "got.json").read_bytes() == (out_dir / "want.json").read_bytes()


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
        # orjson is imported on the first table written; its 13 ms stay out of every command's start-up
        proc = run_python("-c", "import sys, weakmeas.cli; print('orjson' in sys.modules)")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


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
                assert (got / name).read_bytes() == (want / name).read_bytes(), name

        with open(tmp_path / "csv" / "records.csv", newline="") as fh:
            lines = [line for line in fh if not line.startswith("#")]
        csv_rows = [[float(v) for v in row] for row in csv.reader(lines[1:])]
        json_rows = json.loads((tmp_path / "json" / "records.json").read_text())["rows"]
        assert len(json_rows) == self.TRIALS
        assert json_rows == csv_rows
