"""CLI: config validation, dispatch, artifacts, determinism, exit codes."""

import contextlib
import csv
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from conftest import (
    UNRESOLVED_SPECTRUM,
    branch_sum_sequential,
    degenerate_observable,
    direct_x_density,
    random_observable,
    random_selection_pair,
    run_python,
)
import weakmeas
from weakmeas import cli
from weakmeas.cli import main, parse_config
from weakmeas.collective import CollectiveSetup
from weakmeas.core import Observable, PureState, weak_value
from weakmeas.errors import FileError, SchemaError
from weakmeas.pointer import gaussian_density
from weakmeas.protocols import (
    BRANCH_HALFWIDTH,
    MeasurementSetup,
    SequentialSetup,
    conditional_meter_state,
    density_spacing_limit,
    extrapolate_to_zero_coupling,
)

SX_JSON = [[0, 0], [1, 0], [1, 0], [0, 0]]
SY_JSON = [[0, 0], [0, -1], [0, 1], [0, 0]]
SZ_JSON = [[1, 0], [0, 0], [0, 0], [-1, 0]]
KET0 = [[1, 0], [0, 0]]
PHI68 = [[0.6, 0], [0.8, 0]]
BASE = {"observable": SX_JSON, "psi": KET0, "phi": PHI68}


def config(**kwargs) -> str:
    return json.dumps(kwargs)


class TestParseConfig:
    def test_minimal_weak_value(self):
        cfg = parse_config(
            "weak-value", config(observable=SX_JSON, psi=KET0, phi=PHI68)
        )
        assert cfg.command == "weak-value"
        assert cfg.params["observable"].dim == 2

    def test_non_hermitian_observable_names_field(self):
        bad = [[0, 0], [1, 0], [2, 0], [0, 0]]
        with pytest.raises(SchemaError) as err:
            parse_config("weak-value", config(observable=bad, psi=KET0, phi=PHI68))
        assert err.value.path == "observable"

    def test_seed_past_64_bits_stays_an_exact_int(self):
        # orjson 3.8 reads an integer past 2**64 - 1 as a float, 2**64 + 1 as
        # 1.8446744073709552e+19; json.loads keeps every digit, and so must any parser
        seed = 2**64 + 1
        cfg = parse_config(
            "simulate",
            config(protocol="threshold", observable=SX_JSON, psi=KET0, trials=10, seed=seed),
        )
        for value in (cfg.params["seed"], cfg.raw["seed"]):
            assert type(value) is int and value == seed

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError) as err:
            parse_config(
                "weak-value", config(observable=SX_JSON, psi=KET0, phi=PHI68, extra=1)
            )
        assert err.value.path == "extra"

    def test_missing_required_key(self):
        with pytest.raises(SchemaError) as err:
            parse_config("weak-value", config(observable=SX_JSON, psi=KET0))
        assert err.value.path == "phi"

    def test_malformed_state_entry(self):
        with pytest.raises(SchemaError) as err:
            parse_config(
                "weak-value",
                config(observable=SX_JSON, psi=[[1, 0], [0]], phi=PHI68),
            )
        assert err.value.path.startswith("psi")

    def test_states_normalized_on_input(self):
        cfg = parse_config(
            "weak-value",
            config(observable=SX_JSON, psi=[[3, 0], [0, 0]], phi=PHI68),
        )
        assert np.linalg.norm(cfg.params["psi"].amplitudes) == pytest.approx(1.0)

    def test_inline_and_file_sources(self, tmp_path):
        doc = config(observable=SX_JSON, psi=KET0, phi=PHI68)
        path = tmp_path / "cfg.json"
        path.write_text(doc)
        inline = parse_config("weak-value", doc)
        from_file = parse_config("weak-value", str(path))
        assert inline.raw == from_file.raw
        assert inline.hash == from_file.hash

    def test_missing_file(self):
        with pytest.raises(FileError):
            parse_config("weak-value", "/nonexistent/cfg.json")

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            parse_config("weak-value", "{not json")

    def test_overrides_take_precedence(self):
        cfg = parse_config(
            "density",
            config(observable=SX_JSON, psi=KET0, phi=PHI68),
            overrides={"lambda": 0.33, "basis": "xprime"},
        )
        assert cfg.params["lambda"] == 0.33
        assert cfg.params["basis"] == "xprime"

    @pytest.mark.parametrize(
        "command, doc", [("density", {}), ("simulate", {"protocol": "single"})], ids=["density", "simulate"]
    )
    def test_missing_key_refusal_is_the_same_under_every_hash_seed(self, command, doc):
        # the first missing required key in table order, not in the order of a set
        runs = {
            (proc.returncode, proc.stderr)
            for seed in range(1, 7)
            for proc in [run_python("-m", "weakmeas.cli", command, "--config", json.dumps(doc), PYTHONHASHSEED=str(seed))]
        }
        assert runs == {(2, "config error: observable: required key missing\n")}

    def test_defaults_fill_every_key_left_out(self):
        params = parse_config("simulate", config(protocol="threshold", observable=SX_JSON, psi=KET0)).params
        assert {k: params[k] for k in ("lambda", "trials", "seed", "threads", "threshold_multiple")} == {
            "lambda": 0.1, "trials": 100_000, "seed": 0, "threads": 1, "threshold_multiple": 100.0
        }
        params = parse_config("density", config(observable=SX_JSON, psi=KET0, phi=PHI68)).params
        assert {k: params[k] for k in ("basis", "target", "grid", "lambda_grid", "n_grid")} == {
            "basis": "x", "target": "re", "grid": (None, None, 512),
            "lambda_grid": (0.2, 0.1, 0.05, 0.025), "n_grid": (25, 50, 100, 200, 400),
        }

    @pytest.mark.parametrize("key, lowest", [("seed", 0), ("trials", 1), ("threads", 1)])
    def test_counts_take_their_lowest_value_and_refuse_below_it(self, key, lowest):
        doc = {"protocol": "threshold", "observable": SX_JSON, "psi": KET0}
        assert parse_config("simulate", config(**doc, **{key: lowest})).params[key] == lowest
        with pytest.raises(SchemaError) as err:
            parse_config("simulate", config(**doc, **{key: lowest - 1}))
        assert err.value.path == key

    @pytest.mark.parametrize(
        "command, doc, want, hash_",
        [
            (
                "simulate",
                {"protocol": "threshold", "observable": SX_JSON, "psi": KET0, "trials": 1e5, "seed": 3.0, "threads": 2.0},
                {"trials": 100_000, "seed": 3, "threads": 2},
                "3a98dc8c16292a26",
            ),
            ("collective", {**BASE, "n_grid": [25.0, 5e1]}, {"n_grid": (25, 50)}, "75b60e53e4622385"),
            ("density", {**BASE, "grid": {"points": 6e2}}, {"grid": (None, None, 600)}, "eaab43341af5fccd"),
        ],
        ids=["simulate counts", "collective n_grid", "density grid.points"],
    )
    def test_integral_floats_are_read_as_integers(self, command, doc, want, hash_):
        cfg = parse_config(command, json.dumps(doc))
        assert repr({key: cfg.params[key] for key in want}) == repr(want)  # ints, not floats
        assert cfg.hash == hash_  # the hash reads the document as written, 1e5 as 1e5

    def test_simulate_requires_phi_except_threshold(self):
        with pytest.raises(SchemaError) as err:
            parse_config(
                "simulate",
                config(protocol="single", observable=SX_JSON, psi=KET0),
            )
        assert err.value.path == "phi"
        cfg = parse_config(
            "simulate", config(protocol="threshold", observable=SX_JSON, psi=KET0)
        )
        assert cfg.params["protocol"] == "threshold"

    def test_threads_excluded_from_hash(self):
        a = parse_config(
            "simulate",
            config(protocol="threshold", observable=SX_JSON, psi=KET0, threads=1),
        )
        b = parse_config(
            "simulate",
            config(protocol="threshold", observable=SX_JSON, psi=KET0, threads=8),
        )
        assert a.hash == b.hash


class _Pair(list):
    """A pair that fails the bulk reader's exact type check, so
    ``_parse_complex_pairs`` checks it in its per-entry loop."""


def read_pairs(value):
    """(complex128 bytes, None) of ``_parse_complex_pairs``, or (None, refusal text)."""
    try:
        return cli._parse_complex_pairs(value, "pairs").tobytes(), None
    except SchemaError as exc:
        return None, str(exc)


# Numbers a pair entry can hold: ints near 2**53 (where float rounding starts) and
# past the float range, signed zeros, and floats from subnormals to the top
PAIR_NUMBERS = st.one_of(
    st.integers(-(2**54), 2**54),
    st.sampled_from([2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 2**63, 2**64 + 1, 10**308, 10**309, -(10**400)]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308]),
)

# JSON-native documents whose numbers span what json.loads reads exactly: ints
# around +-2**63 and 2**64 and up to 2**70, every finite float, and keys and
# strings of digits, exponents and non-ASCII text
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63), -(2**63) - 1, -(2**64)]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(alphabet="0123456789eE.-+ \"aé", max_size=8),
)
JSON_DOCUMENTS = st.dictionaries(
    st.text(max_size=6),
    st.recursive(
        JSON_LEAVES,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=20,
    ),
    max_size=6,
)

SX_TEXT = json.dumps({"observable": SX_JSON, "psi": KET0, "phi": PHI68})[1:-1]
# Documents orjson refuses or may read otherwise than json.loads, each with the
# command that reads it
FALLBACK_DOCUMENTS = {
    "NaN": ("density", "{" + SX_TEXT + ', "lambda": NaN}'),
    "Infinity": ("density", "{" + SX_TEXT + ', "lambda": -Infinity}'),
    "1e400": ("density", "{" + SX_TEXT + ', "lambda": 1e400}'),
    "escaped lone surrogate": ("density", "{" + SX_TEXT + ', "basis": "\\ud800"}'),
    "lone surrogate": ("density", "{" + SX_TEXT + ', "basis": "\ud800"}'),
    "BOM": ("weak-value", "\ufeff{" + SX_TEXT + "}"),
    "trailing garbage": ("weak-value", "{" + SX_TEXT + "} x"),
    "unclosed": ("weak-value", "{" + SX_TEXT),
    "duplicate keys": ("density", "{" + SX_TEXT + ', "lambda": 0.5, "lambda": 0.25}'),
    "20-digit negative int": ("simulate", "{" + SX_TEXT + ', "protocol": "single", "threads": -12345678901234567890}'),
    "20-digit negative lambda": ("density", "{" + SX_TEXT + ', "lambda": -12345678901234567890}'),
    "20-digit int in a pair": ("weak-value", "{" + SX_TEXT.replace("[1, 0]", "[12345678901234567890, 0]", 1) + "}"),
}


def parse_outcome(command: str, source: str):
    """What ``parse_config`` makes of a document: the refusal's class and text,
    or the exact repr of the hashed document and its hash."""
    try:
        cfg = parse_config(command, source)
    except (SchemaError, FileError) as exc:
        return type(exc).__name__, str(exc)
    return repr(cfg.raw), cfg.hash


class TestConfigIntake:
    """The bulk readers give what the json.loads and per-entry readers gave."""

    @settings(max_examples=300)
    @given(st.lists(st.tuples(PAIR_NUMBERS, PAIR_NUMBERS), min_size=1, max_size=20))
    def test_bulk_pairs_match_the_loop_bit_for_bit(self, entries):
        """The bulk read gives each entry's complex(float(re), float(im)), as
        the per-entry reader did; where it is refused, the loop words the
        refusal, and a list of pairs the loop finds no fault in is refused whole."""
        value = [list(entry) for entry in entries]
        got = read_pairs(value)
        looped = read_pairs([_Pair(entry) for entry in entries])
        if got[0] is None:
            assert looped == got
        else:
            assert got[0] == np.array([complex(float(a), float(b)) for a, b in entries]).tobytes()
            assert looped == read_pairs([])

    @pytest.mark.parametrize(
        "value",
        [
            [[True, 0], [0, 0]],
            [[0, 0], [0, "1"]],
            [[0, 0], [0]],
            [[0, 0], (0, 0)],
            [[0, 0], [0, None]],
            [[0, 0], [math.nan, 0]],
            [[0, 0], [0, -math.inf]],
            [[0, 0], [10**400, 0]],
            [],
            {"re": 0},
        ],
        ids=["bool", "str", "short", "tuple", "None", "nan", "-inf", "past the float range", "empty", "dict"],
    )
    def test_refusals_are_worded_by_the_loop(self, value):
        got = read_pairs(value)
        assert got[0] is None
        if isinstance(value, list) and value:
            assert got == read_pairs([_Pair(item) if isinstance(item, list) else item for item in value])

    @settings(max_examples=150)
    @given(JSON_DOCUMENTS, st.sampled_from([None, 2, "\t"]))
    def test_documents_read_as_json_loads_reads_them(self, doc, indent):
        text = json.dumps(doc, indent=indent)
        assert repr(cli.load_config_document(text)) == repr(json.loads(text))

    @pytest.mark.parametrize("case", sorted(FALLBACK_DOCUMENTS))
    def test_fallback_documents_as_json_loads_reads_them(self, tmp_path, case):
        command, source = FALLBACK_DOCUMENTS[case]
        if not source.startswith("{"):  # a BOM: inline text must start with "{", so read it from a file
            (tmp_path / "config.json").write_text(source, "utf-8")
            source = str(tmp_path / "config.json")
        got = parse_outcome(command, source)
        with mock.patch.object(cli, "_orjson_document", return_value=None):
            want = parse_outcome(command, source)
        assert got == want

    def test_plain_configs_take_orjson(self):
        # a config of plain numbers reaches neither json.loads nor json.dumps, not
        # even with 19 or more digits after a point
        obs = [[0.0012345678901234567, 0], [1e-7, 2**59], [1e-7, -(2**59)], [1.5e-5, 0]]
        text = config(observable=obs, psi=KET0, phi=PHI68, lambda_grid=[1e16, 0.25])
        want = parse_config("kick", text)
        with (
            mock.patch.object(json, "loads", side_effect=AssertionError),
            mock.patch.object(json, "dumps", side_effect=AssertionError),
        ):
            got = parse_config("kick", text)
            assert got.hash == want.hash
        assert repr(got.raw) == repr(want.raw)

    def test_importing_the_cli_leaves_three_layers_unloaded(self):
        # collective, lindblad and montecarlo are imported by the commands that use them
        script = (
            "import sys, weakmeas.cli; "
            "print(sorted(m for m in sys.modules if m in ('weakmeas.collective', 'weakmeas.lindblad', 'weakmeas.montecarlo')))"
        )
        proc = run_python("-c", script)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")

    @pytest.mark.parametrize(
        "command, doc",
        [("postselect-prob", {}), ("density", {"observable": [[0, 0], [1000, 0], [1000, 0], [0, 0]], "lambda": 1})],
        ids=["lambda scan", "far-apart density branches"],
    )
    def test_commands_leave_numpy_ma_unloaded(self, tmp_path, command, doc):
        # np.unique imports numpy.ma (about 1.6 MB) on first use
        argv = [command, "--config", json.dumps({"observable": SX_JSON, "psi": KET0, "phi": PHI68, **doc})]
        script = f"import sys, weakmeas.cli; code = weakmeas.cli.main({[*argv, '--out', str(tmp_path)]!r}); "
        proc = run_python("-c", script + "print(code, 'numpy.ma' in sys.modules)")
        assert (proc.stdout.splitlines()[-1], proc.stderr) == ("0 False", "")

    def test_package_names_load_on_first_use(self):
        script = (
            "import weakmeas; from weakmeas import run_plan, CollectiveSetup, gdi_diagnostic; "
            "import weakmeas.montecarlo as mc; print(run_plan is mc.run_plan, 'gdi_diagnostic' in dir(weakmeas), "
            "weakmeas.lindblad.__name__, hasattr(weakmeas, 'no_such_name'))"
        )
        proc = run_python("-c", script)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True True weakmeas.lindblad False\n", "")

    def test_every_lazy_name_resolves_and_is_listed(self):
        # a name left in _LAZY after it leaves its module fails here, not on a user's first use
        listed = dir(weakmeas)
        for module, names in weakmeas._LAZY.items():
            for name in (module, *names):
                assert name in listed, name
                getattr(weakmeas, name)


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        code = main(
            [
                "weak-value",
                "--config",
                config(observable=SX_JSON, psi=KET0, phi=PHI68),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "weak_value_re=" in out

    @staticmethod
    def _pairs(matrix) -> list:
        return [[float(v.real), float(v.imag)] for v in np.asarray(matrix).ravel()]

    def test_density_at_spectral_scale_1e8(self, tmp_path, capsys):
        rng = np.random.default_rng(16)
        obs = random_observable(rng, 16).matrix * 1e8
        psi, phi = random_selection_pair(rng, 16)
        doc = config(
            observable=self._pairs(obs),
            psi=self._pairs(psi.amplitudes),
            phi=self._pairs(phi.amplitudes),
        )
        assert main(["density", "--config", doc, "--out", str(tmp_path)]) == 0
        mean = float(capsys.readouterr().out.split("conditional_mean=")[1].split()[0])
        assert math.isfinite(mean)

    def test_unresolved_spectrum_is_3(self, tmp_path, capsys):
        ket = [[1, 0], [0, 0], [0, 0], [0, 0]]
        plus = [[0.5, 0], [0.5, 0], [0.5, 0], [0.5, 0]]
        doc = config(observable=self._pairs(UNRESOLVED_SPECTRUM), psi=ket, phi=plus)
        assert main(["density", "--config", doc, "--out", str(tmp_path)]) == 3
        assert "not distinct" in capsys.readouterr().err

    def test_config_error_is_2(self, tmp_path):
        code = main(
            [
                "weak-value",
                "--config",
                config(observable=[[0, 0], [1, 0], [2, 0], [0, 0]], psi=KET0, phi=PHI68),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("content", [b"\xff{}", b'{"psi": "\xe9"}', b"\xfe\xff\x00{\x00}"])
    def test_config_file_not_utf8_is_2(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        assert main(["weak-value", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "not valid UTF-8" in capsys.readouterr().err

    def test_domain_error_is_3(self, tmp_path):
        code = main(
            [
                "weak-value",
                "--config",
                config(observable=SX_JSON, psi=KET0, phi=[[0, 0], [1, 0]]),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 3

    def test_numeric_quality_error_is_4(self, tmp_path):
        # a threshold a million couplings out keeps no runs
        code = main(
            [
                "simulate",
                "--config",
                config(
                    protocol="threshold",
                    observable=SX_JSON,
                    psi=KET0,
                    threshold_multiple=1e6,
                ),
                "--trials",
                "1000",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 4

    def test_collective_profile_off_the_grid_is_4(self, tmp_path, capsys):
        phi = [[0.3, 0], [0, math.sqrt(0.91)]]
        code = main(
            [
                "collective",
                "--config",
                config(observable=SX_JSON, psi=KET0, phi=phi, n_grid=[1000000]),
                "--lambda",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 4
        assert "grid edge" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["postselect-prob", "kick", "sequential"])
    def test_zero_in_lambda_grid_is_3(self, tmp_path, capsys, command):
        # each of these tables divides by lambda or lambda^2
        code = main(
            [
                command,
                "--config",
                config(observable=SX_JSON, observable_b=SY_JSON, psi=KET0, phi=PHI68)
                if command == "sequential"
                else config(observable=SX_JSON, psi=KET0, phi=PHI68),
                "--lambda-grid",
                "0,0.1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 3
        assert "zero or subnormal" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["1e-160", "1e-170"])
    def test_lindblad_lambda_sq_below_normal_is_3(self, tmp_path, capsys, lam):
        # lambda^2 is subnormal at 1e-160 and zero at 1e-170
        code = main(
            [
                "lindblad",
                "--config",
                config(observable=SX_JSON, psi=KET0, phi=PHI68),
                "--lambda",
                lam,
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 3
        assert "zero or subnormal" in capsys.readouterr().err

    def test_lindblad_zero_lambda_reports_zeros(self, tmp_path):
        code = main(
            [
                "lindblad",
                "--config",
                config(observable=SX_JSON, psi=KET0, phi=PHI68),
                "--lambda",
                "0",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "gdi.json").read_text())
        assert report["mean_full"] == report["integrated_error_over_coupling_sq"] == 0.0


class TestParser:
    def test_one_parser_serves_every_call(self, tmp_path):
        # the argparse tree is built once per process; a flag given to one
        # call must not leak into the next
        assert cli._parser() is cli._parser()
        args = [
            "simulate",
            "--config",
            config(protocol="single", observable=SX_JSON, psi=KET0, phi=PHI68),
            "--trials",
            "100",
        ]
        assert main([*args, "--seed", "3", "--out", str(tmp_path / "a")]) == 0
        assert main([*args, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "records.csv").read_text().endswith(" seed=3\n")
        assert (tmp_path / "b" / "records.csv").read_text().endswith(" seed=0\n")

    def test_bad_flag_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["weak-value", "--config", "{}", "--no-such-flag"])
        assert exc.value.code == 2
        assert "--no-such-flag" in capsys.readouterr().err


def read_rows(out_dir, name: str, fmt: str) -> list[list]:
    """Rows of a written table; empty CSV cells read as None, numbers as floats."""
    if fmt == "json":
        return json.loads((out_dir / f"{name}.json").read_text())["rows"]
    lines = (out_dir / f"{name}.csv").read_text().splitlines()[1:-1]
    cell = lambda v: None if v == "" else v if v[0].isalpha() else float(v)
    return [[cell(v) for v in ln.split(",")] for ln in lines]


class TestArtifacts:
    def test_density_integrates_to_one(self, tmp_path):
        code = main(
            [
                "density",
                "--config",
                config(observable=SX_JSON, psi=KET0, phi=PHI68),
                "--lambda",
                "0.1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "density.csv").read_text().splitlines()
        assert lines[0] == "x,density"
        assert lines[-1].startswith("# config_sha256=")
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:-1]])
        integral = np.trapezoid(data[:, 1], data[:, 0])
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_density_tiny_lambda_mean_is_weak_value_shift(self, tmp_path, capsys):
        # lambda Re(A_w) = 1.33e-13, with the branch centres 2e-13 apart
        code = main(
            [
                "density",
                "--config",
                config(observable=SX_JSON, psi=KET0, phi=PHI68),
                "--lambda",
                "1e-13",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "conditional_mean=1.3333333333333336e-13 " in capsys.readouterr().out

    def test_lindblad_tiny_lambda_means_agree(self, tmp_path):
        code = main(
            [
                "lindblad",
                "--config",
                config(observable=SX_JSON, psi=KET0, phi=PHI68),
                "--lambda",
                "1e-150",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "gdi.json").read_text())
        assert report["mean_full"] == pytest.approx(report["mean_pw"], rel=1e-12, abs=0.0)

    def test_lambda_grid_emits_extrapolation_row(self, tmp_path):
        code = main(
            [
                "kick",
                "--config",
                config(observable=SX_JSON, psi=KET0, phi=[[1, 0], [0, 1]]),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "kick.csv").read_text().splitlines()
        kinds = [ln.split(",")[0] for ln in lines[1:-1]]
        assert kinds.count("lambda") == 4
        assert kinds[-1] == "extrapolation"

    def test_json_format(self, tmp_path):
        code = main(
            [
                "density",
                "--config",
                config(observable=SX_JSON, psi=KET0, phi=PHI68),
                "--format",
                "json",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "density.json").read_text())
        assert doc["columns"] == ["x", "density"]
        assert "config_sha256=" in doc["metadata"]

    def test_simulate_writes_records_and_stats(self, tmp_path):
        code = main(
            [
                "simulate",
                "--config",
                config(
                    protocol="kick",
                    observable=SX_JSON,
                    psi=KET0,
                    phi=[[1, 0], [0, 1]],
                ),
                "--trials",
                "5000",
                "--seed",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert lines[0] == "x,postselected"
        assert len(lines) == 5000 + 2  # header + rows + metadata
        stats = json.loads((tmp_path / "stats.json").read_text())
        assert stats["n_total"] == 5000

    def test_collective_four_levels_default_n_grid(self, tmp_path):
        diag = [[0.1, 0], [0, 0], [0, 0], [0, 0]]
        diag += [[0, 0], [0.4, 0], [0, 0], [0, 0]]
        diag += [[0, 0], [0, 0], [0.7, 0], [0, 0]]
        diag += [[0, 0], [0, 0], [0, 0], [1.0, 0]]
        uniform = [[0.5, 0]] * 4
        phi = [[0.5, 0], [0.5, 0], [0, 0.5], [0, -0.5]]
        code = main(
            [
                "collective",
                "--config",
                config(observable=diag, psi=uniform, phi=phi),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        lines = (tmp_path / "collective.csv").read_text().splitlines()
        assert lines[0] == "n,metric,value"
        assert len(lines) == 1 + 15 + 1  # header + 5 N values x 3 metrics + metadata

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_collective_n_past_int64_is_written_in_full(self, tmp_path, fmt):
        # beside smaller ints, numpy would read 2**63 as a float64 (9.223372036854776e+18)
        n_grid = [10, 2**63]
        doc = config(observable=SX_JSON, psi=KET0, phi=PHI68, n_grid=n_grid)
        assert main(["collective", "--config", doc, "--out", str(tmp_path), "--format", fmt]) == 0
        if fmt == "json":
            ns = [row[0] for row in read_rows(tmp_path, "collective", fmt)]
        else:
            ns = [int(ln.split(",")[0]) for ln in (tmp_path / "collective.csv").read_text().splitlines()[1:-1]]
        assert ns == [n for n in n_grid for _ in range(3)]

    def test_collective_d16_default_n_grid_matches_direct_kernel(self, tmp_path, rng):
        pairs = lambda z: [[float(v.real), float(v.imag)] for v in np.ravel(z)]
        psi, phi = random_selection_pair(rng, 16)
        doc = config(
            observable=pairs(random_observable(rng, 16).matrix),
            psi=pairs(psi.amplitudes),
            phi=pairs(phi.amplitudes),
            **{"lambda": 1.0},
        )
        assert main(["collective", "--config", doc, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "collective.csv").read_text().splitlines()
        gaps = {
            int(n): float(v)
            for n, metric, v in (ln.split(",") for ln in lines[1:] if not ln.startswith("#"))
            if metric == "x_density_supnorm_gap"
        }
        assert sorted(gaps) == list(cli.DEFAULT_N_GRID)
        p = parse_config("collective", doc).params
        a_w = weak_value(p["observable"], p["psi"], p["phi"]).value
        xs = np.linspace(a_w.real - 8.0, a_w.real + 8.0, 512)
        for n, gap in gaps.items():
            cs = CollectiveSetup(p["observable"], 1.0, p["psi"], p["phi"], n)
            want = np.max(np.abs(direct_x_density(cs, xs) - gaussian_density(xs - a_w.real)))
            assert gap == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("basis", ["x", "xprime"])
    def test_sequential_d16_matches_branch_sum_oracle(self, tmp_path, rng, fmt, basis):
        pairs = lambda z: [[float(v.real), float(v.imag)] for v in np.ravel(z)]
        psi, phi = random_selection_pair(rng, 16)
        doc = config(
            observable=pairs(random_observable(rng, 16).matrix),
            observable_b=pairs(random_observable(rng, 16).matrix),
            psi=pairs(psi.amplitudes),
            phi=pairs(phi.amplitudes),
            basis=basis,
        )
        assert main(["sequential", "--config", doc, "--out", str(tmp_path), "--format", fmt]) == 0
        p = parse_config("sequential", doc).params
        bases = (basis, basis)
        rows = read_rows(tmp_path, "sequential", fmt)
        assert len(rows) == len(cli.DEFAULT_LAMBDA_GRID) + 1
        coeffs = []
        for (kind, lam, cov, coeff, resid), want_lam in zip(rows, cli.DEFAULT_LAMBDA_GRID):
            sq = SequentialSetup(p["observable"], lam, p["observable_b"], lam, p["psi"], p["phi"], bases)
            want = branch_sum_sequential(sq, 0.0, 0.0)
            (m1, m2), m12 = want["means"], want["cross_moment"]
            scale = 1e-12 * (abs(m12) + abs(m1 * m2))
            assert (kind, lam, resid) == ("lambda", want_lam, None)
            assert cov == pytest.approx(m12 - m1 * m2, abs=scale)
            assert coeff == pytest.approx((m12 - m1 * m2) / (lam * lam / 2.0), abs=scale / (lam * lam / 2.0))
            coeffs.append((m12 - m1 * m2) / (lam * lam / 2.0))
        intercept, resid = extrapolate_to_zero_coupling(cli.DEFAULT_LAMBDA_GRID, coeffs)
        assert rows[-1][:3] == ["extrapolation", 0.0, None]
        assert rows[-1][3:] == pytest.approx([intercept, resid], abs=1e-12)

        lam = cli.DEFAULT_LAMBDA
        xs = np.linspace(-6.0 - lam, 6.0 + lam, 101)
        sq = SequentialSetup(p["observable"], lam, p["observable_b"], lam, p["psi"], p["phi"], bases)
        want = branch_sum_sequential(sq, xs, xs)["density"]
        x1, x2, dens = np.array(read_rows(tmp_path, "sequential_density", fmt)).T
        assert np.array_equal(x1, np.repeat(xs, xs.size)) and np.array_equal(x2, np.tile(xs, xs.size))
        assert np.max(np.abs(dens - want.ravel())) <= 1e-12 * np.max(want)

    def test_anomalous_summary_values(self, tmp_path, capsys):
        code = main(
            [
                "anomalous",
                "--config",
                config(observable=SX_JSON, epsilon=0.01, target="re"),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        fields = dict(kv.split("=") for kv in out.split()[1:])
        assert float(fields["weak_value_re"]) == pytest.approx(99.995, abs=1e-3)
        assert float(fields["overlap_sq"]) == pytest.approx(1e-4, rel=1e-6)

    def test_disturbance_report_json(self, tmp_path):
        code = main(
            [
                "disturbance",
                "--config",
                config(observable=SX_JSON, psi=KET0, phi=PHI68),
                "--lambda",
                "0.3",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "disturbance.json").read_text())
        assert doc["identity_residual"] <= 1e-12
        assert doc["nonselective_purity"] < 1.0


class TestDeterminism:
    @pytest.mark.parametrize("threads", ["1", "8"])
    def test_simulate_reruns_byte_identical(self, tmp_path, threads):
        args = lambda out: [
            "simulate",
            "--config",
            config(
                protocol="single",
                observable=SX_JSON,
                psi=KET0,
                phi=PHI68,
                trials=50_000,
            ),
            "--seed",
            "42",
            "--threads",
            threads,
            "--out",
            out,
        ]
        assert main(args(str(tmp_path / "a"))) == 0
        assert main(args(str(tmp_path / "b"))) == 0
        rec_a = (tmp_path / "a" / "records.csv").read_bytes()
        rec_b = (tmp_path / "b" / "records.csv").read_bytes()
        assert rec_a == rec_b
        assert (tmp_path / "a" / "stats.json").read_bytes() == (
            tmp_path / "b" / "stats.json"
        ).read_bytes()

    def test_thread_counts_agree_bytewise(self, tmp_path):
        base = config(
            protocol="sequential",
            observable=SX_JSON,
            observable_b=SY_JSON,
            psi=KET0,
            phi=PHI68,
            trials=70_000,
        )
        for threads, out in (("1", "t1"), ("8", "t8")):
            assert (
                main(
                    [
                        "simulate",
                        "--config",
                        base,
                        "--seed",
                        "9",
                        "--threads",
                        threads,
                        "--out",
                        str(tmp_path / out),
                    ]
                )
                == 0
            )
        assert (tmp_path / "t1" / "records.csv").read_bytes() == (
            tmp_path / "t8" / "records.csv"
        ).read_bytes()


D3_JSON = [[1, 0], [0, 0], [0, 0], [0, 0], [2, 0], [0, 0], [0, 0], [0, 0], [3, 0]]
MISMATCH = {"observable": D3_JSON, "psi": KET0, "phi": PHI68}
PHI_COMPLEX = [[0.3, 0], [0, math.sqrt(0.91)]]
SX_1E200 = [[0, 0], [1e200, 0], [1e200, 0], [0, 0]]  # |A_w|^2 overflows float64
SX_200 = [[0, 0], [200, 0], [200, 0], [0, 0]]  # branches at +-200 for lambda = 1
SX_500 = [[0, 0], [500, 0], [500, 0], [0, 0]]
NAN, INF = math.nan, math.inf
CONFIG, DOMAIN, QUALITY = "config error: ", "domain error: ", "numeric-quality error: "

# (command, config, extra flags, exit code, stderr prefix)
REFUSALS = {
    "weak-value dimensions": ("weak-value", MISMATCH, [], 3, DOMAIN),
    "collective dimensions": ("collective", MISMATCH, [], 3, DOMAIN),
    "lindblad dimensions": ("lindblad", MISMATCH, [], 3, DOMAIN),
    "threshold dimensions": ("threshold", {"observable": D3_JSON, "psi": KET0}, [], 3, DOMAIN),
    "simulate observable_b dimensions": (
        "simulate", {**BASE, "observable_b": D3_JSON, "protocol": "sequential", "trials": 100}, [], 3, DOMAIN
    ),
    "density lambda NaN": ("density", {**BASE, "lambda": NAN}, [], 2, CONFIG),
    "density lambda Infinity": ("density", {**BASE, "lambda": INF}, [], 2, CONFIG),
    "lindblad lambda NaN": ("lindblad", {**BASE, "lambda": NAN}, [], 2, CONFIG),
    "lindblad lambda Infinity": ("lindblad", {**BASE, "lambda": -INF}, [], 2, CONFIG),
    "disturbance lambda NaN": ("disturbance", {**BASE, "lambda": NAN}, [], 2, CONFIG),
    "disturbance lambda Infinity": ("disturbance", {**BASE, "lambda": INF}, [], 2, CONFIG),
    "collective --lambda nan": ("collective", BASE, ["--lambda", "nan"], 2, CONFIG),
    "simulate single lambda NaN": ("simulate", {**BASE, "protocol": "single", "lambda": NAN}, [], 2, CONFIG),
    "simulate kick lambda NaN": ("simulate", {**BASE, "protocol": "kick", "lambda": NAN}, [], 2, CONFIG),
    "density grid.xmin NaN": ("density", {**BASE, "grid": {"xmin": NAN}}, [], 2, CONFIG),
    "threshold multiple NaN": ("threshold", {"observable": SX_JSON, "psi": KET0, "threshold_multiple": NAN}, [], 2, CONFIG),
    "density lambda past the float range": ("density", {**BASE, "lambda": 10**400}, [], 2, CONFIG),
    # a pair entry takes every other number's rule, and the refusal names the entry
    "weak-value observable entry past the float range": (
        "weak-value", {**BASE, "observable": [[0, 0], [10**400, 0], [1, 0], [0, 0]]}, [], 2, CONFIG + "observable[1]: "
    ),
    "weak-value bool observable entry": (
        "weak-value", {**BASE, "observable": [[True, 0], *SX_JSON[1:]]}, [], 2, CONFIG + "observable[0]: "
    ),
    "weak-value phi entry past the float range": (
        "weak-value", {**BASE, "phi": [[0, 0], [0, -(10**400)]]}, [], 2, CONFIG + "phi[1]: "
    ),
    "sequential lambda": ("sequential", {**BASE, "observable_b": SY_JSON}, ["--lambda", "0.3"], 2, CONFIG),
    "kick NaN in lambda_grid": ("kick", {**BASE, "lambda_grid": [0.1, NAN]}, [], 2, CONFIG),
    "kick one coupling": ("kick", BASE, ["--lambda-grid", "0.1"], 2, CONFIG),
    "kick couplings of one |lambda|": ("kick", BASE, ["--lambda-grid", "0.1,-0.1"], 2, CONFIG),
    "threshold repeated coupling": ("threshold", {"observable": SX_JSON, "psi": KET0}, ["--lambda-grid", "0,0"], 2, CONFIG),
    "anomalous epsilon 0": ("anomalous", {"observable": SX_JSON, "epsilon": 0}, [], 3, DOMAIN),
    "anomalous epsilon NaN": ("anomalous", {"observable": SX_JSON, "epsilon": NAN}, [], 2, CONFIG),
    "simulate threshold with phi": ("simulate", {**BASE, "protocol": "threshold"}, [], 2, CONFIG),
    "density basis a list": ("density", {**BASE, "basis": ["x"]}, [], 2, CONFIG),
    "anomalous target an object": ("anomalous", {"observable": SX_JSON, "epsilon": 0.1, "target": {}}, [], 2, CONFIG),
    "simulate protocol a list": ("simulate", {**BASE, "protocol": []}, [], 2, CONFIG),
    # an integer key refuses a number with a fraction, where it truncated before
    "simulate trials 1.5": ("simulate", {**BASE, "protocol": "single", "trials": 1.5}, [], 2, CONFIG + "trials: expected an integer"),
    "simulate seed 2.7": ("simulate", {**BASE, "protocol": "single", "seed": 2.7}, [], 2, CONFIG + "seed: expected an integer"),
    "simulate threads 1.9": ("simulate", {**BASE, "protocol": "single", "threads": 1.9}, [], 2, CONFIG + "threads: expected an integer"),
    "collective n_grid entry 25.5": ("collective", {**BASE, "n_grid": [25.5, 50]}, [], 2, CONFIG + "n_grid[0]: expected an integer"),
    "density grid.points 600.7": ("density", {**BASE, "grid": {"points": 600.7}}, [], 2, CONFIG + "grid.points: expected an integer"),
    # 9 bytes a trial: the records array fails to allocate at once, with no page touched
    "simulate trials past memory": ("simulate", {**BASE, "protocol": "single", "trials": 10**15}, [], 2, CONFIG + "trials: "),
    "simulate trials past numpy's array size": ("simulate", {**BASE, "protocol": "single", "trials": 2**63}, [], 2, CONFIG + "trials: "),
    "lindblad lambda^2 overflow": ("lindblad", BASE, ["--lambda", "2e154"], 3, DOMAIN),
    "disturbance lambda^2 overflow": ("disturbance", BASE, ["--lambda", "2e154"], 3, DOMAIN),
    "threshold lambda^2 overflow": (
        "threshold", {"observable": SX_JSON, "psi": KET0, "lambda_grid": [2e154, 1e154]}, [], 3, DOMAIN
    ),
    "threshold past every tail": (  # the threshold 100 lambda is ~1e155: G(x) underflows to 0 exactly
        "threshold", {"observable": SX_JSON, "psi": KET0, "lambda_grid": [1e153, 5e152]}, [], 4, QUALITY
    ),
    "postselect-prob spectral scale 1e200": ("postselect-prob", {**BASE, "observable": SX_1E200}, [], 4, QUALITY),
    "disturbance spectral scale 1e200": ("disturbance", {**BASE, "observable": SX_1E200}, [], 4, QUALITY),
    "density grid too coarse for the branches": (
        "density", {**BASE, "observable": SX_200, "lambda": 1, "grid": {"xmin": -500, "xmax": 500}}, [], 4, QUALITY
    ),
    "density x' fringes unresolved": (
        "density", {**BASE, "observable": SX_200, "lambda": 1, "basis": "xprime"}, [], 4, QUALITY
    ),
    "density grid points merged in rounding": (  # each window collapses onto lam a_i = +-1e153
        "density", {**BASE, "observable": [[0, 0], [1e154, 0], [1e154, 0], [0, 0]]}, [], 4, QUALITY
    ),
    "collective profile off the grid": (
        "collective", {**BASE, "phi": PHI_COMPLEX, "n_grid": [1000000]}, ["--lambda", "40"], 4, QUALITY
    ),
    "collective ratio limit overflow": (
        "collective", {**BASE, "phi": PHI_COMPLEX, "n_grid": [1]}, ["--lambda", "40"], 4, QUALITY
    ),
}


def run_cli(command, doc, out_dir, extra=()) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run; a traceback fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", json.dumps(doc), "--out", str(out_dir), *extra])
    return code, out.getvalue(), err.getvalue()


def non_finite_outputs(out_dir, stdout: str) -> list[str]:
    """Every number in the written tables, JSON files and summary line that is NaN or infinite."""
    bad = []

    def visit(where, value):
        if isinstance(value, dict):
            for v in value.values():
                visit(where, v)
        elif isinstance(value, list):
            for v in value:
                visit(where, v)
        elif isinstance(value, str):
            try:
                number = float(value)
            except ValueError:
                return
            visit(where, number)
        elif isinstance(value, (int, float)) and not math.isfinite(value):
            bad.append(f"{where}: {value!r}")

    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".json":
            visit(path.name, json.loads(path.read_text()))
        else:
            rows = csv.reader(ln for ln in path.read_text().splitlines() if not ln.startswith("#"))
            visit(path.name, list(rows)[1:])
    visit("stdout", [part.split("=", 1)[-1] for part in stdout.split()[1:]])
    return bad


class TestPreconditionExitCodes:
    """Each refusal ends with its documented exit code and one error line."""

    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_refusal(self, tmp_path, case):
        command, doc, extra, want, prefix = REFUSALS[case]
        code, _, err = run_cli(command, doc, tmp_path, extra)
        assert (code, err[: len(prefix)]) == (want, prefix), err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not tmp_path.exists() or list(tmp_path.iterdir()) == []

    def test_state_past_the_float_range_runs(self, tmp_path):
        # (1e308, 1e308) has a squared norm past the float range: it is read as (1, 1)/sqrt(2)
        code, out, err = run_cli("weak-value", {**BASE, "psi": [[1e308, 0], [1e308, 0]]}, tmp_path / "huge")
        assert (code, err) == (0, "")
        assert out == run_cli("weak-value", {**BASE, "psi": [[1, 0], [1, 0]]}, tmp_path / "unit")[1]
        huge, unit = (json.loads((tmp_path / run / "weak_value.json").read_text()) for run in ("huge", "unit"))
        assert huge.pop("metadata") != unit.pop("metadata") and huge == unit

    def test_seed_past_the_float_range_runs(self, tmp_path):
        doc = {**BASE, "protocol": "single", "trials": 100, "seed": 10**400}
        code, _, err = run_cli("simulate", doc, tmp_path)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "doc",
        [
            {"observable": SX_JSON, "psi": KET0, "protocol": "threshold", "trials": 1, "threshold_multiple": -1000},
            {
                "observable": SZ_JSON, "observable_b": SZ_JSON, "psi": KET0, "phi": KET0,
                "protocol": "sequential", "trials": 1, "seed": 3,
            },
        ],
        ids=["threshold", "sequential"],
    )
    def test_one_kept_run_writes_null_statistics(self, tmp_path, doc):
        # the standard errors and covariance of one kept run are undefined: null, not NaN or 0.0
        code, out, err = run_cli("simulate", doc, tmp_path)
        assert (code, err) == (0, "")

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        stats = json.loads((tmp_path / "stats.json").read_text(), parse_constant=refuse)
        assert stats["n_postselected"] == 1
        assert stats["standard_errors"] == [None] * len(stats["conditional_means"])
        assert stats["cross_covariance"] is None and stats["cross_covariance_se"] is None
        assert "standard_error" not in out and "cross_covariance" not in out
        assert non_finite_outputs(tmp_path, out) == []

    def test_grid_refusal_names_the_points_that_pass(self, tmp_path):
        doc = {**BASE, "observable": SX_200, "lambda": 1, "grid": {"xmin": -500, "xmax": 500}}
        _, _, err = run_cli("density", doc, tmp_path)
        need = int(err.split("grid.points >= ")[1])
        doc["grid"]["points"] = need
        code, out, err = run_cli("density", doc, tmp_path)
        assert (code, err) == (0, "")
        assert float(out.split("integral=")[1].split()[0]) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("radius", [100, 200, 500, 1000, 1e8])
    def test_density_default_grid_resolves_far_apart_branches(self, tmp_path, radius):
        # the uniform 512-point grid over +-(radius + |A_w|) + 10 missed the peaks from radius 200 up
        doc = {**BASE, "observable": [[0, 0], [radius, 0], [radius, 0], [0, 0]], "lambda": 1}
        code, out, err = run_cli("density", doc, tmp_path)
        assert (code, err) == (0, "")
        assert float(out.split("integral=")[1].split()[0]) == pytest.approx(1.0, abs=1e-8)
        x, cdf = np.loadtxt(tmp_path / "cdf.csv", delimiter=",", skiprows=1, comments="#").T
        assert np.all(np.diff(x) > 0) and cdf[-1] == pytest.approx(1.0, abs=1e-8)

    def test_density_windows_that_share_points_write_each_once(self, tmp_path):
        # 513 points space each window by 5/128 exactly, so branches at 1000 and 1010
        # share the 257 points of [1000, 1010]
        doc = {"observable": [[1010, 0], [0, 0], [0, 0], [1000, 0]], "psi": PHI68, "phi": [[0.8, 0], [0.6, 0]],
               "lambda": 1, "grid": {"points": 513}}
        code, _, err = run_cli("density", doc, tmp_path)
        assert (code, err) == (0, "")
        x = np.loadtxt(tmp_path / "density.csv", delimiter=",", skiprows=1, comments="#")[:, 0]
        assert len(x) == 2 * 513 - 257 and np.all(np.diff(x) > 0)

    def test_lindblad_default_grid_resolves_far_apart_branches(self, tmp_path):
        # the uniform 512-point grid over +-(500 + 10) stepped 2.0 against a limit of 1.01,
        # and its joint column integrated to 1.014 times the post-selection probability
        doc = {**BASE, "observable": SX_500, "lambda": 1}
        code, _, err = run_cli("lindblad", doc, tmp_path)
        assert (code, err) == (0, "")
        x, joint = np.loadtxt(tmp_path / "lindblad_decomposition.csv", delimiter=",", skiprows=1, comments="#")[:, :2].T
        sx_500 = Observable(np.array([[0.0, 500.0], [500.0, 0.0]]))
        cm = conditional_meter_state(MeasurementSetup(sx_500, 1.0, PureState(np.array([1.0, 0.0])), PureState(np.array([0.6, 0.8]))))
        # one window of points about each branch centre +-500; the gap between them holds no mass
        steps = np.diff(x)
        gap = np.flatnonzero(steps > density_spacing_limit(cm))
        assert gap.size == 1 and (x[gap[0]], x[gap[0] + 1]) == (-500 + BRANCH_HALFWIDTH, 500 - BRANCH_HALFWIDTH)
        assert np.all(steps > 0)
        assert np.trapezoid(joint, x) / cm.probability == pytest.approx(1.0, abs=1e-8)

    def test_lindblad_grid_refusal_names_the_points_that_pass(self, tmp_path):
        doc = {**BASE, "observable": SX_500, "lambda": 1, "grid": {"xmin": -510, "xmax": 510}}
        code, _, err = run_cli("lindblad", doc, tmp_path)
        assert code == 4 and err.startswith("numeric-quality error: ") and "set grid.points >= " in err
        assert not tmp_path.exists() or list(tmp_path.iterdir()) == []
        doc["grid"]["points"] = int(err.split("grid.points >= ")[1])
        code, _, err = run_cli("lindblad", doc, tmp_path)
        assert (code, err) == (0, "")
        x, joint = np.loadtxt(tmp_path / "lindblad_decomposition.csv", delimiter=",", skiprows=1, comments="#")[:, :2].T
        assert np.trapezoid(joint, x) == pytest.approx(0.5, abs=1e-8)  # P = 0.5 at lambda (a_1 - a_2) = 1000

    @pytest.mark.parametrize("command", ["postselect-prob", "disturbance"])
    def test_overflowed_damping_exponent_writes_no_warning(self, tmp_path, command):
        # at this scale lambda^2 (a_i - a_j)^2 overflows to inf, whose damping exp(-inf) = 0 is exact
        doc = {**BASE, "observable": [[0, 0], [1e154, 0], [1e154, 0], [0, 0]]}
        proc = run_python("-m", "weakmeas.cli", command, "--config", json.dumps(doc), "--out", str(tmp_path))
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_lindblad_overflowed_branch_exponent_writes_no_warning(self, tmp_path):
        # (mu_i - mu_r)^2 overflows to inf in the GDI maximum, whose e_i = expm1(-inf) = -1
        # is exact; then the grid is refused, on one stderr line
        doc = {**BASE, "observable": [[1e200, 0], [0, 0], [0, 0], [-1e200, 0]], "lambda": 1}
        proc = run_python("-m", "weakmeas.cli", "lindblad", "--config", json.dumps(doc), "--out", str(tmp_path))
        assert proc.returncode == 4
        assert proc.stderr.startswith("numeric-quality error: ") and proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("command", ["weak-value", "density", "lindblad", "disturbance"])
    def test_unsymmetrised_d16_observable_at_radius_1e5(self, tmp_path, rng, command):
        # (V * a) @ V^dag misses exact Hermiticity by ~7e-12 at this radius
        obs = degenerate_observable(rng, 16, 16, 1e5)
        psi, phi = random_selection_pair(rng, 16)
        pairs = lambda z: [[float(v.real), float(v.imag)] for v in np.ravel(z)]
        doc = {"observable": pairs(obs.matrix), "psi": pairs(psi.amplitudes), "phi": pairs(phi.amplitudes)}
        assert np.max(np.abs(obs.matrix - obs.matrix.conj().T)) > 1e-12
        code, out, err = run_cli(command, doc, tmp_path)
        assert (code, err) == (0, "")
        assert non_finite_outputs(tmp_path, out) == []


COUPLINGS = st.one_of(
    st.floats(1e-3, 10.0), st.sampled_from([0.0, math.nan, math.inf, -math.inf, 2e154])
)


@settings(max_examples=150)
@given(
    command=st.sampled_from(sorted(cli.COMMAND_KEYS)),
    protocol=st.sampled_from(["single", "kick", "sequential", "threshold"]),
    obs_dim=st.sampled_from([2, 3, 16]),
    state_dim=st.sampled_from([2, 3, 16]),
    lam=COUPLINGS,
    seed=st.integers(0, 2**32 - 1),
)
def test_every_run_exits_documented_and_finite(tmp_path_factory, command, protocol, obs_dim, state_dim, lam, seed):
    """Exit 0, 2, 3 or 4 for every command, dimension pair and coupling;
    exit 0 writes and prints only finite numbers."""
    rng = np.random.default_rng(seed)
    pairs = lambda z: [[float(v.real), float(v.imag)] for v in np.ravel(z)]
    psi, phi = random_selection_pair(rng, state_dim)
    required, optional = cli.COMMAND_KEYS[command]
    doc = {
        "observable": pairs(random_observable(rng, obs_dim).matrix),
        "observable_b": pairs(random_observable(rng, obs_dim).matrix),
        "psi": pairs(psi.amplitudes),
        "phi": pairs(phi.amplitudes),
        "epsilon": 0.1,
        "lambda": lam,
        "lambda_grid": [lam, lam / 2.0],
        "n_grid": [10, 100],
        "protocol": protocol,
        "trials": 2000,
    }
    if command == "simulate" and protocol == "threshold":
        del doc["phi"]
    if command == "simulate" and protocol != "sequential":
        del doc["observable_b"]
    doc = {k: v for k, v in doc.items() if k in required | optional}
    out_dir = tmp_path_factory.mktemp("run")
    code, out, err = run_cli(command, doc, out_dir)
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), err
    if code == 0:
        assert non_finite_outputs(out_dir, out) == []
    else:
        assert err.count("\n") == 1 and err.split(":")[0] in ("config error", "domain error", "numeric-quality error")
