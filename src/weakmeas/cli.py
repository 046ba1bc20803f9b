"""Command-line front end: config parsing, dispatch, plot-ready tables.

Every command is a pure function of (config, seed): rerunning with the same
inputs reproduces all output files byte for byte, for any ``--threads`` value
(worker threads only spread fixed work blocks; they never change results).

Config is a single JSON document, given as a file path or inline with
``--config '{...}'``. Complex numbers are [re, im] pairs, observables
row-major lists of pairs, and states are normalized on input. Unknown keys
are rejected with their field path. A short hash of the merged config stamps
every emitted file (``serialize.config_hash``).

The document is read by ``orjson.loads``, with two fallbacks to
``json.loads``, which reads the same values: a text holding a run of 19 or
more digits outside a fraction, as orjson reads an int past 64 bits as a
float, and a text orjson refuses, so that ``NaN``, ``Infinity`` and ``1e400``
reach the finiteness checks and malformed JSON keeps ``json.loads``'s
message. A list of [re, im] pairs of ints and floats is read in one
``np.array``; any other list takes the per-entry reader, which words every
refusal. ``collective``, ``lindblad`` and ``montecarlo`` are imported by the
commands that use them, so importing this module leaves them out.

Exit codes: 0 success, 2 config error, 3 domain error (bad physics inputs),
4 numeric-quality failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import core
from . import pointer as ptr
from . import protocols as proto
from .errors import (
    ConfigurationError,
    DomainError,
    FileError,
    GridTooCoarse,
    NumericalQualityError,
    SchemaError,
)
from .serialize import config_hash, write_csv, write_json

DEFAULT_LAMBDA = 0.1
DEFAULT_LAMBDA_GRID = (0.2, 0.1, 0.05, 0.025)
DEFAULT_N_GRID = (25, 50, 100, 200, 400)
DEFAULT_TRIALS = 100_000
DEFAULT_GRID_POINTS = 512
_BRANCH_HALFWIDTH = 10.0  # past this a branch adds at most G(10) ~ 7.7e-23 of its weight to the density
_REALS = {int, float}  # by exact type: bool is an int, and a number to no command
# A run of 19 digits not after a "." may be an int past 64 bits, which orjson
# reads as a float. With every digit made a 9, the search skips to each run by
# its literal instead of testing every character; orjson reads a fraction's
# digits as json.loads does.
_DIGITS_AS_NINE = bytes.maketrans(b"012345678", b"999999999")
_LONG_DIGIT_RUN = re.compile(b"9" * 19 + b"(?<![.9]" + b"9" * 19 + b")")

_SIMULATE_KEYS = {
    "protocol",
    "observable",
    "observable_b",
    "psi",
    "phi",
    "lambda",
    "lambda2",
    "trials",
    "seed",
    "threads",
    "threshold_multiple",
}

COMMAND_KEYS: dict[str, tuple[set[str], set[str]]] = {
    # command: (required keys, optional keys)
    "weak-value": ({"observable", "psi", "phi"}, set()),
    "anomalous": ({"observable", "epsilon"}, {"target"}),
    "density": ({"observable", "psi", "phi"}, {"lambda", "basis", "grid"}),
    "postselect-prob": ({"observable", "psi", "phi"}, {"lambda_grid"}),
    "kick": ({"observable", "psi", "phi"}, {"lambda_grid"}),
    "sequential": (
        {"observable", "observable_b", "psi", "phi"},
        {"lambda_grid", "basis"},
    ),
    "collective": ({"observable", "psi", "phi"}, {"lambda", "n_grid", "basis"}),
    "lindblad": ({"observable", "psi", "phi"}, {"lambda", "grid"}),
    "disturbance": ({"observable", "psi", "phi"}, {"lambda"}),
    "simulate": ({"protocol", "observable", "psi"}, _SIMULATE_KEYS),
    "threshold": ({"observable", "psi"}, {"lambda", "lambda_grid", "threshold_multiple"}),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated command configuration; ``raw`` is the hashed document.

    ``raw`` must stay JSON-native (the ``json.loads`` document plus the CLI
    overrides, which are floats, ints, strs and lists of floats): the hash
    dumps it as it is, with no conversion of numpy or complex values.
    """

    command: str
    raw: dict
    params: dict

    @functools.cached_property
    def hash(self) -> str:
        # threads is an execution detail: hashing it would make otherwise
        # identical runs look different across worker counts
        doc = {k: v for k, v in self.raw.items() if k != "threads"}
        return config_hash({"command": self.command, **doc})


def _parse_complex_pairs(value, path: str) -> np.ndarray:
    """A non-empty list of [re, im] pairs of numbers as a complex128 array.

    A list of 2-lists of int or float whose float64 values are all finite is
    read in one ``np.array``. Every other input, and ints past the float
    range, take the loop, which reads each entry as ``_parse_number`` reads a
    number and words the refusal that names it.
    """
    if (
        isinstance(value, list)
        and set(map(type, value)) == {list}
        and set(map(len, value)) == {2}
        and set(map(type, itertools.chain.from_iterable(value))) <= _REALS
    ):
        try:
            pairs = np.array(value, np.float64)
        except OverflowError:
            pairs = None
        if pairs is not None and np.isfinite(pairs).all():
            return pairs.view(np.complex128).ravel()
    if not isinstance(value, list) or not value:
        raise SchemaError(path, "expected a non-empty list of [re, im] pairs")
    out = []
    for i, item in enumerate(value):
        entry = f"{path}[{i}]"
        if not isinstance(item, list) or len(item) != 2:
            raise SchemaError(entry, "expected an [re, im] pair of numbers")
        out.append(complex(_parse_number(item[0], entry), _parse_number(item[1], entry)))
    return np.array(out)


def _parse_state(value, path: str) -> core.PureState:
    amps = _parse_complex_pairs(value, path)
    try:
        return core.PureState.normalized(amps)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


def _parse_observable(value, path: str) -> core.Observable:
    entries = _parse_complex_pairs(value, path)
    dim = math.isqrt(len(entries))
    if dim * dim != len(entries):
        raise SchemaError(path, f"row-major length {len(entries)} is not a square")
    try:
        return core.Observable(entries.reshape(dim, dim))
    except (ValueError, DomainError) as exc:
        raise SchemaError(path, str(exc)) from exc


def _parse_number(value, path: str, kind=float, minimum=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    if isinstance(value, float) and not math.isfinite(value):
        raise SchemaError(path, f"expected a finite number, got {value!r}")
    try:
        value = kind(value)
    except OverflowError:
        raise SchemaError(path, f"{value} is past the float range") from None
    if minimum is not None and value < minimum:
        raise SchemaError(path, f"must be >= {minimum}")
    return value


def _parse_choice(value, path: str, choices) -> str:
    if value not in choices:
        raise SchemaError(path, f"expected one of {sorted(choices)}")
    return value


def _parse_grid(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(path, "expected an object {xmin, xmax, points}")
    out = {"xmin": None, "xmax": None, "points": DEFAULT_GRID_POINTS}
    for key, item in value.items():
        if key in ("xmin", "xmax"):
            out[key] = _parse_number(item, f"{path}.{key}")
        elif key == "points":
            out[key] = int(_parse_number(item, f"{path}.points", int, 16))
        else:
            raise SchemaError(f"{path}.{key}", "unknown key")
    return out


def _parse_number_list(value, path: str, kind=float, minimum=None) -> tuple:
    if not isinstance(value, list) or not value:
        raise SchemaError(path, "expected a non-empty list of numbers")
    return tuple(_parse_number(v, f"{path}[{i}]", kind, minimum) for i, v in enumerate(value))


def _orjson_document(text: str):
    """``orjson.loads(text)``, or None where it might differ from ``json.loads``:
    where the text holds a run of 19 or more digits that is not a fraction's
    (orjson reads an int past 2**64 - 1, or below -2**63, as a float) and where
    orjson refuses the text (``json.loads`` reads ``NaN``, ``Infinity``,
    ``1e400`` and lone surrogates, and words the refusal of malformed JSON its
    own way). Both read every float to the nearest double."""
    import orjson  # see serialize._dump_floats

    if _LONG_DIGIT_RUN.search(text.encode("utf-8", "surrogatepass").translate(_DIGITS_AS_NINE)):
        return None
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError:
        return None


def load_config_document(source: str) -> dict:
    """Read the JSON config from an inline string or a file path."""
    text = source
    if not source.lstrip().startswith("{"):
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise FileError(f"cannot read config file {source}: {exc}") from exc
    doc = _orjson_document(text)
    if doc is None:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError("$", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("$", "config document must be a JSON object")
    return doc


def parse_config(command: str, source: str, overrides: dict | None = None) -> RunConfig:
    """Validate the config document for ``command`` and fill defaults."""
    if command not in COMMAND_KEYS:
        raise SchemaError("$", f"unknown command {command!r}")
    doc = load_config_document(source)
    doc.update({k: v for k, v in (overrides or {}).items() if v is not None})
    required, optional = COMMAND_KEYS[command]
    allowed = required | optional
    for key in doc:
        if key not in allowed:
            raise SchemaError(key, f"unknown key for command {command!r}")
    for key in required:
        if key not in doc:
            raise SchemaError(key, "required key missing")

    params: dict = {}
    for key, value in doc.items():
        if key in ("observable", "observable_b"):
            params[key] = _parse_observable(value, key)
        elif key in ("psi", "phi"):
            params[key] = _parse_state(value, key)
        elif key in ("lambda", "lambda2", "epsilon", "threshold_multiple"):
            params[key] = _parse_number(value, key)
        elif key == "lambda_grid":
            params[key] = _parse_number_list(value, key)
            if len({abs(lam) for lam in params[key]}) < 2:
                raise SchemaError(key, "expected two or more distinct |lambda| to extrapolate from")
        elif key in ("trials", "threads"):
            params[key] = int(_parse_number(value, key, int, 1))
        elif key == "seed":
            params[key] = int(_parse_number(value, key, int, 0))
        elif key == "basis":
            params[key] = _parse_choice(value, key, {ptr.BASIS_X, ptr.BASIS_XPRIME})
        elif key == "target":
            params[key] = _parse_choice(value, key, {"re", "im"})
        elif key == "protocol":
            from . import montecarlo as mc

            params[key] = _parse_choice(value, key, set(mc.PROTOCOLS))
        elif key == "grid":
            params[key] = _parse_grid(value, key)
        elif key == "n_grid":
            params[key] = _parse_number_list(value, key, int, 1)
        else:  # unreachable: key already vetted against the schema
            raise SchemaError(key, "unhandled key")

    params.setdefault("lambda", DEFAULT_LAMBDA)
    params.setdefault("lambda_grid", DEFAULT_LAMBDA_GRID)
    params.setdefault("basis", ptr.BASIS_X)
    params.setdefault("target", "re")
    params.setdefault("trials", DEFAULT_TRIALS)
    params.setdefault("seed", 0)
    params.setdefault("threads", 1)
    params.setdefault("threshold_multiple", 100.0)
    params.setdefault("n_grid", DEFAULT_N_GRID)
    params.setdefault("grid", _parse_grid({}, "grid"))
    if command == "simulate":
        if (params["protocol"] == "threshold") == ("phi" in params):
            raise SchemaError("phi", "required unless protocol is 'threshold', which takes none")
        if params["protocol"] == "sequential" and "observable_b" not in params:
            raise SchemaError("observable_b", "required for the sequential protocol")
        params.setdefault("lambda2", params["lambda"])
    return RunConfig(command=command, raw=doc, params=params)


def _metadata(cfg: RunConfig) -> str:
    return f"config_sha256={cfg.hash} seed={cfg.params.get('seed', 0)}"


def _write_table(cfg: RunConfig, out_dir: Path, name: str, table: np.ndarray, fmt: str) -> None:
    """Write a structured array, a column per field, headed by the field names."""
    header = list(table.dtype.names)
    if fmt == "json":
        write_json(out_dir / f"{name}.json", {"columns": header, "rows": table, "metadata": _metadata(cfg)})
    else:
        write_csv(out_dir / f"{name}.csv", header, table, _metadata(cfg))


def _write_columns(cfg: RunConfig, out_dir: Path, name: str, fmt: str, **columns) -> None:
    """Write equal-length columns as one table, in keyword order, each with
    the dtype ``np.asarray`` gives it (object where cells mix types or hold None)."""
    arrays = [np.asarray(col) for col in columns.values()]
    table = np.empty(len(arrays[0]), dtype=[(k, a.dtype) for k, a in zip(columns, arrays)])
    for key, array in zip(columns, arrays):
        table[key] = array
    _write_table(cfg, out_dir, name, table, fmt)


def _lambda_scan(cfg, out_dir, fmt, name, header, measure, fixed=(None,), power=2) -> float:
    """Write a row ``["lambda", lam, *cells, value, None]`` per coupling of the
    grid, where ``cells, value = measure(lam)``, then the row
    ``["extrapolation", 0.0, *fixed, intercept, residual]`` of the straight
    line in lam**power through the values (``extrapolate_to_zero_coupling``),
    at lam = 0. Returns the intercept."""
    lams = cfg.params["lambda_grid"]
    rows, values = [], []
    for lam in lams:
        cells, value = measure(lam)
        values.append(value)
        rows.append(["lambda", lam, *cells, value, None])
    intercept, resid = proto.extrapolate_to_zero_coupling(lams, values, power)
    rows.append(["extrapolation", 0.0, *fixed, intercept, resid])
    _write_columns(cfg, out_dir, name, fmt, **dict(zip(header, zip(*rows))))
    return intercept


def _grid_points(p: dict, lo: float, hi: float) -> np.ndarray:
    """The configured x grid; an edge the config leaves out is lo or hi."""
    grid = p["grid"]
    xmin = lo if grid["xmin"] is None else grid["xmin"]
    xmax = hi if grid["xmax"] is None else grid["xmax"]
    return np.linspace(xmin, xmax, grid["points"])


def _density_grid(p: dict, cm: proto.ConditionalMeter, reach: float) -> np.ndarray:
    """The configured grid over [-reach, reach], refused with GridTooCoarse
    when a step passes ``proto.density_spacing_limit``.

    With the edges left to the program, x-basis branches too far apart for
    that grid are sampled by ``points`` points across each branch's window
    ``lam a_i +- _BRANCH_HALFWIDTH``; the gaps between windows hold no mass.
    Steps are taken from the float64 points, which merge within a window once
    |lam a_i| passes about 1e15.
    """
    grid = p["grid"]
    xs = _grid_points(p, -reach, reach)
    span, steps = abs(xs[-1] - xs[0]), np.abs(np.diff(xs))
    limit = proto.density_spacing_limit(cm)
    default_edges = grid["xmin"] is None and grid["xmax"] is None
    if steps.max() > limit and default_edges and p["basis"] == ptr.BASIS_X:
        window = np.linspace(-_BRANCH_HALFWIDTH, _BRANCH_HALFWIDTH, grid["points"])
        windows = np.add.outer(p["lambda"] * p["observable"].eigensystem.eigenvalues, window)
        span, steps, xs = 2.0 * _BRANCH_HALFWIDTH, np.diff(windows, axis=1), np.unique(windows)
    if not 0.0 < steps.min() <= steps.max() <= limit:  # a zero step: points merged in rounding
        need = math.ceil(span / limit) + 1
        remedy = (
            f"set grid.points >= {need}" if need > grid["points"]
            else f"float64 cannot space points that finely near |x| = {np.max(np.abs(xs)):.3g}"
        )
        raise GridTooCoarse(
            f"density grid steps of {steps.min():.3g} to {steps.max():.3g} cannot resolve the "
            f"branch peaks, which need steps in (0, {limit:.3g}]: {remedy}"
        )
    return xs


# ---------------------------------------------------------------- commands


def _cmd_weak_value(cfg: RunConfig, out_dir: Path, fmt: str) -> dict:
    p = cfg.params
    wv = core.weak_value(p["observable"], p["psi"], p["phi"])
    payload = {
        "weak_value": wv.value,
        "preselect_overlap": wv.preselect_overlap,
        "overlap_sq": abs(wv.preselect_overlap) ** 2,
        "expectation_psi": core.expectation(p["observable"], p["psi"]),
    }
    write_json(out_dir / "weak_value.json", {**payload, "metadata": _metadata(cfg)})
    return {
        "weak_value_re": wv.value.real,
        "weak_value_im": wv.value.imag,
        "overlap_sq": abs(wv.preselect_overlap) ** 2,
    }


def _cmd_anomalous(cfg: RunConfig, out_dir: Path, fmt: str) -> dict:
    p = cfg.params
    pair = core.anomalous_pair(p["observable"], p["epsilon"], p["target"])
    write_json(
        out_dir / "anomalous.json",
        {
            "psi": pair.psi.to_json(),
            "phi": pair.phi.to_json(),
            "perp": pair.perp.to_json(),
            "weak_value": pair.weak_value,
            "postselect_prob": pair.postselect_prob,
            "metadata": _metadata(cfg),
        },
    )
    return {
        "weak_value_re": pair.weak_value.real,
        "weak_value_im": pair.weak_value.imag,
        "overlap_sq": pair.postselect_prob,
    }


def _cmd_density(cfg: RunConfig, out_dir: Path, fmt: str) -> dict:
    p = cfg.params
    setup = proto.MeasurementSetup(p["observable"], p["lambda"], p["psi"], p["phi"])
    cm = proto.conditional_meter_state(setup, p["basis"])
    a_w = core.weak_value(p["observable"], p["psi"], p["phi"]).value
    reach = abs(p["lambda"]) * (p["observable"].spectral_radius + abs(a_w)) + _BRANCH_HALFWIDTH
    xs = _density_grid(p, cm, reach)
    dens = cm.pointer.density(xs) / cm.probability
    _write_columns(cfg, out_dir, "density", fmt, x=xs, density=dens)
    seg = 0.5 * (dens[1:] + dens[:-1]) * np.diff(xs)
    cdf = np.concatenate(([0.0], np.cumsum(seg)))
    _write_columns(cfg, out_dir, "cdf", fmt, x=xs, cdf=cdf)
    integral = float(np.trapezoid(dens, xs))
    return {"integral": integral, "conditional_mean": cm.pointer.first_moment(), "basis": p["basis"]}


def _cmd_postselect_prob(cfg: RunConfig, out_dir: Path, fmt: str) -> dict:
    p = cfg.params
    unperturbed = float(abs(p["phi"].overlap(p["psi"])) ** 2)

    def measure(lam):
        setup = proto.MeasurementSetup(p["observable"], lam, p["psi"], p["phi"])
        prob = proto.postselection_probability(setup)
        return [prob, unperturbed], proto.postselection_shift(setup) / proto.coupling_squared(lam)

    analytic = proto.second_order_coefficient(p["observable"], p["psi"], p["phi"])  # before any table
    header = ["row", "lambda", "prob", "prob_unperturbed", "coeff_lambda_sq", "fit_residual"]
    intercept = _lambda_scan(
        cfg, out_dir, fmt, "postselect_prob", header, measure, [None, unperturbed]
    )
    return {
        "coeff_extrapolated": intercept,
        "coeff_analytic": analytic,
        "prob_unperturbed": unperturbed,
    }


def _cmd_kick(cfg: RunConfig, out_dir: Path, fmt: str) -> dict:
    p = cfg.params

    def measure(lam):
        proto.coupling_squared(lam)  # refuses a lambda the table cannot divide by
        setup = proto.MeasurementSetup(p["observable"], lam, p["psi"], p["phi"])
        mean = proto.kick_pointer_state(setup).first_moment()
        return [mean], mean / lam

    header = ["row", "lambda", "conditional_mean", "mean_over_lambda", "fit_residual"]
    intercept = _lambda_scan(cfg, out_dir, fmt, "kick", header, measure)
    a_w = core.weak_value(p["observable"], p["psi"], p["phi"]).value
    return {"im_weak_value_extrapolated": intercept, "im_weak_value": a_w.imag}


def _cmd_sequential(cfg: RunConfig, out_dir: Path, fmt: str) -> dict:
    p = cfg.params
    bases = (p["basis"], p["basis"])

    def measure(lam):
        sq = proto.SequentialSetup(
            p["observable"], lam, p["observable_b"], lam, p["psi"], p["phi"], bases
        )
        cov = proto.sequential_cross_covariance(sq)
        return [cov], cov / (proto.coupling_squared(lam) / 2.0)

    header = ["row", "lambda", "cross_covariance", "coeff", "fit_residual"]
    intercept = _lambda_scan(cfg, out_dir, fmt, "sequential", header, measure)
    # joint density grid at the default coupling; the weak limits ignore lambda
    lam = DEFAULT_LAMBDA
    sq_grid = proto.SequentialSetup(
        p["observable"], lam, p["observable_b"], lam, p["psi"], p["phi"], bases
    )
    xs = np.linspace(-6.0 - lam, 6.0 + lam, 101)
    dens2 = proto.sequential_joint_density(sq_grid, xs, xs)
    grid = {"x1": np.repeat(xs, xs.size), "x2": np.tile(xs, xs.size), "density": dens2.ravel()}
    _write_columns(cfg, out_dir, "sequential_density", fmt, **grid)
    return {
        "coeff_extrapolated": intercept,
        "coeff_analytic": proto.sequential_covariance_coefficient(sq_grid),
        "order_gap": proto.sequential_order_gap(sq_grid),
    }


def _cmd_collective(cfg: RunConfig, out_dir: Path, fmt: str) -> dict:
    from . import collective as coll

    p = cfg.params
    lam = p["lambda"]
    a_w = core.weak_value(p["observable"], p["psi"], p["phi"]).value
    rows = []
    for n in p["n_grid"]:
        cs = coll.CollectiveSetup(p["observable"], lam, p["psi"], p["phi"], int(n))
        ratio = coll.collective_postselection_ratio(cs)
        xs = np.linspace(lam * a_w.real - 8.0, lam * a_w.real + 8.0, 512)
        dens = coll.collective_conditional_density(cs, ptr.BASIS_X, xs)
        supnorm = float(np.max(np.abs(dens - ptr.gaussian_density(xs - lam * a_w.real))))
        xp_mean = coll.collective_conditional_mean(cs, ptr.BASIS_XPRIME)
        rows.append([n, "postselection_ratio", ratio])
        rows.append([n, "x_density_supnorm_gap", supnorm])
        rows.append([n, "xprime_mean", xp_mean])
    ratio_limit = coll.collective_ratio_limit(cs)  # any n: the limit does not depend on it
    n, metric, value = zip(*rows)
    # as Python ints: np.asarray turns ints in [2**63, 2**64) beside smaller ones into float64
    _write_columns(cfg, out_dir, "collective", fmt, n=np.array(n, dtype=object), metric=metric, value=value)
    return {
        "ratio_limit": ratio_limit,
        "x_shift_limit": lam * a_w.real,
        "xprime_shift_limit": lam * a_w.imag,
    }


def _cmd_lindblad(cfg: RunConfig, out_dir: Path, fmt: str) -> dict:
    from . import lindblad as lb

    p = cfg.params
    lam = p["lambda"]
    report = lb.gdi_diagnostic(p["observable"], lam, p["psi"], p["phi"])
    xs = _grid_points(p, *lb.integration_interval(p["observable"], lam))
    x, joint, pw, error = lb.decompose_on_grid(p["observable"], lam, p["psi"], p["phi"], xs)
    _write_columns(cfg, out_dir, "lindblad_decomposition", fmt, x=x, joint=joint, pw=pw, error=error)
    write_json(out_dir / "gdi.json", {**asdict(report), "metadata": _metadata(cfg)})
    return {
        "mean_full": report.mean_full,
        "mean_pw": report.mean_pw,
        "mean_gap": report.mean_gap,
        "integrated_error_over_lambda_sq": report.integrated_error_over_coupling_sq,
    }


def _cmd_disturbance(cfg: RunConfig, out_dir: Path, fmt: str) -> dict:
    p = cfg.params
    setup = proto.MeasurementSetup(p["observable"], p["lambda"], p["psi"], p["phi"])
    report = proto.disturbance_report(setup)
    write_json(out_dir / "disturbance.json", {**asdict(report), "metadata": _metadata(cfg)})
    return {
        "prob_exact": report.postselect_prob_exact,
        "prob_unperturbed": report.postselect_prob_unperturbed,
        "purity": report.nonselective_purity,
        "fidelity": report.fidelity_to_initial,
    }


def _build_plan(p: dict):
    """The ``montecarlo.TrialPlan`` of a ``simulate`` config's parameters."""
    from . import montecarlo as mc

    return mc.TrialPlan(
        protocol=p["protocol"],
        observable=p["observable"],
        coupling=p["lambda"],
        preselect=p["psi"],
        postselect=p.get("phi"),
        trials=p["trials"],
        seed=p["seed"],
        second_observable=p.get("observable_b"),
        second_coupling=p.get("lambda2", p["lambda"]),
        threshold_multiple=p["threshold_multiple"],
        threads=p["threads"],
    )


def _cmd_simulate(cfg: RunConfig, out_dir: Path, fmt: str) -> dict:
    from . import montecarlo as mc

    records, stats = mc.run_plan(_build_plan(cfg.params))
    # fields x[, x2], postselected: the table as it stands, bools written as 0/1
    _write_table(cfg, out_dir, "records", records, fmt)
    write_json(out_dir / "stats.json", {**asdict(stats), "metadata": _metadata(cfg)})
    summary = {
        "n_postselected": stats.n_postselected,
        "postselection_rate": stats.postselection_rate,
        "conditional_mean": stats.conditional_means[0],
        "standard_error": stats.standard_errors[0],
        "cross_covariance": stats.cross_covariance,
    }
    # an undefined statistic is null in stats.json and left out of the summary line
    return {k: v for k, v in summary.items() if v is not None}


def _cmd_threshold(cfg: RunConfig, out_dir: Path, fmt: str) -> dict:
    from . import montecarlo as mc

    p = cfg.params
    mult = p["threshold_multiple"]

    def measure(lam):
        proto.check_couplings(lam)
        return [mult * lam], mc.truncated_mean_prediction(p["observable"], lam, p["psi"], mult * lam)

    # threshold means are not even in lambda; extrapolate linearly in lambda
    header = ["row", "lambda", "threshold", "predicted_mean", "fit_residual"]
    intercept = _lambda_scan(cfg, out_dir, fmt, "threshold", header, measure, [0.0], power=1)
    return {"predicted_mean_extrapolated": intercept, "half_gaussian_mean": math.sqrt(2.0 / math.pi)}


_HANDLERS = {
    "weak-value": _cmd_weak_value,
    "anomalous": _cmd_anomalous,
    "density": _cmd_density,
    "postselect-prob": _cmd_postselect_prob,
    "kick": _cmd_kick,
    "sequential": _cmd_sequential,
    "collective": _cmd_collective,
    "lindblad": _cmd_lindblad,
    "disturbance": _cmd_disturbance,
    "simulate": _cmd_simulate,
    "threshold": _cmd_threshold,
}


def dispatch(cfg: RunConfig, out_dir: Path, fmt: str = "csv") -> dict:
    """Run one command; writes artifacts and returns the summary mapping."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return _HANDLERS[cfg.command](cfg, out_dir, fmt)


def _summary_line(command: str, summary: dict) -> str:
    parts = [f"{k}={repr(v) if isinstance(v, float) else v}" for k, v in summary.items()]
    return f"{command} " + " ".join(parts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakmeas",
        description="Exact and Monte Carlo simulation of weak measurements with post-selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMAND_KEYS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON file path or inline JSON object")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None)
        p.add_argument("--lambda-grid", dest="lambda_grid", default=None,
                       help="comma-separated coupling values")
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--basis", choices=[ptr.BASIS_X, ptr.BASIS_XPRIME], default=None)
        p.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one tree serves the process
    return build_parser()


def _overrides_from_args(args: argparse.Namespace) -> dict:
    grid = None
    if args.lambda_grid is not None:
        try:
            grid = [float(v) for v in args.lambda_grid.split(",") if v.strip()]
        except ValueError as exc:
            raise SchemaError("lambda_grid", f"bad --lambda-grid value: {exc}") from exc
    return {
        "seed": args.seed,
        "threads": args.threads,
        "lambda": args.lam,
        "lambda_grid": grid,
        "trials": args.trials,
        "basis": args.basis,
    }


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        overrides = _overrides_from_args(args)
        cfg = parse_config(args.command, args.config, overrides)
        summary = dispatch(cfg, Path(args.out), args.format)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except NumericalQualityError as exc:
        print(f"numeric-quality error: {exc}", file=sys.stderr)
        return 4
    print(_summary_line(args.command, summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
