"""Refusal guard: every ``raise`` in ``src/weakmeas`` raises a package error.

The CLI maps the three ``WeakmeasError`` families to exit codes 2, 3 and 4
and catches nothing else, so any other exception a config can reach ends in
a traceback with exit 1. Walks the syntax trees of the package modules and
finds each ``raise`` with its enclosing function. One that raises anything
but a ``WeakmeasError`` subclass must be listed in ``ALLOWED`` by (module,
function, exception) with the reason no config reaches it. A bare re-raise
is not a refusal and is skipped.

The precondition errors with one owning check must keep a single raise site.
"""

import ast
from pathlib import Path

import weakmeas
from weakmeas import errors

PACKAGE = Path(weakmeas.__file__).parent
PACKAGE_ERRORS = {
    name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, errors.WeakmeasError)
}
ONE_RAISE_SITE = ("DimensionMismatch", "NotHermitian", "SpectrumUnresolved", "OrthogonalPostselection")

_PARSED = "the CLI builds states and observables in _parse_state and _parse_observable, which re-raise as SchemaError"
_CONSTANT = "the CLI passes only values its _parse_choice admits or the package's own constants"

ALLOWED = {
    ("core", "_finite_complex_array", "ValueError"): _PARSED,
    ("core", "PureState.__post_init__", "ValueError"): _PARSED,
    ("core", "PureState.normalized", "ValueError"): _PARSED,
    ("core", "Observable.__post_init__", "ValueError"): _PARSED,
    ("core", "DensityMatrix.__post_init__", "ValueError"): (
        "built only by nonselective_state: square, unit-trace and positive by construction"
    ),
    ("core", "anomalous_pair", "ValueError"): f"target: {_CONSTANT}",
    ("protocols", "SequentialSetup.__post_init__", "ValueError"): f"meter basis: {_CONSTANT}",
    ("protocols", "conditional_meter_state", "ValueError"): f"basis: {_CONSTANT}",
    ("protocols", "extrapolate_to_zero_coupling", "ValueError"): (
        "parse_config refuses a lambda_grid without two distinct |lambda|"
    ),
    ("pointer", "MeterState.__post_init__", "ValueError"): (
        "bases are the package's constants; centres lam * a_i stay finite while "
        "|lam| * spectral radius is below 1.8e308, far past the valid range"
    ),
    ("pointer", "moment", "ValueError"): "moment order: every caller passes 1",
    ("collective", "CollectiveSetup.__post_init__", "ValueError"): "n_grid entries are parsed with minimum 1",
    ("collective", "_x_synthesis_density", "ValueError"): "unevenly spaced x: the CLI passes np.linspace grids",
    ("collective", "collective_conditional_density", "ValueError"): f"basis: {_CONSTANT}",
    ("collective", "collective_conditional_mean", "ValueError"): f"basis: {_CONSTANT}",
    ("montecarlo", "TrialPlan.__post_init__", "ValueError"): (
        "config shape: parse_config refuses an unknown protocol, trials or threads below 1, "
        "phi given to threshold or missing elsewhere, and sequential without observable_b"
    ),
    ("__init__", "__getattr__", "AttributeError"): (
        "the PEP 562 module hook must raise AttributeError for an unknown name; "
        "no config reaches it, since the CLI imports the modules it uses"
    ),
    ("montecarlo", "TrialStatistics.__post_init__", "ValueError"): (
        "both counts come from one records array, so n_postselected <= n_total"
    ),
}


def _raised_name(node: ast.Raise) -> str:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.attr if isinstance(exc, ast.Attribute) else exc.id


def raise_sites() -> list[tuple[str, str, str]]:
    """(module, enclosing qualname, exception class name) of every raise."""
    sites = []

    def walk(node, module: str, scope: tuple[str, ...]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, module, (*scope, child.name))
            else:
                if isinstance(child, ast.Raise) and child.exc is not None:
                    sites.append((module, ".".join(scope), _raised_name(child)))
                walk(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), path.stem, ())
    return sites


def test_every_raise_is_a_package_error_or_allowed():
    foreign = {site for site in raise_sites() if site[2] not in PACKAGE_ERRORS}
    assert foreign <= set(ALLOWED), f"raises outside WeakmeasError with no reason given: {sorted(foreign - set(ALLOWED))}"


def test_allowed_entries_are_live():
    # an entry whose raise is gone or became a package error no longer belongs here
    assert set(ALLOWED) <= set(raise_sites())
    assert all(name not in PACKAGE_ERRORS for _, _, name in ALLOWED)


def test_precondition_errors_have_one_raise_site():
    sites = raise_sites()
    counts = {name: sum(1 for site in sites if site[2] == name) for name in ONE_RAISE_SITE}
    assert counts == dict.fromkeys(ONE_RAISE_SITE, 1)
