"""weakmeas: exact and Monte Carlo simulation of weak quantum measurements
with post-selection.

Layers:

* :mod:`weakmeas.core` - states, Hermitian observables, weak values;
* :mod:`weakmeas.pointer` - the one meter-state class, for one meter or
  two in product form, with closed-form norms, moments and the x/x' basis
  change;
* :mod:`weakmeas.protocols` - post-selected meter states built from the
  eigenbranch weights <phi|P_i|psi>: von Neumann coupling, kick protocol,
  sequential measurements, disturbance diagnostics;
* :mod:`weakmeas.collective` - one meter coupled to N identical systems;
* :mod:`weakmeas.lindblad` - the joint = P^w + error split and its GDI report;
* :mod:`weakmeas.montecarlo` - per-run stochastic simulation of everything;
* :mod:`weakmeas.cli` - the ``weakmeas`` command-line front end.

``collective``, ``lindblad`` and ``montecarlo`` are imported on first use,
of the module or of a name it re-exports here, so the commands that need
none of them do not pay their import.
"""

import importlib

from .core import (
    AnomalousPair,
    DensityMatrix,
    EigenSystem,
    Observable,
    PureState,
    WeakValueResult,
    anomalous_pair,
    eigendecompose,
    expectation,
    matrix_weak_value,
    weak_value,
)
from .errors import (
    BasisMismatch,
    ConfigurationError,
    DimensionMismatch,
    DomainError,
    FileError,
    GridTooCoarse,
    NoPostselectedRuns,
    NotHermitian,
    NumericalQualityError,
    OrthogonalPostselection,
    ProportionalToIdentity,
    SchemaError,
    SpectrumUnresolved,
    WeakmeasError,
    ZeroProbabilityOutcome,
)
from .pointer import (
    BASIS_X,
    BASIS_XPRIME,
    MeterState,
    stream_rng,
)
from .protocols import (
    ConditionalMeter,
    DisturbanceReport,
    MeasurementSetup,
    SequentialSetup,
    conditional_meter_mean,
    conditional_meter_state,
    disturbance_report,
    extrapolate_to_zero_coupling,
    nonselective_state,
    postselection_probability,
    second_order_coefficient,
    sequential_cross_covariance,
    sequential_joint_density,
    sequential_order_gap,
)

__version__ = "0.1.0"

# Loaded on first use (PEP 562): ``import weakmeas.cli`` leaves these modules
# out, and only the commands that need one import it.
_LAZY = {
    "collective": (
        "CollectiveSetup",
        "collective_conditional_density",
        "collective_conditional_mean",
        "collective_postselection_ratio",
    ),
    "lindblad": (
        "GdiReport",
        "error_term_density",
        "gdi_diagnostic",
        "joint_probability_density",
        "pw_density",
    ),
    "montecarlo": (
        "TrialPlan",
        "TrialStatistics",
        "run_kick",
        "run_plan",
        "run_sequential",
        "run_single",
        "run_threshold",
        "truncated_mean_prediction",
    ),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    # Looked up on every access, not stored here, so a name rebound in its
    # module (as the benchmark's tracer rebinds functions) is seen here too.
    module = _LAZY_NAMES.get(name, name)
    if module not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    return loaded if name == module else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_NAMES})
