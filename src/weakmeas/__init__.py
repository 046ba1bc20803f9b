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
* :mod:`weakmeas.lindblad` - Kraus family and the joint = P^w + error split;
* :mod:`weakmeas.montecarlo` - per-run stochastic simulation of everything;
* :mod:`weakmeas.cli` - the ``weakmeas`` command-line front end.
"""

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
    moment,
    stream_rng,
)
from .protocols import (
    ConditionalMeter,
    DisturbanceReport,
    MeasurementSetup,
    SequentialSetup,
    conditional_meter_density,
    conditional_meter_mean,
    conditional_meter_state,
    disturbance_report,
    extrapolate_to_zero_coupling,
    kick_postselection_probability,
    kick_protocol_conditional_density,
    nonselective_state,
    postselection_probability,
    second_order_coefficient,
    sequential_cross_covariance,
    sequential_joint_density,
    sequential_order_gap,
)
from .collective import (
    CollectiveSetup,
    collective_conditional_density,
    collective_conditional_mean,
    collective_postselection_ratio,
)
from .lindblad import (
    GdiReport,
    KrausFamily,
    error_term_density,
    gdi_diagnostic,
    joint_probability_density,
    pw_density,
)
from .montecarlo import (
    TrialPlan,
    TrialStatistics,
    run_kick,
    run_plan,
    run_sequential,
    run_single,
    run_threshold,
    truncated_mean_prediction,
)

__version__ = "0.1.0"
