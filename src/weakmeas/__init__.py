"""weakmeas: exact and Monte Carlo simulation of weak quantum measurements
with post-selection.

Layers:

* :mod:`weakmeas.core` - states, Hermitian observables, weak values;
* :mod:`weakmeas.pointer` - Gaussian meter wavefunctions with closed-form
  overlaps, moments and a verified inverse-CDF sampler;
* :mod:`weakmeas.protocols` - von Neumann coupling, post-selection, kick
  protocols, sequential measurements, disturbance diagnostics;
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
    WeakmeasError,
    ZeroProbabilityOutcome,
)
from .pointer import (
    BASIS_X,
    BASIS_XPRIME,
    GaussianTerm,
    PointerWavefunction,
    SamplerConfig,
    initial_meter,
    overlap,
    density,
    moment,
    normalize,
    sample,
    squared_norm,
    stream_rng,
    to_x_basis,
    to_xprime_basis,
)
from .protocols import (
    ConditionalMeter,
    DisturbanceReport,
    JointBranch,
    JointState,
    MeasurementSetup,
    MultiMeterWavefunction,
    SequentialSetup,
    apply_von_neumann,
    conditional_meter_density,
    conditional_meter_mean,
    conditional_meter_state,
    conditional_system_state,
    delayed_choice,
    disturbance_report,
    extrapolate_to_zero_coupling,
    initial_joint_state,
    kick_in_x_protocol,
    kick_postselection_probability,
    kick_protocol_conditional_density,
    nonselective_state,
    postselect,
    postselection_probability,
    sequential_cross_covariance,
    sequential_joint_density,
    sequential_order_gap,
    unconditional_meter_density,
)
from .collective import (
    CollectiveSetup,
    collective_conditional_density,
    collective_conditional_mean,
    collective_log_postselection_probability,
    collective_postselection_ratio,
)
from .lindblad import (
    DecompositionSample,
    GdiReport,
    KrausFamily,
    error_term_density,
    first_moment_operator,
    gdi_diagnostic,
    joint_probability_density,
    kraus_at,
    pw_density,
    second_order_coefficient,
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
