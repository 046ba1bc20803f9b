"""Exception hierarchy for the weakmeas package.

Three families, matching the CLI exit-code contract:

* ``ConfigurationError`` (exit 2): bad run configuration or input files.
* ``DomainError`` (exit 3): physics preconditions violated (mismatched
  dimensions, non-Hermitian observable, unresolved spectrum, orthogonal
  post-selection, lambda^2 not finite or too small to divide by, ...).
* ``NumericalQualityError`` (exit 4): the requested computation is valid but
  cannot be carried out at acceptable numerical quality (a density grid too
  coarse for its peaks, collective profile cut by its grid edge or ratio
  limit past the float range, an identity the results must satisfy
  violated, empty post-selected sample).
"""


class WeakmeasError(Exception):
    """Base class for all package errors."""


class ConfigurationError(WeakmeasError):
    """Invalid run configuration."""


class SchemaError(ConfigurationError):
    """Config document violates the schema; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class FileError(ConfigurationError):
    """Config or output file could not be read/written."""


class DomainError(WeakmeasError):
    """Physics-level precondition violated."""


class NotHermitian(DomainError):
    """Matrix supplied as an observable is not Hermitian."""


class OrthogonalPostselection(DomainError):
    """Pre- and post-selected states are (numerically) orthogonal."""


class ProportionalToIdentity(DomainError):
    """Observable has a single eigenvalue, so no anomalous pair exists."""


class BasisMismatch(DomainError):
    """A meter state changed to a basis it is already in."""


class DimensionMismatch(DomainError):
    """System dimensions of states/observables do not agree."""


class SpectrumUnresolved(DomainError):
    """Eigendecomposition of an observable fails its projector or reconstruction checks."""


class ZeroProbabilityOutcome(DomainError):
    """Conditioning on a meter outcome of zero probability."""


class NumericalQualityError(WeakmeasError):
    """Computation refused on numerical-quality grounds."""


class GridTooCoarse(NumericalQualityError):
    """A grid too coarse for the peaks it samples, or leaving more than the
    tolerated share of a profile outside it."""


class NoPostselectedRuns(NumericalQualityError):
    """Monte Carlo run produced zero post-selected trials; statistics undefined."""
