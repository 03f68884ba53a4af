"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`VsgofError`, so
callers (and the CLI) can map failure classes to stable exit codes.
"""

from __future__ import annotations

__all__ = [
    "VsgofError",
    "DataError",
    "ParameterError",
    "ConstraintError",
    "TiesError",
    "EstimationError",
    "CapabilityError",
]


class VsgofError(Exception):
    """Base class for all errors raised by this package."""


class DataError(VsgofError):
    """Input data is unusable: wrong shape, non-finite values, support
    violations, unparseable input files, or samples too small to process."""


class ParameterError(VsgofError):
    """Invalid distribution parameters or test options (wrong arity, values
    outside the parameter space, contradictory flags)."""


class ConstraintError(VsgofError):
    """The spacing entropy estimate exceeds the empirical null bound for
    every candidate window.

    This typically means the sample is very small, or the data are unlikely
    to come from the null family; widening the window range (``extend``) or
    dropping the constraint (``relax``) are the available escapes.
    """


class TiesError(VsgofError):
    """Tied observations are too dense: no candidate window produces strictly
    positive spacings, so the spacing entropy estimate does not exist."""


class EstimationError(VsgofError):
    """A numerical estimation step failed: MLE non-convergence, degenerate
    data (zero spread), or a Monte-Carlo run in which every replicate had to
    be discarded."""


class CapabilityError(VsgofError):
    """The requested quantity is not available for this family (for example a
    closed-form entropy where none is implemented)."""


# Why a row of the row-wise test path (``vstest._rows``, which every vs
# null replicate runs through too, ``edf._observed_rows`` and the
# ``_p_value_rows`` of both) has no p-value.  A single test is row 0 of
# that path: it raises the error class of its row's cause, with the
# message given here or, where it names positions, the one the data give.
# OK is a row with a p-value.
(OK, INVALID_DATA, OUTSIDE_FIT, FAILED_FIT, OUTSIDE_SUPPORT, TIES,
 CONSTRAINT, DISCARDED, DEGENERATE_PIT) = range(9)
CAUSES: dict[int, tuple[type, str | None]] = {
    INVALID_DATA: (DataError, None),
    OUTSIDE_FIT: (DataError, None),
    FAILED_FIT: (EstimationError, None),
    OUTSIDE_SUPPORT: (DataError, None),
    TIES: (TiesError,
           "too many tied values: no candidate window yields positive "
           "spacings, so the entropy estimate does not exist; re-run with "
           "extend=True for wider windows or de-duplicate the data"),
    CONSTRAINT: (ConstraintError,
                 "the spacing entropy estimate exceeds the empirical null "
                 "bound for every candidate window; the sample may be too "
                 "small, or is unlikely to come from the null family "
                 "(extend=True widens the window range, relax=True drops "
                 "the constraint)"),
    DISCARDED: (EstimationError,
                "every Monte-Carlo replicate was discarded (no admissible "
                "window, a failed refit, or a draw outside the null "
                "support); the null model cannot be simulated at this "
                "sample size"),
    DEGENERATE_PIT: (DataError,
                     "the probability integral transform is degenerate "
                     "(every value maps to 0 or 1); the fixed null puts no "
                     "mass where the data lie"),
}


def cause_error(cause: int) -> VsgofError:
    """The error of a cause whose message does not depend on the data."""
    cls, message = CAUSES[cause]
    return cls(message)
