"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Input parameters violate a stated precondition."""


class UnsupportedParametersError(ValueError):
    """The strict-k closed form is refused: a tail element would lead on the wrong side of a tie.

    Inside the closed-form regime this happens exactly when the strict and
    non-strict readings of k differ; the default, non-strict closed form is
    never refused.  Inputs outside the regime raise `ParameterError`.
    """


class InconsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a construction bug, not bad input."""
