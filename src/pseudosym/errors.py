"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Input parameters violate a stated precondition."""


class InconsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a construction bug, not bad input.

    Among these checks: every binomial the package builds is homogeneous for
    the grading Xi -> ni, and each closed-form tail element leads as the
    README's lemma (iii) proves it must.
    """
