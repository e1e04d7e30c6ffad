"""Exception types shared across the package."""


class Graph6Error(ValueError):
    """Malformed graph6 input (bad length header, stray bits, byte out of range)."""


class BudgetExceededError(RuntimeError):
    """A backtracking search ran past its node or time budget."""


class DecompositionError(RuntimeError):
    """Wedderburn decomposition could not be certified."""


class CertificationError(AssertionError):
    """A structural certificate failed: the computed object is not what it claims.

    Raised explicitly, so the checks also run under ``python -O``.
    """
