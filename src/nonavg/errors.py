"""Exception types shared across the package."""


class InvalidTuple(ValueError):
    """Raised when a coefficient tuple is malformed or fails a validity precondition."""


class BudgetExhausted(RuntimeError):
    """Raised when a search hits its node budget before resolving.

    Hitting the budget is never silently treated as "no solution"; callers
    decide whether to retry with a larger cap.  ``partial`` may carry partial
    results (the greedy engine attaches the terms accepted so far) and
    ``candidate`` the least value not yet decided; ``where`` names the
    search and the point it stopped at, for searches without a candidate.
    """

    def __init__(self, nodes: int, partial=None, candidate=None, where=None):
        message = f"search budget exhausted after {nodes} nodes"
        if where is not None:
            message += f" in {where}"
        if candidate is not None:
            message += f" at candidate {candidate}"
        if partial is not None:
            message += f" with {len(partial.terms)} terms"
        super().__init__(message)
        self.nodes = nodes
        self.partial = partial
        self.candidate = candidate
        self.where = where


class Overflow(OverflowError):
    """Raised when a computed value would not fit in 63 bits."""


class DomainError(ValueError):
    """Raised when an analytic formula is evaluated outside its domain."""


class UnsupportedM(ValueError):
    """Raised when family parameters are requested for an unsupported size."""
