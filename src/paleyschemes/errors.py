"""Exception types shared across the package."""


class PaleyError(Exception):
    """Base class for all package errors."""


class ParameterError(PaleyError, ValueError):
    """Inputs are malformed or mutually inconsistent."""


class PreconditionError(PaleyError):
    """A method's mathematical precondition is not met.

    Deliberately distinct from a verification returning False: a False
    verdict means the object fails the identity being tested, while this
    error means the test does not apply to the object at all.
    """


class InternalInconsistencyError(PaleyError):
    """Two results that must agree by theory disagreed; indicates a bug."""


class VerificationFailedError(PaleyError):
    """An object that was required to verify did not."""


class BudgetExceededError(PaleyError):
    """A configured work budget was exhausted before completion."""

    def __init__(self, message: str, spent: int = 0):
        super().__init__(message)
        self.spent = spent
