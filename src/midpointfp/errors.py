"""Exception types shared across the package."""


class MidpointError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(MidpointError):
    """Malformed numeric input: wrong dimension, NaN/Inf, bad parameter."""


class UnsupportedNormError(MidpointError):
    """Norm exponent outside the supported range for the requested operation."""


class IllPosedError(MidpointError):
    """The implicit step is not a contraction (q_n >= 1) or is singular."""

    def __init__(self, message, n=None, q=None):
        super().__init__(message)
        self.n = n
        self.q = q


class InnerBudgetError(MidpointError):
    """Inner solver hit its iteration budget before meeting the error bound."""

    def __init__(self, message, n=None, achieved_bound=None, iterations=None):
        super().__init__(message)
        self.n = n
        self.achieved_bound = achieved_bound
        self.iterations = iterations


class RejectedSampleError(MidpointError):
    """A claimed fixed point failed verification."""

    def __init__(self, message, offenders=()):
        super().__init__(message)
        self.offenders = list(offenders)


class ConfigError(MidpointError):
    """Configuration file violates the schema."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
