"""The errors that the CLI maps to exit codes, in a module that imports
nothing, so every process can catch them without loading the code that
raises them.  ``hblab.outer`` re-exports all three."""


class ParameterError(ValueError):
    """Invalid construction or experiment parameters."""


class GrowthBoundError(RuntimeError):
    """No power of the outer function satisfies the radial growth bound.

    Raised with a per-interval table of the best (least favourable) measured
    log-ratio against the required bound.
    """

    def __init__(self, message: str, table=None):
        super().__init__(message)
        self.table = table or []


class PrecisionExhausted(RuntimeError):
    """The requested computation needs more mantissa bits than configured."""
