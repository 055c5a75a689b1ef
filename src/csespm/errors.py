"""Exception types shared across the package."""


class CsespmError(Exception):
    """Base class for all package errors."""


class ParameterError(CsespmError, ValueError):
    """A cell parameter or discretization setting violates its domain."""


class ConfigError(CsespmError, ValueError):
    """A run configuration file is missing, malformed, or inconsistent."""


class PhaseDomainError(CsespmError, ValueError):
    """A two-phase builder was called with r_p outside (0, R_s_p)."""


class SaturationError(CsespmError, ValueError):
    """Effective solid concentration hit 0 or c_s_max; the voltage map left
    its valid domain.  Raised for rows, ``before`` holds the output map of
    the rows ahead of the failing one."""

    before = None


class TransitionError(CsespmError, RuntimeError):
    """A phase transition failed its mass audit."""


class BlowupError(CsespmError, RuntimeError):
    """The integrator produced a non-finite state."""

    def __init__(self, message, last_good_time=None):
        super().__init__(message)
        self.last_good_time = last_good_time
