"""Exception types shared across the package.

Every error raised on a recoverable, diagnosable condition derives from
:class:`NullCtrlError` so callers (and the command line front end) can
distinguish structural failures of the model from plain programming errors.
"""


class NullCtrlError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(NullCtrlError, ValueError):
    """Invalid user-supplied data (matrices, masks, configuration)."""


class CoercivityError(ValidationError):
    """The symmetric part of the diffusion matrix is not positive definite."""


class ConfigError(ValidationError):
    """A configuration document failed validation.

    The message always names the offending field path, e.g. ``system.D``.
    """


class ControllabilityError(NullCtrlError):
    """The rank certificate failed, so no control can be synthesized."""


class InvalidKernelError(ValidationError):
    """A vector claimed to lie in a Kalman kernel does not."""


class PropagationStepError(NullCtrlError):
    """A requested exponential step is too large to evaluate reliably."""


class ObservabilityError(NullCtrlError):
    """The Gramian is numerically too weak to invert at the requested data."""


class ScheduleError(ValidationError):
    """A dyadic control schedule could not be built from the given data."""


class AdaptationError(NullCtrlError):
    """The frequency-scale adaptation hit its doubling cap without
    achieving the required per-window contraction."""
