"""Exception types shared across the package."""


class PreimageError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(PreimageError, ValueError):
    """A configuration value is out of its documented range."""


class ShapeError(PreimageError, ValueError):
    """An array argument has the wrong shape or dimension."""


class StateError(PreimageError, RuntimeError):
    """An operation was called in the wrong order (e.g. backward before forward)."""


class NumericalDomainError(PreimageError, ArithmeticError):
    """The input is outside the mathematical domain of the operation."""


class CheckpointFormatError(PreimageError, ValueError):
    """A checkpoint file is malformed; the message names the offending field."""


class SamplingError(PreimageError, RuntimeError):
    """The reverse process produced a non-finite state and was aborted."""


class AcceptanceStarvationError(PreimageError, RuntimeError):
    """Rejection sampling kept nothing within the draw budget."""

    def __init__(self, message: str, acceptance_rate: float, n_draws: int):
        super().__init__(message)
        self.acceptance_rate = acceptance_rate
        self.n_draws = n_draws


class DivergenceError(PreimageError, RuntimeError):
    """Training or gradient-descent inversion diverged; carries the loss trace."""

    def __init__(self, message: str, loss_trace):
        super().__init__(message)
        self.loss_trace = list(loss_trace)
