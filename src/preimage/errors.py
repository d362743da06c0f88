"""Exception types shared across the package, the one check of the integer
counts and seeds it accepts and the one refusal of non-finite arrays."""

import numpy as np


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


def is_int(value, lo: int = 0, hi: int | None = None) -> bool:
    """Whether value is an int or numpy integer, not a bool, in [lo, hi]
    (hi None: no upper limit)."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and lo <= value and (hi is None or value <= hi))


def check_int(name: str, value, lo: int = 0, hi: int | None = None) -> int:
    """value as an int if is_int(value, lo, hi), else a ConfigurationError
    that names it."""
    if not is_int(value, lo, hi):
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ConfigurationError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def check_finite(name: str, array) -> None:
    """A NumericalDomainError naming array if it holds a NaN or an infinity."""
    if not np.isfinite(array).all():
        raise NumericalDomainError(f"{name} holds non-finite values")
