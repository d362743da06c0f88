"""Exception types shared across the package, the one check of the integer
counts and seeds it accepts, the one check of a table of keyed values (a run
config's sections, a dataset's params) and the one refusal of non-finite
arrays."""

import sys

import numpy as np

# The largest seed a checkpoint holds: it stores the seed as a u64.
SEED_MAX = (1 << 64) - 1


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


def _is_number(v) -> bool:
    return isinstance(v, (int, float, np.integer)) and not isinstance(v, bool)


# What each value of a keyed table must be: a description for the error
# message and the test. Every integer of a run config or a dataset's params is
# a count or a dimension, so "int" means a positive integer. A finite number
# is one that float64 holds: not NaN, not an infinity and no integer beyond
# its range.
_KINDS = {
    "int": ("a positive integer", lambda v: is_int(v, 1)),
    "seed": ("an integer in [0, 2**64)", lambda v: is_int(v, 0, SEED_MAX)),
    "number": ("a number", _is_number),
    "finite": ("a finite number", lambda v: _is_number(v) and abs(v) <= sys.float_info.max),
    "scale": ("a finite number >= 0",
              lambda v: _is_number(v) and 0 <= v <= sys.float_info.max),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str?": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "ints": ("a nonempty list of positive integers",
             lambda v: isinstance(v, list) and v and all(is_int(h, 1) for h in v)),
}


def check_section(value, name: str, keys: dict) -> dict:
    """value, if it is a dict with no key outside keys, every required key
    and every value of its kind; keys maps each key to a _KINDS name, which
    ends in "!" for a required key. Else a ConfigurationError that names the
    section name and the key."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"the {name} config must be a JSON object")
    unknown = set(value) - set(keys)
    if unknown:
        raise ConfigurationError(f"unknown {name} config keys: {', '.join(sorted(unknown))}")
    for key, kind in keys.items():
        if key not in value:
            if kind.endswith("!"):
                raise ConfigurationError(f"the {name} config needs {key!r}")
            continue
        what, ok = _KINDS[kind.rstrip("!")]
        if not ok(value[key]):
            raise ConfigurationError(
                f"{name} config {key!r} must be {what}, got {value[key]!r}")
    return value


def check_finite(name: str, array) -> None:
    """A NumericalDomainError naming array if it holds a NaN or an infinity."""
    if not np.isfinite(array).all():
        raise NumericalDomainError(f"{name} holds non-finite values")
