"""Exception hierarchy shared by all mqisim modules, and their one rule for counts."""

from numbers import Real


class MqisimError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(MqisimError, ValueError):
    """An argument is outside the documented domain of an operation."""


class InvalidStateError(MqisimError):
    """A quantum state fails its physicality requirements (e.g. not PSD)."""


class DegenerateStateError(MqisimError):
    """A covariance matrix is numerically singular."""


class TruncationError(MqisimError):
    """A Fock-space cutoff is too small for the requested operation."""


class ConvergenceError(MqisimError):
    """An iterative numerical routine failed to converge."""


def check_count(name: str, value, minimum: int = 0) -> int:
    """``value`` as an int; unless a whole number >= ``minimum``, InvalidArgumentError."""
    if not (isinstance(value, Real) and float(value).is_integer() and value >= minimum):
        raise InvalidArgumentError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)
