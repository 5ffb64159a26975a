"""Exception hierarchy shared by all mqisim modules, and the rules every check goes through.

An input outside its domain raises :class:`InvalidArgumentError` (the CLI exits 2).
A computed value that leaves the double range raises ``OverflowError``, and a
failed numerical gate one of the other :class:`MqisimError` subclasses (exit 3).
Each check is one of three calls: :func:`check_count` for a count, :func:`require`
for any other condition (a comparison NaN fails, so NaN fails the check) and
:func:`finite` for a computed value.
"""

from numbers import Real

import numpy as np


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


def require(ok, message: str, *values, error=InvalidArgumentError):
    """Raise ``error`` unless ``ok`` holds at every point (a scalar or an array).

    With ``values``, the message is ``message.format`` of their entries at the
    first point where ``ok`` fails, each broadcast to the shape of ``ok``;
    without, it is ``message`` as given.
    """
    if ok is True or ok is np.True_:   # a passing scalar skips numpy's per-call cost
        return
    bad = np.flatnonzero(np.logical_not(ok))
    if bad.size:
        point = (np.broadcast_to(v, np.shape(ok)).flat[bad[0]].item() for v in values)
        raise error(message.format(*point) if values else message)


def finite(message: str, op, *operands):
    """``op(*operands)``, or OverflowError with ``message`` formatted by the operands
    at the first point where the result is not finite."""
    with np.errstate(over="ignore"):
        out = op(*operands)
    require(np.isfinite(out), message, *operands, error=OverflowError)
    return out


def check_count(name: str, value, minimum: int = 0) -> int:
    """``value`` as an int; unless a whole number >= ``minimum``, InvalidArgumentError."""
    require(isinstance(value, Real) and float(value).is_integer() and value >= minimum,
            f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)
