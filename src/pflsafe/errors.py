"""Exception hierarchy shared by all pflsafe modules: one class per exit code.

``InputError`` (exit 3) is an input the computation cannot accept: a file
that does not match its format, a value that is malformed, not finite or
outside its bound, or a combination no limit can be derived for.
``NumericalError`` (exit 4) is a well-formed input the computation did not
succeed on: a sweep with no reachable grid point.
"""
from __future__ import annotations


class PflError(Exception):
    """Base class for all errors raised by this package."""


class InputError(PflError):
    """An input breaks a stated format, bound or assumption (exit 3)."""


class NumericalError(PflError):
    """A computation on valid input did not succeed (exit 4)."""
