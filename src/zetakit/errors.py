"""Error taxonomy shared by every evaluation routine.

The split mirrors how callers recover: a pole is a mathematical fact about
the requested point, a domain violation is a caller bug, a convergence
failure is a tolerance/budget problem, and a range error is a table limit.
"""

from __future__ import annotations

__all__ = [
    "ZetakitError",
    "PoleError",
    "DomainError",
    "RangeError",
    "ConvergenceError",
]


class ZetakitError(Exception):
    """Base class for all errors raised by this package."""


class PoleError(ZetakitError):
    """The requested point is a pole of the target function."""


class DomainError(ZetakitError):
    """An argument lies outside the documented domain of the operation."""


class RangeError(ZetakitError):
    """A table-backed quantity was requested beyond its configured range."""


class ConvergenceError(ZetakitError):
    """An iterative scheme could not meet its tolerance within budget."""
