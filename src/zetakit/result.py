"""Immutable records: the uniform result of every numerical evaluation path,
and the base that every record of the library builds on.

A record is a ``namedtuple`` subclass whose ``__new__`` checks its fields
and stores them as given.  It is built by keyword or by position, its
``repr`` names its fields, its fields cannot be reassigned, and equality
and hashing go by value within one record type.  Built on ``tuple``, a
record takes well under half the time of a frozen dataclass with the same
checks to construct, and the package loads neither ``dataclasses`` nor
``inspect`` at import.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = ["EvalResult", "Record"]


class Record:
    """Mixin placed ahead of a ``namedtuple`` base: a record equals only a
    record of its own type with equal fields, never a plain tuple."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, tuple):
            return NotImplemented
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        if not isinstance(other, tuple):
            return NotImplemented
        return type(other) is not type(self) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__


class EvalResult(Record, namedtuple("EvalResult", "value err_estimate strategy work")):
    """Value plus a posteriori error estimate and provenance.

    Attributes:
        value: the computed complex value.
        err_estimate: non-negative absolute error estimate.  Estimates are
            honest but not certified bounds.
        strategy: short tag naming the code path that actually ran
            (e.g. ``"hurwitz/euler-maclaurin"``), so cross-checks can verify
            two routes really were different.
        work: number of elementary kernel/term evaluations consumed.
    """

    __slots__ = ()

    def __new__(cls, value: complex, err_estimate: float, strategy: str, work: int):
        if not err_estimate >= 0.0:   # NaN fails too
            raise ValueError("err_estimate must be non-negative")
        if work < 0:
            raise ValueError("work must be non-negative")
        return tuple.__new__(cls, (value, err_estimate, strategy, work))

    def to_dict(self) -> dict:
        """JSON-friendly form; complex values become {"re": .., "im": ..}."""
        return {
            "value": {"re": self.value.real, "im": self.value.imag},
            "err_estimate": self.err_estimate,
            "strategy": self.strategy,
            "work": self.work,
        }
