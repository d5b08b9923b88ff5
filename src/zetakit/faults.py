"""Deliberate fault injection for sensitivity testing.

The identity harness is only trustworthy if a small wrong answer anywhere
actually trips at least one check.  This module provides the hook: while a
fault is armed, the instrumented function multiplies its output by
``1 + 1e-6``, and the Bernoulli table hook corrupts one exact entry.
Production overhead is a single set lookup per call.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["FAULT_TARGETS", "inject", "active", "perturb"]

# Function outputs that can be perturbed, plus the exact-table hook.
FAULT_TARGETS = (
    "ln_gamma",
    "hurwitz_zeta",
    "lerch_phi",
    "ext_fd",
    "ext_be",
    "bernoulli-table",
)

# Relative perturbation applied by an armed output fault.
_REL = 1e-6

_ACTIVE: set[str] = set()


def active(name: str) -> bool:
    return name in _ACTIVE


def perturb(name: str, value: complex) -> complex:
    """Return ``value`` scaled by (1 + 1e-6) when fault ``name`` is armed."""
    if name not in _ACTIVE:
        return value
    return value * (1.0 + _REL)


@contextmanager
def inject(name: str) -> Iterator[None]:
    """Arm fault ``name`` for the duration of the context."""
    if name not in FAULT_TARGETS:
        raise KeyError(f"unknown fault target: {name!r}")
    _ACTIVE.add(name)
    try:
        yield
    finally:
        _ACTIVE.discard(name)
