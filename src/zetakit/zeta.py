"""The zeta family: Hurwitz zeta, Riemann zeta, Dirichlet eta, the
Hurwitz-Lerch transcendent, polylogarithms, and the functional-equation
factor chi(s).

Continuation backbone: Euler-Maclaurin for the Hurwitz zeta,

    zeta(s, a) = sum_{n=0}^{N-1} (n+a)^{-s}
               + (N+a)^{1-s}/(s-1) + (N+a)^{-s}/2
               + sum_{k=1}^{M} [B_{2k}/(2k)!] (s)_{2k-1} (N+a)^{-s-2k+1},

valid for all s != 1 with Re(a) > 0.  The shift N adapts to s: for
Re(s) >= 0 it grows like |s|; for Re(s) < 0 it *shrinks*, to
N + a ~ 4.5 + |Im s|/4, so the power-law direct terms cannot cancel
catastrophically against the integral term, while the correction sum is
extended adaptively (terms are added while they keep decreasing) far
enough to reach the asymptotic floor.  Every path reports a
rounding-aware error estimate.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from . import faults
from .errors import ConvergenceError, DomainError, PoleError
from .numeric_core import (
    MAX_POLY_DEGREE,
    _CHUNK,
    alternating_sum_cvz,
    bernoulli_number,
    chebyshev_weights,
    chunked_sum,
    compensated_sum,
    cpow,
    is_nonpos_int,
    ln_gamma,
    max_abs_log,
    require_finite,
)
from .result import EvalResult

__all__ = [
    "LerchParams",
    "hurwitz_zeta",
    "hurwitz_diff",
    "riemann_zeta",
    "dirichlet_eta",
    "lerch_phi",
    "polylog",
    "chi_ratio",
    "digamma",
]

_PI = math.pi
_LN_PI = math.log(math.pi)
_LN2 = math.log(2.0)
_LN_2PI = math.log(2.0 * math.pi)
# Euler-Maclaurin correction pairs always taken before the adaptive
# extension may stop at the smallest term.
_EM_MIN_PAIRS = 6

# Relative tolerance and term budget shared by the series routines.
REL_TOL = 1e-13
MAX_TERMS = 500_000
_LN_REL_TOL = math.log(REL_TOL)
# The error of S_{3n/4}, the shorter CVZ sum an estimate compares with,
# falls by the factor e^{-_CVZ_RATE} for each term added to n.
_CVZ_RATE = 0.75 * math.log(3.0 + math.sqrt(8.0))
# The fewest terms a CVZ sum takes.
_CVZ_MIN = 32
# Most pieces of the multiplication formula the circle sum takes: m grows
# like (2 pi/3)/|arg z| next to z = 1, where the Taylor series in log z
# takes over (:func:`near_one`).
MULT_CAP = 16
_WEDGE = 2.0 * math.pi / 3.0
# Next to |z| = 1 the Taylor series in log z and the circle's routes cost
# less than a direct sum predicted past this many terms (direct_length;
# |z| above about e^{-0.0998}): the measured crossover of the extended
# pair's forced routes over Re s in [-4.5, 4.5] and nu in [0, 3].
SERIES_CROSSOVER = 300
# The Taylor terms in log z grow like (|a| |log z|)^k / k! and cancel by
# about e^{2 |a| |log z|}; past this product the direct sum serves inside
# the circle (for the extended pair's AUTO, wherever it is predicted to
# finish within MAX_TERMS).
TAYLOR_REACH = 4.0


@dataclass(frozen=True)
class LerchParams:
    """Arguments (z, s, a) of the transcendent sum_{n>=0} z^n (n+a)^{-s}.

    |z| <= 1, read as 1 within 1e-14, and a off the non-positive integers.
    On |z| = 1 with z != 1 an order Re(s) <= 0 needs real a, which Lerch's
    transformation serves (see :func:`lerch_phi`); it reads a z up to 1e-14
    outside the circle by continuation at z itself.
    """

    z: complex
    s: complex
    a: complex

    def __post_init__(self) -> None:
        require_finite(self.z, "z")
        require_finite(self.s, "s")
        if is_nonpos_int(require_finite(self.a, "a")):
            raise DomainError("a must avoid the non-positive integers")
        if abs(self.z) > 1.0 + 1e-14:
            raise DomainError("require |z| <= 1")
        z = complex(self.z)
        if (abs(abs(z) - 1.0) <= 1e-14 and abs(z - 1.0) > 1e-12
                and complex(self.s).real <= 0.0 and complex(self.a).imag != 0.0):
            raise DomainError("|z| = 1 with z != 1 at Re(s) <= 0 needs real a")


def _cexpm1(u: complex) -> complex:
    """exp(u) - 1 without cancellation: with u = x + iy it is
    expm1(x) cos y - 2 sin^2(y/2) + i e^x sin y."""
    return complex(math.expm1(u.real) * math.cos(u.imag)
                   - 2.0 * math.sin(0.5 * u.imag) ** 2,
                   math.exp(u.real) * math.sin(u.imag))


class ReflectionLadder:
    """Hurwitz's Fourier reflection series at the orders s, s - 1, s - 2,
    ... for one real a > 0 and one step, Re(s) <= -4.

    Each call of :meth:`rung` returns (value, err, work) at the current
    order and steps to the next; :func:`fourier_reflection`, the series at
    one order, is the first rung.  The series at order s is

        amp sum_{n = 1, 1 + step, ...} sin(pi s/2 + freq n a0) n^{s-1},

    amp = 2 Gamma(1-s) (2 pi)^{s-1}, times 2^{1-s} for step 2, freq =
    2 pi/step, plus the reduction of a to a0 = a - m in (0, 1] (see
    :func:`fourier_reflection`).  A step to order s - 1 updates the pieces
    the orders share, and recomputes none:

    * amp by amp (1 - s) step/(2 pi), and log Gamma(1-s), on which the
      estimate charges the exponent's rounding, by one log(1 - s);
    * the sines by exact quarter turns: rung k takes sin, -cos, -sin, cos
      of the first rung's arguments for k = 0, 1, 2, 3 mod 4; the cosines
      are made at the first odd rung;
    * the powers n^{s-1} by one division by n, over the prefix the rung
      sums;
    * the reduction terms (a0 + j)^{-s} by one product with a0 + j, held
      while m <= ``_CHUNK``; past that each rung makes them afresh through
      ``chunked_sum``, so memory stays flat in a.

    The estimate of rung k charges these recurrences k times 2.2e-16
    relative on the powers and on the reduction, and 3 k times that on amp
    (the rounding of 1 - s, of two products and of step/(2 pi)).
    """

    def __init__(self, s: complex, a: float, step: int) -> None:
        self.s = s            # the first rung's order; rung k's is s - k
        self.step = step
        self.k = 0
        self.m = m = max(0, math.ceil(a) - 1)
        self.a0 = a0 = a - m
        self.ln_g = ln_gamma(1.0 - s)
        # One exponential of the summed logarithms: Gamma(1-s) alone overflows
        # from Re(s) ~ -170, |amp| only near -218 (step 2) and -259 (step 1).
        self.amp = cmath.exp(self.ln_g + _LN2 + (s - 1.0) * _LN_2PI
                             + (step - 1) * (1.0 - s) * _LN2)
        self.cosh_t = math.cosh(0.5 * _PI * s.imag)
        self.half_arg = 0.5 * _PI * s
        self.freq = 2.0 * _PI / step
        self.amp_step = step / (2.0 * _PI)
        # max |log(a0 + j)| over the reduction, a0 in (0, 1].
        self.red_log = math.log(max(1.0 / a0, a0 + m - 1)) if m else 0.0
        self.red: list[complex] | None = None
        if m <= _CHUNK:
            self.bases = [a0 + j for j in range(m)]
            self.red = list(self._reduction_terms(-s))
        # A real integer order reduces each sine's argument in exact turns.
        self.exact = s.imag == 0.0 and s.real == round(s.real)
        self.sines: list[complex] = []
        self.cosines: list[complex] = []
        self.inexact: set[int] = set()   # n whose exact-turn sine is rounded
        self.powers: list[complex] = []

    def _reduction_terms(self, neg_s: complex) -> Iterator[complex]:
        """The m terms -(a0 + j)^{-s}, or for step 2 -(-1)^j (a0 + j)^{-s}."""
        for j in range(self.m):
            power = cpow(self.a0 + j, neg_s)
            yield -power if self.step == 1 or j % 2 == 0 else power

    def _trig(self, held: list[complex], quarter: int, count: int) -> None:
        """Extend ``held`` to ``count`` values sin(theta_n + quarter pi/2)."""
        ns = range(1 + self.step * len(held), 1 + self.step * count, self.step)
        if not self.exact:
            fn = cmath.cos if quarter else cmath.sin
            held.extend(fn(self.half_arg + self.freq * n * self.a0) for n in ns)
            return
        # Each sine's argument in turns, s/4 + n a0/step, is an exact
        # rational.  Reduced mod 1, whole quarter turns give exact 0 and +-1
        # (zeta's trivial zeros); any other sine is off by the rounding of
        # its reduced argument, below 2.4e-15.
        start, turn = Fraction(round(self.s.real), 4), Fraction(self.a0) / self.step
        for n in ns:
            quarters = 4 * ((start + n * turn) % 1) + quarter
            if quarters.denominator == 1:
                held.append((0.0, 1.0, 0.0, -1.0)[int(quarters) % 4])
            else:
                held.append(math.sin(0.5 * _PI * float(quarters)))
                self.inexact.add(n)

    def rung(self, abs_tol: float = 0.0) -> tuple[complex, float, int]:
        """(value, err, work) at the current order, then step to the next.

        The series stops once its tail bound, relative to |amp|, is below
        max(REL_TOL, abs_tol / (|amp| cosh(pi Im(s)/2))); ``work`` counts
        the series terms summed plus the m reduction terms.
        """
        k, step, m, amp, cosh_t = self.k, self.step, self.m, self.amp, self.cosh_t
        s = self.s - k
        sigma = s.real
        tol = REL_TOL
        if abs_tol > 0.0 and abs(amp) * cosh_t > 0.0:
            tol = max(REL_TOL, abs_tol / (abs(amp) * cosh_t))
        # Terms n = 1, 1 + step, ... up to the last n; the rest of the series
        # is at most 1/step of the integral of t^{sigma-1} beyond the last n.
        n_terms = max(8, math.ceil(
            ((step * tol * (-sigma)) ** (1.0 / sigma) + step - 1) / step
        ))
        n_terms = min(n_terms, MAX_TERMS)
        last = 1 + step * (n_terms - 1)
        ns = range(1, last + 1, step)

        # Powers n^{s-1}: the held prefix divided by n once per order, the
        # rest made at this order.
        powers = self.powers[:n_terms]
        if k:
            powers = list(map(operator.truediv, powers, ns))
        powers.extend(cpow(n, s - 1.0) for n in ns[len(powers):])
        self.powers = powers
        trig = self.cosines if k % 2 else self.sines
        if len(trig) < n_terms:
            self._trig(trig, k % 2, n_terms)
        series = compensated_sum(list(map(operator.mul, trig[:n_terms], powers)))
        if k % 4 in (1, 2):
            series = -series

        if self.red is None:
            reduction, mass, reduction_err = chunked_sum(self._reduction_terms(-s))
        else:
            if k:
                self.red = list(map(operator.mul, self.red, self.bases))
            reduction = compensated_sum(self.red)
            mass = math.fsum(map(abs, self.red))
            reduction_err = 0.0

        tail = (last ** sigma) / (step * -sigma) * cosh_t
        reflected = amp * series
        value = reflected + reduction
        if step == 2 and m % 2 == 1:
            value = -value
        if not cmath.isfinite(value):
            raise OverflowError(f"reflection series overflows at s={s!r}")
        if self.exact:
            arg_err = 2.4e-15 * abs(amp) * math.fsum(
                n ** (sigma - 1.0) for n in sorted(self.inexact) if n <= last)
        else:
            # Each sine moves by the rounding of its argument, 2.2e-16
            # (|pi s/2| + freq n a0) at the first rung's s, times |cos| <=
            # cosh(pi Im(s)/2); weighted by n^{Re(s)-1} the sum over n stays
            # below 1.1 (|pi s/2| + freq a0) for Re(s) <= -4.  It matters
            # where the leading sine nearly vanishes.
            arg_err = (2.4e-16 * abs(amp) * cosh_t
                       * (abs(self.half_arg) + self.freq * self.a0))
        # The powers n^{s-1}, n >= 2 (1^{s-1} is exact), carry cpow's
        # rounding at the first rung's exponent plus k divisions, on a
        # weight sum_{n>=2} n^{Re(s)-1} (1 + log n) <= 1.4 2^{Re(s)}.
        power_err = (3.1e-16 * (1.0 + abs(s - 1.0) + k) * 2.0 ** sigma
                     * abs(amp) * cosh_t)
        # amp came from one exponential of log Gamma(1-s), (s-1) log 2 pi
        # and, for step 2, (1-s) log 2, whose rounding it passes on; each
        # step since adds up to 6.6e-16 relative.
        expo_err = 2.2e-16 * (
            abs(self.ln_g) + abs(s - 1.0) * (_LN_2PI + (step - 1) * _LN2) + 3 * k
        ) * abs(reflected)
        # Each reduction term carries cpow's rounding, 2.2e-16 (1 + |s|
        # (1 + |log(a0 + j)|)), and k products since.
        reduction_err += 2.2e-16 * (
            1.0 + abs(s) * (1.0 + self.red_log) + k) * mass
        err = (abs(amp) * tail + 3e-16 * max(mass, abs(reflected)) + 5e-15 * abs(value)
               + expo_err + arg_err + power_err + reduction_err)

        self.k = k + 1
        t = 1.0 - s
        self.ln_g += cmath.log(t)
        self.amp = amp * (t * self.amp_step)
        return value, err, n_terms + m

    def bounds(self, count: int) -> list[tuple[float, float]] | None:
        """(lower, upper) bounds on |value| of the next ``count`` rungs, in
        O(count) float operations; None where a bound leaves the floats.

        With sigma the real part of a rung's order, C = cosh(pi Im(s)/2)
        and b = 1 + step the first n after 1, a rung's value is
        +-[amp (+-trig + rest) + reduction], where:

        * trig is sin theta at even rungs and cos theta at odd ones, theta
          the n = 1 argument;
        * |rest| <= R = C (b^{sigma-1} + b^sigma/(step (-sigma))), the
          sines bounded by C and the powers past n = b by their integral.
          That holds for every truncation, so no ``abs_tol`` moves it;
        * the reduction's moduli (a0 + j)^{-sigma} rise with j, so their
          sum lies within L +- O, with L = (a - 1)^{-sigma} the last and O
          the others, at most (m - 1) (a - 2)^{-sigma} and, by their
          integral, (a - 1)^{1-sigma}/(1 - sigma);
        * |amp| steps by |1 - s| step/(2 pi).

        So |value| <= |amp| (C + R) + L + O, and |value| >= the larger of
        |amp| (|trig| - R) - L - O and L - O - |amp| (C + R).  Both bounds
        are widened by the rung's rounding: each charge of its estimate is
        at most ``rho`` times the upper bound.
        """
        step, m, a0, cosh_t = self.step, self.m, self.a0, self.cosh_t
        s = self.s - self.k
        # The largest power below, (a - 1)^{1-sigma} at the last rung,
        # must stay a float.
        if m > 1 and (count - s.real) * math.log(a0 + m - 1) > 700.0:
            return None
        theta = self.half_arg + self.freq * a0
        trig = (abs(cmath.sin(theta)), abs(cmath.cos(theta)))
        # |log(1 - s)| <= log|1 - s| + pi/2 bounds each step of ln_g.
        ln_g = abs(self.ln_g) + count * (math.log(abs(1.0 - s) + count) + 1.6)
        rho = 8e-15 + 2.5e-16 * (
            ln_g + (abs(s) + count + 1.0) * (4.0 + self.red_log)
            + abs(self.half_arg) + 2.0 * _PI + 5.0 * (self.k + count))
        amp, b, top = abs(self.amp), 1.0 + step, a0 + m - 1
        p = -s.real
        b_pow = b ** -p                                  # b^sigma
        big = top ** p if m else 0.0                     # L
        below = (m - 1) * (top - 1.0) ** p if m > 1 else 0.0
        out = []
        for j in range(count):
            rest = cosh_t * b_pow * (1.0 / b + 1.0 / (step * p))
            others = min(below, big * top / (p + 1.0))   # O
            hi = amp * (cosh_t + rest) + big + others
            lo = max(amp * (trig[(self.k + j) % 2] - rest) - big,
                     big - amp * (cosh_t + rest)) - others
            out.append((lo - rho * hi, hi + rho * hi))
            amp *= abs(1.0 - s + j) * self.amp_step
            p += 1.0
            b_pow /= b
            big *= top
            below *= top - 1.0
        # Every bound grows without limit once one has, so the last is
        # finite where all are.
        if not math.isfinite(out[-1][1]):
            return None
        return out


def fourier_reflection(
    s: complex, a: float, step: int, abs_tol: float = 0.0
) -> tuple[complex, float, int]:
    """Fourier reflection series for Re(s) < 0 and real a > 0: the first
    rung of a :class:`ReflectionLadder`.

    Returns (value, err, work).  With step = 1 the value is zeta(s, a),

        zeta(s, a0) = 2 Gamma(1-s) (2 pi)^{s-1}
                      * sum_{n>=1} sin(pi s / 2 + 2 pi n a0) / n^{1-s};

    with step = 2 it is the alternating sum Phi(-1, s, a) =
    sum_{n>=0} (-1)^n (n+a)^{-s}, whose bisection 2^{-s} [zeta(s, a0/2) -
    zeta(s, (a0+1)/2)] keeps only the odd terms of the two series:

        Phi(-1, s, a0) = 4 2^{-s} Gamma(1-s) (2 pi)^{s-1}
                         * sum_{n odd} sin(pi s / 2 + pi n a0) / n^{1-s}.

    Both hold for a0 in (0, 1]; larger a is first reduced by
    zeta(s, a) = zeta(s, a0) - sum_{j<m} (a0 + j)^{-s} and
    Phi(-1, s, a) = (-1)^m [Phi(-1, s, a0) - sum_{j<m} (-1)^j (a0 + j)^{-s}],
    a0 = a - m, summed in chunks (``chunked_sum``) past ``_CHUNK`` terms so
    that memory stays flat at large a.  The series gains accuracy as Re(s)
    decreases — the regime where Euler-Maclaurin loses it — so it serves
    as the deep-left-half-plane route.  At a real integer order the sines'
    arguments are reduced exactly, so the trivial zeros come out as 0.

    The series stops once its tail bound, relative to the prefactor's
    modulus |amp|, is below max(REL_TOL, abs_tol / (|amp| cosh(pi Im(s)/2)));
    ``work`` counts the series terms summed plus the m reduction terms.
    The estimate charges the rounding of amp's exponent, of every sine's
    argument and of every power (``cpow``'s bound).  OverflowError is
    raised where the prefactor or the value passes the double range; the
    prefactor does so below about Re(s) = -218 (step 2) and -259 (step 1).
    """
    return ReflectionLadder(s, a, step).rung(abs_tol)


# B_{2k}/(2k)! as floats for k = 0 .. MAX_POLY_DEGREE // 2, built on the
# first Euler-Maclaurin call rather than at import.
_EM_COEFFS: list[float] = []


def _em_coeffs() -> list[float]:
    """Float Euler-Maclaurin coefficients B_{2k}/(2k)!, indexed by k.

    While the ``bernoulli-table`` fault is armed the table is rebuilt from
    the (corrupted) exact numbers on every call, so the fault reaches the
    Euler-Maclaurin corrections exactly as it reaches the exact layer.
    """
    faulty = faults.active("bernoulli-table")
    if _EM_COEFFS and not faulty:
        return _EM_COEFFS
    table = [
        float(bernoulli_number(2 * k) / math.factorial(2 * k))
        for k in range(MAX_POLY_DEGREE // 2 + 1)
    ]
    if not faulty:
        _EM_COEFFS.extend(table)
    return table


def hurwitz_zeta(s: complex, a: complex, *, abs_tol: float = 0.0,
                 pole_free: bool = False) -> EvalResult:
    """Hurwitz zeta zeta(s, a) for complex s != 1, Re(a) > 0.

    Euler-Maclaurin continuation on both sides of the critical strip; with
    real a the Fourier reflection series takes over at non-integer
    Re(s) <= -4 and at integer orders below -49.  See the module docstring
    for the parameter policy.

    ``abs_tol`` is an absolute accuracy the caller can live with.  Only the
    reflection series uses it: it stops once its tail bound is below
    max(REL_TOL |amp|, abs_tol / cosh(pi Im(s)/2)), |amp| the modulus of its
    prefactor (see :func:`fourier_reflection`), so a caller that weights
    the value by a small factor pays for fewer terms.  The estimate reports
    the tail of the terms actually summed; the default 0 asks for full
    accuracy.  Euler-Maclaurin ignores it.

    ``pole_free`` returns zeta(s, a) - 1/(s - 1) instead, finite at s = 1
    (where it is -psi(a)): the integral term (N+a)^{1-s}/(s-1) becomes
    ((N+a)^{1-s} - 1)/(s-1), an expm1 without cancellation, so no digits
    go to the pole next to s = 1.

    ``work`` counts N head terms plus two per correction pair (the
    reflection route: its series terms actually summed plus the
    reduction, fewer when ``abs_tol`` is set).  At Re(s) < 0 the shift is
    small, so there most of ``work`` is correction pairs; a pair costs
    about as much time as a head term.
    """
    s = require_finite(s, "s")
    a = require_finite(a, "a")
    if abs(s - 1.0) < 1e-12 and not pole_free:
        raise PoleError("pole at s=1")
    if a.real <= 0.0:
        raise DomainError(f"hurwitz_zeta needs Re(a) > 0, got a={a!r}")

    sigma = s.real
    terminating = (
        sigma < 0.0
        and s.imag == 0.0
        and s.real == round(s.real)
        and 1 - round(s.real) <= MAX_POLY_DEGREE
    )
    # Below order -49 the terminating sum cancels away its digits and, from
    # -61, needs more correction pairs than the Bernoulli table holds.
    if a.imag == 0.0 and (sigma < -49.0 or sigma <= -4.0 and not terminating):
        value, err, work = fourier_reflection(s, a.real, 1, abs_tol)
        if pole_free:
            value -= 1.0 / (s - 1.0)
        return EvalResult(faults.perturb("hurwitz_zeta", value), err,
                          "hurwitz/reflection", work)
    if sigma >= 0.0:
        n_shift = math.ceil(abs(s)) + 10
    elif terminating:
        # Negative integer order: the correction series terminates exactly
        # (the Pochhammer factor vanishes), so the smallest shift minimises
        # the power-law term growth and with it the cancellation error.
        n_shift = 1
    else:
        # Negative order: a small shift, q = N + a near 4.5 + |Im s|/4.
        # The head and the integral term grow like |q|^{1-sigma} and cancel
        # down to |zeta| ~ Gamma(1-sigma)/(2 pi)^{1-sigma}, so each unit of
        # q costs digits to rounding; the corrections, extended to their
        # smallest term, leave about e^{pi |Im s|/2 - 2 pi q} relative.
        # q = 4.5 balances the two for -4 < sigma < 0, and the |Im s|/4
        # offsets the 1/Gamma(s) growth of the corrections.
        n_shift = max(1, round(4.5 + 0.25 * abs(s.imag) - a.real))

    direct = [cpow(k + a, -s) for k in range(n_shift)]
    head = compensated_sum(direct)
    q = n_shift + a
    q_pow_ms = cpow(q, -s)  # q^{-s}
    integral_err = 0.0
    if pole_free:
        # ((N+a)^{1-s} - 1)/(s-1) = -log q (e^u - 1)/u at u = (1-s) log q,
        # whose limit at s = 1 is -log q.  expm1's parts, each below
        # |u| max(1, |e^u|), and the rounding of u stay below 1.1e-15
        # |log q| max(1, |q^{1-s}|) after the division by s - 1.
        d, log_q = s - 1.0, cmath.log(q)
        u = -d * log_q
        integral = _cexpm1(u) / d if d else -log_q
        integral_err = 1.1e-15 * abs(log_q) * max(1.0, math.exp(min(u.real, 709.0)))
    else:
        integral = cpow(q, 1.0 - s) / (s - 1.0)
    half = q_pow_ms / 2.0

    # Correction terms T_k = B_{2k}/(2k)! * (s)_{2k-1} * q^{-s-2k+1};
    # extend beyond the baseline _EM_MIN_PAIRS while they keep shrinking
    # (asymptotic series: stop at the smallest term).
    max_pairs = (MAX_POLY_DEGREE - 2) // 2
    poch = s                     # (s)_{2k-1}, starting at (s)_1
    qfac = q_pow_ms / q          # q^{-s-2k+1}, starting at q^{-s-1}
    corrections: list[complex] = []
    mags = [abs(t) for t in direct] + [abs(integral), abs(half)]
    peak = max(mags)
    mass = sum(mags)    # grows by every correction term's size below
    body = abs(head + integral + half)
    em_coeffs = _em_coeffs()
    trunc_err = 0.0
    k = 1
    while k <= max_pairs:
        if terminating and poch == 0.0:
            trunc_err = 0.0  # finite exact formula fully summed
            break
        term = em_coeffs[k] * poch * qfac
        mag = abs(term)
        if corrections and mag > abs(corrections[-1]) and not terminating:
            if k > _EM_MIN_PAIRS:
                trunc_err = abs(corrections[-1])  # asymptotic floor reached
                break
        corrections.append(term)
        peak = max(peak, mag)
        mass += mag
        if (
            not terminating
            and mag <= 1e-18 * max(body, 1e-300)
            and k >= _EM_MIN_PAIRS
        ):
            trunc_err = mag
            k += 1
            break
        poch *= (s + 2 * k - 1) * (s + 2 * k)
        qfac /= q * q
        k += 1
    else:
        # Ran out of table; charge the next (uncomputed) term via the last.
        trunc_err = abs(corrections[-1]) if corrections else 0.0

    value = head + integral + half + compensated_sum(corrections)
    # Every term is a power (n+a)^e with |e| <= |s| + 1 and |log(n+a)| <=
    # max(|log a|, |log q|); cpow rounds it by up to 2.2e-16 (1 + |e|
    # (1 + |log(n+a)|)) relative.
    expo_err = 2.2e-16 * (1.0 + (abs(s) + 1.0) * (
        1.0 + max(abs(cmath.log(a)), abs(cmath.log(q)))))
    err = trunc_err + 3e-16 * peak + expo_err * mass + 1e-16 * abs(value) + integral_err
    value = faults.perturb("hurwitz_zeta", value)
    return EvalResult(
        value, err, "hurwitz/euler-maclaurin", n_shift + 2 * len(corrections)
    )


def riemann_zeta(s: complex, via: str = "em") -> EvalResult:
    """Riemann zeta through either continuation route.

    via="em" (the default) evaluates zeta(s, 1) by :func:`hurwitz_zeta`,
    whose route the tag names, or by the direct sum for Re(s) >= 30;
    via="functional" uses zeta(s) = chi(s) zeta(1-s), which is the
    independent cross-check route for Re(s) < 0; at s = 0, where chi's zero
    meets the pole of zeta(1-s), it returns the limit -1/2.  At s = 3, 5,
    ... it raises DomainError: chi's pole meets a trivial zero of zeta(1-s).
    """
    s = require_finite(s, "s")
    if via not in ("em", "functional"):
        raise DomainError(f"unknown route {via!r}")
    if abs(s - 1.0) < 1e-12:
        raise PoleError("pole at s=1")
    if via == "functional":
        if s == 0.0:
            # chi's zero meets the pole of zeta(1 - s); their product is -1/2.
            return EvalResult(-0.5, 0.0, "riemann/functional-equation", 1)
        if is_nonpos_int((1.0 - s) / 2.0):
            raise DomainError(f"s={s.real:g}: chi's pole meets the trivial "
                              "zero of zeta(1-s), whose limit needs zeta'(1-s)")
        chi = chi_ratio(s)
        if chi.value == 0.0:
            return EvalResult(0.0, chi.err_estimate, "riemann/functional-equation",
                              chi.work)
        other = hurwitz_zeta(1.0 - s, 1.0)
        value = chi.value * other.value
        # Rounding 1 - s (at most 1.11e-16 |1 - s|) moves zeta(1 - s) by
        # about that over |s| relative, which is large next to its pole at
        # s = 0; the factor 2 leaves room for the higher-order part.
        err = (
            abs(chi.value) * other.err_estimate
            + abs(other.value) * chi.err_estimate
            + 2.2e-16 * abs(value) * abs(1.0 - s) / abs(s)
        )
        return EvalResult(value, err, "riemann/functional-equation",
                          chi.work + other.work)
    if s.real >= 30.0:
        # Fast, fully converged direct sum; the tail is below 4^{-30}.
        terms = [cpow(n, -s) for n in range(1, 33)]
        value = compensated_sum(terms)
        # 1^{-s} is exact; the other powers carry cpow's rounding.
        rounding = 2.2e-16 * (1.0 + abs(s) * (1.0 + math.log(32.0))) * math.fsum(
            map(abs, terms[1:]))
        return EvalResult(value, abs(terms[-1]) + rounding + 1e-16 * abs(value),
                          "riemann/direct-sum", len(terms))
    inner = hurwitz_zeta(s, 1.0)
    route = inner.strategy.split("/", 1)[1]
    return EvalResult(inner.value, inner.err_estimate, f"riemann/{route}",
                      inner.work)


def dirichlet_eta(s: complex) -> EvalResult:
    """Alternating zeta eta(s) = (1 - 2^{1-s}) zeta(s); entire in s.

    The removable point s = 1 returns the limit value log 2 whenever
    |s - 1| < 1e-8; elsewhere the prefactor is computed via a
    cancellation-free expm1 so the zeta pole divides out cleanly.
    """
    s = require_finite(s, "s")
    if abs(s - 1.0) < 1e-8:
        return EvalResult(complex(_LN2), 2e-9, "eta/limit-ln2", 1)
    factor = -_cexpm1((1.0 - s) * _LN2)  # 1 - 2^{1-s}
    z = riemann_zeta(s)
    value = factor * z.value
    err = abs(factor) * z.err_estimate + 1e-15 * abs(value)
    return EvalResult(value, err, "eta/zeta-scaled", z.work + 1)


def digamma(a: complex) -> complex:
    """psi(a) = Gamma'(a)/Gamma(a) by shifted asymptotic expansion."""
    a = require_finite(a, "a")
    if is_nonpos_int(a):
        raise PoleError(f"pole at a={a.real:g}")
    acc = complex(0.0)
    w = complex(a)
    while w.real < 12.0:
        acc -= 1.0 / w
        w += 1.0
    inv2 = 1.0 / (w * w)
    # - sum B_{2k}/(2k) w^{-2k}, k = 1..7
    series = complex(0.0)
    coeff = [
        1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
        1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0,
    ]
    p = inv2
    for c in coeff:
        series += c * p
        p *= inv2
    return acc + cmath.log(w) - 0.5 / w - series


def hurwitz_diff(s: complex, a: complex, b: complex) -> EvalResult:
    """zeta(s, a) - zeta(s, b) for every s.

    Within 1/4 of s = 1 it is the difference of the pole-free values
    zeta(s, .) - 1/(s - 1) (``hurwitz_zeta(..., pole_free=True)``), so no
    digits go to the pole, and s = 1 gives psi(b) - psi(a).  Farther out
    the plain values are the more accurate: the pole-free integral term
    carries the rounding of (1 - s) log q through its exponential, which at
    Re(s) < 0 costs up to 50 times the plain term's."""
    s = require_finite(s, "s")
    near = abs(s - 1.0) < 0.25
    za = hurwitz_zeta(s, a, pole_free=near)
    zb = hurwitz_zeta(s, b, pole_free=near)
    value = za.value - zb.value
    return EvalResult(value, za.err_estimate + zb.err_estimate,
                      "hurwitz/euler-maclaurin-diff", za.work + zb.work)


def hurwitz_halves(s: complex, a: complex) -> EvalResult:
    """Phi(-1, s, a) = 2^{-s} [zeta(s, a/2) - zeta(s, (a+1)/2)] for every s:
    the two order-1 poles cancel in :func:`hurwitz_diff`."""
    diff = hurwitz_diff(s, a / 2.0, (a + 1.0) / 2.0)
    two_ms = cpow(2.0, -s)
    value = two_ms * diff.value
    err = abs(two_ms) * diff.err_estimate + 2.2e-16 * (
        2.5 + abs(s) * (1.0 + _LN2)) * abs(value)
    return EvalResult(value, err, "lerch/hurwitz-halves", diff.work)


def direct_length(log_r: float) -> float:
    """Terms the direct sum of Phi at |z| = e^{log_r} is predicted to take,
    ceil(ln REL_TOL / ln |z|): the least n with |z|^n <= REL_TOL.  inf on
    and outside the unit circle, log_r >= 0."""
    length = _LN_REL_TOL / log_r if log_r < 0.0 else math.inf
    return math.ceil(length) if length < math.inf else math.inf


def _cvz_length(s: complex, rate: float = _CVZ_RATE) -> int:
    """Length n of a CVZ sum whose shorter S_{3n/4} errs like
    e^{pi |Im s|/2 - rate n}: the least n >= _CVZ_MIN that puts that below
    e^{-36}."""
    return max(_CVZ_MIN, math.ceil((0.5 * _PI * abs(s.imag) + 36.0) / rate))


def _alternating_sum(terms: list[complex], expo: float) -> tuple[complex, float, int]:
    """(value, err, work) of the CVZ sum of the n = len(terms) terms, each
    carrying at most 2.2e-16 (1 + expo) relative rounding: err is
    |S_n - S_{3n/4}| plus that rounding on every term; work is n."""
    n = len(terms)
    value = alternating_sum_cvz(terms.__getitem__, n)
    gap = abs(value - alternating_sum_cvz(terms.__getitem__, 3 * n // 4))
    err = gap + 2.2e-16 * (1.0 + expo) * math.fsum(map(abs, terms))
    return value, err + 1e-15 * abs(value), n


def _alternating_terms(s: complex, a: complex, log_w: complex) -> tuple[list[complex], float]:
    """The terms w^k (k+a)^{-s} of :func:`alternating_lerch` and their
    rounding over 2.2e-16 relative."""
    n = _cvz_length(s)
    if log_w:
        terms = [cmath.exp(k * log_w - s * cmath.log(k + a)) for k in range(n)]
    else:
        neg_s = -s
        terms = [cpow(k + a, neg_s) for k in range(n)]
    return terms, abs(s) * (1.0 + max_abs_log(a, n)) + (n - 1) * abs(log_w)


def alternating_lerch(s: complex, a: complex,
                      log_w: complex = 0.0) -> tuple[complex, float, int]:
    """(value, err, work) of Phi(-w, s, a) = sum_k (-1)^k w^k (k+a)^{-s} by
    the Cohen-Rodriguez Villegas-Zagier weights: w = e^{log_w} in (0, 1],
    Re(s) > 0; the first rung of :func:`alternating_ladder`.  The error of
    the sum S_n of n terms grows like e^{pi |Im s|/2} (3+sqrt 8)^{-n}, so n,
    set up front, is the least length from 32 that puts that size for
    S_{floor(3n/4)} below e^{-36}: 32 up to |Im s| = 4, 99 at 60, 1,216 at
    1,000.  The terms are ``cpow`` powers at w = 1 and one exponential
    exp(k log w - s log(k+a)) otherwise, the faster there; either carries at
    most 2.2e-16 (1 + expo) relative rounding, expo = |s| (1 + |log(k+a)|)
    + k |log w|.  err is |S_n - S_{3n/4}| plus that on every term; work is
    n.
    """
    return _alternating_sum(*_alternating_terms(s, a, log_w))


def alternating_ladder(s: complex, a: complex, log_w: complex = 0.0
                       ) -> Iterator[tuple[complex, float, int]]:
    """:func:`alternating_lerch` at the orders s, s + 1, s + 2, ..., one
    (value, err, work) a rung.  n depends on s only through |Im s|, so every
    rung sums the same n terms, and a step makes the next order's by one
    division of each by k + a.  Each step adds 2.2e-16 to every term's
    relative rounding, one rounding per division (k + a is exact at the
    integer a the nu series steps at)."""
    terms, expo = _alternating_terms(s, a, log_w)
    bases = None
    for k in itertools.count():
        if k:
            bases = bases or [j + a for j in range(len(terms))]
            terms = list(map(operator.truediv, terms, bases))
        yield _alternating_sum(terms, expo + k)


def circle_pieces(theta: float) -> int:
    """Pieces m of the multiplication formula the circle sum takes at
    |arg z| = |theta|: the least m >= 1 that puts m |theta| within pi/3 of
    pi (mod 2 pi).  Such an m exists up to |theta| = 2 pi/3, where it is 1."""
    return max(1, math.ceil(_WEDGE / max(abs(theta), 1e-300)))


def _circle_plan(z: complex, s: complex) -> tuple[int, complex, complex, int]:
    """(m, log z, w, n) of :func:`circle_lerch` at z and s: its pieces, the
    weights' point w = z^{-m} and their count n, known before any term."""
    m = circle_pieces(cmath.phase(z))
    log_z = cmath.log(z)
    w = cmath.exp(-m * log_z)
    v = 1.0 - 2.0 * w
    root = cmath.sqrt(v * v - 1.0)
    n = _cvz_length(s, 0.75 * math.log(max(abs(v + root), abs(v - root))))
    return m, log_z, w, n


# A circle sum's plan: (m, log z, the weights for n terms, for 3n/4).
_CirclePlan = tuple[int, complex, list[complex], list[complex]]


def _circle_weights(z: complex, s: complex) -> _CirclePlan:
    """The plan of :func:`circle_lerch` at z and s: (m, log z, the weights
    at w = z^{-m} for n terms and for 3n/4).  The plan at z-bar is
    :func:`_conjugate_plan` of this one."""
    m, log_z, w, n = _circle_plan(z, s)
    return m, log_z, chebyshev_weights(w, n), chebyshev_weights(w, 3 * n // 4)


def _conjugate_plan(plan: _CirclePlan) -> _CirclePlan:
    """The plan at z-bar from the plan at z, bit for bit: |arg z| and so m
    and n are the same, and every step from log z to the weights (real
    coefficients, products, quotients, exp) commutes with conjugation."""
    m, log_z, full, short = plan
    return (m, log_z.conjugate(), [x.conjugate() for x in full],
            [x.conjugate() for x in short])


def circle_lerch(plan: _CirclePlan, s: complex, a: complex
                 ) -> tuple[complex, float, int]:
    """(value, err, work) of Phi(z, s, a) for 0 < |z| <= 1 off [0, 1),
    Re(s) > 0 and Re(a) > 0, by the CVZ weights at w = 1/z; plan is
    :func:`_circle_weights` at z and s.

    The terms a_k = (k+a)^{-s} are moments on [0, 1], so Phi = int w dmu /
    (w - x) is w sum_k c_k a_k / P(w) (:func:`chebyshev_weights`) up to an
    error falling like rho^{-n}, rho the larger |v +- sqrt(v^2 - 1)|,
    v = 1 - 2w: 5.83 at z = -1, 5.27 at |arg z| = 2 pi/3.  Closer to z = 1
    the multiplication formula (eq. 5.10), Phi(z, s, a) = m^{-s}
    sum_{r<m} z^r Phi(z^m, s, (r+a)/m), with m from :func:`circle_pieces`,
    puts the weights at w = z^{-m} on the same terms: term j = m k + r
    takes z^r times weight k; its callers keep m within ``MULT_CAP``
    (:func:`near_one`, :func:`lerch_transform_serves`).  n is the least
    length from 32 that puts e^{pi |Im s|/2} rho^{-3n/4} below e^{-36}, as in
    :func:`alternating_lerch`.  The m terms that share weight k are summed
    first, Q_k = sum_{r<m} z^r a_{mk+r}, and both sums are dot products of
    the weights with the Q_k.  err is |S_n - S_{3n/4}| plus the rounding
    the cancelling weights magnify, 2.2e-16 (4 + |s| (1 + max|log(j+a)|)
    + n + m) sum_k |weight_k| sum_r |a_{mk+r}|; work is m n.
    """
    m, log_z, full, short = plan
    n = len(full)
    neg_s = -s
    terms = [cpow(j + a, neg_s) for j in range(m * n)]
    # Q_k = sum_{r<m} z^r a_{mk+r}, one column r at a time, and the bound
    # sum_r |a_{mk+r}| >= sum_r |z^r a_{mk+r}| on its terms' size.
    cols, sizes = terms[::m], list(map(abs, terms))
    if m > 1:
        col_sizes = sizes[::m]
        for r in range(1, m):
            phase = cmath.exp(r * log_z)
            cols = list(map(operator.add, cols,
                            map(operator.mul, terms[r::m], itertools.repeat(phase))))
            col_sizes = list(map(operator.add, col_sizes, sizes[r::m]))
        sizes = col_sizes
    value = compensated_sum(list(map(operator.mul, full, cols)))
    gap = abs(value - compensated_sum(list(map(operator.mul, short, cols))))
    expo = abs(s) * (1.0 + max_abs_log(a, m * n))
    mass = math.fsum(map(operator.mul, map(abs, full), sizes))
    err = gap + 2.2e-16 * (4.0 + expo + n + m) * mass
    return value, err + 1e-16 * abs(value), m * n


def _cannot_stop(n: int, nxt: float, mass: float, size: float, r: float,
                 s: complex, a: complex) -> bool:
    """Whether no stopping test of :func:`_direct_rung` after term n can pass
    within N = MAX_TERMS terms; nxt and mass are the loop's, size = |total|."""
    # With Re(n+a) > 0 and n <= k <= N, |k+a| grows and |arg(k+a)| <=
    # |arg(n+a)|, so |term_k| is in nxt r^{k-n} G_k [1/A, A], with G_k =
    # (|k+a|/|n+a|)^{-Re s} and A = e^{|Im s| |arg(n+a)|}.  At a step m > n
    # the stopping bound is >= r^{m-n} G_m nxt/(A (1-r)), and |total| <=
    # size + T + 2.2e-16 N (mass + T) for N additions, T = max_{k<=m} G_k
    # nxt A/(1-r).  Their ratio is >= q tail/high, q = r^{N-n} min(1, G_N)
    # A^{-2}, tail = nxt A/(1-r): at Re s >= 0, G_N <= G_m and G_k <= 1; at
    # Re s < 0, G_k grows, so T = G_m nxt A/(1-r) and the ratio, rising with
    # T, is least at G_m = 1.  The 2 absorbs the rounding of z^k and of the
    # exponents; as |term_k| >= q tail (1-r), the floor keeps terms nonzero.
    log_g = min(0.0, s.real * math.log(abs(n + a) / abs(MAX_TERMS + a)))
    # atan2: cmath.phase overflows when the angle underflows (a = 2 + 5e-324j).
    log_amp = abs(s.imag) * abs(math.atan2(a.imag, n + a.real))
    q = r ** (MAX_TERMS - n) * math.exp(log_g - 2.0 * log_amp)
    if q <= 2.0 * REL_TOL:   # A may overflow, but not once q > 2e-13
        return False
    tail = nxt * math.exp(log_amp) / (1.0 - r)
    high = size + tail + 2.2e-16 * MAX_TERMS * (mass + tail)
    return q * tail > 2.0 * REL_TOL * high and q * tail * (1.0 - r) > 1e-290


def _direct_rung(z: complex, s: complex, a: complex, held: list[complex] | None = None,
                 k: int = 0, expo: float = 0.0
                 ) -> tuple[complex, float, int, list[complex], float] | None:
    """One rung of :func:`direct_ladder` at order s: (value, err, work,
    terms 0..n, expo), expo the terms' ``cpow`` rounding over 2.2e-16; None
    where the held terms, made k steps ago, have no prefix that passes this
    order's stopping test."""
    r = abs(z)
    gap = 1.0 - r
    # A check needs r^{N-n} > 2 REL_TOL: skip all unless so at n = N/2.
    checking = r ** (MAX_TERMS // 2) > 2.0 * REL_TOL
    sigma = s.real
    if k:
        terms = held
        terms[0] = term = terms[0] / a
        count = len(terms)
    else:
        neg_s = -s
        zpow = complex(1.0)
        power = cpow(a, neg_s)
        term = zpow * power
        terms = [term]
    total = complex(0.0)
    mass = abs(term)   # sum of |term_j| over the terms taken
    kmass = 0.0        # sum of j |term_j|
    for n in range(1, MAX_TERMS + 1):
        total += term
        # The next term, whose modulus bounds the geometric tail.
        if not k:
            zpow *= z
            power = cpow(n + a, neg_s)
            term = zpow * power
            terms.append(term)
            nxt = abs(zpow) * abs(power)
        elif n < count:
            terms[n] = term = terms[n] / (n + a)
            nxt = abs(term)
        else:
            return None
        bound = nxt / gap
        if sigma < 0.0:
            bound *= (1.0 + 2.0 / (n * gap)) ** (-sigma)
        if n >= 4 and bound <= REL_TOL * max(abs(total), 1e-300):
            del terms[n:]
            value = compensated_sum(terms)
            terms.append(term)
            if not k:
                # Later rungs sum prefixes of these terms: this bound holds.
                expo = abs(s) * (1.0 + max_abs_log(a, n))
            err = bound + 2.2e-16 * ((2.0 + k + expo) * mass + kmass)
            return value, err + 1e-16 * abs(value), n + 1, terms, expo
        if (checking and n & (n - 1) == 0 and n + a.real > 0.0
                and _cannot_stop(n, nxt, mass, abs(total), r, s, a)):
            break
        mass += nxt
        kmass += n * nxt
    raise ConvergenceError(
        f"direct Lerch sum not converged in {MAX_TERMS} terms"
    )


def direct_ladder(z: complex, s: complex, a: complex
                  ) -> Iterator[tuple[complex, float, int]]:
    """The direct sum of Phi(z, s + k, a) = sum_n z^n (n+a)^{-s-k} at
    |z| < 1 at k = 0, 1, 2, ..., one (value, err, work) a rung;
    lerch_phi's direct sum at one order is the first.

    A rung stops at the first n >= 4 where the tail bound |term_n|/(1 - |z|),
    times the growth guard (1 + 2/(n (1 - |z|)))^{-Re s} at Re(s) < 0, is at
    most REL_TOL |partial sum|, and holds terms 0..n.  The first rung builds
    term n as z^n times ``cpow``'s (n+a)^{-s}; at n = 1, 2, 4, ... it raises
    ConvergenceError once no later test can pass within MAX_TERMS terms
    (:func:`_cannot_stop`).  A later rung makes its terms from the held
    ones by one division by n + a each, as far as its own stopping test
    reaches, and holds only that prefix.  Where |n + a| >= 1 every term
    shrinks from one order to the next, so a held prefix mostly serves;
    where none passes the test, the rung sums its order afresh, as a first
    rung.

    Term n carries 2.2e-16 relative error from its own rounding, 2.2e-16 n
    from the n products building z^n, cpow's 2.2e-16 (1 + |s| (1 +
    |log(n+a)|)) at the order its power was made, and 2.2e-16 per step
    since, one rounding per division (n + a is exact at the integer a the
    nu series steps at).  With the terms summed exactly, that rounding plus
    the tail bound is the error, however much the terms cancel.  work counts
    the terms made, by ``cpow`` or by division.
    """
    base, k, terms, expo, made = s, 0, None, 0.0, 0
    while True:
        out = _direct_rung(z, base + k if k else base, a, terms, k, expo)
        if out is None:
            # No held prefix passes: sum this order afresh.
            base, k, made = base + k, 0, made + len(terms)
            continue
        value, err, work, terms, expo = out
        yield value, err, work + made
        k, made = k + 1, 0


def lerch_transform_serves(a: complex, log_r: float) -> bool:
    """Whether Lerch's transformation serves Phi at |z| = e^{log_r} and
    Re(s) <= 0 for this a: real a whose fractional part alpha in (0, 1] is
    1 (Hurwitz zeta inside) or leaves the inner circle sums at
    e^{-+2 pi i alpha} within ``MULT_CAP`` pieces, and whose reduction to
    alpha through m = ceil(a) - 1 terms cancels by at most e^{-m log_r}
    <= e."""
    if a.imag != 0.0:
        return False
    m = math.ceil(a.real) - 1
    alpha = a.real - m
    return m * -log_r <= 1.0 and (alpha == 1.0 or circle_pieces(
        cmath.phase(cmath.exp(2j * _PI * alpha))) <= MULT_CAP)


def _lerch_head(log_z: complex, s: complex, b: complex, k: int) -> tuple[complex, float]:
    """sum_{j<k} z^j (j+b)^{-s}, z = e^{log_z}, streamed by chunked_sum past
    ``_CHUNK`` terms, and its error: each term carries 2.2e-16 (3 +
    j |log z| + |s| (1 + |log(j+b)|)) relative rounding (the exponential,
    cpow's bound and the product), charged on sum_j |term_j|."""
    neg_s = -s
    terms = (cmath.exp(j * log_z) * cpow(j + b, neg_s) for j in range(k))
    if k <= _CHUNK:
        # One chunk: chunked_sum's own result, without its stream.
        terms = list(terms)
        value, mass, err = compensated_sum(terms), math.fsum(map(abs, terms)), 0.0
    else:
        value, mass, err = chunked_sum(terms)
    expo = 3.0 + k * abs(log_z) + (abs(s) * (1.0 + max_abs_log(b, k)) if k else 0.0)
    return value, err + 2.2e-16 * expo * mass


def _head_length(a: complex) -> int:
    """Terms k that move a to Re(a + k) > 0 ahead of a CVZ sum."""
    return 0 if a.real > 0.0 else math.floor(-a.real) + 1


def _circle_length(z: complex, s: complex, a: complex) -> float:
    """Terms the circle sum takes at z off :func:`near_one`, known before
    any is summed."""
    m, _, _, n = _circle_plan(z, s)
    return m * n + _head_length(a)


def near_one(theta: float) -> bool:
    """Whether z at arg z = theta lies in the wedge |theta| < 2 pi/(3
    ``MULT_CAP``) about the positive real axis, where no CVZ sum reaches."""
    return circle_pieces(theta) > MULT_CAP


def _head_shifted(route: str, z: complex, s: complex, a: complex, log_z: complex
                  ) -> tuple[complex, float, int]:
    """(value, err, work) of Phi at 0 < |z| <= 1 off [-1, 0], Re(s) > 0, by
    the circle sum (``route`` cvz-circle) or the Taylor series at mu = log_z,
    log z to a few ulps of its modulus, after k terms that move a to
    Re(a + k) > 0; e^{-(a+k) mu} is charged 1.3e-15 |(a+k) mu| for both."""
    k = _head_length(a)
    if route == "mu-series":
        inner = mu_series("be", s, a + k, log_z)
        pre = cmath.exp(-(a + k) * log_z)
        value, work = pre * inner.value, inner.work
        err = abs(pre) * inner.err_estimate + (2e-16 + 1.3e-15 * abs((a + k) * log_z)) * abs(value)
    else:
        value, err, work = circle_lerch(_circle_weights(z, s), s, a + k)
    if k:
        head, head_err = _lerch_head(log_z, s, a, k)
        value = head + cmath.exp(k * log_z) * value
        err += head_err + 2.2e-16 * (1.0 + k * abs(log_z)) * abs(value)
    return value, err, work + k


def _inner_kernel(alpha: float, plan: _CirclePlan | None, t: complex, c: complex
                  ) -> tuple[complex, float, int]:
    """(value, err, work) of the kernel of :func:`_inner_sums` at order t and
    parameter c: pole-free Hurwitz zeta at alpha = 1, the alternating sum at
    alpha = 1/2, else the circle sum with this plan."""
    if alpha == 1.0:
        r = hurwitz_zeta(t, c, pole_free=True)
        return r.value, r.err_estimate, r.work
    if alpha == 0.5:
        return alternating_lerch(t, c)
    return circle_lerch(plan, t, c)


def _mirrored(t: complex, c0: complex, c1: complex) -> bool:
    """Whether the kernel of :func:`_inner_sums` at parameter c1 is the
    conjugate of the one at c0: at real t and c1 = conj c0, Phi(w, t, c1)
    = conj Phi(w-bar, t, c0), and every kernel's arithmetic commutes with
    conjugation, so the conjugate is bit for bit the value computed."""
    return t.imag == 0.0 and c1 == c0.conjugate()


def _inner_sums(w: complex, t: complex, lams: tuple[complex, complex],
                alpha: float) -> list[tuple[complex, float, int, float]]:
    """Phi(w-bar, t, lam_0) and Phi(w, t, lam_1) at w = e^{2 pi i alpha},
    Re(t) >= 1 and Re(lam) >= 0, lam != 0, each lam read to 4.4e-16 |lam|:
    (value, err, work, slope) a side, slope a bound on |d Phi/dlam| / |t|.

    The kernel is Hurwitz zeta at alpha = 1 (w = 1; pole-free, zeta(t, c)
    - 1/(t - 1)), the alternating sum at alpha = 1/2 and the circle sum
    otherwise, whose plan at w-bar, conjugated, is the plan at w.  Where
    Re(lam) <= |Im lam| the term k = 0, lam^{-t}, goes ahead of the sum at
    c = 1 + lam, whose weights then see terms of even size; else c = lam.
    Where t is real and the two c are conjugates (z = -+e^{-x} at real x:
    lam = 1/2 +- i eps for fd, c = 1 +- i eps for be) the second kernel is
    the conjugate of the first, with its estimate, and does not run; work
    counts the kernels that ran.  |(k+lam)^{-t-1}| <= |k+lam|^{-Re t-1}
    e^{|Im t| |arg(1+lam)|} for k >= 1, whose sum is below 1.65 at
    Re(t) >= 1."""
    splits = [b.real <= abs(b.imag) for b in lams]
    params = [b + 1.0 if split else b for b, split in zip(lams, splits)]
    plan = None if alpha in (0.5, 1.0) else _circle_weights(w.conjugate(), t)
    kernels = [_inner_kernel(alpha, plan, t, params[0])]
    if _mirrored(t, *params):
        value, err, _ = kernels[0]
        kernels.append((value.conjugate(), err, 0))
    else:
        kernels.append(_inner_kernel(alpha, plan and _conjugate_plan(plan), t, params[1]))
    sums = []
    for z, b, c, split, (value, err, work) in zip(
            (w.conjugate(), w), lams, params, splits, kernels):
        spread = math.exp(abs(t.imag) * abs(math.atan2(b.imag, 1.0 + b.real)))
        if not split:
            first = abs(b) ** -t.real * math.exp(t.imag * math.atan2(b.imag, b.real))
            sums.append((value, err, work, first / abs(b) + 1.65 * spread))
            continue
        first = cpow(b, -t)
        rest = z * value
        value = first + rest
        # cpow's rounding of lam^{-t}, and the product and sum; the rest
        # moves by the rounding of 1 + lam too, 1.1e-16 |1 + lam|, charged
        # on its slope.
        err += 2.2e-16 * ((2.0 + abs(t) * (1.0 + abs(cmath.log(b)))) * abs(first) + abs(rest))
        err += abs(t) * 1.1e-16 * abs(c) * 2.65 * spread
        sums.append((value, err, work + 1, abs(first) / abs(b) + 2.65 * spread))
    return sums


def lerch_transform(theta: complex, s: complex, a: float) -> EvalResult:
    """Phi(e^{i theta}, s, a) for Re(s) <= 0 and real a off the non-positive
    integers, by Lerch's transformation at the angle theta, real or
    complex: Re(theta) in [-pi, pi], theta != 0 and Im(theta) >= 0
    (|z| = e^{-Im theta} <= 1), or down to -1e-14 for a z that
    :class:`LerchParams` reads as on the circle.  See :func:`lerch_phi`.

    With lam = theta/(2 pi), its real part moved into [0, 1) by whole
    turns, the transformation holds for complex lam as for real (Poisson
    summation of t^{-s} e^{-xt}); the inner sums take the complex
    parameters lam and 1 - lam, evaluated as one pair (:func:`_inner_sums`):
    at e^{-2 pi i alpha} and e^{2 pi i alpha} they share one circle plan,
    conjugated for the second, and where s is real and the kernels'
    parameters are conjugates (z = -+e^{-x} at real x) the second is the
    conjugate of the first and is not summed.  theta is taken as
    exact, and lam and 1 - lam are each read to about 4.4e-16 of their
    modulus; the estimate charges |t| times that times a bound on the
    inner sums' slope, t = 1 - s.  At alpha = 1 the two Hurwitz values
    carry poles +-1/s that cancel: the pole-free values, and the cancelled
    part -2 sin(pi s/2)/s times the common factor, lose nothing to them.
    Larger a is reduced to alpha = a - m in (0, 1] through m terms,
    z^{-m} (Phi(z, s, alpha) - sum_{j<m} z^j (j+alpha)^{-s}), which
    cancels by up to |z|^{-m} = e^{m Im theta}; the estimate carries that
    factor.  At s = 0 the value is 1/(1 - e^{i theta}) for every a;
    elsewhere ConvergenceError up front where
    :func:`lerch_transform_serves` fails at ln|z| = -Im(theta).
    """
    theta = complex(theta)
    log_z = complex(-theta.imag, theta.real)
    # 1 - z, to a few ulps of its modulus even next to z = 1.
    gap = -_cexpm1(log_z)
    if s == 0.0:
        value = 1.0 / gap
        return EvalResult(value, 2.2e-15 * abs(value), "lerch/lerch-transform", 1)
    if not lerch_transform_serves(complex(a), -theta.imag):
        raise ConvergenceError(
            f"Lerch's transformation at a = {a!r} needs inner circle sums "
            f"past {MULT_CAP} pieces or a reduction past e")
    turn, height = theta.real / (2.0 * _PI), theta.imag / (2.0 * _PI)
    lo, hi = (turn, 1.0 - turn) if theta.real >= 0.0 else (1.0 + turn, -turn)
    lams = (complex(lo, height), complex(hi, -height))
    m = math.ceil(a) - 1
    alpha = a - m
    t = 1.0 - s
    # e^{2 pi i alpha}, exact at alpha = 1 and 1/2.
    turned = 1.0 if alpha == 1.0 else -1.0 if alpha == 0.5 else cmath.exp(2j * _PI * alpha)
    sums = _inner_sums(turned, t, lams, alpha)
    work = sums[0][2] + sums[1][2] + 2
    ln_g = ln_gamma(t)
    base = ln_g - t * _LN_2PI
    # Phi(e^{2 pi i lam}, s, alpha) = Gamma(1-s) (2 pi)^{s-1}
    #   [e^{i pi (1-s)/2 - 2 pi i alpha lam} Phi(e^{-2 pi i alpha}, 1-s, lam)
    #    + e^{-i pi (1-s)/2 + 2 pi i alpha (1-lam)} Phi(e^{2 pi i alpha}, 1-s, 1-lam)]
    factors = [cmath.exp(base + 0.5j * _PI * t - 2j * _PI * alpha * lams[0]),
               cmath.exp(base - 0.5j * _PI * t + 2j * _PI * alpha * lams[1])]
    inner = factors[0] * sums[0][0] + factors[1] * sums[1][0]
    # The exponents' rounding (log Gamma to 5e-15), and lam's: moving lam
    # by 4.4e-16 |lam| turns the phase by 2 pi alpha times that and the
    # inner sum by |t| 4.4e-16 |lam| times its slope.
    expo_err = 5e-15 + 2.2e-16 * (abs(ln_g) + abs(t) * (_LN_2PI + 0.5 * _PI)
                                  + 2.0 * _PI * alpha)
    inner_err = 0.0
    for factor, (val, err, _, slope), lam in zip(factors, sums, lams):
        size, x = abs(factor), abs(lam)
        inner_err += size * err + (expo_err + 2.8e-15 * alpha * x) * size * abs(val)
        inner_err += size * 4.4e-16 * abs(t) * x * slope
    if alpha == 1.0:
        # The poles' share, (F_0 + F_1)/(t - 1) = E 2 cos(pi t/2)/(t - 1)
        # = -2 E sin(pi s/2)/s with E = e^{base - 2 pi i lam}; sin's
        # argument rounds by 2.2e-16 |pi s/2|.
        common = cmath.exp(base - 2j * _PI * lams[0])
        pole = -2.0 * cmath.sin(0.5 * _PI * s) / s
        inner += common * pole
        inner_err += abs(common) * (
            (expo_err + 2.8e-15 * abs(lams[0]) + 4.4e-16) * abs(pole)
            + 2.2e-16 * _PI * math.cosh(0.5 * _PI * s.imag))
    if m == 0:
        return EvalResult(inner, inner_err + 1e-16 * abs(inner),
                          "lerch/lerch-transform", work)
    # a = alpha + m: Phi(z, s, alpha) = sum_{j<m} z^j (j+alpha)^{-s}
    # + z^m Phi(z, s, a) for m > 0, and the other way round for m < 0;
    # |z^{-m}| = e^{m Im theta}.
    grow = math.exp(m * theta.imag)
    if m > 0:
        head, head_err = _lerch_head(log_z, s, alpha, m)
        value = cmath.exp(-m * log_z) * (inner - head)
        err = grow * (inner_err + head_err)
    else:
        head, head_err = _lerch_head(log_z, s, a, -m)
        value = head + cmath.exp(-m * log_z) * inner
        err = head_err + grow * inner_err
    err += 2.2e-16 * (2.0 + abs(m * theta)) * abs(value)
    return EvalResult(value, err, "lerch/lerch-transform", work + abs(m))


# ---------------------------------------------------------------------------
# Taylor series in mu = log z about z = 1 and z = -1
# ---------------------------------------------------------------------------

def _near_pos_int(s: complex) -> bool:
    return (
        s.imag == 0.0
        and abs(s.real - round(s.real)) <= 1e-12
        and round(s.real) >= 1
    )


def _minus_one_cvz(s: complex) -> bool:
    """Whether :func:`lerch_minus_one` takes the alternating sum at order s."""
    return s.real > 0.0 and abs(s - 1.0) >= 1e-12


def lerch_minus_one(s: complex, a: complex, abs_tol: float = 0.0) -> EvalResult:
    """Phi(-1, s, a) = fd(a-1, s, 0), tagged as that fd value; ``abs_tol``
    as for hurwitz_zeta."""
    if s.real <= -4.0 and a.imag == 0.0 and not is_nonpos_int(s):
        value, err, work = fourier_reflection(s, a.real, 2, abs_tol)
        return EvalResult(value, err, "fd/zero-reflection", work)
    if not _minus_one_cvz(s):
        inner = hurwitz_halves(s, a)
        return EvalResult(inner.value, inner.err_estimate, "fd/zero-hurwitz-diff",
                          inner.work)
    value, err, work = alternating_lerch(s, a)
    return EvalResult(value, err, "fd/zero-alternating-cvz", work)


def minus_one_orders(s: complex, a: complex) -> Iterator[EvalResult]:
    """lerch_minus_one(s + k, a) at k = 0, 1, 2, ..., each by the route
    lerch_minus_one takes at its order; the alternating sums above order 0
    (order 1 aside) are the rungs of one :func:`alternating_ladder`.  Those
    orders follow one another: order 1 can only come before them."""
    ladder = None
    for k in itertools.count():
        order = s + k
        if not _minus_one_cvz(order):
            yield lerch_minus_one(order, a)
            continue
        if ladder is None:
            ladder = alternating_ladder(order, a)
        value, err, work = next(ladder)
        yield EvalResult(value, err, "fd/zero-alternating-cvz", work)


# Terms the Taylor series in mu takes at most.
_POWER_CAP = 40


def mu_series(centre: str, s: complex, a: complex, mu: complex) -> EvalResult:
    """e^{a mu} Phi(+-e^{mu}, s, a) by its Taylor series in mu about z = 1
    ("be") or z = -1 ("fd"), be or fd(a-1, s, x) at x = -mu (eqs.
    4.14/4.15; the ``extended`` module describes the route), tagged
    ``{centre}/power-series-x``.  Needs Re(a) > 0 and |mu| below 0.999 of
    the radius, 2 pi or pi.  mu is taken as read to 1e-15 of its modulus:
    the estimate charges that times the bound sum_k k |term_k| + |s-1|
    |singular part| on |mu d value/d mu|."""
    x = -mu
    radius, radius_name = (_PI, "pi") if centre == "fd" else (2.0 * _PI, "2 pi")
    if abs(x) >= 0.999 * radius:
        raise DomainError(
            f"Taylor-in-x route needs |x| < {radius_name}, got |x|={abs(x):.4g}"
        )

    # Singular part: only the expansion about z = 1 carries one.  The
    # order-1 pole of the Hurwitz coefficient at k = s-1 turns into
    # Gamma(1-s) x^{s-1}; at a positive integer order m the two poles meet
    # at k = m-1, and that coefficient plus the singular part become their
    # finite limit
    #   (-x)^{m-1}/(m-1)! [psi(m) - psi(a) - log x].
    singular = complex(0.0)
    sing_err = 0.0
    pole_k = -1
    work = 0
    if centre == "be":
        if x == 0.0 and s.real <= 1.0:
            raise DomainError(
                "divergent at x = 0 for Re(s) <= 1; the x = 0 value is "
                "the continuation route"
            )
        if _near_pos_int(s):
            pole_k = round(s.real) - 1
        elif x != 0.0:
            # exp turns the rounding of its exponent, log Gamma(1-s) +
            # (s-1) log x, into a relative error of the same size.
            ln_g = ln_gamma(1.0 - s)
            ln_p = (s - 1.0) * cmath.log(x)
            singular = cmath.exp(ln_g + ln_p)
            sing_err = (5e-15 + 4.4e-16 * (abs(ln_g) + abs(ln_p))) * abs(singular)
            work += 1

    # Consecutive term magnitudes zigzag hard at integer s (odd-order
    # coefficients are tiny next to even ones), so both the stopping rule
    # and the divergence detector work on maxima of adjacent pairs.
    total = complex(0.0)
    terms: list[complex] = []
    coeff_err = 0.0
    xpow = complex(1.0)   # (-x)^k / k!
    prev_mag = math.inf
    pair_prev = math.inf
    pair_cur = 0.0
    grow_streak = 0
    scale = 0.0
    moment = 0.0   # sum of k |term_k|, plus |x^k/k!| for a pole limit's -log x
    # With real a and a non-integer order, the coefficients at
    # Re(s - k) <= -4 are one reflection series stepped from order to order.
    reflected = a.imag == 0.0 and not (s.imag == 0.0 and s.real == round(s.real))
    ladder = None
    for k in range(_POWER_CAP):
        # Coefficient k enters weighted by |x^k/k!|.  The sum is only
        # resolved to REL_TOL times its scale (the stopping rule's), so the
        # coefficient needs an absolute accuracy of no more than an eighth
        # of that over the weight.  Term 0, and a weight of 0 (x = 0 or
        # underflow), keep full accuracy.
        abs_tol = REL_TOL * scale / (8.0 * abs(xpow)) if k and xpow else 0.0
        if ladder is None and reflected and s.real - k <= -4.0:
            ladder = ReflectionLadder(s - k, a.real, 2 if centre == "fd" else 1)
            # Below 0.4 of the radius the factor 0.4^k alone takes term 39
            # below 1e-15 of term 0, so only deep orders or large a fail
            # there.  AUTO expands within a third of the radius (Re x < 0.1
            # aside) and never pays for the check.
            if abs(x) > 0.4 * radius and _cannot_converge(
                    ladder, k, abs(x), abs(xpow), prev_mag,
                    max(abs(total + singular), abs(total), 1e-300)):
                raise ConvergenceError(
                    f"Taylor-in-x route cannot converge within {_POWER_CAP} "
                    f"terms (coefficient bounds from k={k})"
                )
        if ladder is not None:
            value, c_err, c_work = ladder.rung(abs_tol)
            if centre == "be":
                value = faults.perturb("hurwitz_zeta", value)
        else:
            if k == pole_k:
                c = _be_pole_limit(a, s, x, k)
            elif centre == "fd":
                c = lerch_minus_one(s - k, a, abs_tol)
            else:
                c = hurwitz_zeta(s - k, a, abs_tol=abs_tol)
            value, c_err, c_work = c.value, c.err_estimate, c.work
        work += c_work
        term = value * xpow
        terms.append(term)
        total += term
        coeff_err += c_err * abs(xpow)
        mag = abs(term)
        moment += k * mag + (abs(xpow) if k == pole_k else 0.0)
        scale = max(abs(total + singular), abs(total), 1e-300)
        if max(mag, prev_mag) <= REL_TOL * scale:
            break
        pair_cur = max(pair_cur, mag)
        if k % 2 == 1:
            if (
                pair_cur > pair_prev
                and pair_cur > 1e3 * REL_TOL * scale
                and k > _POWER_CAP // 2
            ):
                grow_streak += 1
                if grow_streak >= 2:
                    raise ConvergenceError(
                        f"Taylor-in-x terms stopped decreasing at k={k} "
                        f"(|x| too close to the radius)"
                    )
            else:
                grow_streak = 0
            pair_prev = pair_cur
            pair_cur = 0.0
        prev_mag = mag
        xpow *= -x / (k + 1)
    else:
        tail_mag = max(abs(t) for t in terms[-2:]) if terms else 0.0
        if tail_mag > REL_TOL * 1e3 * max(abs(total + singular), 1e-300):
            raise ConvergenceError(
                f"Taylor-in-x route not converged within {_POWER_CAP} terms"
            )

    value = singular + compensated_sum(terms)
    trunc = max((abs(t) for t in terms[-2:]), default=0.0)
    err = trunc + coeff_err + sing_err + 1e-16 * abs(value)
    err += 1e-15 * (moment + abs(s - 1.0) * abs(singular))
    return EvalResult(value, err, f"{centre}/power-series-x", work)


def _cannot_converge(ladder: ReflectionLadder, k0: int, r: float, weight: float,
                     prev_mag: float, scale: float) -> bool:
    """Whether the Taylor sum provably ends in ConvergenceError, decided
    before coefficient k0, the ladder's first rung, from the ladder's bounds
    on coefficients k0 to 39.

    ``weight`` is |x^k0/k0!| at r = |x|, ``prev_mag`` is |term k0-1| (inf
    at k0 = 0), and ``scale`` is the stopping rule's running scale before
    term k0.  No later scale passes ``scale`` plus the upper bounds of the
    terms left.  True only where every pair of terms from k0 - 1 on stays
    above REL_TOL times that, so the sum cannot stop, and the last pair
    above 1e3 times it, so the 40-term test fails.
    """
    bounds = ladder.bounds(_POWER_CAP - k0)
    if bounds is None:
        return False
    lows = [prev_mag]
    for k, (lo, hi) in enumerate(bounds, k0):
        lows.append(weight * lo)
        scale += weight * hi
        weight *= r / (k + 1)
    tol = REL_TOL * scale
    return max(lows[-2:]) > 1e3 * tol and all(
        max(p, q) > tol for p, q in zip(lows, lows[1:]))


def _be_pole_limit(a: complex, s: complex, x: complex, k: int) -> EvalResult:
    """Coefficient of (-x)^k/k! that replaces zeta(s-k, a) at s = k+1.

    It absorbs the singular part: psi(k+1) - psi(a) - log x, and 0 at
    x = 0, where the term vanishes.  An order within 1e-12 of k+1 is
    charged the first-order change of the combined term across the gap.
    """
    if x == 0.0:
        return EvalResult(0.0, 0.0, "be/pole-limit", 0)
    psi_m = digamma(k + 1.0)
    psi_a = digamma(a)
    log_x = cmath.log(x)
    value = psi_m - psi_a - log_x
    size = 1.0 + abs(psi_m) + abs(psi_a) + abs(log_x)
    err = 2e-15 * size + abs(s - (k + 1)) * size * size
    return EvalResult(value, err, "be/pole-limit", 2)


def lerch_route(z: complex, s: complex, a: complex) -> str:
    """The route :func:`lerch_phi` takes at (z, s, a), named as its tag:
    single-term, hurwitz-delegate, cvz-alternating, cvz-circle, mu-series,
    direct-sum or lerch-transform.  For one z and a it depends on s only
    through the sign of Re(s) and through |Im s|."""
    if z == 0.0:
        return "single-term"
    if abs(z - 1.0) < 1e-12:
        return "hurwitz-delegate"
    inside = abs(z) < 1.0 - 1e-14
    log_r = math.log(abs(z))
    budget = direct_length(log_r) if inside else math.inf
    if s.real > 0.0:
        if z.real < 0.0 and abs(z.imag) < 1e-12:
            if _cvz_length(s) < budget:
                return "cvz-alternating"
        elif near_one(cmath.phase(z)):
            if budget > SERIES_CROSSOVER and (
                    not inside or abs(a) * abs(cmath.log(z)) <= TAYLOR_REACH):
                return "mu-series"
        elif not inside or budget > _CVZ_MIN and _circle_length(z, s, a) < budget:
            return "cvz-circle"
    elif not inside or budget > SERIES_CROSSOVER and lerch_transform_serves(a, log_r):
        return "lerch-transform"
    return "direct-sum"


def lerch_by_route(route: str, z: complex, s: complex, a: complex, log_z: complex
                   ) -> EvalResult:
    """Phi(z, s, a) by ``route`` (:func:`lerch_route`), with log z read as
    ``log_z``: the circle sum's head, the Taylor series in mu = log z and
    Lerch's transformation at theta = -i log z take it, so a caller that
    knows log z better than the double z does (the extended pair, from x)
    passes it.  The value passes the ``lerch_phi`` fault hook."""
    if route == "direct-sum":
        value, err, work, _, _ = _direct_rung(z, s, a)
    elif route == "lerch-transform":
        out = lerch_transform(-1j * log_z, s, a.real)
        value, err, work = out.value, out.err_estimate, out.work
    elif route == "single-term":
        value, work = cpow(a, -s), 1
        err = 2.2e-16 * (1.0 + abs(s) * (1.0 + abs(cmath.log(a)))) * abs(value)
    elif route == "hurwitz-delegate":
        inner = hurwitz_zeta(s, a)
        value, err, work = inner.value, inner.err_estimate, inner.work
    elif route == "cvz-alternating":
        value, err, work = alternating_lerch(s, a, cmath.log(-z))
    else:
        value, err, work = _head_shifted(route, z, s, a, log_z)
    return EvalResult(faults.perturb("lerch_phi", value), err, "lerch/" + route, work)


def lerch_orders(z: complex, s: complex, a: complex, log_z: complex
                 ) -> Iterator[EvalResult]:
    """lerch_phi(LerchParams(z, s + k, a)) at k = 0, 1, 2, ..., each by the
    route :func:`lerch_phi` takes at its order.  Where that route is the
    direct or the alternating sum, the orders of one sign of Re(s + k) are
    the rungs of one ladder (:func:`direct_ladder`,
    :func:`alternating_ladder`), which makes each order's terms from the
    last order's by one division by n + a; the other routes run order by
    order (:func:`lerch_by_route`) at ``log_z``, which a z rounded from
    e^{-x} holds only to 1.1e-16 absolute.  A rung's value passes the
    ``lerch_phi`` fault hook as a ``lerch_phi`` value does."""
    z, s, a = complex(z), complex(s), complex(a)
    LerchParams(z, s, a)   # refuses what lerch_phi refuses
    k = 0
    while True:
        order = s + k
        route = lerch_route(z, order, a)
        if route == "direct-sum":
            ladder = direct_ladder(z, order, a)
        elif route == "cvz-alternating":
            ladder = alternating_ladder(order, a, cmath.log(-z))
        else:
            yield lerch_by_route(route, z, order, a, log_z)
            k += 1
            continue
        positive = order.real > 0.0
        tag = "lerch/" + route
        while ((s + k).real > 0.0) == positive:
            value, err, work = next(ladder)
            yield EvalResult(faults.perturb("lerch_phi", value), err, tag, work)
            k += 1


def lerch_phi(p: LerchParams) -> EvalResult:
    """Hurwitz-Lerch transcendent Phi(z, s, a) = sum z^n (n+a)^{-s}.

    Dispatch: z = 0 -> single term; z = 1 -> Hurwitz-zeta continuation.
    At Re(s) > 0 and z off [0, 1], a Cohen-Rodriguez Villegas-Zagier (CVZ)
    sum wherever it is shorter than the direct sum, whose length is
    predicted up front as ceil(ln REL_TOL / ln |z|) (:func:`direct_length`;
    infinite on |z| = 1).  The CVZ sum's length is known up front too, set by
    |Im s|:

    * z within 1e-12 of the real segment [-1, 0): the alternating sum
      (:func:`alternating_lerch`), n terms;
    * elsewhere the CVZ sum at w = 1/z (:func:`circle_lerch`), with the
      multiplication formula next to the positive real axis, m n terms;
      where Re(a) <= 0, after the floor(-Re a) + 1 terms that bring Re(a)
      above 0.  Past ``MULT_CAP`` pieces, |arg z| < 2 pi/(3 MULT_CAP)
      (:func:`near_one`), where the direct sum is predicted past
      ``SERIES_CROSSOVER`` terms, the Taylor series in mu = log z about
      z = 1 serves instead, after the same terms (:func:`mu_series`):
      Phi(e^mu, s, a) = e^{-a mu} [Gamma(1-s) (-mu)^{s-1} + sum_k
      zeta(s-k, a) mu^k/k!], on |z| = 1 always, inside where its terms
      cancel little, |a| |mu| <= ``TAYLOR_REACH``.

    At Re(s) <= 0, on |z| = 1 (within 1e-14) and inside wherever the
    direct sum is predicted past ``SERIES_CROSSOVER`` terms, Lerch's
    transformation (1887; Apostol 1951) where it serves
    (:func:`lerch_transform_serves`: real a, inner circle sums within
    ``MULT_CAP`` pieces, a reduction of a that cancels by at most e).
    With a reduced to alpha = a - m in (0, 1] through m terms and
    z = e^{2 pi i lam},
    Phi(z, s, alpha) = Gamma(1-s) (2 pi)^{s-1} [e^{i pi (1-s)/2 - 2 pi i
    alpha lam} Phi(e^{-2 pi i alpha}, 1-s, lam) + e^{-i pi (1-s)/2 +
    2 pi i alpha (1-lam)} Phi(e^{2 pi i alpha}, 1-s, 1-lam)].  The inner
    orders have real part >= 1: Hurwitz zeta at alpha = 1, taken without
    its pole so that the pair's poles +-1/s cancel exactly next to s = 0,
    the alternating sum at alpha = 1/2, the circle sum otherwise.  It runs
    at the complex angle theta = -i log z (:func:`lerch_transform`), lam =
    theta/(2 pi) complex inside the circle, so it reads the double z
    itself, on, inside or just outside |z| = 1, and charges no step to the
    circle.  At s = 0 the value is 1/(1 - z).  On the circle where it does
    not serve, ConvergenceError up front; LerchParams refuses complex a
    there.  Elsewhere inside, the direct geometric-tail summation.

    The direct sum raises ConvergenceError when N = ``MAX_TERMS`` terms do
    not reach ``REL_TOL``; at n = 1, 2, 4, ... it also raises once no later
    tail bound can meet 2 REL_TOL times the most |total| can reach (from
    |total|, the running mass sum |term_k| and a tail bound), which is early
    only where the budget is far short.  Its estimate adds the rounding of
    every term to the tail bound, so it holds where the terms cancel.
    """
    z, s, a = complex(p.z), complex(p.s), complex(p.a)
    # cmath.log reads ln|z| by log1p next to |z| = 1, to a few ulps.
    return lerch_by_route(lerch_route(z, s, a), z, s, a, cmath.log(z) if z else 0j)


def polylog(z: complex, s: complex) -> EvalResult:
    """Polylogarithm Li_s(z) = z * Phi(z, s, 1) on the closed unit disk."""
    z = require_finite(z, "z")
    if z == 0.0:
        return EvalResult(0.0, 0.0, "polylog/zero", 0)
    inner = lerch_phi(LerchParams(z, s, 1.0))
    value = z * inner.value
    return EvalResult(value, abs(z) * inner.err_estimate,
                      "polylog/" + inner.strategy.split("/", 1)[1], inner.work)


def chi_ratio(s: complex) -> EvalResult:
    """Functional-equation factor chi(s) = pi^{s-1/2} Gamma((1-s)/2) / Gamma(s/2).

    zeta(s) = chi(s) zeta(1-s).  Returns an exact 0 where Gamma(s/2) has a
    pole (s = 0, -2, -4, ...) and raises PoleError where Gamma((1-s)/2)
    does (s = 1, 3, 5, ...).
    """
    s = require_finite(s, "s")
    half_one_minus = (1.0 - s) / 2.0
    half_s = s / 2.0
    if is_nonpos_int(half_one_minus):
        raise PoleError(f"pole at s={s.real:g} (Gamma((1-s)/2) pole)")
    if is_nonpos_int(half_s):
        return EvalResult(0.0, 0.0, "chi/gamma-pole-zero", 0)
    log_chi = (s - 0.5) * _LN_PI + ln_gamma(half_one_minus) - ln_gamma(half_s)
    value = cmath.exp(log_chi)
    return EvalResult(value, 5e-14 * abs(value) * (1.0 + abs(log_chi)),
                      "chi/log-gamma", 2)
