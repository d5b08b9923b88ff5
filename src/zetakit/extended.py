"""Extended Fermi-Dirac and Bose-Einstein functions.

The pair under study, for Re(nu) >= 0 and Re(x) >= 0:

    fd(nu, s, x) = sum_{n>=0} (-1)^n exp(-(n+nu+1) x) / (n+nu+1)^s
    be(nu, s, x) = sum_{n>=0}        exp(-(n+nu+1) x) / (n+nu+1)^s

Both reduce to Hurwitz-Lerch transcendents,
fd = e^{-(nu+1)x} Phi(-e^{-x}, s, nu+1) and
be = e^{-(nu+1)x} Phi(+e^{-x}, s, nu+1), which supplies the series family
of evaluation routes.  Independent routes — quadrature of the fractional
integral, the Taylor expansion in x with shifted-order coefficients at
x = 0, the expansion in nu about the nearest integer shift with coefficients
at that shift, and exact Bernoulli/Euler polynomial values at non-positive
integer orders — exist so results can be cross-audited; the identity suite
exercises every pairing.

Route selection is explicit through :class:`Strategy`; ``Strategy.AUTO``
picks by region.  x is near the circle where the direct sum at
|z| = e^{-Re x} is predicted to take more than 300 terms
(:func:`zeta.direct_length`; Re x below about 0.0998), the measured cost
crossover of the routes below:

* x = 0: continuation values (for fd the alternating-accelerated sum at
  Re(s) > 0, its length set by |Im s|; the Hurwitz halves at Re(s) <= 0
  and s = 1; or at Re(s) <= -4 with real nu one Fourier reflection series
  over odd n; Hurwitz zeta for be, with its order-1 pole surfaced as
  PoleError).
* Re(s) <= 0 near the circle with real nu, x real, complex or on the
  imaginary axis: the defining series, summed by Lerch's transformation at
  the complex angle theta = arg z + i Re x of z = -+e^{-x} (tag
  {fd,be}/xseries-lerch-transform; :func:`zeta.lerch_transform`).  Its
  inner sums take the complex parameters lam = theta/(2 pi) and 1 - lam;
  for be at real x, Re lam = 0, their term k = 0 is the Taylor route's
  singular part x^{s-1} Gamma(1-s).  It serves wherever its inner circle
  sums stay within their cap (nu within about 0.02 of an integer, not on
  it, is left out), m Re x <= 1 for the m = ceil(nu) terms that reduce
  nu + 1 to (0, 1], which cancel by up to e^{m Re x}, and z lies 1e-12 or
  more from 1 (nearer, x stands for a be centre).
* be at real x > 0 near the circle at Re(s) > 0 and the points the
  transformation leaves: the Taylor series in x (eqs. 4.14/4.15), immune
  to the slow geometric decay; at a positive integer order the pole
  coefficient and the singular part x^{s-1} Gamma(1-s) are replaced by
  their finite limit with digamma values and -log x.
* fd at real x > 0 near the circle: the defining series for Re(s) > 0,
  which lerch_phi sums by its alternating acceleration; at Re(s) <= 0,
  where the transformation does not serve, the same Taylor series, since
  the defining series needs about 1/x growing, cancelling terms (and
  refuses x = 1e-7 outright).  Its
  coefficients fd(nu, s-k, 0) are the x = 0 values: Euler-Maclaurin
  Hurwitz differences with a small shift for -4 < Re(s-k) < 0 (typically
  1e-13 relative, at worst about 1e-9 next to Re(s-k) = -4) and, for real
  nu, the odd-term reflection series below that.  With real nu and a
  non-integer order, the coefficients of both functions at
  Re(s-k) <= -4 are the rungs of one reflection series stepped from order
  to order (:class:`zeta.ReflectionLadder`: zeta(s-k, nu+1) for be, the
  odd-term series for fd); integer orders keep Euler-Maclaurin's
  terminating sums.  For both functions
  coefficient k is asked only for the absolute accuracy its weight
  |x^k/k!| leaves visible, REL_TOL times the running sum over 8 |x^k/k!|,
  which cuts the reflection series short.  An unconverged sum raises
  ConvergenceError at 40 terms, or earlier once its terms stop decreasing;
  with a ladder and |x| past 0.4 of the radius it raises before the
  ladder's first rung where the ladder's bounds prove that the 40 terms
  cannot converge.
* large nu near the circle: the Taylor terms grow like
  (|nu+1| |x|)^k / k! about their centre, so where that product passes 4
  (``_TAYLOR_REACH``; the distance to the reduction's centre for complex
  x) the defining series, wherever its direct sum is predicted to finish
  within MAX_TERMS, at Re(s) <= 0 only for |nu+1| Re(x) > 1.
* other complex x near the circle at Re(s) <= 0 (complex nu, nu next to
  an integer, a long reduction), or where the defining series cannot
  finish (Re(s) > 0 near the circle or on it, z within the circle sum's cap
  of the positive real axis): reduce, then expand.  The period 2 pi i and the
  duality x -> x - i pi move x to within a third of a Taylor radius of a
  be or fd centre, where the Taylor series in x sums (tags
  {fd,be}/circle-{be,fd}).
* otherwise the defining series.  At Re(s) > 0 lerch_phi takes a CVZ sum
  wherever it is shorter than the direct sum ({fd,be}/xseries-cvz on the
  real segment, {fd,be}/xseries-cvz-circle off it, and always on the unit
  circle), Hurwitz zeta at z = 1, and the direct sum with geometric ratio
  e^{-Re(x)} elsewhere ({fd,be}/xseries-direct).
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from . import faults
from .errors import ConvergenceError, DomainError, PoleError
from .numeric_core import (
    MAX_POLY_DEGREE,
    bernoulli_poly_coeffs,
    compensated_sum,
    euler_poly_coeffs,
    is_nonpos_int,
    ln_gamma,
    require_finite,
)
from .result import EvalResult
from .weyl import (
    KernelSpec,
    weyl_negative_order,
    weyl_transform,
)
from .zeta import (
    MAX_TERMS,
    MULT_CAP,
    REL_TOL,
    LerchParams,
    ReflectionLadder,
    alternating_ladder,
    alternating_lerch,
    circle_pieces,
    digamma,
    direct_length,
    dirichlet_eta,
    fourier_reflection,
    hurwitz_halves,
    hurwitz_zeta,
    lerch_orders,
    lerch_phi,
    lerch_transform,
    lerch_transform_serves,
    riemann_zeta,
)

__all__ = [
    "Strategy",
    "ExtParams",
    "ext_fd",
    "ext_be",
    "fd_classical",
    "be_classical",
    "fd_zero_hurwitz_route",
    "ext_fd_negint_exact",
    "ext_be_negint_exact",
    "fd_kernel",
    "be_kernel",
]

_PI = math.pi


class Strategy(enum.Enum):
    """Evaluation routes for the extended pair."""

    XSERIES = "XSeries"            # defining series in powers of e^{-x}
    WEYL_QUAD = "WeylQuad"         # fractional-integral quadrature
    POWER_SERIES_X = "PowerSeriesX"  # Taylor in x, shifted-order coefficients
    NU_SERIES = "NuSeries"         # expansion in nu about the nearest integer
    NEG_INT_BERNOULLI = "NegIntBernoulli"  # exact polynomial values
    AUTO = "Auto"


@dataclass(frozen=True)
class ExtParams:
    """Point (nu, s, x) with Re(nu) >= 0 and Re(x) >= 0."""

    nu: complex
    s: complex
    x: complex

    def __post_init__(self) -> None:
        nu = require_finite(self.nu, "nu")
        require_finite(self.s, "s")
        x = require_finite(self.x, "x")
        if nu.real < 0.0:
            raise DomainError(f"require Re(nu) >= 0, got nu={nu!r}")
        if x.real < 0.0:
            raise DomainError(f"require Re(x) >= 0, got x={x!r}")


def _near_pos_int(s: complex) -> bool:
    return (
        s.imag == 0.0
        and abs(s.real - round(s.real)) <= 1e-12
        and round(s.real) >= 1
    )


def _near_nonpos_int(s: complex) -> bool:
    return (
        s.imag == 0.0
        and abs(s.real - round(s.real)) <= 1e-12
        and round(s.real) <= 0
        and 1 - round(s.real) <= MAX_POLY_DEGREE
    )


# ---------------------------------------------------------------------------
# x = 0 continuation values
# ---------------------------------------------------------------------------

def fd_zero_hurwitz_route(nu: complex, s: complex) -> EvalResult:
    """fd(nu, s, 0) = Phi(-1, s, nu+1) for every s by the bisected Hurwitz
    difference (:func:`zeta.hurwitz_halves`); public as the independent
    second route beside the alternating sum at x = 0."""
    nu = require_finite(nu, "nu")
    s = require_finite(s, "s")
    inner = hurwitz_halves(s, nu + 1.0)
    return EvalResult(inner.value, inner.err_estimate, "fd/zero-hurwitz-diff",
                      inner.work)


def _fd_zero_cvz(s: complex) -> bool:
    """Whether :func:`_fd_zero` takes the alternating sum at order s."""
    return s.real > 0.0 and abs(s - 1.0) >= 1e-12


def _fd_zero(nu: complex, s: complex, abs_tol: float = 0.0) -> EvalResult:
    """fd(nu, s, 0) = Phi(-1, s, nu+1); ``abs_tol`` as for hurwitz_zeta."""
    if s.real <= -4.0 and nu.imag == 0.0 and not is_nonpos_int(s):
        value, err, work = fourier_reflection(s, nu.real + 1.0, 2, abs_tol)
        return EvalResult(value, err, "fd/zero-reflection", work)
    if not _fd_zero_cvz(s):
        return fd_zero_hurwitz_route(nu, s)
    value, err, work = alternating_lerch(s, nu + 1.0)
    return EvalResult(value, err, "fd/zero-alternating-cvz", work)


def _fd_zero_orders(nu: complex, s: complex) -> Iterator[EvalResult]:
    """_fd_zero(nu, s + k) at k = 0, 1, 2, ..., each by the route _fd_zero
    takes at its order; the alternating sums above order 0 (order 1 aside)
    are the rungs of one :func:`zeta.alternating_ladder`.  Those orders
    follow one another: order 1 can only come before them."""
    ladder = None
    for k in itertools.count():
        order = s + k
        if not _fd_zero_cvz(order):
            yield _fd_zero(nu, order)
            continue
        if ladder is None:
            ladder = alternating_ladder(order, nu + 1.0)
        value, err, work = next(ladder)
        yield EvalResult(value, err, "fd/zero-alternating-cvz", work)


def _be_zero(nu: complex, s: complex) -> EvalResult:
    inner = hurwitz_zeta(s, nu + 1.0)  # PoleError surfaces at s = 1
    return EvalResult(inner.value, inner.err_estimate, "be/zero-hurwitz",
                      inner.work)


# ---------------------------------------------------------------------------
# Defining series in z = -+e^{-x} (shared with the Lerch machinery)
# ---------------------------------------------------------------------------

_LERCH_TAG_MAP = {
    "hurwitz-delegate": "xseries-hurwitz-delegate",
    "direct-sum": "xseries-direct",
    "cvz-alternating": "xseries-cvz",
    "cvz-circle": "xseries-cvz-circle",
    "lerch-transform": "xseries-lerch-transform",
    "single-term": "xseries-direct",
}


def _lerch_z(kind: str, x: complex) -> complex:
    """z = -+e^{-x} of the defining series."""
    return (-1.0 if kind == "fd" else 1.0) * cmath.exp(-x)


def _series_route(kind: str, nu: complex, s: complex, x: complex) -> EvalResult:
    z = _lerch_z(kind, x)
    params = LerchParams(z, s, nu + 1.0)
    if x.real == 0.0 and s.real <= 0.0 and abs(z - 1.0) >= 1e-12:
        # z lies on the circle exactly, though its double may not: take
        # Lerch's transformation at its angle, where lerch_phi would charge
        # the step off the circle.  LerchParams has refused complex nu here.
        return _transformed(kind, nu, s, x)
    return _scaled(kind, nu, x, lerch_phi(params))


def _transformed(kind: str, nu: complex, s: complex, x: complex) -> EvalResult:
    """The defining series at real nu and Re(s) <= 0 by Lerch's
    transformation at the angle theta = arg z + i Re x of z = -+e^{-x}
    (:func:`zeta.lerch_transform`).  arg z carries the exact argument
    reduction of cos and sin, so theta is read to a few ulps of each of
    lam and 1 - lam, also next to a be centre."""
    theta = complex(cmath.phase(_lerch_z(kind, x)), x.real)
    return _scaled(kind, nu, x, lerch_transform(theta, s, nu.real + 1.0))


# The least positive double: a factor e^{-(nu+1) x} that underflows is off
# by up to half of it, which no relative charge covers.
_TINY = math.ulp(0.0)


def _scaled(kind: str, nu: complex, x: complex, inner: EvalResult) -> EvalResult:
    """e^{-(nu+1) x} times a value of Phi(-+e^{-x}, s, nu+1), tagged."""
    pre = cmath.exp(-(nu + 1.0) * x)
    suffix = inner.strategy.split("/", 1)[1]
    tag = f"{kind}/{_LERCH_TAG_MAP[suffix]}"
    value = pre * inner.value
    # pre inherits the rounding of its exponent, 2.2e-16 |(nu+1) x|; below
    # the normal range it and the product round by up to _TINY.
    err = abs(pre) * inner.err_estimate + (
        2e-16 + 2.2e-16 * abs((nu + 1.0) * x)
    ) * abs(value) + _TINY * (1.0 + abs(inner.value) + inner.err_estimate)
    return EvalResult(value, err, tag, inner.work)


# ---------------------------------------------------------------------------
# Taylor series in x with shifted-order coefficients
# ---------------------------------------------------------------------------

_POWER_CAP = 40


def _power_series_x(
    kind: str, nu: complex, s: complex, x: complex
) -> tuple[EvalResult, float]:
    """Taylor series in x about 0, and a bound on |d value/dx| read off its
    terms: (sum_k |x d term_k/dx| + |s-1| |singular part|) / |x|."""
    radius, radius_name = (_PI, "pi") if kind == "fd" else (2.0 * _PI, "2 pi")
    if abs(x) >= 0.999 * radius:
        raise DomainError(
            f"Taylor-in-x route needs |x| < {radius_name}, got |x|={abs(x):.4g}"
        )

    # Singular part: only the be-function carries one.  The order-1 pole of
    # the Hurwitz coefficient at k = s-1 turns into Gamma(1-s) x^{s-1}; at a
    # positive integer order m the two poles meet at k = m-1, and that
    # coefficient plus the singular part become their finite limit
    #   (-x)^{m-1}/(m-1)! [psi(m) - psi(nu+1) - log x].
    singular = complex(0.0)
    sing_err = 0.0
    pole_k = -1
    work = 0
    if kind == "be":
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
    # With real nu and a non-integer order, the coefficients at
    # Re(s - k) <= -4 are one reflection series stepped from order to order.
    reflected = nu.imag == 0.0 and not (s.imag == 0.0 and s.real == round(s.real))
    ladder = None
    for k in range(_POWER_CAP):
        # Coefficient k enters weighted by |x^k/k!|.  The sum is only
        # resolved to REL_TOL times its scale (the stopping rule's), so the
        # coefficient needs an absolute accuracy of no more than an eighth
        # of that over the weight.  Term 0, and a weight of 0 (x = 0 or
        # underflow), keep full accuracy.
        abs_tol = REL_TOL * scale / (8.0 * abs(xpow)) if k and xpow else 0.0
        if ladder is None and reflected and s.real - k <= -4.0:
            ladder = ReflectionLadder(s - k, nu.real + 1.0, 2 if kind == "fd" else 1)
            # Below 0.4 of the radius the factor 0.4^k alone takes term 39
            # below 1e-15 of term 0, so only deep orders or large nu fail
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
            if kind == "be":
                value = faults.perturb("hurwitz_zeta", value)
        else:
            if k == pole_k:
                c = _be_pole_limit(nu, s, x, k)
            elif kind == "fd":
                c = _fd_zero(nu, s - k, abs_tol)
            else:
                c = hurwitz_zeta(s - k, nu + 1.0, abs_tol=abs_tol)
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
    slope = (moment + abs(s - 1.0) * abs(singular)) / abs(x) if x else 0.0
    return EvalResult(value, err, f"{kind}/power-series-x", work), slope


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


def _be_pole_limit(nu: complex, s: complex, x: complex, k: int) -> EvalResult:
    """Coefficient of (-x)^k/k! that replaces zeta(s-k, nu+1) at s = k+1.

    It absorbs the singular part: psi(k+1) - psi(nu+1) - log x, and 0 at
    x = 0, where the term vanishes.  An order within 1e-12 of k+1 is
    charged the first-order change of the combined term across the gap.
    """
    if x == 0.0:
        return EvalResult(0.0, 0.0, "be/pole-limit", 0)
    psi_m = digamma(k + 1.0)
    psi_a = digamma(nu + 1.0)
    log_x = cmath.log(x)
    value = psi_m - psi_a - log_x
    size = 1.0 + abs(psi_m) + abs(psi_a) + abs(log_x)
    err = 2e-15 * size + abs(s - (k + 1)) * size * size
    return EvalResult(value, err, "be/pole-limit", 2)


# ---------------------------------------------------------------------------
# Expansion in nu about the nearest integer shift
# ---------------------------------------------------------------------------

_NU_CAP = 600


def _nu_coefficients(kind: str, m: int, s: complex, x: complex
                     ) -> Iterator[EvalResult]:
    """The coefficients of :func:`_nu_series` at the orders s, s + 1, ...:
    Phi(-+e^{-x}, s + k, m + 1) at x != 0 (:func:`zeta.lerch_orders`),
    else the x = 0 values, eta or zeta at m = 0."""
    if x != 0.0:
        return lerch_orders(_lerch_z(kind, x), s, m + 1.0)
    if kind == "fd" and m:
        return _fd_zero_orders(complex(m), s)
    if m == 0:
        at_zero = dirichlet_eta if kind == "fd" else riemann_zeta
        return (at_zero(s + k) for k in itertools.count())
    return (_be_zero(complex(m), s + k) for k in itertools.count())


def _nu_series(kind: str, nu: complex, s: complex, x: complex) -> EvalResult:
    """f(nu, s, x) = e^{-(nu-m)x} sum_k (s)_k (m-nu)^k / k! f(m, s+k, x):
    eqs. 4.7/5.8 moved by diff-eq-7.2 to the integer m of least ratio
    r = |nu - m|/(m + 1), at most 1/3 for real nu.  Over real m the ratio
    is least, |Im nu|/|nu + 1| < 1, at m* = Re nu + (Im nu)^2/(Re nu + 1),
    so m is floor(m*) or the next integer.  The
    coefficients are values at the shift m (eta/zeta at x = 0, m = 0); at
    x > 0 they are the bare Phi(-+e^{-x}, s+k, m+1), and the whole decay
    e^{-(nu+1)x} is applied once to the sum, so no factor of it underflows
    or overflows ahead of the value.  Consecutive coefficients are rungs of
    one order ladder wherever their route sums a fixed term list: the direct
    and the alternating Lerch sums at x != 0 (:func:`zeta.lerch_orders`, one
    ladder per sign of Re(s+k)) and fd's alternating sums at x = 0 and
    m >= 1 (:func:`_fd_zero_orders`).  A rung makes its terms from the last
    order's by one division by n + m + 1, and every order takes the route
    it takes alone.  Where the weights (s)_k (m-nu)^k/k! pass the double
    range before the series converges (|nu - m| next to m + 1, complex nu),
    the route raises ConvergenceError."""
    lo = math.floor(nu.real + nu.imag ** 2 / (nu.real + 1.0))
    m = min(lo, lo + 1, key=lambda c: abs(nu - c) / (c + 1))
    r = abs(nu - m) / (m + 1)
    if r >= 1.0:
        raise DomainError(
            f"nu-expansion route needs |nu - m| < m + 1 for m = {m}, got {nu!r}"
        )
    d = m - nu
    pre = cmath.exp(-(nu + 1.0) * x)
    coefficients = _nu_coefficients(kind, m, s, x)
    total = complex(0.0)
    terms: list[complex] = []
    inner_err = 0.0
    work = 0
    # (s)_k d^k / k!, carried as one product: its two factors overflow
    # and underflow separately near k = 170, and inf * 0 would be NaN.
    weight = complex(1.0)
    small_streak = 0
    for k in range(_NU_CAP):
        c = next(coefficients)
        work += c.work
        term = weight * c.value
        if not cmath.isfinite(term):
            raise ConvergenceError(
                f"nu-expansion weights leave the double range at k = {k}")
        terms.append(term)
        total += term
        inner_err += abs(weight) * c.err_estimate
        if s + k == 0.0 and kind == "be" and x == 0.0:
            # (s)_{k+1} = 0 meets zeta's order-1 pole at order s + k + 1;
            # (s + k) zeta(s + k + 1, m + 1) -> 1 leaves one last term.
            terms.append(weight * (d / (k + 1)))
        weight *= (s + k) * (d / (k + 1))
        if weight == 0.0:
            break  # nu = m, or (s)_{k+1} = 0: the sum is finite
        # |(s)_{k+1}/(s)_k * d/(k+1)| / (m+1) -> r as k grows; bound the
        # tail geometrically once the effective ratio drops below 1.
        ratio = r * abs(s + k) / (k + 1)
        mag = abs(term)
        if ratio < 0.999 and mag * ratio / (1.0 - ratio) <= REL_TOL * max(
            abs(total), 1e-300
        ):
            small_streak += 1
            if small_streak >= 2:
                break
        else:
            small_streak = 0
    else:
        raise ConvergenceError(
            f"nu-expansion not converged within {_NU_CAP} terms"
        )

    tail = abs(terms[-1]) * r / (1.0 - r) if weight else 0.0  # 0: finite sum
    value = pre * compensated_sum(terms)
    # pre inherits the rounding of its exponent, as in _series_route.
    err = abs(pre) * (inner_err + tail) + (
        1e-16 + 2.2e-16 * abs((nu + 1.0) * x)
    ) * abs(value)
    return EvalResult(value, err, f"{kind}/nu-series", work + len(terms))


# ---------------------------------------------------------------------------
# Quadrature route (fractional integral of the generating kernels)
# ---------------------------------------------------------------------------

def _logistic_like(u: float, kind: str) -> complex:
    """g(u) = 1/(1+e^{-u}) for fd, h(u) = 1/(1-e^{-u}) for be.

    Both satisfy f' = f - f^2, the fact the derivative supplier leans on.
    """
    eu = math.exp(-u)
    return 1.0 / (1.0 + eu) if kind == "fd" else 1.0 / (1.0 - eu)


def _kernel_for(kind: str, nu: complex) -> KernelSpec:
    c = nu + 1.0

    def value(u: float) -> complex:
        return cmath.exp(-c * u) * _logistic_like(u, kind)

    # m-th derivative: maintain P_m with  d/du [e^{-cu} P(f)] =
    # e^{-cu} [ -c P(f) + P'(f) (f - f^2) ],  f' = f - f^2.  polys[m] holds
    # the coefficients of P_m, built once per order for this kernel.
    polys: list[list[complex]] = [[0.0, 1.0]]  # P_0(f) = f

    def derivative(m: int, u: float) -> complex:
        while len(polys) <= m:
            coeffs = polys[-1]
            # -c * P
            nxt: list[complex] = [-c * a for a in coeffs] + [0.0, 0.0]
            # + P'(f) * (f - f^2)
            for j in range(1, len(coeffs)):
                d = j * coeffs[j]
                nxt[j] += d        # * f^{j-1} * f
                nxt[j + 1] -= d    # * f^{j-1} * (-f^2)
            while len(nxt) > 1 and nxt[-1] == 0.0:
                nxt.pop()
            polys.append(nxt)
        coeffs = polys[m]
        f = _logistic_like(u, kind)
        acc = complex(0.0)
        for a in reversed(coeffs):
            acc = acc * f + a
        return cmath.exp(-c * u) * acc

    return KernelSpec(value=value, derivative=derivative, decay_b=math.inf)


def fd_kernel(nu: complex) -> KernelSpec:
    """Generating kernel e^{-(nu+1)u} / (1 + e^{-u}) with derivatives."""
    nu = require_finite(nu, "nu")
    return _kernel_for("fd", nu)


def be_kernel(nu: complex) -> KernelSpec:
    """Generating kernel e^{-(nu+1)u} / (1 - e^{-u}) with derivatives.

    Singular at u = 0; quadrature use requires a strictly positive shift.
    """
    nu = require_finite(nu, "nu")
    return _kernel_for("be", nu)


def _weyl_route(
    kind: str, nu: complex, s: complex, x: complex
) -> EvalResult:
    if x.imag != 0.0 or x.real < 0.0:
        raise DomainError("quadrature route needs real x >= 0")
    xr = x.real
    if kind == "be" and xr <= 0.0:
        raise DomainError(
            "quadrature route for the be-function needs x > 0 "
            "(kernel pole at the origin)"
        )
    kernel = _kernel_for(kind, nu)
    if s.real > 0.0:
        inner = weyl_transform(kernel, s, xr)
    else:
        inner = weyl_negative_order(kernel, s, xr)
    suffix = inner.strategy.split("/", 1)[1]
    return EvalResult(inner.value, inner.err_estimate,
                      f"{kind}/weyl-{suffix}", inner.work)


# ---------------------------------------------------------------------------
# Exact values at non-positive integer orders
# ---------------------------------------------------------------------------

def ext_fd_negint_exact(nu: Union[int, Fraction], n: int) -> Fraction:
    """Exact rational fd(nu, -n, 0) = E_n(nu+1) / 2 for rational nu."""
    if n < 0 or n + 1 > MAX_POLY_DEGREE:
        raise DomainError(f"need 0 <= n <= {MAX_POLY_DEGREE - 1}, got {n}")
    nu_f = Fraction(nu)
    if nu_f < 0:
        raise DomainError("require nu >= 0")
    return euler_poly_coeffs(n).evaluate(nu_f + 1) / 2


def ext_be_negint_exact(nu: Union[int, Fraction], n: int) -> Fraction:
    """Exact rational be(nu, -n, 0) = -B_{n+1}(nu+1) / (n+1)."""
    if n < 0 or n + 1 > MAX_POLY_DEGREE:
        raise DomainError(f"need 0 <= n <= {MAX_POLY_DEGREE - 1}, got {n}")
    nu_f = Fraction(nu)
    if nu_f < 0:
        raise DomainError("require nu >= 0")
    return -bernoulli_poly_coeffs(n + 1).evaluate(nu_f + 1) / (n + 1)


def _negint_route(kind: str, nu: complex, s: complex, x: complex) -> EvalResult:
    if not _near_nonpos_int(s):
        raise DomainError(
            "exact-polynomial route needs a non-positive integer order"
        )
    n = -round(s.real)
    if kind == "be":
        if abs(x) > 1e-12:
            raise DomainError("exact be values exist at x = 0 only")
        value = -bernoulli_poly_coeffs(n + 1).evaluate(nu + 1.0) / (n + 1)
        return EvalResult(complex(value), 5e-15 * (1.0 + abs(value)),
                          "be/negint-bernoulli", n + 2)
    if abs(x) <= 1e-12:
        value = euler_poly_coeffs(n).evaluate(nu + 1.0) / 2
        return EvalResult(complex(value), 5e-15 * (1.0 + abs(value)),
                          "fd/negint-euler-exact", n + 2)
    if abs(x - 1j * _PI) <= 1e-12:
        base = bernoulli_poly_coeffs(n + 1).evaluate(nu + 1.0) / (n + 1)
        value = cmath.exp(-1j * _PI * nu) * base
        return EvalResult(value, 5e-15 * (1.0 + abs(value)),
                          "fd/negint-bernoulli-pi", n + 2)
    raise DomainError(
        "exact fd values exist at x = 0 and x = i pi only"
    )


# ---------------------------------------------------------------------------
# AUTO dispatch and the public pair
# ---------------------------------------------------------------------------

def _reduce(kind: str, x: complex) -> tuple[int, str, complex]:
    """(j, centre, x - i j pi): j puts x within 2 pi/3 of a be centre, else
    within pi/3 of an fd centre, a third of either Taylor radius."""
    u = x.imag / _PI
    j = round(u)
    centre = kind if j % 2 == 0 else ("be" if kind == "fd" else "fd")
    if centre == "fd" and abs(u - j) > 1.0 / 3.0:
        j += 1 if u > j else -1
        centre = "be"
    return j, centre, complex(x.real, x.imag - j * _PI)


def _circle(kind: str, nu: complex, s: complex, x: complex) -> EvalResult:
    """Reduce, then expand: complex x near the circle (AUTO's
    ``_SERIES_CROSSOVER``) or on it where Lerch's transformation does not
    serve; at Re(s) > 0 only where the defining series cannot finish within
    its budget.

    Moving x by j i pi multiplies term n of the defining series by
    e^{-i j pi (n+nu+1)}, so f(nu, s, x) = e^{-i j pi (nu+1)} f'(nu, s,
    x - i j pi), with f' = f for even j (the period) and the other function
    for odd j (duality-6.7); j and the centre are :func:`_reduce`'s.  A
    reduced x on the real axis takes AUTO's real-x rules, the input
    standing for an exact multiple of i pi.  The estimate adds the rounding
    of the phase's exponent and of the reduced argument (|j| 1.3e-16 for
    the double nearest pi, 2.2e-16 |Im x| for j pi and the difference)
    times the Taylor route's bound on |df'/dx|; DomainError where that
    rounding is not small next to the distance to a singularity.
    """
    j, centre, x_red = _reduce(kind, x)
    shift_err = 1.3e-16 * abs(j) + 2.2e-16 * abs(x.imag) if j else 0.0
    if x_red.imag == 0.0:
        inner, slope = _auto(centre, nu, s, x_red), 0.0
    elif shift_err > 1e-3 * (abs(x_red) if centre == "be" else 2.0):
        # The charge below is first order in the shift's rounding, which
        # must stay small next to the distance to the nearest singularity:
        # x = 0 for be, more than 2 away for fd.
        raise DomainError(f"shifting Im x = {x.imag:.6g} by {j} pi rounds "
                          "by more than 1e-3 of the distance to a singularity")
    else:
        inner, slope = _power_series_x(centre, nu, s, x_red)
    expo = -1j * _PI * j * (nu + 1.0)
    phase = cmath.exp(expo)
    value = phase * inner.value
    err = abs(phase) * (inner.err_estimate + shift_err * slope) + (
        2e-16 + 4.4e-16 * abs(expo)
    ) * abs(value)
    return EvalResult(value, err, f"{kind}/circle-{centre}", inner.work)


# AUTO takes the defining series as it stands wherever its direct sum is
# predicted to take at most this many terms (zeta.direct_length at
# |z| = e^{-Re x}, so Re(x) above about 0.0998).  Nearer the circle the
# Taylor series in x and the reduction cost less: the measured crossover
# of the forced routes over Re s in [-4.5, 4.5] and nu in [0, 3].
_SERIES_CROSSOVER = 300

# At large nu the Taylor terms grow like (|nu+1| |x|)^k / k! about their
# centre and cancel by about e^{2 |nu+1| |x|}; past this product AUTO
# takes the defining series wherever its direct sum is predicted to finish
# (:func:`_series_serves`).
_TAYLOR_REACH = 4.0


def _transform_serves(kind: str, nu: complex, x: complex) -> bool:
    """Whether AUTO takes Lerch's transformation near the circle at
    Re(s) <= 0: real nu whose inner sums stay within their cap
    (:func:`zeta.lerch_transform_serves`), m Re(x) <= 1 for the m terms
    of its reduction of a = nu + 1, which cancel by up to e^{m Re x}, and
    z off 1 by 1e-12, where x stands for a be centre."""
    if nu.imag != 0.0 or not lerch_transform_serves(nu + 1.0):
        return False
    m = math.ceil(nu.real + 1.0) - 1
    return m * x.real <= 1.0 and abs(_lerch_z(kind, x) - 1.0) >= 1e-12


def _series_serves(kind: str, nu: complex, s: complex, x: complex) -> bool:
    """Whether AUTO takes the defining series near the circle in place of
    the Taylor route: |nu+1| times the distance from x to the Taylor
    route's centre (x itself for real x, else :func:`_reduce`'s) passes
    ``_TAYLOR_REACH``, and the direct sum is predicted to finish within
    MAX_TERMS.  At Re(s) <= 0 also c = |nu+1| Re(x) > 1, the bound of the
    transformation's reduction: the direct sum's terms e^{-n Re x}
    (n+nu+1)^{-s} rise by up to (|Re s|/c)^{|Re s|} e^{c - |Re s|} before
    they decay, and nearer the circle their sum cancels away digits that
    the Taylor route about a near centre keeps."""
    if direct_length(-x.real) > MAX_TERMS:
        return False
    if s.real <= 0.0 and abs(nu + 1.0) * x.real <= 1.0:
        return False
    arg = x if x.imag == 0.0 else _reduce(kind, x)[2]
    return abs(nu + 1.0) * abs(arg) > _TAYLOR_REACH


def _auto(kind: str, nu: complex, s: complex, x: complex) -> EvalResult:
    if x == 0.0:
        return _fd_zero(nu, s) if kind == "fd" else _be_zero(nu, s)
    if direct_length(-x.real) <= _SERIES_CROSSOVER:
        return _series_route(kind, nu, s, x)
    if s.real <= 0.0 and _transform_serves(kind, nu, x):
        return _transformed(kind, nu, s, x)
    if _series_serves(kind, nu, s, x):
        return _series_route(kind, nu, s, x)
    if x.imag == 0.0:
        if kind == "be" or s.real <= 0.0:
            return _power_series_x(kind, nu, s, x)[0]
        return _series_route(kind, nu, s, x)
    if s.real <= 0.0 or circle_pieces(cmath.phase(_lerch_z(kind, x))) > MULT_CAP:
        # At Re(s) > 0 no CVZ sum reaches z next to the positive real axis,
        # on the circle or inside it, and the direct sum there takes more
        # than _SERIES_CROSSOVER terms.
        return _circle(kind, nu, s, x)
    try:
        return _series_route(kind, nu, s, x)
    except ConvergenceError:
        # The direct sum refuses: MAX_TERMS terms cannot reach REL_TOL.
        return _circle(kind, nu, s, x)


def _dispatch(kind: str, p: ExtParams, strategy: Strategy) -> EvalResult:
    nu, s, x = complex(p.nu), complex(p.s), complex(p.x)
    if strategy is Strategy.AUTO:
        out = _auto(kind, nu, s, x)
    elif strategy is Strategy.XSERIES:
        out = _series_route(kind, nu, s, x)
    elif strategy is Strategy.WEYL_QUAD:
        out = _weyl_route(kind, nu, s, x)
    elif strategy is Strategy.POWER_SERIES_X:
        out = _power_series_x(kind, nu, s, x)[0]
    elif strategy is Strategy.NU_SERIES:
        out = _nu_series(kind, nu, s, x)
    elif strategy is Strategy.NEG_INT_BERNOULLI:
        out = _negint_route(kind, nu, s, x)
    else:  # pragma: no cover - enum is closed
        raise DomainError(f"unknown strategy {strategy!r}")
    return EvalResult(faults.perturb("ext_" + kind, out.value),
                      out.err_estimate, out.strategy, out.work)


def ext_fd(p: ExtParams, strategy: Strategy = Strategy.AUTO) -> EvalResult:
    """Extended alternating (fd) function at p = (nu, s, x)."""
    return _dispatch("fd", p, strategy)


def ext_be(p: ExtParams, strategy: Strategy = Strategy.AUTO) -> EvalResult:
    """Extended one-signed (be) function at p = (nu, s, x)."""
    return _dispatch("be", p, strategy)


# ---------------------------------------------------------------------------
# Classical (nu = 0, fugacity form) wrappers
# ---------------------------------------------------------------------------

def fd_classical(s: complex, x: float) -> EvalResult:
    """Classical alternating integral (1/Gamma(s)) I[t^{s-1}/(e^{t-x}+1)].

    Equals -Li_s(-e^x).  For x <= 0 this is the extended function at
    (0, s, -x); for x > 0 a quadrature with the overflow-safe occupation
    kernel is used (Re(s) > 0 there).
    """
    s = require_finite(s, "s")
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    if x <= 0.0:
        inner = ext_fd(ExtParams(0.0, s, -x), Strategy.AUTO)
        return EvalResult(inner.value, inner.err_estimate,
                          "fd-classical/" + inner.strategy.split("/", 1)[1],
                          inner.work)
    if s.real <= 0.0:
        raise DomainError("quadrature route for x > 0 needs Re(s) > 0")

    def occupation(t: float) -> complex:
        u = t - x
        if u >= 0.0:
            eu = math.exp(-u)
            return eu / (1.0 + eu)
        return 1.0 / (1.0 + math.exp(u))

    kernel = KernelSpec(value=occupation, decay_b=math.inf)
    inner = weyl_transform(kernel, s, 0.0)
    return EvalResult(inner.value, inner.err_estimate,
                      "fd-classical/weyl-gk-adaptive", inner.work)


def be_classical(s: complex, x: float) -> EvalResult:
    """Classical one-signed integral; equals Li_s(e^x) for x <= 0.

    Divergent for x > 0 (DomainError) and, at x = 0, finite only for
    Re(s) > 1 where it equals the order-s zeta value.
    """
    s = require_finite(s, "s")
    x = float(x)
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    if x > 0.0:
        raise DomainError("divergent for x > 0")
    if x == 0.0:
        if s.real <= 1.0:
            raise DomainError(
                "divergent at x = 0 for Re(s) <= 1; the extended function "
                "carries the continuation"
            )
        inner = riemann_zeta(s)
        return EvalResult(inner.value, inner.err_estimate,
                          "be-classical/zeta", inner.work)
    inner = ext_be(ExtParams(0.0, s, -x), Strategy.AUTO)
    return EvalResult(inner.value, inner.err_estimate,
                      "be-classical/" + inner.strategy.split("/", 1)[1],
                      inner.work)
