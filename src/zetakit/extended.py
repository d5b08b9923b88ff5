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
* Re(s) <= 0 near the circle, x real, complex or on the imaginary axis:
  the defining series, summed by Lerch's transformation at the complex
  angle theta = -i log z = arg z + i Re x of z = -+e^{-x} (tag
  {fd,be}/xseries-lerch-transform; :func:`zeta.lerch_transform`).  Its
  inner sums take the complex parameters lam = theta/(2 pi) and 1 - lam;
  for be at real x, Re lam = 0, their term k = 0 is the Taylor route's
  singular part x^{s-1} Gamma(1-s).  It serves where lerch_phi's rule
  does (:func:`zeta.lerch_transform_serves` at ln|z| = -Re x: real nu
  whose inner circle sums stay within their cap, so nu within about 0.02
  of an integer, not on it, is left out, and m Re x <= 1 for the
  m = ceil(nu) terms that reduce nu + 1 to (0, 1], which cancel by up to
  e^{m Re x}) and z lies 1e-12 or more from 1 (nearer, x stands for a be
  centre).
* be at real x > 0 near the circle at Re(s) > 0 and the points the
  transformation leaves: the Taylor series in x (eqs. 4.14/4.15;
  :func:`zeta.mu_series`, Phi's expansion about z = 1 in mu = log z =
  -x), immune to the slow geometric decay; at a positive integer order
  the pole coefficient and the singular part x^{s-1} Gamma(1-s) are
  replaced by their finite limit with digamma values and -log x.
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
  (``zeta.TAYLOR_REACH``; |mu|, the distance to the centre, for complex
  x) the defining series, wherever its direct sum is predicted to finish
  within MAX_TERMS, at Re(s) <= 0 only for |nu+1| Re(x) > 1.
* other complex x near the circle at Re(s) <= 0 (complex nu, nu next to
  an integer, a long reduction), and at Re(s) > 0 z within the circle
  sum's cap of the positive real axis, where no CVZ sum reaches
  (:func:`zeta.near_one`; lerch_phi takes the same expansion there): the
  Taylor series about the nearer centre, z = 1 or -1, within a third of
  its radius, at mu = -Re x + i arg(+-z), whose phase cmath reduces
  exactly (tags {fd,be}/circle-{be,fd}).  The period 2 pi i and the
  duality x -> x - i pi give the value a factor e^{-i j pi (nu+1)}.  An
  input with Re x = 0 whose Im x is exactly the double j pi stands for
  the centre itself.
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
from collections import namedtuple
from fractions import Fraction
from typing import Iterator, Union

from . import faults
from .errors import ConvergenceError, DomainError
from .numeric_core import (
    MAX_POLY_DEGREE,
    bernoulli_poly_coeffs,
    compensated_sum,
    euler_poly_coeffs,
    require_finite,
)
from .result import EvalResult, Record
from .weyl import (
    KernelSpec,
    weyl_negative_order,
    weyl_transform,
)
from .zeta import (
    MAX_TERMS,
    REL_TOL,
    SERIES_CROSSOVER,
    TAYLOR_REACH,
    LerchParams,
    direct_length,
    hurwitz_halves,
    hurwitz_zeta,
    lerch_by_route,
    lerch_minus_one,
    lerch_orders,
    lerch_phi,
    lerch_route,
    lerch_transform_serves,
    minus_one_orders,
    mu_series,
    near_one,
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


class ExtParams(Record, namedtuple("ExtParams", "nu s x")):
    """Point (nu, s, x) with Re(nu) >= 0 and Re(x) >= 0, an immutable
    record (see :mod:`zetakit.result`) holding the numbers as given."""

    __slots__ = ()

    def __new__(cls, nu: complex, s: complex, x: complex):
        nu_c = require_finite(nu, "nu")
        require_finite(s, "s")
        x_c = require_finite(x, "x")
        if nu_c.real < 0.0:
            raise DomainError(f"require Re(nu) >= 0, got nu={nu_c!r}")
        if x_c.real < 0.0:
            raise DomainError(f"require Re(x) >= 0, got x={x_c!r}")
        return tuple.__new__(cls, (nu, s, x))


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
    "mu-series": "xseries-mu-series",
    "single-term": "xseries-direct",
}


def _lerch_z(kind: str, x: complex) -> tuple[complex, complex]:
    """z = -+e^{-x} of the defining series and its log, -Re x + i arg z:
    arg z carries the exact argument reduction of cos and sin, so log z is
    read to a few ulps of its modulus, also next to z = 1, where the
    double z holds it only to 1.1e-16 absolute."""
    z = (-1.0 if kind == "fd" else 1.0) * cmath.exp(-x)
    return z, complex(-x.real, cmath.phase(z))


def _series_route(kind: str, nu: complex, s: complex, x: complex,
                  z: complex, log_z: complex) -> EvalResult:
    """The defining series e^{-(nu+1) x} Phi(z, s, nu+1) by lerch_phi's
    route at z.  Next to the circle its two routes that read log z,
    Lerch's transformation (Re s <= 0) and the Taylor series in log z (in
    :func:`zeta.near_one`'s wedge), take the log z of :func:`_lerch_z`
    (:func:`zeta.lerch_by_route`) in place of the double z's."""
    a = nu + 1.0
    params = LerchParams(z, s, a)
    if direct_length(-x.real) > SERIES_CROSSOVER and (s.real <= 0.0 or near_one(log_z.imag)):
        route = lerch_route(z, s, a)
        if route in ("lerch-transform", "mu-series"):
            return _scaled(kind, nu, x, lerch_by_route(route, z, s, a, log_z))
    return _scaled(kind, nu, x, lerch_phi(params))


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
# Expansion in nu about the nearest integer shift
# ---------------------------------------------------------------------------

_NU_CAP = 600


def _nu_coefficients(kind: str, m: int, s: complex, x: complex
                     ) -> Iterator[EvalResult]:
    """The coefficients of :func:`_nu_series` at the orders s, s + 1, ...:
    Phi(-+e^{-x}, s + k, m + 1) at x != 0 (:func:`zeta.lerch_orders` at the
    exact log z), else the x = 0 values, zeta for be at m = 0."""
    if x != 0.0:
        z, log_z = _lerch_z(kind, x)
        return lerch_orders(z, s, m + 1.0, log_z)
    if kind == "fd":
        return minus_one_orders(s, m + 1.0)
    if m == 0:
        return (riemann_zeta(s + k) for k in itertools.count())
    return (_be_zero(complex(m), s + k) for k in itertools.count())


def _nu_series(kind: str, nu: complex, s: complex, x: complex) -> EvalResult:
    """f(nu, s, x) = e^{-(nu-m)x} sum_k (s)_k (m-nu)^k / k! f(m, s+k, x):
    eqs. 4.7/5.8 moved by diff-eq-7.2 to the integer m of least ratio
    r = |nu - m|/(m + 1), at most 1/3 for real nu.  Over real m the ratio
    is least, |Im nu|/|nu + 1| < 1, at m* = Re nu + (Im nu)^2/(Re nu + 1),
    so m is floor(m*) or the next integer.  The
    coefficients are values at the shift m (zeta for be at x = 0, m = 0); at
    x > 0 they are the bare Phi(-+e^{-x}, s+k, m+1), and the whole decay
    e^{-(nu+1)x} is applied once to the sum, so no factor of it underflows
    or overflows ahead of the value.  Consecutive coefficients are rungs of
    one order ladder wherever their route sums a fixed term list: the direct
    and the alternating Lerch sums at x != 0 (:func:`zeta.lerch_orders`, one
    ladder per sign of Re(s+k)) and fd's alternating sums at x = 0
    (:func:`zeta.minus_one_orders`).  A rung makes its terms from the last
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
    """The closed forms at s = -n: be(nu, -n, 0) = -B_{n+1}(nu+1)/(n+1),
    fd(nu, -n, 0) = E_n(nu+1)/2 and fd(nu, -n, i pi) =
    e^{-i pi nu} B_{n+1}(nu+1)/(n+1), each polynomial by Horner's rule in
    floating point.  The estimate is Horner's bound
    (``PolyCoeffs.evaluate_bounded``) carried through the last steps: the
    division by n + 1 rounds by 1.1e-16 of the value, and e^{-i pi nu} is
    off by at most (3 + 7 |nu|) 1.1e-16 of itself (its exponent's
    rounding, pi's included, and the exponential's), its product by
    sqrt(5) 1.1e-16 more.
    """
    if not _near_nonpos_int(s):
        raise DomainError(
            "exact-polynomial route needs a non-positive integer order"
        )
    n = -round(s.real)
    if kind == "be":
        if abs(x) > 1e-12:
            raise DomainError("exact be values exist at x = 0 only")
        poly, err = bernoulli_poly_coeffs(n + 1).evaluate_bounded(nu + 1.0)
        value = -poly / (n + 1)
        return EvalResult(value, err / (n + 1) + 1.1e-16 * abs(value),
                          "be/negint-bernoulli", n + 2)
    if abs(x) <= 1e-12:
        poly, err = euler_poly_coeffs(n).evaluate_bounded(nu + 1.0)
        return EvalResult(poly / 2, err / 2, "fd/negint-euler-exact", n + 2)
    if abs(x - 1j * _PI) <= 1e-12:
        poly, err = bernoulli_poly_coeffs(n + 1).evaluate_bounded(nu + 1.0)
        base = poly / (n + 1)
        phase = cmath.exp(-1j * _PI * nu)
        value = phase * base
        err = abs(phase) * (err / (n + 1) + 1.1e-16 * abs(base))
        return EvalResult(value, err + 1.1e-16 * (6.0 + 7.0 * abs(nu)) * abs(value),
                          "fd/negint-bernoulli-pi", n + 2)
    raise DomainError(
        "exact fd values exist at x = 0 and x = i pi only"
    )


# ---------------------------------------------------------------------------
# AUTO dispatch and the public pair
# ---------------------------------------------------------------------------

def _centre(x: complex, z: complex, log_z: complex) -> tuple[str, complex, int]:
    """(centre, mu, j) of the Taylor route next to the circle at z = -+e^{-x}
    and its log z (:func:`_lerch_z`): mu = log(+-z) about z = 1 ("be")
    where |arg z| <= 2 pi/3, else about z = -1 ("fd"), and j with
    x + mu = i j pi.  mu = -Re x + i arg(+-z) takes its phase from cmath,
    whose argument reduction is exact, so mu is read to a few ulps of its
    modulus however large Im x; real x gets mu = -x exactly."""
    if abs(log_z.imag) <= 2.0 * _PI / 3.0:
        centre, mu = "be", log_z
    else:
        centre, mu = "fd", complex(log_z.real, cmath.phase(-z))
    return centre, mu, round((x.imag + mu.imag) / _PI)


def _about_centre(kind: str, nu: complex, s: complex, x: complex,
                  centre: str, mu: complex, j: int) -> EvalResult:
    """AUTO's Taylor route next to the circle: :func:`zeta.mu_series` about
    the centre at mu (:func:`_centre`), tagged {kind}/power-series-x at real
    x, else {kind}/circle-{centre}.  As x + mu = i j pi, f(nu, s, x) is
    e^{-i j pi (nu+1)} times the centre's function at -mu (the period for
    even j, duality-6.7 for odd j), charged its exponent's rounding.  An
    input with Re x = 0 and Im x exactly the double j pi is the centre."""
    if x.imag == 0.0:
        return mu_series(kind, s, nu + 1.0, mu)
    if x.real == 0.0 and x.imag == j * _PI:
        inner = _auto(centre, nu, s, 0j)
    else:
        inner = mu_series(centre, s, nu + 1.0, mu)
    expo = -1j * _PI * j * (nu + 1.0)
    phase = cmath.exp(expo)
    value = phase * inner.value
    err = abs(phase) * inner.err_estimate + (
        2e-16 + 4.4e-16 * abs(expo)
    ) * abs(value)
    return EvalResult(value, err, f"{kind}/circle-{centre}", inner.work)


def _series_serves(nu: complex, s: complex, x: complex, mu: complex) -> bool:
    """Whether AUTO takes the defining series near the circle in place of
    the Taylor route: |nu+1| times the distance |mu| from x to the Taylor
    route's centre (:func:`_centre`) passes ``zeta.TAYLOR_REACH``, and the
    direct sum is predicted to finish within MAX_TERMS.  At Re(s) <= 0
    also c = |nu+1| Re(x) > 1, the bound of the transformation's
    reduction: the direct sum's terms e^{-n Re x} (n+nu+1)^{-s} rise by up
    to (|Re s|/c)^{|Re s|} e^{c - |Re s|} before they decay, and nearer
    the circle their sum cancels away digits that the Taylor route about a
    near centre keeps."""
    if direct_length(-x.real) > MAX_TERMS:
        return False
    if s.real <= 0.0 and abs(nu + 1.0) * x.real <= 1.0:
        return False
    return abs(nu + 1.0) * abs(mu) > TAYLOR_REACH


def _auto(kind: str, nu: complex, s: complex, x: complex) -> EvalResult:
    if x == 0.0:
        return lerch_minus_one(s, nu + 1.0) if kind == "fd" else _be_zero(nu, s)
    z, log_z = _lerch_z(kind, x)
    if direct_length(-x.real) <= SERIES_CROSSOVER:
        return _series_route(kind, nu, s, x, z, log_z)
    # lerch_phi's rule at Re(s) <= 0 at ln|z| = -Re x; z within 1e-12 of 1
    # stands for a be centre.
    if s.real <= 0.0 and lerch_transform_serves(nu + 1.0, -x.real) and abs(z - 1.0) >= 1e-12:
        return _scaled(kind, nu, x, lerch_by_route("lerch-transform", z, s, nu + 1.0, log_z))
    centre, mu, j = _centre(x, z, log_z)
    # At Re(s) > 0 the series serves but in zeta.near_one's wedge, as in lerch_phi.
    if _series_serves(nu, s, x, mu) or s.real > 0.0 and not (centre == "be" and near_one(mu.imag)):
        return _series_route(kind, nu, s, x, z, log_z)
    return _about_centre(kind, nu, s, x, centre, mu, j)


def _dispatch(kind: str, p: ExtParams, strategy: Strategy) -> EvalResult:
    nu, s, x = complex(p.nu), complex(p.s), complex(p.x)
    if strategy is Strategy.AUTO:
        out = _auto(kind, nu, s, x)
    elif strategy is Strategy.XSERIES:
        out = _series_route(kind, nu, s, x, *_lerch_z(kind, x))
    elif strategy is Strategy.WEYL_QUAD:
        out = _weyl_route(kind, nu, s, x)
    elif strategy is Strategy.POWER_SERIES_X:
        out = mu_series(kind, s, nu + 1.0, -x)
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
