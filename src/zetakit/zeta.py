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
import math
from dataclasses import dataclass
from fractions import Fraction

from . import faults
from .errors import ConvergenceError, DomainError, PoleError
from .numeric_core import (
    MAX_POLY_DEGREE,
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
# Below this |log |z|| a Lerch sum at z next to -1 (fd at real x < 0.05)
# is summed by the alternating acceleration, not the slow geometric sum.
NEAR_CIRCLE = 0.05
# The error of S_{3n/4}, the shorter CVZ sum an estimate compares with,
# falls by the factor e^{-_CVZ_RATE} for each term added to n.
_CVZ_RATE = 0.75 * math.log(3.0 + math.sqrt(8.0))
# Most pieces of the multiplication formula the circle sum takes: m grows
# like (2 pi/3)/|arg z| next to z = 1, where it refuses.
MULT_CAP = 16
_WEDGE = 2.0 * math.pi / 3.0


@dataclass(frozen=True)
class LerchParams:
    """Arguments (z, s, a) of the transcendent sum_{n>=0} z^n (n+a)^{-s}.

    |z| <= 1, read as 1 within 1e-14, and a off the non-positive integers.
    On |z| = 1 with z != 1 an order Re(s) <= 0 needs real a, which Lerch's
    transformation serves (see :func:`lerch_phi`).
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
    """exp(u) - 1 without cancellation for small |u|."""
    if abs(u) < 1e-4:
        return u * (1.0 + u * (0.5 + u * (1.0 / 6.0 + u / 24.0)))
    return cmath.exp(u) - 1.0


def fourier_reflection(
    s: complex, a: float, step: int, abs_tol: float = 0.0
) -> tuple[complex, float, int]:
    """Fourier reflection series for Re(s) < 0 and real a > 0.

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
    a0 = a - m, summed in chunks (``chunked_sum``) so that memory stays flat
    at large a.  The series gains accuracy as Re(s) decreases — the regime
    where Euler-Maclaurin loses it — so it serves as the deep-left-half-plane
    route.  At a real integer order the sines' arguments are reduced
    exactly, so the trivial zeros come out as 0.

    The series stops once its tail bound, relative to the prefactor's
    modulus |amp|, is below max(REL_TOL, abs_tol / (|amp| cosh(pi Im(s)/2)));
    ``work`` counts the series terms summed plus the m reduction terms.
    OverflowError is raised where the prefactor or the value passes the
    double range; the prefactor does so below about Re(s) = -218 (step 2)
    and -259 (step 1).
    """
    sigma = s.real
    m = max(0, math.ceil(a) - 1)
    a0 = a - m
    neg_s = -s
    reduction, peak, reduction_err = chunked_sum(
        -cpow(a0 + j, neg_s) if step == 1 or j % 2 == 0 else cpow(a0 + j, neg_s)
        for j in range(m)
    )

    ln_g = ln_gamma(1.0 - s)
    # One exponential of the summed logarithms: Gamma(1-s) alone overflows
    # from Re(s) ~ -170, |amp| only near -218 (step 2) and -259 (step 1).
    amp = cmath.exp(ln_g + _LN2 + (s - 1.0) * _LN_2PI
                    + (step - 1) * (1.0 - s) * _LN2)
    half_arg = 0.5 * _PI * s
    freq = 2.0 * _PI / step
    cosh_t = math.cosh(0.5 * _PI * s.imag)
    tol = REL_TOL
    if abs_tol > 0.0 and abs(amp) * cosh_t > 0.0:
        tol = max(REL_TOL, abs_tol / (abs(amp) * cosh_t))
    # Terms n = 1, 1 + step, ... up to the last n; the rest of the series is
    # at most 1/step of the integral of t^{sigma-1} beyond the last n.
    n_terms = max(8, math.ceil(
        ((step * tol * (-sigma)) ** (1.0 / sigma) + step - 1) / step
    ))
    n_terms = min(n_terms, MAX_TERMS)
    last = 1 + step * (n_terms - 1)
    if s.imag == 0.0 and sigma == round(sigma):
        # Real integer order: each sine's argument in turns, s/4 + n a0/step,
        # is an exact rational.  Reduced mod 1, whole quarter turns give
        # exact 0 and +-1 (zeta's trivial zeros); any other sine is off by
        # the rounding of its reduced argument, below 2.4e-15.
        start, turn = Fraction(round(sigma), 4), Fraction(a0) / step
        sines = []
        arg_err = 0.0
        for n in range(1, last + 1, step):
            quarters = 4 * ((start + n * turn) % 1)
            if quarters.denominator == 1:
                sines.append((0.0, 1.0, 0.0, -1.0)[int(quarters)])
            else:
                sines.append(math.sin(0.5 * _PI * float(quarters)))
                arg_err += 2.4e-15 * abs(amp) * n ** (sigma - 1.0)
    else:
        sines = [cmath.sin(half_arg + freq * n * a0)
                 for n in range(1, last + 1, step)]
        # Each sine moves by the rounding of its argument, 2.2e-16 (|pi s/2|
        # + freq n a0), times |cos| <= cosh(pi Im(s)/2); weighted by
        # n^{Re(s)-1} the sum over n stays below 1.1 (|pi s/2| + freq a0)
        # for Re(s) <= -4.  It matters where the leading sine nearly
        # vanishes.
        arg_err = (2.4e-16 * abs(amp) * cosh_t
                   * (abs(half_arg) + freq * a0))
    series_terms = [
        sine * cpow(n, s - 1.0)
        for sine, n in zip(sines, range(1, last + 1, step))
    ]
    series = compensated_sum(series_terms)
    tail = (last ** sigma) / (step * -sigma) * cosh_t
    reflected = amp * series
    value = reflected + reduction
    if step == 2 and m % 2 == 1:
        value = -value
    if not cmath.isfinite(value):
        raise OverflowError(f"reflection series overflows at s={s!r}")
    peak = max(peak, abs(reflected))
    # The exponential amp passes on the rounding of its exponent's terms,
    # log Gamma(1-s), (s-1) log 2 pi and, for step = 2, (1-s) log 2; the
    # first two exceed 100 for Re(s) < -40.
    expo_err = 2.2e-16 * (
        abs(ln_g) + abs(s - 1.0) * (_LN_2PI + (step - 1) * _LN2)
    ) * abs(reflected)
    err = (abs(amp) * tail + 3e-16 * peak + 5e-15 * abs(value)
           + expo_err + arg_err + reduction_err)
    return value, err, n_terms + m


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


def hurwitz_zeta(s: complex, a: complex, *, abs_tol: float = 0.0) -> EvalResult:
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

    ``work`` counts N head terms plus two per correction pair (the
    reflection route: its series terms actually summed plus the
    reduction, fewer when ``abs_tol`` is set).  At Re(s) < 0 the shift is
    small, so there most of ``work`` is correction pairs; a pair costs
    about as much time as a head term.
    """
    s = require_finite(s, "s")
    a = require_finite(a, "a")
    if abs(s - 1.0) < 1e-12:
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
    # Every term is a power exp(e log(n+a)) with |e| <= |s| + 1 and
    # |log(n+a)| <= max(|log a|, |log q|); it inherits the rounding of its
    # exponent, up to 2.2e-16 |e| |log(n+a)| relative.
    expo_err = 2.2e-16 * (abs(s) + 1.0) * max(abs(cmath.log(a)), abs(cmath.log(q)))
    err = trunc_err + 3e-16 * peak + expo_err * mass + 1e-16 * abs(value)
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
        return EvalResult(value, abs(terms[-1]) + 1e-16 * abs(value),
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
    """psi(a) = Gamma'(a)/Gamma(a) by shifted asymptotic expansion.

    Used for the pole-cancelled Hurwitz difference at s = 1.
    """
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
    """zeta(s, a) - zeta(s, b) with the s = 1 pole cancelled.

    At s = 1 the simple poles cancel and the finite limit is
    psi(b) - psi(a); elsewhere this is a plain difference of two
    Euler-Maclaurin evaluations.
    """
    s = require_finite(s, "s")
    if abs(s - 1.0) < 1e-12:
        value = digamma(b) - digamma(a)
        return EvalResult(value, 1e-13 * (1.0 + abs(value)),
                          "hurwitz/pole-cancelled-digamma", 2)
    za = hurwitz_zeta(s, a)
    zb = hurwitz_zeta(s, b)
    value = za.value - zb.value
    return EvalResult(value, za.err_estimate + zb.err_estimate,
                      "hurwitz/euler-maclaurin-diff", za.work + zb.work)


def hurwitz_halves(s: complex, a: complex) -> EvalResult:
    """Phi(-1, s, a) = 2^{-s} [zeta(s, a/2) - zeta(s, (a+1)/2)] for every s:
    the two order-1 poles cancel, and s = 1 takes the digamma limit."""
    diff = hurwitz_diff(s, a / 2.0, (a + 1.0) / 2.0)
    if abs(s - 1.0) < 1e-12:
        value = 0.5 * diff.value
        return EvalResult(value, 1e-14 * (1.0 + abs(value)),
                          "lerch/halves-digamma-limit", diff.work)
    two_ms = cpow(2.0, -s)
    value = two_ms * diff.value
    err = abs(two_ms) * diff.err_estimate + 1e-16 * abs(value)
    return EvalResult(value, err, "lerch/hurwitz-halves", diff.work)


def alternating_lerch(s: complex, a: complex,
                      log_w: complex = 0.0) -> tuple[complex, float, int]:
    """(value, err, work) of Phi(-w, s, a) = sum_k (-1)^k w^k (k+a)^{-s} by
    the Cohen-Rodriguez Villegas-Zagier weights: w = e^{log_w} in
    (e^{-NEAR_CIRCLE}, 1], Re(s) > 0.  The error of the sum S_n of n terms
    grows like e^{pi |Im s|/2} (3+sqrt 8)^{-n}, so n, set up front, is the
    least length from 32 that puts that size for S_{floor(3n/4)} below
    e^{-36}: 32 up to |Im s| = 4, 99 at 60, 1,216 at 1,000.  err is
    |S_n - S_{3n/4}| plus 2.2e-16 (1 + expo) |term_k| per term; work is n.
    """
    n = max(32, math.ceil((0.5 * _PI * abs(s.imag) + 36.0) / _CVZ_RATE))
    terms = [cmath.exp(k * log_w - s * cmath.log(k + a)) for k in range(n)]
    value = alternating_sum_cvz(terms.__getitem__, n)
    gap = abs(value - alternating_sum_cvz(terms.__getitem__, 3 * n // 4))
    expo = abs(s) * max_abs_log(a, n) + (n - 1) * abs(log_w)
    err = gap + 2.2e-16 * (1.0 + expo) * math.fsum(map(abs, terms))
    return value, err + 1e-15 * abs(value), n


def circle_pieces(theta: float) -> int:
    """Pieces m of the multiplication formula the circle sum takes at
    |arg z| = |theta|: the least m >= 1 that puts m |theta| within pi/3 of
    pi (mod 2 pi).  Such an m exists up to |theta| = 2 pi/3, where it is 1."""
    return max(1, math.ceil(_WEDGE / max(abs(theta), 1e-300)))


def circle_lerch(z: complex, s: complex, a: complex) -> tuple[complex, float, int]:
    """(value, err, work) of Phi(z, s, a) for 0 < |z| <= 1 off [0, 1),
    Re(s) > 0 and Re(a) > 0, by the CVZ weights at w = 1/z.

    The terms a_k = (k+a)^{-s} are moments on [0, 1], so Phi = int w dmu /
    (w - x) is w sum_k c_k a_k / P(w) (:func:`chebyshev_weights`) up to an
    error falling like rho^{-n}, rho the larger |v +- sqrt(v^2 - 1)|,
    v = 1 - 2w: 5.83 at z = -1, 5.27 at |arg z| = 2 pi/3.  Closer to z = 1
    the multiplication formula (eq. 5.10), Phi(z, s, a) = m^{-s}
    sum_{r<m} z^r Phi(z^m, s, (r+a)/m), with m from :func:`circle_pieces`,
    puts the weights at w = z^{-m} on the same terms: term j = m k + r
    takes z^r times weight k.  Past ``MULT_CAP`` pieces it raises
    ConvergenceError before any term.  n is the least length from 32 that
    puts e^{pi |Im s|/2} rho^{-3n/4} below e^{-36}, as in
    :func:`alternating_lerch`.  err is |S_n - S_{3n/4}| plus the rounding
    the cancelling weights magnify, 2.2e-16 (4 + |s| max|log(j+a)| + n)
    sum_j |weight_j a_j|; work is m n.
    """
    m = circle_pieces(cmath.phase(z))
    if m > MULT_CAP:
        raise ConvergenceError(
            f"circle sum at |arg z| = {abs(cmath.phase(z)):.3g} needs {m} "
            f"pieces of the multiplication formula, past {MULT_CAP}")
    log_z = cmath.log(z)
    w = cmath.exp(-m * log_z)
    v = 1.0 - 2.0 * w
    root = cmath.sqrt(v * v - 1.0)
    rate = 0.75 * math.log(max(abs(v + root), abs(v - root)))
    n = max(32, math.ceil((0.5 * _PI * abs(s.imag) + 36.0) / rate))
    terms = [cpow(j + a, -s) for j in range(m * n)]
    if m > 1:
        phases = [cmath.exp(r * log_z) for r in range(m)]
        terms = [phases[j % m] * t for j, t in enumerate(terms)]
    full = chebyshev_weights(w, n)
    short = chebyshev_weights(w, 3 * n // 4)
    parts = [full[j // m] * t for j, t in enumerate(terms)]
    value = compensated_sum(parts)
    gap = abs(value - compensated_sum(
        [short[j // m] * t for j, t in enumerate(terms[:m * len(short)])]))
    expo = abs(s) * max_abs_log(a, m * n)
    err = gap + 2.2e-16 * (4.0 + expo + n) * math.fsum(map(abs, parts))
    return value, err + 1e-16 * abs(value), m * n


def _cannot_stop(n: int, nxt: float, mass: float, size: float, r: float,
                 s: complex, a: complex) -> bool:
    """Whether no stopping test of :func:`_lerch_direct` after term n can pass
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


def _lerch_direct(z: complex, s: complex, a: complex) -> EvalResult:
    """Direct geometric-tail sum of Phi(z, s, a) at |z| < 1; see lerch_phi."""
    r = abs(z)
    sigma = s.real
    # A check needs r^{N-n} > 2 REL_TOL: skip all unless so at n = N/2.
    checking = r ** (MAX_TERMS // 2) > 2.0 * REL_TOL
    power = cpow(a, -s)
    total = complex(0.0)
    comp_terms: list[complex] = []
    zpow = complex(1.0)
    mass = abs(power)   # sum of |term_k| over the terms taken
    kmass = 0.0         # sum of k |term_k|
    n = 0
    while n < MAX_TERMS:
        term = zpow * power
        comp_terms.append(term)
        total += term
        zpow *= z
        n += 1
        # Geometric tail bound with a crude polynomial-growth guard; its
        # power is the next term's, carried into the next iteration.
        power = cpow(n + a, -s)
        nxt = abs(zpow) * abs(power)
        bound = nxt / (1.0 - r)
        if sigma < 0.0:
            bound *= (1.0 + 2.0 / (n * (1.0 - r))) ** (-sigma)
        if bound <= REL_TOL * max(abs(total), 1e-300) and n >= 4:
            value = compensated_sum(comp_terms)
            value = faults.perturb("lerch_phi", value)
            # Term k = z^k (k+a)^{-s} carries 2.2e-16 relative error
            # from its own rounding, 2.2e-16 k from the k products
            # building z^k, and 2.2e-16 |s| |log(k+a)| from the
            # rounding of the power's exponent.  With the terms summed
            # exactly, that rounding is the error, however much the
            # terms cancel.
            err = bound + 2.2e-16 * (
                (1.0 + abs(s) * max_abs_log(a, n)) * mass + kmass
            )
            return EvalResult(value, err + 1e-16 * abs(value),
                              "lerch/direct-sum", n + 1)
        if (checking and n & (n - 1) == 0 and n + a.real > 0.0
                and _cannot_stop(n, nxt, mass, abs(total), r, s, a)):
            break
        mass += nxt
        kmass += n * nxt
    raise ConvergenceError(
        f"direct Lerch sum not converged in {MAX_TERMS} terms"
    )


def lerch_transform_serves(a: complex) -> bool:
    """Whether :func:`lerch_phi` serves |z| = 1, z != 1, at Re(s) <= 0 for
    this a: real a whose fractional part alpha in (0, 1] is 1 (Hurwitz
    zeta inside) or leaves the inner circle sums at e^{-+2 pi i alpha}
    within ``MULT_CAP`` pieces."""
    if a.imag != 0.0:
        return False
    alpha = a.real - (math.ceil(a.real) - 1)
    return alpha == 1.0 or circle_pieces(
        cmath.phase(cmath.exp(2j * _PI * alpha))) <= MULT_CAP


def _lerch_head(log_z: complex, s: complex, b: complex, k: int) -> tuple[complex, float]:
    """sum_{j<k} z^j (j+b)^{-s}, z = e^{log_z}, streamed by chunked_sum, and
    its error: each term carries 2.2e-16 (2 + j |log z| + |s| |log(j+b)|)
    relative rounding, charged on k times the largest term."""
    value, peak, err = chunked_sum(
        cmath.exp(j * log_z) * cpow(j + b, -s) for j in range(k))
    expo = 2.0 + k * abs(log_z) + (abs(s) * max_abs_log(b, k) if k else 0.0)
    return value, err + 2.2e-16 * expo * k * peak


def _circle_positive(z: complex, s: complex, a: complex) -> EvalResult:
    """Phi on |z| = 1, z != 1 off the real segment, Re(s) > 0: the circle
    sum, after k terms that move a to Re(a + k) > 0."""
    k = 0 if a.real > 0.0 else math.floor(-a.real) + 1
    value, err, work = circle_lerch(z, s, a + k)
    if k:
        log_z = cmath.log(z)
        head, head_err = _lerch_head(log_z, s, a, k)
        value = head + cmath.exp(k * log_z) * value
        err += head_err + 2.2e-16 * (1.0 + k * abs(log_z)) * abs(value)
    return EvalResult(value, err, "lerch/cvz-circle", work + k)


def lerch_transform(theta: float, s: complex, a: float) -> EvalResult:
    """Phi(e^{i theta}, s, a) for 0 < |theta| <= pi, Re(s) <= 0 and real a
    off the non-positive integers, by Lerch's transformation; see
    :func:`lerch_phi`.  theta is taken as exact, and lam = theta/(2 pi)
    mod 1 and 1 - lam are each read to about 4.4e-16 relative.  At s = 0
    the value is 1/(1 - e^{i theta}) for every a; elsewhere ConvergenceError
    up front where :func:`lerch_transform_serves` fails."""
    # 1 - e^{i theta}, to a few ulps of its modulus even next to theta = 0.
    gap = complex(2.0 * math.sin(0.5 * theta) ** 2, -math.sin(theta))
    if s == 0.0:
        value = 1.0 / gap
        return EvalResult(value, 2.2e-15 * abs(value), "lerch/lerch-transform", 1)
    if not lerch_transform_serves(complex(a)):
        raise ConvergenceError(
            f"Lerch's transformation at a = {a!r} needs inner circle sums "
            f"past {MULT_CAP} pieces")
    turn = theta / (2.0 * _PI)
    lam, lam1 = (turn, 1.0 - turn) if theta > 0.0 else (1.0 + turn, -turn)
    m = math.ceil(a) - 1
    alpha = a - m
    t = 1.0 - s
    if alpha == 1.0 and abs(s) < 1e-12:
        # Hurwitz zeta's pole at order 1 cancels in the pair; so close to
        # s = 0 take Phi(z, 0, 1) = 1/(1 - z) and charge |s| times a bound
        # on |d Phi/ds| = |sum z^k log(k+1)|, summed by parts twice.
        inner = 1.0 / gap
        inner_err = 2.0 * abs(s) * 2.0 * _LN2 / abs(gap) ** 2 + 2.2e-15 * abs(inner)
        work = 1
    else:
        if alpha == 1.0:
            sums = [(r.value, r.err_estimate, r.work)
                    for r in (hurwitz_zeta(t, lam), hurwitz_zeta(t, lam1))]
        elif alpha == 0.5:
            sums = [alternating_lerch(t, lam), alternating_lerch(t, lam1)]
        else:
            turned = cmath.exp(2j * _PI * alpha)
            sums = [circle_lerch(turned.conjugate(), t, lam),
                    circle_lerch(turned, t, lam1)]
        work = sums[0][2] + sums[1][2]
        ln_g = ln_gamma(t)
        base = ln_g - t * _LN_2PI
        # Phi(e^{2 pi i lam}, s, alpha) = Gamma(1-s) (2 pi)^{s-1}
        #   [e^{i pi (1-s)/2 - 2 pi i alpha lam} Phi(e^{-2 pi i alpha}, 1-s, lam)
        #    + e^{-i pi (1-s)/2 + 2 pi i alpha (1-lam)} Phi(e^{2 pi i alpha}, 1-s, 1-lam)]
        factors = [cmath.exp(base + 0.5j * _PI * t - 2j * _PI * alpha * lam),
                   cmath.exp(base - 0.5j * _PI * t + 2j * _PI * alpha * lam1)]
        inner = factors[0] * sums[0][0] + factors[1] * sums[1][0]
        # The exponents' rounding (log Gamma to 5e-15), and lam's: a relative
        # change d of lam moves the phase by 2 pi alpha lam d and the inner
        # sum by at most |t| d lam zeta(Re t + 1, lam) <= |t| d
        # (lam^{-Re t} + 1.65 lam).
        expo_err = 5e-15 + 2.2e-16 * (abs(ln_g) + abs(t) * (_LN_2PI + 0.5 * _PI)
                                      + 2.0 * _PI * alpha)
        inner_err = 0.0
        for factor, (val, err, _), x in zip(factors, sums, (lam, lam1)):
            size = abs(factor)
            inner_err += size * err + (expo_err + 2.8e-15 * alpha * x) * size * abs(val)
            inner_err += size * 4.4e-16 * abs(t) * (x ** -t.real + 1.65 * x)
        work += 2
    if m == 0:
        return EvalResult(inner, inner_err + 1e-16 * abs(inner),
                          "lerch/lerch-transform", work)
    # a = alpha + m: Phi(z, s, alpha) = sum_{j<m} z^j (j+alpha)^{-s}
    # + z^m Phi(z, s, a) for m > 0, and the other way round for m < 0.
    log_z = complex(0.0, theta)
    if m > 0:
        head, head_err = _lerch_head(log_z, s, alpha, m)
        value = cmath.exp(-m * log_z) * (inner - head)
    else:
        head, head_err = _lerch_head(log_z, s, a, -m)
        value = head + cmath.exp(-m * log_z) * inner
    err = inner_err + head_err + 2.2e-16 * (2.0 + abs(m * theta)) * abs(value)
    return EvalResult(value, err, "lerch/lerch-transform", work + abs(m))


def _log_sum_exp(logs: list[float]) -> float:
    """log sum_k e^{logs_k}, with no overflow on the way."""
    top = max(logs)
    return top + math.log(math.fsum(math.exp(v - top) for v in logs))


def _radial_slope(theta: float, s: complex, a: float, size: float) -> float:
    """A bound on |d Phi(r e^{i theta}, s, a)/dr| for r within 1e-14 of 1,
    at Re(s) < 0 and real a, given |Phi(e^{i theta}, s, a)| <= size.

    r dPhi/dr = Phi(z, s-1, a) - a Phi(z, s, a).  With a = alpha + m,
    |Phi(z, s-1, a)| is at most |Phi(z, s-1, alpha)| plus |m| terms
    (j+a)^{1-s} or (j+alpha)^{1-s}, each at most max(|a|, 1)^{1-Re s},
    times e^{pi |Im s|} where j + a < 0.  Lerch's transformation at order
    s - 1 bounds |Phi(z, s-1, alpha)| on the circle by |Gamma(2-s)|
    (2 pi)^{Re s-2} e^{pi |Im s|/2} (zeta(2-Re s, lam) + zeta(2-Re s,
    1-lam)), each zeta(sigma, x) <= x^{-sigma} + pi^2/6.  Off the circle
    |log z|, on which the part singular at z = 1 depends, only grows; the
    bound is doubled for the rest.  Summed in logarithms, since lam^{-sigma}
    overflows where the product need not.
    """
    sigma = 2.0 - s.real
    turn = abs(theta) / (2.0 * _PI)
    zetas = [-sigma * math.log(turn), -sigma * math.log(1.0 - turn),
             math.log(_PI * _PI / 3.0)]
    logs = [ln_gamma(2.0 - s).real - sigma * _LN_2PI + 0.5 * _PI * abs(s.imag)
            + _log_sum_exp(zetas)]
    if size > 0.0:
        logs.append(math.log(size) + math.log(abs(a)))
    m = math.ceil(a) - 1
    if m:
        logs.append(math.log(abs(m)) + (1.0 - s.real) * math.log(max(abs(a), 1.0))
                    + (_PI * abs(s.imag) if m < 0 else 0.0))
    total = _log_sum_exp(logs)
    return 2.0 * math.exp(total) if total < 709.0 else math.inf


def lerch_phi(p: LerchParams) -> EvalResult:
    """Hurwitz-Lerch transcendent Phi(z, s, a) = sum z^n (n+a)^{-s}.

    Dispatch: z = 0 -> single term; z = 1 -> Hurwitz-zeta continuation;
    Re(s) > 0 and z within 1e-12 of the real segment [-1, -e^{-NEAR_CIRCLE})
    -> Chebyshev-accelerated alternating sum (:func:`alternating_lerch`),
    its length set by |Im s|; other |z| < 1 -> direct geometric-tail
    summation.  Other |z| = 1 (within 1e-14):

    * Re(s) > 0: the CVZ sum at w = 1/z (:func:`circle_lerch`), with the
      multiplication formula next to z = 1; where Re(a) <= 0, after the
      floor(-Re a) + 1 terms that bring Re(a) above 0.
    * Re(s) <= 0, real a: Lerch's transformation (1887; Apostol 1951).
      With a reduced to alpha = a - m in (0, 1] through m terms and
      z = e^{2 pi i lam},
      Phi(z, s, alpha) = Gamma(1-s) (2 pi)^{s-1} [e^{i pi (1-s)/2 - 2 pi i
      alpha lam} Phi(e^{-2 pi i alpha}, 1-s, lam) + e^{-i pi (1-s)/2 +
      2 pi i alpha (1-lam)} Phi(e^{2 pi i alpha}, 1-s, 1-lam)].  The inner
      orders have real part >= 1: Hurwitz zeta at alpha = 1, the
      alternating sum at alpha = 1/2, the circle sum otherwise.  At s = 0
      the value is 1/(1 - z).  ConvergenceError up front where the inner
      circle sums would pass ``MULT_CAP`` pieces
      (:func:`lerch_transform_serves`); LerchParams refuses complex a.
      The transformation runs at e^{i arg z} (:func:`lerch_transform`);
      the estimate adds ||z|^2 - 1| times a bound on |d Phi/dr|, which grows
      like |1 - z|^{Re s - 2} next to z = 1.

    The circle sum raises ConvergenceError up front, before any term, where
    it would need more than ``MULT_CAP`` pieces: |arg z| < 2 pi/(3 MULT_CAP).

    The direct sum raises ConvergenceError when N = ``MAX_TERMS`` terms do
    not reach ``REL_TOL``; at n = 1, 2, 4, ... it also raises once no later
    tail bound can meet 2 REL_TOL times the most |total| can reach (from
    |total|, the running mass sum |term_k| and a tail bound), which is early
    only where the budget is far short.  Its estimate adds the rounding of
    every term to the tail bound, so it holds where the terms cancel.
    """
    z, s, a = complex(p.z), complex(p.s), complex(p.a)

    if z == 0.0:
        value = cpow(a, -s)
        value = faults.perturb("lerch_phi", value)
        return EvalResult(value, 1e-16 * abs(value), "lerch/single-term", 1)

    if abs(z - 1.0) < 1e-12:
        inner = hurwitz_zeta(s, a)
        value = faults.perturb("lerch_phi", inner.value)
        return EvalResult(value, inner.err_estimate, "lerch/hurwitz-delegate",
                          inner.work)

    if s.real > 0.0 and -z.real > math.exp(-NEAR_CIRCLE) and abs(z.imag) < 1e-12:
        value, err, work = alternating_lerch(s, a, cmath.log(-z))
        return EvalResult(faults.perturb("lerch_phi", value), err,
                          "lerch/cvz-alternating", work)

    if abs(z) < 1.0 - 1e-14:
        return _lerch_direct(z, s, a)

    if s.real > 0.0:
        out = _circle_positive(z, s, a)
    elif s == 0.0:
        # sum z^n, exact at z itself: near 1, 1 - z is exact.
        value = 1.0 / (1.0 - z)
        out = EvalResult(value, 4.4e-16 * abs(value), "lerch/lerch-transform", 1)
    else:
        out = lerch_transform(cmath.phase(z), s, a.real)
        # ||z|^2 - 1| >= ||z| - 1|; next to z = 1, where it matters, x - 1
        # is exact and this is good to a few ulps, while |z| rounds to 1.
        radial = abs((z.real - 1.0) * (z.real + 1.0) + z.imag * z.imag)
        if radial > 0.0:
            size = abs(out.value) + out.err_estimate
            slope = _radial_slope(cmath.phase(z), s, a.real, size)
            out = EvalResult(out.value, out.err_estimate + radial * slope,
                             out.strategy, out.work)
    return EvalResult(faults.perturb("lerch_phi", out.value), out.err_estimate,
                      out.strategy, out.work)


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
