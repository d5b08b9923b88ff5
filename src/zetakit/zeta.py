"""The zeta family: Hurwitz zeta, Riemann zeta, Dirichlet eta, the
Hurwitz-Lerch transcendent, polylogarithms, and the functional-equation
factor chi(s).

Continuation backbone: Euler-Maclaurin for the Hurwitz zeta,

    zeta(s, a) = sum_{n=0}^{N-1} (n+a)^{-s}
               + (N+a)^{1-s}/(s-1) + (N+a)^{-s}/2
               + sum_{k=1}^{M} [B_{2k}/(2k)!] (s)_{2k-1} (N+a)^{-s-2k+1},

valid for all s != 1 with Re(a) > 0.  The shift N adapts to s: for
Re(s) >= 0 it grows like |s|; for Re(s) < 0 it *shrinks* so the huge
power-law direct terms cannot cancel catastrophically against the integral
term, while the correction sum is extended adaptively (terms are added
while they keep decreasing) far enough to reach the asymptotic floor.
Every path reports a rounding-aware error estimate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import faults
from .errors import ConvergenceError, DomainError, PoleError
from .numeric_core import (
    MAX_POLY_DEGREE,
    alternating_sum_with_error,
    bernoulli_number,
    compensated_sum,
    cpow,
    euler_transform_tail,
    is_nonpos_int,
    ln_gamma,
    monotone_onset,
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
_LN_1E_M290 = math.log(1e-290)
# Euler-Maclaurin correction pairs always taken before the adaptive
# extension may stop at the smallest term.
_EM_MIN_PAIRS = 6

# Relative tolerance and term budget shared by the series routines.
REL_TOL = 1e-13
MAX_TERMS = 500_000


@dataclass(frozen=True)
class LerchParams:
    """Arguments (z, s, a) of the transcendent sum_{n>=0} z^n (n+a)^{-s}."""

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
        s = complex(self.s)
        if abs(abs(z) - 1.0) <= 1e-14 and abs(z - 1.0) > 1e-12 and s.real <= 0.0:
            raise DomainError("|z| = 1 with z != 1 needs Re(s) > 0")


def _cexpm1(u: complex) -> complex:
    """exp(u) - 1 without cancellation for small |u|."""
    if abs(u) < 1e-4:
        return u * (1.0 + u * (0.5 + u * (1.0 / 6.0 + u / 24.0)))
    return cmath.exp(u) - 1.0


def _hurwitz_reflection(s: complex, a: float) -> EvalResult:
    """zeta(s, a) for Re(s) < 0 and real a > 0 by the Fourier reflection

        zeta(s, a0) = 2 Gamma(1-s) (2 pi)^{s-1}
                      * sum_{n>=1} sin(pi s / 2 + 2 pi n a0) / n^{1-s},

    valid for a0 in (0, 1]; larger a is first reduced by the recurrence
    zeta(s, a) = zeta(s, a - m) - sum_{j<m} (a - m + j)^{-s}.  The series
    gains accuracy as Re(s) decreases — the regime where Euler-Maclaurin
    loses it — so it serves as the deep-left-half-plane route.
    """
    sigma = s.real
    m = max(0, math.ceil(a) - 1)
    a0 = a - m
    reduction: list[complex] = [
        -cpow(a0 + j, -s) for j in range(m)
    ]

    amp = cmath.exp(ln_gamma(1.0 - s)) * 2.0 * cpow(2.0 * _PI, s - 1.0)
    half_arg = 0.5 * _PI * s
    n_terms = max(8, math.ceil((REL_TOL * (-sigma)) ** (1.0 / sigma)))
    n_terms = min(n_terms, MAX_TERMS)
    series_terms = [
        cmath.sin(half_arg + 2.0 * _PI * n * a0) * cpow(n, s - 1.0)
        for n in range(1, n_terms + 1)
    ]
    series = compensated_sum(series_terms)
    tail = (n_terms ** sigma) / (-sigma) * math.cosh(0.5 * _PI * s.imag)
    reflected = amp * series
    value = reflected + compensated_sum(reduction)
    peak = max(
        (abs(t) for t in reduction), default=0.0
    )
    peak = max(peak, abs(reflected))
    err = abs(amp) * tail + 3e-16 * peak + 5e-15 * abs(value)
    return EvalResult(value, err, "hurwitz/reflection",
                      n_terms + len(reduction))


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


def hurwitz_zeta(s: complex, a: complex) -> EvalResult:
    """Hurwitz zeta zeta(s, a) for complex s != 1, Re(a) > 0.

    Euler-Maclaurin continuation on both sides of the critical strip; for
    deeply negative non-integer Re(s) with real a the Fourier reflection
    series takes over.  See the module docstring for the parameter policy.
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
    if sigma <= -4.0 and not terminating and a.imag == 0.0:
        out = _hurwitz_reflection(s, a.real)
        return EvalResult(faults.perturb("hurwitz_zeta", out.value),
                          out.err_estimate, out.strategy, out.work)
    if sigma >= 0.0:
        n_shift = math.ceil(abs(s)) + 10
    elif terminating:
        # Negative integer order: the correction series terminates exactly
        # (the Pochhammer factor vanishes), so the smallest shift minimises
        # the power-law term growth and with it the cancellation error.
        n_shift = 1
    else:
        # Moderately negative order (the reflection route owns the deep
        # range): a generous shift keeps the asymptotic correction ratio
        # ((|s|+2k)/(2 pi q))^2 well under 1, while the direct terms grow
        # only like (n+a)^{|sigma|} <= q^4, a cancellation the peak-based
        # error term tracks.  The 0.8|Im s| part covers tau-driven growth.
        n_shift = max(
            math.ceil(abs(s)) + 10,
            round(2.5 + 0.8 * abs(s.imag) - a.real),
        )

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

    via="em" (the default) evaluates zeta(s, 1) by Euler-Maclaurin, or by
    the direct sum for Re(s) >= 30; via="functional" uses
    zeta(s) = chi(s) zeta(1-s), which is the independent cross-check route
    for Re(s) < 0; at s = 0, where chi's zero meets the pole of zeta(1-s),
    it returns the limit -1/2.
    """
    s = require_finite(s, "s")
    if abs(s - 1.0) < 1e-12:
        raise PoleError("pole at s=1")
    if via not in ("em", "functional"):
        raise DomainError(f"unknown route {via!r}")
    if via == "functional":
        if s == 0.0:
            # chi's zero meets the pole of zeta(1 - s); their product is -1/2.
            return EvalResult(-0.5, 0.0, "riemann/functional-equation", 1)
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
    return EvalResult(inner.value, inner.err_estimate,
                      "riemann/euler-maclaurin", inner.work)


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


def _max_abs_log(a: complex, n: int) -> float:
    """A bound on |log(k + a)| over 0 <= k < n.

    |log w|^2 = log^2 |w| + arg^2 w.  |arg(k + a)| falls as k grows, and
    |k + a| is smallest at the k nearest -Re a and largest at an end of
    the range, so |log |k + a|| peaks at one of those.
    """
    lo = abs(min(max(round(-a.real), 0), n - 1) + a)
    hi = max(abs(a), abs(n - 1 + a))
    arg = math.atan2(a.imag, a.real)
    return math.hypot(max(-math.log(lo), math.log(hi)), arg)


def lerch_phi(p: LerchParams) -> EvalResult:
    """Hurwitz-Lerch transcendent Phi(z, s, a) = sum z^n (n+a)^{-s}.

    Dispatch: z = 0 -> single term; z = 1 -> Hurwitz-zeta continuation;
    |z| < 1 -> direct geometric-tail summation; z = -1 -> Chebyshev-
    accelerated alternating sum; other unimodular z -> Euler transform of
    the tail once the term moduli are monotone.

    The direct sum raises ConvergenceError when N = ``MAX_TERMS`` terms
    do not reach ``REL_TOL``.  For Re a > 0 it raises up front, before
    summing, when r^N min(1, (|N+a|/|a|)^{-Re s}) e^{-2 |Im s| |arg a|} >=
    2 REL_TOL (r = |z|): then its stopping rule provably cannot fire within
    the budget.  Its estimate adds the rounding of every term to the tail
    bound, so it holds where the terms cancel.
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

    r = abs(z)
    if r < 1.0 - 1e-14:
        sigma = s.real
        power = cpow(a, -s)
        if a.real > 0.0:
            # Refuse up front when the stopping rule cannot fire within N
            # terms.  With t = Im s and alpha = |arg a| < pi/2, |k+a| grows
            # with k and |arg(k+a)| <= alpha, so
            #   |(k+a)^{-s}| = |k+a|^{-sigma} e^{t arg(k+a)}
            # lies within a factor e^{+-|t| alpha} of |k+a|^{-sigma}.  Hence
            # |total_n| <= M_n e^{|t| alpha}/(1-r), with M_n = |a|^{-sigma}
            # for sigma >= 0 and |n+a|^{-sigma} for sigma < 0, while
            # bound_n >= r^n |n+a|^{-sigma} e^{-|t| alpha}/(1-r).  The ratio
            # bound_n/|total_n| is thus at least
            #   q_n = r^n min(1, (|n+a|/|a|)^{-sigma}) e^{-2|t| alpha},
            # which falls with n; if q_N >= 2 REL_TOL no step can stop (the
            # 2 absorbs the rounding in zpow).  Also bound_n >= q_N
            # |a|^{-sigma}, and the second clause keeps that clear of the
            # 1e-300 floor on |total|.
            big_n = MAX_TERMS
            abs_a = abs(a)
            # math.atan2, not cmath.phase: the latter raises OverflowError
            # when the angle underflows (a = 2 + 5e-324j).
            alpha = abs(math.atan2(a.imag, a.real))
            q = r ** big_n * math.exp(-2.0 * abs(s.imag) * alpha)
            if sigma > 0.0:
                q *= (abs(big_n + a) / abs_a) ** -sigma
            if q >= 2.0 * REL_TOL and (
                math.log(q) - sigma * math.log(abs_a) > _LN_1E_M290
            ):
                raise ConvergenceError(
                    f"direct Lerch sum not converged in {big_n} terms"
                )
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
                    (1.0 + abs(s) * _max_abs_log(a, n)) * mass + kmass
                )
                return EvalResult(value, err + 1e-16 * abs(value),
                                  "lerch/direct-sum", n + 1)
            mass += nxt
            kmass += n * nxt
        raise ConvergenceError(
            f"direct Lerch sum not converged in {MAX_TERMS} terms"
        )

    # |z| = 1, z != 1: acceleration territory (Re(s) > 0 by precondition).
    if abs(z + 1.0) < 1e-12:
        value, err, work = alternating_sum_with_error(lambda k: cpow(k + a, -s))
        err += 1e-15 * abs(value)
        value = faults.perturb("lerch_phi", value)
        return EvalResult(value, err, "lerch/cvz-alternating", work)

    onset = monotone_onset(lambda k: abs(cpow(k + a, -s)))
    n0 = max(onset, 24)
    prefix = [ cpow(k + a, -s) * z**k for k in range(n0) ]
    tail, tail_err, tail_work = euler_transform_tail(
        lambda k: cpow(n0 + k + a, -s), z, REL_TOL
    )
    value = compensated_sum(prefix) + z**n0 * tail
    value = faults.perturb("lerch_phi", value)
    return EvalResult(value, tail_err + 1e-15 * abs(value),
                      "lerch/euler-transform", n0 + tail_work)


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
