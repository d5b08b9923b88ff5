"""Frozen reference values and exact-arithmetic helpers for the test suite.

Every float constant here was computed independently of the package, with
40-digit ``decimal`` arithmetic (alternating series with Chebyshev-polynomial
acceleration for the eta route, plain geometric series for the polylogarithm
values), then rounded to the nearest double.  Closed forms in pi, log 2, and
rationals are built from ``math`` at import time so nothing is retyped by
hand.  The exact-rational helpers mirror textbook closed forms and exist so
tests can cross-check the package's exact layer without calling it.
"""

from __future__ import annotations

import math
from fractions import Fraction

PI2 = math.pi * math.pi

# --- classical constants (closed forms) -----------------------------------
ZETA_2 = PI2 / 6.0
ZETA_0 = -0.5
ZETA_M1 = -1.0 / 12.0
ETA_1 = math.log(2.0)
ETA_2 = PI2 / 12.0
HURWITZ_2_HALF = PI2 / 2.0          # zeta(2, 1/2) = pi^2/2
FD_ZERO_S2 = PI2 / 12.0             # extended FD at nu=0, s=2, x=0
BE_ZERO_S2 = PI2 / 6.0              # extended BE at nu=0, s=2, x=0
BE_ZERO_SM1 = -1.0 / 12.0           # extended BE at nu=0, s=-1, x=0

# --- frozen high-precision values (40-digit decimal arithmetic) ------------
ZETA_3 = 1.2020569031595942
ZETA_HALF = -1.4603545088095868
ZETA_2P5 = 1.341487257250917
ZETA_1P5 = 2.612375348685488
ETA_HALF = 0.6048986434216304
LI2_INV_E = 0.4087542873488963      # polylog order 2 at z = e^{-1}
LI_1P5_HALF = 0.6248370208199139    # polylog order 1.5 at z = 1/2

# Golden table used by the acceptance suite: (label, reference, rel tol).
# Callables are bound in the tests so this module stays import-light.
GOLDEN_REFERENCES = [
    ("zeta(2)", ZETA_2),
    ("zeta(0)", ZETA_0),
    ("zeta(-1)", ZETA_M1),
    ("eta(1)", ETA_1),
    ("eta(2)", ETA_2),
    ("hurwitz(2, 0.5)", HURWITZ_2_HALF),
    ("ext_fd(0, 2, 0)", FD_ZERO_S2),
    ("ext_be(0, 2, 0)", BE_ZERO_S2),
    ("ext_be(0, -1, 0)", BE_ZERO_SM1),
    ("polylog(exp(-1), 2)", LI2_INV_E),
]

# --- exact-rational reference layer ----------------------------------------

# Bernoulli numbers B_0..B_12 as printed in standard tables (B_1 = -1/2).
BERNOULLI_TABLE = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
    Fraction(0),
    Fraction(-691, 2730),
]

# Euler numbers E_0, E_2, ..., E_8 (odd-index entries vanish).
EULER_NUMBER_TABLE = {0: 1, 2: -1, 4: 5, 6: -61, 8: 1385}


def bernoulli_numbers(m: int) -> list[Fraction]:
    """B_0..B_m (B_1 = -1/2) from sum_{k<=j} C(j+1, k) B_k = 0 for j >= 1.

    The test suite checks it against BERNOULLI_TABLE, which it extends.
    """
    b = [Fraction(1)]
    for j in range(1, m + 1):
        b.append(-sum(math.comb(j + 1, k) * b[k] for k in range(j)) / (j + 1))
    return b


def bernoulli_poly_reference(n: int, x: Fraction) -> Fraction:
    """B_n(x) from the explicit sum over the Bernoulli numbers."""
    b = bernoulli_numbers(n)
    return sum(Fraction(math.comb(n, k)) * b[k] * x ** (n - k) for k in range(n + 1))


def hurwitz_negint_reference(n: int, a: Fraction) -> Fraction:
    """zeta(-n, a) = -B_{n+1}(a)/(n+1), exact."""
    return -bernoulli_poly_reference(n + 1, a) / (n + 1)


def fd_negint_reference(n: int, nu: Fraction) -> Fraction:
    """Extended FD at (nu, s=-n, x=0) through the Bernoulli bisection route.

    Uses 2^n [zeta(-n, (nu+1)/2) - zeta(-n, (nu+2)/2)], which equals
    E_n(nu+1)/2 without touching Euler polynomials, so it stays independent
    of the package's Euler-recursion layer.
    """
    two_n = Fraction(2) ** n
    return two_n * (
        hurwitz_negint_reference(n, (nu + 1) / 2)
        - hurwitz_negint_reference(n, (nu + 2) / 2)
    )


def alternating_zeta_boole(mpmath, s: complex, a):
    """sum_{n>=0} (-1)^n (n+a)^{-s} for any s, by Euler-Boole summation.

    ``a`` is taken exactly as given: pass an mpmath number for a = nu + 1,
    whose float sum would round.

    The first N terms are summed directly; the alternating tail from N on is
    (1/2) sum_k E_k(0)/k! f^(k)(N) with f(t) = (t+a)^{-s}, so
    f^(k)(N) = (-1)^k (s)_k (N+a)^{-s-k}, and E_k(0) = -2 (2^{k+1} - 1)
    B_{k+1}/(k+1) vanishes at even k > 0.  The tail series is asymptotic:
    its terms first fall like (|s+k| / (pi (N+a)))^k, and it is summed to
    its smallest term.  Head and tail cancel by up to (N+a)^{-Re s} against
    the value, hence the generous working precision.  With N + a >= |s| + 60
    it agrees with mpmath's bisected Hurwitz difference to 40 digits for
    Re s in [-40, -4] and |Im s| <= 10, and it shares nothing with the
    Fourier series the package sums.
    """
    with mpmath.workdps(160):
        sm, am = mpmath.mpc(s), mpmath.mpf(a)
        big_n = int(abs(s)) + 60
        head = mpmath.fsum((-1) ** n * (n + am) ** -sm for n in range(big_n))
        q = big_n + am
        tail = qpow = q ** -sm      # k = 0: E_0(0) = 1
        poch = mpmath.mpf(1)        # (s)_k
        fact = mpmath.mpf(1)        # k!
        prev = math.inf
        for k in range(1, 1000):
            poch *= sm + k - 1
            qpow /= q
            fact *= k
            if k % 2 == 0:
                continue
            ek0 = -2 * (2 ** (k + 1) - 1) * mpmath.bernoulli(k + 1) / (k + 1)
            term = -ek0 / fact * poch * qpow
            if abs(term) > prev:
                break
            prev = abs(term)
            tail += term
        value = head + (-1) ** big_n * tail / 2
    return +value


def alternating_lerch_boole(mpmath, s: complex, a: complex, u):
    """Phi(-e^{-u}, s, a) = sum_{n>=0} (-1)^n e^{-u n} (n+a)^{-s} for
    Re s > 0, u >= 0 and complex a off the non-positive integers.

    The Euler-Boole summation of :func:`alternating_zeta_boole` with
    g(t) = e^{-u t} (t+a)^{-s}: the first N terms directly, the tail as
    (1/2) sum_j E_j(0) g^(j)(N)/j!.  g's Taylor coefficients at N are the
    convolution of those of e^{-u h} and (1 + h/q)^{-s}, q = N + a, times
    e^{-u N} q^{-s}.  With Re s > 0 nothing cancels, so 40 digits suffice,
    and the tail stops once a term is below 1e-45 of it.  Pass u as the
    exact -log|z| of the double z the package sees.
    """
    with mpmath.workdps(40):
        sm, am, um = mpmath.mpc(s), mpmath.mpc(a), mpmath.mpf(u)
        big_n = int(abs(s) + abs(a)) + 60
        head = mpmath.fsum((-1) ** n * mpmath.exp(-um * n) * mpmath.power(n + am, -sm)
                           for n in range(big_n))
        q = big_n + am
        c_exp = [mpmath.mpf(1)]    # (-u)^j / j!
        c_pow = [mpmath.mpc(1)]    # binomial(-s, j) q^{-j}
        tail = mpmath.mpc(1)       # j = 0: E_0(0) = 1
        for j in range(1, 400):
            c_exp.append(c_exp[-1] * -um / j)
            c_pow.append(c_pow[-1] * (-sm - j + 1) / (j * q))
            if j % 2 == 0:
                continue
            ej0 = -2 * (2 ** (j + 1) - 1) * mpmath.bernoulli(j + 1) / (j + 1)
            term = ej0 * mpmath.fsum(c_exp[j - i] * c_pow[i] for i in range(j + 1))
            tail += term
            if abs(term) < mpmath.mpf(10) ** -45 * abs(tail):
                break
        tail *= mpmath.exp(-um * big_n) * mpmath.power(q, -sm)
        value = head + (-1) ** big_n * tail / 2
    return +value


def ext_defining_sum(mpmath, kind: str, nu: float, s: complex, x: float):
    """fd (kind "fd") or be at real x > 0 by the defining series
    sum_n (-+1)^n e^{-(n+nu+1) x} (n+nu+1)^{-s}, summed directly at 40
    digits until a term past the largest one falls below 1e-40 of it.
    """
    with mpmath.workdps(40):
        sm, xm, am = mpmath.mpc(s), mpmath.mpf(x), mpmath.mpf(nu) + 1
        sign = -1 if kind == "fd" else 1
        terms = []
        big = mpmath.mpf(0)
        for n in range(10**6):
            a = am + n
            term = sign ** n * mpmath.exp(-a * xm) * mpmath.power(a, -sm)
            terms.append(term)
            big = max(big, abs(term))
            # Past a x = -Re s the terms fall geometrically.
            if a * xm > -s.real and abs(term) < mpmath.mpf(10) ** -40 * big:
                break
        value = mpmath.fsum(terms)
    return +value
