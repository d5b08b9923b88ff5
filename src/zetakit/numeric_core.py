"""Foundation arithmetic for the whole package.

Exact layer
    Bernoulli numbers and Bernoulli/Euler polynomials are kept as
    ``fractions.Fraction`` objects (arbitrary-precision rationals), built
    from integer recurrences: the Bernoulli numbers from the tangent
    numbers (Brent and Harvey's in-place triangle), the Euler polynomials
    from their values at 0, which satisfy the generating-function
    recursion of the Euler layer itself.  Polynomial evaluation is Horner's
    rule on the exact coefficient list; feeding a ``Fraction``/``int``
    argument stays exact, anything else drops to complex floating point,
    and ``PolyCoeffs.evaluate_bounded`` gives that float value with a bound
    on its rounding.

Floating layer
    ``ln_gamma`` is a Lanczos-class rational approximation (g = 607/128,
    15 terms) with a branch-managed reflection for Re(s) < 1/2, accurate to
    roughly 14 significant digits on |s| <= 50, |Im s| <= 50.
    ``cpow`` is the one principal-branch complex power every series term
    is built from, with a documented rounding bound, and ``max_abs_log``
    bounds the logarithm that bound needs over a run of terms (k + a)^{-s};
    ``is_nonpos_int`` is the one
    exact test for the poles of Gamma at 0, -1, -2, ...

Summation
    ``compensated_sum`` is the correctly rounded ``math.fsum`` applied to
    the real and imaginary parts separately, and ``chunked_sum`` applies it
    to a stream of any length in fixed-size chunks.  ``alternating_sum_cvz``
    is the Chebyshev-polynomial acceleration of Cohen-Villegas-Zagier for
    series sum (-1)^k b_k with smooth, decaying b_k; ``chebyshev_weights``
    gives the same acceleration's weights for sum z^k b_k at any z with
    |z| <= 1 off [0, 1), as used by ``zeta.circle_lerch``.
    ``euler_transform_tail`` (the classical Euler transformation) has no
    caller in the package any more.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Iterable, Union

from . import faults
from .errors import ConvergenceError, DomainError, PoleError, RangeError
from .result import Record

__all__ = [
    "MAX_POLY_DEGREE",
    "PolyCoeffs",
    "ln_gamma",
    "bernoulli_number",
    "bernoulli_poly_coeffs",
    "bernoulli_poly",
    "euler_poly_coeffs",
    "euler_poly",
    "compensated_sum",
    "chunked_sum",
    "alternating_sum_cvz",
    "chebyshev_weights",
    "euler_transform_tail",
    "cpow",
    "max_abs_log",
    "is_nonpos_int",
    "require_finite",
]

# Largest polynomial degree / Bernoulli index served by the exact tables.
MAX_POLY_DEGREE = 64

_LN_SQRT_TWO_PI = 0.9189385332046727417803297364056176398613974736378
_LN_PI = math.log(math.pi)

ExactOrComplex = Union[Fraction, int, float, complex]


def require_finite(z: complex, name: str = "argument") -> complex:
    """Reject NaN/Inf at API boundaries, returning the value as complex."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{name} must be finite, got {z!r}")
    return z


def is_nonpos_int(z: complex) -> bool:
    """True exactly at z = 0, -1, -2, ..., the poles of Gamma."""
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def cpow(base: complex, expo: complex) -> complex:
    """Principal-branch base**expo, base != 0, for a complex ``expo``:
    Python's complex power.

    A real or integer base meets a complex exponent through
    ``complex.__rpow__``, so ``base ** expo`` is the power at complex(base)
    bit for bit, without building that complex first.  A float exponent
    would take the real power instead; every caller passes a complex one.
    The relative rounding is at most 2.2e-16 (1 + |e| (1 + |log b|)) for
    b = base and e = expo, which every estimate built on it charges.  That
    covers real and complex bases, bases next to |b| = 1 and the repeated
    squaring CPython takes for integral exponents up to 100; the suite
    checks it on seeded pairs against 40-digit mpmath.
    """
    return base ** expo


def max_abs_log(a: complex, n: int) -> float:
    """A bound on |log(k + a)| over 0 <= k < n.

    |log w|^2 = log^2 |w| + arg^2 w.  |arg(k + a)| falls as k grows, and
    |k + a| is smallest at the k nearest -Re a and largest at an end of
    the range, so |log |k + a|| peaks at one of those.  A term (k + a)^{-s}
    built by ``cpow`` thus carries at most
    2.2e-16 (1 + |s| (1 + max_abs_log(a, n))) relative rounding.
    """
    lo = abs(min(max(round(-a.real), 0), n - 1) + a)
    hi = max(abs(a), abs(n - 1 + a))
    arg = math.atan2(a.imag, a.real)
    return math.hypot(max(-math.log(lo), math.log(hi)), arg)


# ---------------------------------------------------------------------------
# log-gamma
# ---------------------------------------------------------------------------

# Lanczos coefficients for g = 607/128, n = 15 (Godfrey's set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _lanczos_ln_gamma(z: complex) -> complex:
    # Valid for Re(z) >= 1/2; the shifted base stays in the right half plane
    # so every log below is principal without unwinding.
    zm1 = z - 1.0
    acc = complex(_LANCZOS_C[0])
    for k in range(1, 15):
        acc += _LANCZOS_C[k] / (zm1 + k)
    base = zm1 + _LANCZOS_G + 0.5
    return _LN_SQRT_TWO_PI + (zm1 + 0.5) * cmath.log(base) - base + cmath.log(acc)


def _ln_sin_pi(z: complex) -> complex:
    # log(sin(pi z)) continued from the upper half plane:
    #   sin(pi z) = (1/2) e^{i pi/2} e^{-i pi z} (1 - e^{2 i pi z}),
    # and |e^{2 i pi z}| < 1 for Im(z) > 0, so the last log is principal.
    # 1 - e^{2 i pi z} cancels next to the integers, so it is built as
    # -(e^{a+ib} - 1) with a = -2 pi Im z and b = 2 pi (Re z - n), n the
    # nearest integer: e^{a+ib} - 1 = expm1(a) cos b - 2 sin^2(b/2)
    # + i e^a sin b.
    if z.imag < 0.0:
        return _ln_sin_pi(z.conjugate()).conjugate()
    a = -2.0 * math.pi * z.imag
    b = 2.0 * math.pi * (z.real - round(z.real))
    em1 = complex(
        math.expm1(a) * math.cos(b) - 2.0 * math.sin(0.5 * b) ** 2,
        math.exp(a) * math.sin(b),
    )
    return (
        -math.log(2.0)
        + 0.5j * math.pi
        - 1j * math.pi * z
        + cmath.log(-em1)
    )


def ln_gamma(s: complex) -> complex:
    """Principal-branch log Gamma(s) for complex s away from the poles.

    Raises PoleError at s = 0, -1, -2, ...  Accuracy is ~1e-14 relative on
    the tested box |s| <= 50, |Im s| <= 50.
    """
    s = require_finite(s, "s")
    if is_nonpos_int(s):
        raise PoleError(f"pole at s={s.real:g}")
    if s.real >= 0.5:
        return faults.perturb("ln_gamma", _lanczos_ln_gamma(s))
    # Reflection keeps the Lanczos argument in its validated half plane.
    return faults.perturb(
        "ln_gamma", _LN_PI - _ln_sin_pi(s) - _lanczos_ln_gamma(1.0 - s)
    )


# ---------------------------------------------------------------------------
# Exact Bernoulli / Euler layer
# ---------------------------------------------------------------------------

_BERNOULLI: list[Fraction] = []


def _build_bernoulli() -> None:
    # B_2k = (-1)^{k-1} 2k T_k / (4^k (4^k - 1)) from the tangent numbers
    # T_k, built in integers by Brent and Harvey's (2011) triangle; the odd
    # entries past B_1 = -1/2 vanish.
    half = MAX_POLY_DEGREE // 2
    tangent = [0] * (half + 1)
    tangent[1] = 1
    for k in range(2, half + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, half + 1):
        for j in range(k, half + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    table = [Fraction(0)] * (MAX_POLY_DEGREE + 1)
    table[0], table[1] = Fraction(1), Fraction(-1, 2)
    for k in range(1, half + 1):
        table[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * tangent[k],
                                4 ** k * (4 ** k - 1))
    _BERNOULLI.extend(table)


def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n (convention B_1 = -1/2).

    Raises RangeError for n above the configured table maximum
    (``MAX_POLY_DEGREE``), which is plenty for every consumer here.
    """
    if n < 0:
        raise DomainError("bernoulli_number needs n >= 0")
    if n > MAX_POLY_DEGREE:
        raise RangeError(
            f"Bernoulli index {n} exceeds table maximum {MAX_POLY_DEGREE}"
        )
    if not _BERNOULLI:
        _build_bernoulli()
    value = _BERNOULLI[n]
    if n == 4 and faults.active("bernoulli-table"):
        value = value + Fraction(1, 10**6)
    return value


class PolyCoeffs(Record, namedtuple("PolyCoeffs", "coeffs")):
    """Exact polynomial coefficients, ascending powers of x: an immutable
    record (see :mod:`zetakit.result`) of one non-empty tuple."""

    __slots__ = ()

    def __new__(cls, coeffs: tuple[Fraction, ...]):
        if not coeffs:
            raise ValueError("empty coefficient list")
        return tuple.__new__(cls, (coeffs,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x: ExactOrComplex):
        """Horner evaluation; exact for Fraction/int x, complex otherwise."""
        if isinstance(x, (Fraction, int)):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        return self.evaluate_bounded(x)[0]

    def evaluate_bounded(self, x: complex) -> tuple[complex, float]:
        """(value, err): Horner's rule in complex floating point at x, and
        a bound on |value - p(x)| that also covers x itself off by one
        rounding, as x = nu + 1 is.

        With d = degree, M = sum_j |c_j| |x|^j and u = 1.1e-16, the bound
        is (5 d + 2) u M.  Horner's d steps each round a complex product by
        at most sqrt(5) u and a sum by u, which moves the value by at most
        (1 + sqrt(5)) d u M; each coefficient's double is off by u of it;
        and x off by u |x| moves p by at most |x p'(x)| u <= d u M.
        """
        xz = require_finite(complex(x), "x")
        ax = abs(xz)
        acc = complex(0.0)
        mass = 0.0
        for c in reversed(self.coeffs):
            cz = complex(c)
            acc = acc * xz + cz
            mass = mass * ax + abs(cz)
        return acc, 1.1e-16 * (5 * self.degree + 2) * mass


_BERNOULLI_COEFF_CACHE: dict[int, PolyCoeffs] = {}


def bernoulli_poly_coeffs(n: int) -> PolyCoeffs:
    """Exact coefficients of the Bernoulli polynomial B_n(x).

    B_n(x) = sum_k C(n,k) B_k x^{n-k}; the leading coefficient is 1.
    Each degree is built once, but never from or into the cache while the
    ``bernoulli-table`` fault is armed, so the fault reaches every
    coefficient list built under it and none built after.
    """
    if n < 0:
        raise DomainError("bernoulli_poly_coeffs needs n >= 0")
    if n > MAX_POLY_DEGREE:
        raise RangeError(f"degree {n} exceeds table maximum {MAX_POLY_DEGREE}")
    faulty = faults.active("bernoulli-table")
    if not faulty and n in _BERNOULLI_COEFF_CACHE:
        return _BERNOULLI_COEFF_CACHE[n]
    poly = PolyCoeffs(tuple(
        math.comb(n, j) * bernoulli_number(n - j) for j in range(n + 1)
    ))
    if not faulty:
        _BERNOULLI_COEFF_CACHE[n] = poly
    return poly


def bernoulli_poly(n: int, x: ExactOrComplex):
    """B_n(x); exact Fraction for rational x, complex float otherwise."""
    return bernoulli_poly_coeffs(n).evaluate(x)


_EULER_COEFF_CACHE: list[PolyCoeffs] = []


def euler_poly_coeffs(n: int) -> PolyCoeffs:
    """Exact coefficients of the Euler polynomial E_n(x).

    The generating-function recursion
        E_n(x) = x^n - (1/2) sum_{k<n} C(n,k) E_k(x)
    gives at x = 0 the scalars E_n(0) = -(1/2) sum_{k<n} C(n,k) E_k(0),
    n >= 1, and E_n(x) = sum_j C(n,j) E_{n-j}(0) x^j, as for any Appell
    sequence.  It takes no Bernoulli input, so the Euler layer stays an
    independent second route to the same special values.
    """
    if n < 0:
        raise DomainError("euler_poly_coeffs needs n >= 0")
    if n + 1 > MAX_POLY_DEGREE:
        raise RangeError(f"degree {n} exceeds table maximum {MAX_POLY_DEGREE - 1}")
    while len(_EULER_COEFF_CACHE) <= n:
        m = len(_EULER_COEFF_CACHE)
        at_zero = [e.coeffs[0] for e in _EULER_COEFF_CACHE]
        at_zero.append(-sum(math.comb(m, k) * e for k, e in enumerate(at_zero)) / 2
                       if m else Fraction(1))
        _EULER_COEFF_CACHE.append(PolyCoeffs(tuple(
            math.comb(m, j) * at_zero[m - j] for j in range(m + 1))))
    return _EULER_COEFF_CACHE[n]


def euler_poly(n: int, x: ExactOrComplex):
    """E_n(x); exact Fraction for rational x, complex float otherwise."""
    return euler_poly_coeffs(n).evaluate(x)


# ---------------------------------------------------------------------------
# Summation utilities
# ---------------------------------------------------------------------------


def compensated_sum(terms: Iterable[complex]) -> complex:
    """Correctly rounded sum: ``math.fsum`` of the real and imaginary parts.

    Each part is the float nearest the exact sum of its inputs (Shewchuk's
    algorithm), whatever the term count or cancellation.
    """
    seq = terms if isinstance(terms, list) else list(terms)
    return complex(math.fsum([t.real for t in seq]), math.fsum([t.imag for t in seq]))


# Terms a chunked_sum holds at once, whatever the length of its stream.
_CHUNK = 4096


def chunked_sum(terms: Iterable[complex]) -> tuple[complex, float, float]:
    """(sum, mass, err) of a stream of terms, never held whole.

    The terms are summed in chunks of ``_CHUNK``, each correctly rounded by
    ``compensated_sum``, and the chunk sums likewise.  ``mass`` is
    sum |term|, on which a caller charges the terms' own rounding.  ``err``
    is the rounding of the chunk sums, up to 1.1e-16 |chunk sum| each; with
    one chunk there is none, and the sum is ``compensated_sum`` of the
    terms.
    """
    stream = iter(terms)
    sums: list[complex] = []
    masses: list[float] = []
    while chunk := list(itertools.islice(stream, _CHUNK)):
        sums.append(compensated_sum(chunk))
        masses.append(math.fsum(map(abs, chunk)))
    mass = math.fsum(masses)
    if len(sums) <= 1:
        return (sums[0] if sums else complex(0.0)), mass, 0.0
    return compensated_sum(sums), mass, 1.1e-16 * math.fsum(map(abs, sums))


def _chebyshev_moduli(n: int) -> tuple[int, ...]:
    """b_j = n/(n+j) C(n+j, 2j) 4^j, j = 0..n, as exact integers: the
    moduli of the coefficients of T_n(1 - 2x) = sum_j (-1)^j b_j x^j.  Their
    sum is T_n(3)."""
    b, moduli = 1, []
    for j in range(n + 1):
        moduli.append(b)
        b = b * 2 * (n * n - j * j) // ((2 * j + 1) * (j + 1))
    return tuple(moduli)


@functools.lru_cache(maxsize=64)
def _cvz_weights(n: int) -> tuple[float, ...]:
    """CVZ weights (-1)^k c_k/d, k < n, in (-1, 1) and correctly rounded:
    d = T_n(3) sums the moduli b_j, and c_k is their tail sum_{j>k} b_j.
    Exact integers keep every weight finite at any n; d as a double
    overflows from about n = 400."""
    moduli = _chebyshev_moduli(n)
    d = sum(moduli)
    tail = d
    weights = []
    for k, b in zip(range(n), moduli):
        tail -= b
        weights.append((-1) ** k * (tail / d))
    return tuple(weights)


@functools.lru_cache(maxsize=64)
def _chebyshev_scaled(n: int) -> tuple[float, ...]:
    """The coefficients p_j = (-1)^j b_j of T_n(1 - 2x) over T_n(3),
    j = 0..n, each correctly rounded, in (-1, 1)."""
    moduli = _chebyshev_moduli(n)
    d = sum(moduli)
    return tuple((-1) ** j * (b / d) for j, b in enumerate(moduli))


def chebyshev_weights(w: complex, n: int) -> list[complex]:
    """Weights omega_k = w c_k / P(w), k < n, of the Chebyshev acceleration
    at w = 1/z: sum_k omega_k b_k approximates sum_k z^k b_k for moments
    b_k = int_0^1 x^k dmu.

    P(x) = T_n(1 - 2x) = sum_j p_j x^j, and (P(w) - P(x))/(w - x) =
    sum_k c_k x^k with c_{n-1} = p_n, c_k = p_{k+1} + w c_{k+1}; P(w) =
    p_0 + w c_0.  The p_j enter scaled by 1/T_n(3), which cancels in the
    ratio.  At w = -1 these are the weights of ``alternating_sum_cvz``;
    elsewhere on |w| = 1 they cancel, by up to (T_n(3)/|P(w)|)
    in sum_k |omega_k|.  The recurrence has real coefficients, and complex
    products, sums and quotients commute with conjugation, so the weights
    at w-bar are the conjugates of those at w, bit for bit.
    """
    p = _chebyshev_scaled(n)
    c = complex(p[n])
    tails = [c]
    for j in range(n - 1, 0, -1):
        c = p[j] + w * c
        tails.append(c)
    scale = w / (p[0] + w * c)
    return [scale * tail for tail in reversed(tails)]


def alternating_sum_cvz(term: Callable[[int], complex], n: int = 32) -> complex:
    """sum_{k>=0} (-1)^k term(k) by Chebyshev acceleration.

    ``term`` must be smooth and decaying in k (e.g. (k+c)^{-s} with
    Re(s) > 0); convergence is then ~ (3+sqrt(8))^{-n}.  The weighted terms
    are summed by ``compensated_sum``, correctly rounded, so the result is
    off by its truncation plus at most
    2.2e-16 sum_k |term(k)| + 1.1e-16 |result| of rounding.
    """
    return compensated_sum([w * term(k) for k, w in enumerate(_cvz_weights(n))])


def euler_transform_tail(
    b: Callable[[int], complex],
    z: complex,
    rel_tol: float = 1e-13,
    max_order: int = 48,
) -> tuple[complex, float, int]:
    """sum_{k>=0} z^k b(k) for z on (or near) the unit circle, z != 1.

    No route of the package calls it any more: ``zeta.circle_lerch``
    serves the unit circle.  It stays only because the benchmark's tracer
    (``bench/spans.py``, ``TARGETS``) looks it up by name, and goes with the
    next change to the benchmark.

    Uses the Euler transformation
        sum z^k b_k = 1/(1-z) * sum_j (z/(1-z))^j (Delta^j b)(0),
    which converges when |z/(1-z)| < 1, i.e. z is farther from 1 than from
    the origin-reflected point.  Returns (value, err_estimate, work).
    """
    w = z / (1.0 - z)
    if abs(w) >= 0.999:
        raise ConvergenceError(
            f"Euler transform leverage |z/(1-z)| = {abs(w):.3f} >= 1"
        )
    values = [b(k) for k in range(max_order + 1)]
    work = len(values)
    # Forward-difference triangle, keeping only the leading entry per order.
    lead = [values[0]]
    row = values
    for _ in range(max_order):
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
        lead.append(row[0])
    pref = 1.0 / (1.0 - z)
    total = complex(0.0)
    wp = complex(1.0)
    last = math.inf
    small_streak = 0
    for j, g in enumerate(lead):
        inc = pref * wp * g
        total += inc
        last = abs(inc)
        wp *= w
        if last <= rel_tol * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 2:
                break
        else:
            small_streak = 0
    err = 2.0 * last + 1e-16 * abs(total)
    return total, err, work

