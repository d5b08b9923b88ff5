"""Exact rational layer and float helpers."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetakit import (
    MAX_POLY_DEGREE,
    faults,
    DomainError,
    PolyCoeffs,
    RangeError,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_poly_coeffs,
    compensated_sum,
    euler_poly,
    euler_poly_coeffs,
    ln_gamma,
)
from zetakit.numeric_core import alternating_sum_cvz, cpow

from oracles import (
    BERNOULLI_TABLE,
    EULER_NUMBER_TABLE,
    bernoulli_akiyama_tanigawa,
    bernoulli_numbers,
    euler_poly_coeff_lists,
)


class TestBernoulliNumbers:
    def test_matches_published_table(self):
        for n, want in enumerate(BERNOULLI_TABLE):
            assert bernoulli_number(n) == want
        # The test oracle's own recurrence, which extends the table.
        assert bernoulli_numbers(len(BERNOULLI_TABLE) - 1) == BERNOULLI_TABLE

    def test_defining_recurrence_is_exact(self):
        # sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1 (B_1 = -1/2 convention).
        for n in range(1, 33):
            acc = sum(
                Fraction(math.comb(n + 1, k)) * bernoulli_number(k)
                for k in range(n + 1)
            )
            assert acc == 0

    def test_whole_table_matches_akiyama_tanigawa(self):
        # The tangent-number build against an independent O(n^2) triangle,
        # entry for entry as exact Fractions.
        table = [bernoulli_number(n) for n in range(MAX_POLY_DEGREE + 1)]
        assert table == bernoulli_akiyama_tanigawa(MAX_POLY_DEGREE)
        assert all(isinstance(b, Fraction) for b in table)

    def test_odd_entries_vanish(self):
        for n in range(3, 40, 2):
            assert bernoulli_number(n) == 0

    def test_rejects_bad_degree(self):
        with pytest.raises(DomainError):
            bernoulli_number(-1)
        with pytest.raises(RangeError):
            bernoulli_number(MAX_POLY_DEGREE + 1)


class TestBernoulliPolynomials:
    def test_forward_difference_equation(self):
        # B_n(x+1) - B_n(x) = n x^{n-1}, exact in rationals.
        for n in range(1, 13):
            for x in (Fraction(0), Fraction(1, 2), Fraction(-3, 7), Fraction(5, 3)):
                lhs = bernoulli_poly(n, x + 1) - bernoulli_poly(n, x)
                assert lhs == n * x ** (n - 1)

    def test_reflection(self):
        # B_n(1-x) = (-1)^n B_n(x)
        for n in range(0, 11):
            for x in (Fraction(1, 3), Fraction(2, 5)):
                assert bernoulli_poly(n, 1 - x) == (-1) ** n * bernoulli_poly(n, x)

    def test_value_at_zero_is_bernoulli_number(self):
        for n in range(0, 13):
            assert bernoulli_poly(n, Fraction(0)) == bernoulli_number(n)

    def test_coeffs_cache_never_holds_the_fault(self):
        clean = [bernoulli_poly_coeffs(n) for n in range(MAX_POLY_DEGREE + 1)]
        assert bernoulli_poly_coeffs(7) is clean[7]
        with faults.inject("bernoulli-table"):
            faulty = bernoulli_poly_coeffs(6)
            # B_6(x) carries C(6,4) B_4 x^2, B_4 off by 1e-6.
            assert faulty.coeffs[2] == clean[6].coeffs[2] + Fraction(15, 10**6)
            assert bernoulli_poly_coeffs(6) == faulty
            assert bernoulli_poly_coeffs(3) == clean[3]
        assert bernoulli_poly_coeffs(6) is clean[6]
        assert bernoulli_poly_coeffs(6).coeffs == tuple(
            math.comb(6, j) * bernoulli_number(6 - j) for j in range(7)
        )

    def test_coeffs_evaluate_complex(self):
        coeffs = bernoulli_poly_coeffs(3)
        z = 0.5 + 0.25j
        direct = z**3 - 1.5 * z**2 + 0.5 * z
        assert abs(coeffs.evaluate(z) - direct) < 1e-15


class TestEulerPolynomials:
    def test_euler_numbers_at_one_half(self):
        # E_n = 2^n E_n(1/2)
        for n, want in EULER_NUMBER_TABLE.items():
            assert euler_poly(n, Fraction(1, 2)) * 2**n == want
        for n in (1, 3, 5, 7):
            assert euler_poly(n, Fraction(1, 2)) == 0

    def test_forward_mean_equation(self):
        # E_n(x+1) + E_n(x) = 2 x^n, exact.
        for n in range(0, 11):
            for x in (Fraction(0), Fraction(1, 2), Fraction(7, 4)):
                assert euler_poly(n, x + 1) + euler_poly(n, x) == 2 * x**n

    def test_whole_table_matches_polynomial_recursion(self):
        # The Appell build from E_n(0) against the O(n^3) recursion on whole
        # polynomials, coefficient for coefficient as exact Fractions.
        want = euler_poly_coeff_lists(MAX_POLY_DEGREE - 1)
        for n in range(MAX_POLY_DEGREE):
            assert list(euler_poly_coeffs(n).coeffs) == want[n]

    def test_independent_of_bernoulli_layer(self):
        # The Euler recursion must reproduce the Bernoulli link formula
        # E_n(x) = 2/(n+1) [B_{n+1}(x) - 2^{n+1} B_{n+1}(x/2)] without
        # being built from it.
        for n in range(0, 11):
            for x in (Fraction(0), Fraction(1, 3), Fraction(3, 2)):
                link = (
                    Fraction(2, n + 1)
                    * (bernoulli_poly(n + 1, x) - 2 ** (n + 1) * bernoulli_poly(n + 1, x / 2))
                )
                assert euler_poly(n, x) == link


class TestPolyCoeffs:
    def test_exact_for_fraction_input(self):
        p = PolyCoeffs((Fraction(1), Fraction(-2), Fraction(3)))
        x = Fraction(5, 7)
        assert p.evaluate(x) == 1 - 2 * x + 3 * x * x
        assert isinstance(p.evaluate(x), Fraction)

    def test_degree(self):
        assert bernoulli_poly_coeffs(6).degree == 6

    def test_evaluate_bounded_is_evaluate_within_its_bound(self):
        # Exact complex Horner in Fractions at the double x, real and complex.
        rng = random.Random(24)
        for n in (0, 1, 7, 33, 64):
            p = bernoulli_poly_coeffs(n)
            for x in (rng.uniform(-9, 9), complex(rng.uniform(-5, 5), rng.uniform(-5, 5))):
                value, err = p.evaluate_bounded(x)
                assert value == p.evaluate(x)
                xr, xi = Fraction(complex(x).real), Fraction(complex(x).imag)
                re, im = Fraction(0), Fraction(0)
                for c in reversed(p.coeffs):
                    re, im = re * xr - im * xi + c, re * xi + im * xr
                dr, di = Fraction(value.real) - re, Fraction(value.imag) - im
                assert dr * dr + di * di <= Fraction(err) ** 2


class TestLnGamma:
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 3.7, 10.0, 25.5])
    def test_matches_math_lgamma_on_positive_axis(self, x):
        got = ln_gamma(complex(x))
        assert abs(got.imag) < 1e-12
        assert abs(got.real - math.lgamma(x)) <= 1e-13 * (1.0 + abs(math.lgamma(x)))

    def test_functional_equation_complex(self):
        import cmath

        for z in (0.5 + 2.0j, 1.5 - 1.0j, 3.0 + 0.25j):
            lhs = ln_gamma(z + 1)
            rhs = ln_gamma(z) + cmath.log(z)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    def test_reflection_left_half_plane(self):
        import cmath

        z = -1.3 + 0.7j
        lhs = ln_gamma(z) + ln_gamma(1 - z)
        rhs = cmath.log(math.pi / cmath.sin(math.pi * z))
        # Both sides defined modulo 2 pi i; compare exponentials.
        assert abs(cmath.exp(lhs) - cmath.exp(rhs)) <= 1e-12 * abs(cmath.exp(rhs))

    def test_near_poles_matches_mpmath(self):
        # The reflection formula's 1 - e^{2 pi i z} cancels next to the
        # integers unless it is built from expm1.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        rng = random.Random(20261018)
        points = [5e-10, -1 + 1e-7, -4 - 1e-9]
        for _ in range(100):
            d = 10 ** rng.uniform(-12, -2) * rng.choice((1, -1))
            points.append(complex(d - rng.randint(0, 10), rng.choice((0.0, d))))
        for z in points:
            want = complex(mpmath.loggamma(mpmath.mpc(z)))
            assert abs(ln_gamma(z) - want) <= 2e-15 * abs(want), z

    def test_pole_rejection(self):
        from zetakit import PoleError

        with pytest.raises(PoleError):
            ln_gamma(complex(0.0))
        with pytest.raises(PoleError):
            ln_gamma(complex(-3.0))


class TestSummation:
    def test_compensated_sum_beats_naive(self):
        xs = [1e16, 1.0, -1e16, 1.0]
        assert compensated_sum(xs) == 2.0

    @given(st.lists(st.floats(-1e8, 1e8), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_compensated_sum_matches_fraction_sum(self, xs):
        exact = float(sum(Fraction(x) for x in xs))
        assert compensated_sum(xs) == exact

    def test_compensated_sum_is_correctly_rounded(self):
        # A running compensated (Neumaier) sum returns -6.92999999999999e16
        # here, one ulp from the float nearest the exact sum.
        xs = [1e-18, 7e14, -7e16, 100.0]
        exact = float(sum(Fraction(x) for x in xs))
        assert exact == -6.9299999999999896e16
        assert compensated_sum(xs) == exact
        assert compensated_sum([1e100, 1.0, -1e100, 1e-100]) == 1.0

    def test_cvz_accelerates_log_two(self):
        # sum (-1)^k / (k+1) = log 2, alternating terms a_k = 1/(k+1)
        value = alternating_sum_cvz(lambda k: 1.0 / (k + 1), 40)
        assert abs(value - math.log(2.0)) < 1e-14

    def test_cvz_complex_terms(self):
        # eta(s) at complex s through the same accelerator
        s = 2.0 + 1.0j
        value = alternating_sum_cvz(lambda k: (k + 1) ** (-s), 60)
        from zetakit import dirichlet_eta

        ref = dirichlet_eta(s)
        assert abs(value - ref.value) <= 1e-12 * abs(ref.value)


class TestComplexPower:
    def test_cpow_within_its_documented_rounding(self):
        # cpow is Python's complex power; its relative rounding is at most
        # 2.2e-16 (1 + |e| (1 + |log b|)).  Seeded bases near 1, on |b| = 1
        # and spread over the plane, with complex, real and integral
        # exponents (CPython squares repeatedly for integers up to 100).
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(20261019)
        cases = []
        for _ in range(300):
            theta = rng.uniform(-math.pi, math.pi)
            bases = (
                complex(1.0 + rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3)),
                complex(math.cos(theta), math.sin(theta)),
                complex(rng.uniform(0.01, 50.0), rng.choice((0.0, rng.uniform(-50.0, 50.0)))),
                complex(-rng.uniform(0.01, 50.0), rng.uniform(-1e-3, 1e-3)),
            )
            exponents = (
                complex(rng.randint(-100, 100)),
                complex(rng.uniform(-60.0, 60.0)),
                complex(rng.uniform(-60.0, 60.0), rng.uniform(-20.0, 20.0)),
            )
            cases.extend((b, e) for b in bases for e in exponents)
        with mpmath.workdps(40):
            for b, e in cases:
                got = cpow(b, e)
                want = mpmath.power(mpmath.mpc(b), mpmath.mpc(e))
                bound = 2.2e-16 * (1.0 + abs(e) * (1.0 + abs(cmath.log(b)))) * abs(want)
                assert abs(mpmath.mpc(got) - want) <= bound, (b, e)

    def test_cpow_is_the_complex_power_bit_for_bit(self):
        # cpow takes base ** expo without building complex(base): for a
        # complex exponent an int, float or complex base gives the power at
        # complex(base) bit for bit, real parts of zero sign included.
        rng = random.Random(20261120)
        for _ in range(500):
            e = complex(rng.uniform(-30.0, 30.0), rng.choice((0.0, rng.uniform(-20.0, 20.0))))
            for b in (rng.randint(1, 10**6), rng.uniform(1e-3, 1e3), -rng.uniform(1e-3, 1e3),
                      complex(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))):
                got, want = cpow(b, e), complex(b) ** e
                assert repr(got) == repr(want), (b, e)
