"""Zeta family: Hurwitz/Riemann zeta, eta, Lerch, polylog, chi ratio."""

import cmath
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zetakit.zeta as zeta_module
from zetakit import extended
from zetakit import (
    ConvergenceError,
    DomainError,
    ExtParams,
    LerchParams,
    PoleError,
    Strategy,
    chi_ratio,
    digamma,
    dirichlet_eta,
    ext_be,
    ext_fd,
    fd_zero_hurwitz_route,
    hurwitz_diff,
    hurwitz_zeta,
    lerch_phi,
    polylog,
    riemann_zeta,
)

import oracles
from oracles import hurwitz_negint_reference


def rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def cvz_length(s: complex) -> int:
    """Terms of the alternating sum at order s: the least n >= 32 with
    e^{pi |Im s|/2} (3 + sqrt 8)^{-3n/4} <= e^{-36}."""
    rate = 0.75 * math.log(3.0 + math.sqrt(8.0))
    return max(32, math.ceil((0.5 * math.pi * abs(s.imag) + 36.0) / rate))


class TestRiemannZeta:
    @pytest.mark.parametrize(
        "s, want",
        [
            (2.0, oracles.ZETA_2),
            (0.0, oracles.ZETA_0),
            (-1.0, oracles.ZETA_M1),
            (3.0, oracles.ZETA_3),
            (0.5, oracles.ZETA_HALF),
            (1.5, oracles.ZETA_1P5),
            (2.5, oracles.ZETA_2P5),
        ],
    )
    def test_reference_values(self, s, want):
        res = riemann_zeta(s)
        assert rel(res.value, want) <= 1e-12

    def test_pole_message(self):
        with pytest.raises(PoleError, match=r"pole at s=1"):
            riemann_zeta(1.0)

    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_unknown_route_refused_before_the_pole(self, s):
        with pytest.raises(DomainError, match="unknown route 'bogus'"):
            riemann_zeta(s, via="bogus")

    def test_two_routes_disagree_in_code_path(self):
        em = riemann_zeta(0.5, via="em")
        fe = riemann_zeta(0.5, via="functional")
        assert em.strategy != fe.strategy
        assert rel(em.value, fe.value) <= 1e-10

    def test_complex_argument(self):
        s = 0.5 + 14.0j
        em = riemann_zeta(s, via="em")
        fe = riemann_zeta(s, via="functional")
        assert rel(em.value, fe.value) <= 1e-9

    def test_functional_route_near_zero_within_estimate(self):
        # chi(s) -> 0 and zeta(1 - s) -> infinity meet at s = 0; the rounding
        # of 1 - s dominates the error nearby.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        assert riemann_zeta(0.0, via="functional").value == -0.5
        rng = random.Random(20261018)
        points = [1e-9, -1e-9, 2e-11, -8.9e-11]
        for _ in range(100):
            m = 10 ** rng.uniform(-10.7, -1)
            points.append(m * rng.choice((1, -1, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))))
        for s in points:
            got = riemann_zeta(s, via="functional")
            want = mpmath.zeta(mpmath.mpc(s))
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, s

    def test_functional_route_refuses_odd_positive_integers(self):
        # zeta(3) is finite, but chi's pole there meets the trivial zero of
        # zeta(-2); the route would need zeta'(-2), so it is a domain limit
        # of the route, not a pole of zeta.
        for s in (3.0, 5.0, 31.0):
            with pytest.raises(DomainError, match="trivial zero"):
                riemann_zeta(s, via="functional")
        assert rel(riemann_zeta(3.0).value, oracles.ZETA_3) <= 1e-12

    def test_trivial_zeros(self):
        for s in (-2.0, -4.0, -6.0):
            res = riemann_zeta(s)
            assert abs(res.value) <= 1e-13


class TestHurwitzZeta:
    def test_reduces_to_riemann(self):
        for s in (2.0, 3.5, 0.25, 2.0 + 1.0j):
            assert rel(hurwitz_zeta(s, 1.0).value, riemann_zeta(s).value) <= 1e-13

    def test_half_argument_link(self):
        # zeta(s, 1/2) = (2^s - 1) zeta(s)
        for s in (2.0, 3.0, 1.5):
            want = (2.0**s - 1.0) * riemann_zeta(s).value
            assert rel(hurwitz_zeta(s, 0.5).value, want) <= 5e-13

    def test_negative_integer_orders_exact_reference(self):
        for n in range(0, 9):
            for a in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(23, 10)):
                want = float(hurwitz_negint_reference(n, a))
                got = hurwitz_zeta(-float(n), float(a)).value
                if abs(want) < 1e-15:  # trivial zeros: compare absolutely
                    assert abs(got - want) <= 1e-12
                else:
                    assert abs(got - want) / abs(want) <= 1e-11

    def test_deep_integer_orders_take_the_reflection_series(self):
        # Below order -49 the terminating Euler-Maclaurin sum cancels its
        # digits away (zeta(-63) came out as 4.4e24 for 3.3e36); the
        # reflection series handles integer orders through its sine.
        for n in range(51, 64, 2):
            for a in (Fraction(1), Fraction(3, 2), Fraction(17, 8)):
                want = float(hurwitz_negint_reference(n, a))
                got = hurwitz_zeta(-float(n), float(a))
                assert got.strategy == "hurwitz/reflection"
                assert abs(got.value - want) <= got.err_estimate, (n, a)
                assert rel(got.value, want) <= 4e-14, (n, a)
        assert riemann_zeta(-63.0).strategy == "riemann/reflection"
        assert riemann_zeta(-4.5).strategy == "riemann/reflection"
        assert riemann_zeta(-49.0).strategy == "riemann/euler-maclaurin"
        assert riemann_zeta(2.0).strategy == "riemann/euler-maclaurin"

    def test_integer_order_reflection_reduces_its_sines_exactly(self):
        # At a real integer order each sine's argument is reduced in exact
        # turns, so quarter turns give exact 0 and +-1: the trivial zero
        # zeta(-50) is 0 (it was 9.4e9, with estimate 2.4e10), and
        # zeta(-50, 3/2) = -2^-50 comes out within its estimate.
        assert riemann_zeta(-50.0).value == 0.0
        got = hurwitz_zeta(-50.0, 1.5)
        assert abs(got.value + 2.0 ** -50) <= got.err_estimate
        # Sines next to a quarter turn lose the rounding of their reduced
        # argument, which the estimate must charge.
        points = [(n, a) for n in (50, 52, 60) for a in (1.0, 1.5, 2.125, 0.3, 3.7)]
        for n, a in points + [(52, 1.5 + 1e-12), (51, 1.25 + 1e-12), (52, 0.5 + 2e-12)]:
            want = float(hurwitz_negint_reference(n, Fraction(a)))
            got = hurwitz_zeta(-float(n), a)
            assert abs(got.value - want) <= got.err_estimate, (n, a)

    def test_non_integer_order_reflection_values_unchanged(self):
        # Away from real integer orders the sines keep their radian
        # arguments: values, estimates and work are bit for bit those of
        # the route before the exact turn reduction.
        got = [(r.value, r.err_estimate, r.work) for r in (
            hurwitz_zeta(-4.5, 0.3), hurwitz_zeta(-7.25 + 2j, 2.6),
            hurwitz_zeta(-60.5, 1.5), hurwitz_zeta(-9.5, 1.25, abs_tol=1e-3),
            extended._fd_zero(2.125 + 0j, -6.75 - 1.5j, 1e-6),
        )]
        assert got == [
            ((0.0038058819301665784+0j), 4.651137306448815e-16, 555),
            ((-17.84902158453652+24.384206913444412j), 1.6400794764974146e-13, 50),
            ((7.488639476304268e+33+0j), 7.895874851856758e+20, 9),
            ((-0.0066647408839414085+0j), 2.614686730664855e-12, 9),
            ((68.63105329540237+142.76605697433527j), 3.3420664242568435e-09, 11),
        ]

    def test_reflection_prefactor_is_one_exponential(self):
        # Gamma(1 - s) alone overflows from Re s ~ -170, the prefactor only
        # near -218 (alternating, fd at x = 0) and -259 (zeta); beyond that
        # the series raises OverflowError, never a NaN.
        mpmath = pytest.importorskip("mpmath")
        got = extended._fd_zero(0.5 + 0j, -170.5 + 0j)
        with mpmath.workdps(30):
            s = mpmath.mpf(-170.5)
            want = 2 ** -s * (mpmath.zeta(s, 0.75) - mpmath.zeta(s, 1.25))
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate
            s = mpmath.mpf(-255.5)
            want = mpmath.zeta(s, 1.5)
            got = hurwitz_zeta(-255.5, 1.5)
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate
        with pytest.raises(OverflowError):
            extended._fd_zero(0.5 + 0j, -218.5 + 0j)
        with pytest.raises(OverflowError):
            hurwitz_zeta(-260.5, 1.5)

    def test_forward_difference(self):
        for s in (2.5, 1.2 + 0.7j):
            for a in (1.0, 1.7):
                lhs = hurwitz_zeta(s, a).value - hurwitz_zeta(s, a + 1.0).value
                want = complex(a) ** (-s)
                assert rel(lhs, want) <= 1e-11

    def test_hurwitz_diff_beats_naive_cancellation(self):
        # For large a the two values nearly cancel; the dedicated difference
        # must stay accurate relative to the small result.
        s, a = 3.0, 50.0
        direct = hurwitz_diff(s, a, a + 1.0)
        want = a ** (-s)
        assert rel(direct.value, want) <= 1e-12

    def test_deep_negative_order_reflection_vs_em(self):
        # sigma <= -4 with real a uses the reflection route; the generic
        # Euler-Maclaurin continuation must agree where both apply.
        s = -4.5
        refl = hurwitz_zeta(s, 0.3)
        assert "reflection" in refl.strategy or refl.err_estimate < 1e-9
        # cross-check via the forward difference equation
        lhs = hurwitz_zeta(s, 0.3).value - hurwitz_zeta(s, 1.3).value
        assert rel(lhs, 0.3 ** (-s)) <= 1e-10

    def test_error_estimate_is_honest(self):
        # Every Euler-Maclaurin term is a complex power whose exponent is
        # rounded; the true error must stay within err_estimate, also where
        # it reaches into the Taylor-in-x coefficients of be at tiny x.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        rng = random.Random(20261018)
        points = [(5.0, 3.3), (-3.5, 0.5), (-2.5, 0.5), (-3.5, 1.0)]
        for _ in range(200):
            s = complex(rng.uniform(-6, 25), rng.choice([0.0, rng.uniform(-30, 30)]))
            a = rng.choice([rng.uniform(0.005, 12),
                            complex(rng.uniform(0.1, 4), rng.uniform(-3, 3))])
            points.append((s, a))
        for s, a in points:
            got = hurwitz_zeta(s, a)
            want = mpmath.zeta(mpmath.mpc(s), mpmath.mpc(a))
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (s, a)
        got = ext_be(ExtParams(2.3, 5.0, 1e-6), Strategy.POWER_SERIES_X)
        xm = mpmath.mpf("1e-6")
        want = mpmath.exp(-3.3 * xm) * mpmath.lerchphi(mpmath.exp(-xm), 5, 3.3)
        assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate

    def test_negative_order_band_accurate_and_honest(self):
        # At -4 < Re s < 0 the head sum and the integral term of
        # Euler-Maclaurin cancel down to the value; the small shift keeps
        # that cancellation, and with it the error, near 1e-12 relative.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for s, a in ((-3.5, 0.5), (-2.5, 0.5625), (-3.5, 1.0)):
            got = hurwitz_zeta(s, a)
            want = mpmath.zeta(s, a)
            assert abs(mpmath.mpc(got.value) - want) <= 1e-10 * abs(want), (s, a)
        rng = random.Random(20261018)
        for _ in range(200):
            s = complex(rng.uniform(-4.0, 0.0), rng.choice((0.0, rng.uniform(-30.0, 30.0))))
            a = rng.choice([rng.uniform(0.005, 12.0),
                            complex(rng.uniform(0.1, 4.0), rng.uniform(-3.0, 3.0))])
            got = hurwitz_zeta(s, a)
            want = mpmath.zeta(mpmath.mpc(s), mpmath.mpc(a))
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (s, a)

    def test_reflection_estimate_is_honest(self):
        # The prefactor Gamma(1-s) (2 pi)^{s-1} is an exponential of a large
        # exponent, and each sine's argument pi s/2 + 2 pi n a0 is rounded;
        # near a zero of the leading sine that rounding dominates, as at
        # the first fixed point.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        rng = random.Random(20261018)
        points = [(-18.205877053803828, 1.558446970216324), (-56.00457904458702, 1.0),
                  (-70.5, 1.0)]
        for _ in range(60):
            s = complex(rng.uniform(-20.0, -4.0), rng.choice((0.0, rng.uniform(-5.0, 5.0))))
            points.append((s, rng.uniform(0.01, 4.0)))
        for s, a in points:
            got = hurwitz_zeta(s, a)
            assert got.strategy == "hurwitz/reflection"
            want = mpmath.zeta(mpmath.mpc(s), a)
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (s, a)

    def test_reflection_abs_tol_moves_value_within_estimate(self):
        # A loose abs_tol stops the reflection series early; the value moves
        # by no more than the estimate it reports, which stays within the
        # tolerance asked for plus the full-accuracy estimate.
        for s, a in ((-4.5, 0.3), (-4.01, 1.7), (-7.25 + 3.0j, 0.9), (-25.5, 2.2)):
            full = hurwitz_zeta(s, a)
            for rel_tol in (1e-10, 1e-6, 1e-2):
                abs_tol = rel_tol * abs(full.value)
                loose = hurwitz_zeta(s, a, abs_tol=abs_tol)
                assert loose.strategy == "hurwitz/reflection"
                assert abs(loose.value - full.value) <= loose.err_estimate, (s, a, rel_tol)
                assert loose.err_estimate <= abs_tol + 1.01 * full.err_estimate
                assert loose.work <= full.work
        # Euler-Maclaurin ignores it.
        assert hurwitz_zeta(-2.5, 0.5, abs_tol=1.0) == hurwitz_zeta(-2.5, 0.5)

    def test_pole_and_domain(self):
        with pytest.raises(PoleError, match="pole at s=1"):
            hurwitz_zeta(1.0, 2.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, 0.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, -1.5)

    @given(
        s=st.floats(1.1, 6.0),
        a=st.floats(0.1, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_series_dominates_first_term(self, s, a):
        # 0 < zeta(s, a) and a^{-s} < zeta(s, a) < a^{-s} + (s-1)^{-1} a^{1-s}
        # (integral comparison), a classic sanity envelope for real s > 1.
        val = hurwitz_zeta(s, a).value.real
        lo = a ** (-s)
        hi = a ** (-s) + a ** (1.0 - s) / (s - 1.0)
        assert lo < val < hi * (1.0 + 1e-12)


class TestDirichletEta:
    def test_reference_values(self):
        assert rel(dirichlet_eta(1.0).value, oracles.ETA_1) <= 1e-12
        assert rel(dirichlet_eta(2.0).value, oracles.ETA_2) <= 1e-12
        assert rel(dirichlet_eta(0.5).value, oracles.ETA_HALF) <= 1e-12

    def test_no_pole_at_one(self):
        res = dirichlet_eta(1.0)
        assert math.isfinite(res.value.real)

    def test_eta_zeta_link_off_pole(self):
        for s in (2.0, 3.0, 0.5, 2.0 + 2.0j):
            want = (1.0 - 2.0 ** (1.0 - complex(s))) * riemann_zeta(s).value
            assert rel(dirichlet_eta(s).value, want) <= 1e-12


class TestLerchPhi:
    def test_direct_sum_small_z(self):
        p = LerchParams(0.25, 2.0, 1.5)
        want = sum(0.25**n / (n + 1.5) ** 2.0 for n in range(200))
        assert rel(lerch_phi(p).value, want) <= 1e-13

    def test_reduces_to_hurwitz_at_z_one_shifted(self):
        # Phi(z, s, a) -> zeta(s, a) as z -> 1 requires Re s > 1; check z=1.
        p = LerchParams(1.0, 2.5, 1.3)
        assert rel(lerch_phi(p).value, hurwitz_zeta(2.5, 1.3).value) <= 1e-11

    def test_alternating_z(self):
        # Phi(-1, s, 1) = eta(s)
        p = LerchParams(-1.0, 1.5, 1.0)
        assert rel(lerch_phi(p).value, dirichlet_eta(1.5).value) <= 1e-11

    def test_alternating_next_to_minus_one_returns_fast(self):
        # The plain sum at |z| = 0.99999 would need far more than MAX_TERMS
        # terms; the alternating acceleration takes 32.
        got = lerch_phi(LerchParams(-0.99999, 2, 1))
        assert got.strategy == "lerch/cvz-alternating" and got.work == 32
        assert rel(got.value, lerch_phi(LerchParams(-0.99999, 2, 2)).value
                   * -0.99999 + 1.0) <= 1e-13

    def test_alternating_segment_against_euler_boole(self):
        # Real z in [-1, -e^{-0.05}), Re s in (0, 8], |Im s| <= 6, real and
        # complex a (Re a <= 0 included): lerch_phi and polylog take the
        # alternating acceleration and return within their estimates.  The
        # reference sums by Euler-Boole, which shares nothing with the
        # Chebyshev weights.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(20261104)
        for _ in range(300):
            u = rng.choice((0.0, 10 ** rng.uniform(-8.0, -3.0), rng.uniform(0.0, 0.05)))
            z = -math.exp(-u)
            s = complex(rng.uniform(0.05, 8.0), rng.choice((0.0, rng.uniform(-6.0, 6.0))))
            a = rng.choice((1.0, complex(rng.uniform(0.1, 4.0)),
                            complex(rng.uniform(-3.0, 4.0), rng.uniform(-3.0, 3.0))))
            with mpmath.workdps(40):
                want = oracles.alternating_lerch_boole(
                    mpmath, s, a, -mpmath.log(-mpmath.mpf(z)))
            alt_err = zeta_module.alternating_lerch(s, complex(a), cmath.log(-complex(z)))[1]
            if a == 1.0:
                got, want, alt_err = polylog(z, s), z * want, -z * alt_err
            else:
                got = lerch_phi(LerchParams(z, s, a))
            assert got.strategy.endswith("/cvz-alternating")
            assert got.err_estimate <= alt_err, (z, s, a)
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (z, s, a)

    def test_alternating_segment_at_large_imaginary_order(self):
        # The Chebyshev error grows like e^{pi |Im s|/2} 5.8^{-n}, so the
        # sum takes the terms |Im s| needs: 32 up to |Im s| = 4, 99 at 60.
        # Each point, on the segment and at z = -1 (where fd at x = 0 sums
        # the same series), is then within 1e-12 relative and its estimate.
        mpmath = pytest.importorskip("mpmath")
        for z, s, a in ((-0.99, 0.5 + 30j, 1.0), (-0.96, 2 - 40j, 2.5),
                        (-0.999, 1 + 20j, 0.5), (-0.97, 1 - 15j, 0.5 + 1j),
                        (-0.99999, 0.5 + 30j, 1.0), (-1.0, 0.5 + 30j, 1.0),
                        (-1.0, 0.5 + 60j, 1.0), (-1.0, 2 - 45j, 2.5),
                        (-1.0, 2 - 45j, 0.5 + 1j)):
            got = lerch_phi(LerchParams(z, s, a))
            want = oracles.alternating_lerch_boole(
                mpmath, s, a, -mpmath.log(-mpmath.mpf(z)))
            assert got.strategy == "lerch/cvz-alternating", (z, s, a)
            assert abs(mpmath.mpc(got.value) - want) <= 1e-12 * abs(want), (z, s, a)
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (z, s, a)
            if z == -1.0 and a.imag == 0.0:
                fd = ext_fd(ExtParams(a - 1.0, s, 0.0))
                assert fd.strategy == "fd/zero-alternating-cvz", (s, a)
                assert abs(mpmath.mpc(fd.value) - want) <= 1e-12 * abs(want), (s, a)

    def test_alternating_segment_grid_to_large_imaginary_order(self):
        # z in [-1, -e^{-0.05}), |Im s| up to 300, real and complex a with
        # Re a <= 0 included: one alternating sum of the rule's length, so
        # no second route ran, within its estimate.  |Im s arg a| stays
        # below 50, so the terms (k+a)^{-s} stay within 40 digits of the
        # value and of the double range.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(20261019)
        for _ in range(120):
            u = rng.choice((0.0, 10 ** rng.uniform(-12.0, -3.0), rng.uniform(0.0, 0.05)))
            z = -math.exp(-u)
            a = rng.choice((complex(rng.uniform(0.1, 4.0)),
                            complex(rng.uniform(-3.0, 4.0), rng.uniform(-3.0, 3.0))))
            arg = abs(cmath.phase(a))
            t = rng.uniform(0.0, min(300.0, 50.0 / arg) if arg else 300.0)
            s = complex(rng.uniform(0.05, 6.0), rng.choice((-t, t)))
            got = lerch_phi(LerchParams(z, s, a))
            want = oracles.alternating_lerch_boole(
                mpmath, s, a, -mpmath.log(-mpmath.mpf(z)))
            assert got.strategy == "lerch/cvz-alternating", (z, s, a)
            assert got.work == cvz_length(s), (z, s, a)
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (z, s, a)

    def test_alternating_sum_at_imaginary_order_one_thousand(self):
        # 1,216 terms: the unnormalised Chebyshev weights would pass the
        # double range from about 400.  lerch_phi at z = -1 and fd at x = 0
        # return within their estimates and agree with the Hurwitz halves.
        mpmath = pytest.importorskip("mpmath")
        for s, a in ((0.5 + 1000j, 1.0), (2 - 1000j, 2.5)):
            want = oracles.alternating_lerch_boole(mpmath, s, a, 0)
            halves = fd_zero_hurwitz_route(a - 1.0, s)
            for got in (lerch_phi(LerchParams(-1.0, s, a)),
                        ext_fd(ExtParams(a - 1.0, s, 0.0))):
                assert got.work == cvz_length(s) == 1216, (s, a)
                assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (s, a)
                gap = abs(got.value - halves.value)
                assert gap <= got.err_estimate + halves.err_estimate, (s, a)

    def test_difference_contraction(self):
        # Phi(z,s,a) - z Phi(z,s,a+1) = a^{-s}
        for z in (0.7, -0.8, 0.3 + 0.4j):
            p0 = LerchParams(z, 2.2, 1.4)
            p1 = LerchParams(z, 2.2, 2.4)
            lhs = lerch_phi(p0).value - z * lerch_phi(p1).value
            assert rel(lhs, 1.4 ** (-2.2)) <= 1e-11

    def test_unit_circle_rejected_or_converged(self):
        # |z| > 1 diverges and must be refused.
        with pytest.raises(DomainError):
            lerch_phi(LerchParams(1.5, 2.0, 1.0))

    def test_subnormal_imaginary_a(self):
        # The angle of a underflows; the sum is the one at real a.
        got = lerch_phi(LerchParams(0.5, 2.0, complex(2.0, 5e-324)))
        assert rel(got.value, lerch_phi(LerchParams(0.5, 2.0, 2.0)).value) <= 1e-15

    def test_budget_exhaustion_raises(self):
        with mock.patch.object(zeta_module, "MAX_TERMS", 3):
            with pytest.raises(ConvergenceError):
                lerch_phi(LerchParams(0.99, 1.001, 1.0))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: lerch_phi(LerchParams(math.exp(-1e-6), 2, 1)),
            lambda: lerch_phi(LerchParams(math.exp(-1e-6), 2, 1 + 1j)),
            lambda: lerch_phi(LerchParams(math.exp(-1e-6), 2, -0.5)),
            # r^N = 1e-5: at Re s < 0 the terms grow until k = N.
            lambda: lerch_phi(LerchParams(math.exp(-2.3e-5), -40, 1)),
            lambda: ext_fd(ExtParams(0, -1.5, 1e-7), Strategy.XSERIES),
            lambda: ext_be(ExtParams(0, 2, 1e-6), Strategy.XSERIES),
        ],
        ids=["lerch", "lerch-complex-a", "lerch-negative-a",
             "lerch-negative-order", "fd", "be"],
    )
    def test_hopeless_budget_refused_with_bounded_work(self, call, monkeypatch):
        # |z| = e^{-x} so close to 1 that 500,000 terms cannot reach 1e-13:
        # the refusal comes at the first power of two where it can be
        # proved, here n = 1, not after the whole budget.
        calls = 0
        cpow = zeta_module.cpow

        def counting_cpow(base, expo):
            nonlocal calls
            calls += 1
            return cpow(base, expo)

        monkeypatch.setattr(zeta_module, "cpow", counting_cpow)
        with pytest.raises(ConvergenceError):
            call()
        assert calls < 10

    @pytest.mark.parametrize(
        "call, want",
        [
            (lambda: lerch_phi(LerchParams(math.exp(-1e-6), 3, 1)), None),
            # |(n+a)^{-s}| carries e^{800 arg(n+a)}, past the double range
            # at small n: the refusal must not overflow on the way.
            (lambda: lerch_phi(LerchParams(math.exp(-1e-6), 2 - 800j, 0.5 + 2j)),
             None),
            # The defining series fails next to |z| = 1 and AUTO reduces.
            (lambda: ext_fd(ExtParams(2.1107, 1.6595 + 2.3909j,
                                      3.33e-5 - 2.5272j)), "fd/circle-be"),
        ],
        ids=["lerch-order-3", "lerch-order-2-800i", "auto-fd"],
    )
    def test_hopeless_direct_sum_refused_early(self, call, want, monkeypatch):
        # The check first proves the budget short at n = 64, 256 and 512
        # here: the direct sum makes at most 1,024 complex powers, not
        # 500,000.
        calls = 0
        inside = False
        cpow, direct = zeta_module.cpow, zeta_module._lerch_direct

        def counting_cpow(base, expo):
            nonlocal calls
            calls += inside
            return cpow(base, expo)

        def counting_direct(z, s, a):
            nonlocal inside
            inside = True
            try:
                return direct(z, s, a)
            finally:
                inside = False

        monkeypatch.setattr(zeta_module, "cpow", counting_cpow)
        monkeypatch.setattr(zeta_module, "_lerch_direct", counting_direct)
        if want is None:
            with pytest.raises(ConvergenceError, match="not converged"):
                call()
        else:
            assert call().strategy == want
        assert 0 < calls <= 1024

    def test_long_direct_sum_next_to_the_circle_still_returns(self):
        # 33,052 terms at |z| = e^{-1e-3}.  With the budget cut to that need
        # the checks run (r^{N/2} > 2e-13) and none fires; one term less
        # and the sum raises.
        p = LerchParams(math.exp(-1e-3) * cmath.exp(1j), 2 - 400j, 0.5 + 2j)
        got = lerch_phi(p)
        assert (got.strategy, got.work) == ("lerch/direct-sum", 33_053)
        with mock.patch.object(zeta_module, "MAX_TERMS", 33_052):
            assert lerch_phi(p) == got
        with mock.patch.object(zeta_module, "MAX_TERMS", 33_051):
            with pytest.raises(ConvergenceError):
                lerch_phi(p)

    def test_auto_fd_at_hopeless_budget_takes_taylor_route(self):
        # The point the defining series refuses returns through the Taylor
        # series in x, in a few thousand units of work.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        got = ext_fd(ExtParams(0, -1.5, 1e-7))
        xm = mpmath.mpf("1e-7")
        want = mpmath.exp(-xm) * mpmath.lerchphi(-mpmath.exp(-xm), -1.5, 1)
        assert got.strategy == "fd/power-series-x"
        assert got.work < 5_000
        assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate

    # |z| in [0, 0.999], or within 1e-4 to 1e-1 of 1; real parts of a at
    # least 0.01 from the poles at 0, -1, -2, ...
    RADII = st.one_of(st.floats(0.0, 0.999),
                      st.floats(-4.0, -1.0).map(lambda u: 1.0 - 10.0 ** u))
    SHIFTS = st.floats(-5.0, 20.0).filter(
        lambda x: x >= 0.01 or abs(x - round(x)) >= 0.01)

    @given(
        r=RADII,
        theta=st.floats(-math.pi, math.pi),
        a=SHIFTS,
        sigma=st.floats(-6.0, 6.0),
        t=st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
        frac=st.floats(0.0, 1.5),
    )
    # Re a < 0: before Re(n+a) > 0 the bounds on later terms do not hold.
    @example(r=0.9989106962740453, theta=-1.116959684740607,
             a=-3.756424634404008, sigma=7.165265140504884, t=0.0, frac=1.0)
    @settings(max_examples=150, deadline=None)
    def test_refusal_only_when_budget_too_small(self, r, theta, a, sigma, t, frac):
        # A call with MAX_TERMS = M raises exactly when the stopping rule
        # alone needs more than M terms, so the early refusal never turns
        # away a sum that would have converged.  M is drawn around that
        # need, and M = need itself is always tried.
        self._check_refusal(
            LerchParams(r * cmath.exp(1j * theta), complex(sigma, t), a), frac
        )

    @given(
        r=RADII,
        theta=st.floats(-math.pi, math.pi),
        a_re=SHIFTS,
        a_im=st.floats(-20.0, 20.0),
        sigma=st.floats(-6.0, 6.0),
        t=st.floats(-200.0, 200.0),
        frac=st.floats(0.0, 1.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_refusal_only_when_budget_too_small_complex_a(
        self, r, theta, a_re, a_im, sigma, t, frac
    ):
        # The same property for complex a, where the bounds carry
        # e^{|Im s| |arg(n+a)|}, and Re a <= 0, where the checks wait for
        # Re(n+a) > 0.
        self._check_refusal(
            LerchParams(r * cmath.exp(1j * theta), complex(sigma, t),
                        complex(a_re, a_im)),
            frac,
        )

    @staticmethod
    def _check_refusal(p: LerchParams, frac: float) -> None:
        # The need comes from the stopping rule with the refusal switched
        # off, summed up to `cap` terms; a sum that needs more stands for
        # need = cap + 1 and is tried at budgets up to `cap`.  Every sum
        # drawn at |z| <= 0.999 needs under 100,000 terms (about 90,000 at
        # Re s = -6); nearer the circle 20,000 keeps the test fast.
        cap = 100_000 if abs(p.z) <= 0.999 else 20_000
        with mock.patch.object(zeta_module, "_cannot_stop", lambda *_: False), \
                mock.patch.object(zeta_module, "MAX_TERMS", cap):
            try:
                full = lerch_phi(p)
            except ConvergenceError:
                full = None
        if full is None:
            need = cap + 1
        elif full.strategy == "lerch/direct-sum":
            need = full.work - 1
        else:
            need = 0   # a route that takes no term budget
        top = min(need, cap)
        for budget in (max(1, min(cap, round(frac * top))), max(1, top)):
            with mock.patch.object(zeta_module, "MAX_TERMS", budget):
                if need > budget:
                    with pytest.raises(ConvergenceError):
                        lerch_phi(p)
                else:
                    assert lerch_phi(p) == full


class TestUnitCircle:
    """|z| = 1 off z = 1 and the real segment: the circle sum at Re s > 0,
    Lerch's transformation at Re s <= 0 and real a."""

    @pytest.mark.parametrize("theta", (0.3, 1.0, 2.0, 3.0, -2.5))
    def test_polylog_closed_forms(self, theta):
        # Li_0 = z/(1-z), Li_{-1} = z/(1-z)^2, Li_{-2} = z(1+z)/(1-z)^3,
        # here at the double z, which lies within 1e-16 of the circle.
        mpmath = pytest.importorskip("mpmath")
        z = cmath.exp(1j * theta)
        with mpmath.workdps(30):
            zm = mpmath.mpc(z)
            forms = ((0, zm / (1 - zm)), (-1, zm / (1 - zm) ** 2),
                     (-2, zm * (1 + zm) / (1 - zm) ** 3))
            for s, want in forms:
                got = polylog(z, s)
                assert got.strategy == "polylog/lerch-transform"
                assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (theta, s)
                assert abs(mpmath.mpc(got.value) - want) <= 1e-12 * abs(want), (theta, s)

    def test_transformation_grid_against_mpmath(self):
        # z = e^{2 pi i lam}, lam in [0.02, 0.98]; Re s in [-6, 0], real,
        # integer and complex; real a in (0, 4], with a = 1, half-integers
        # and a next to the integers among them.  Where the inner circle
        # sums would pass their cap lerch_phi refuses; elsewhere it returns
        # within its estimate.  The reference is at e^{i arg z}, the point
        # the transformation reads z as.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 20
        rng = random.Random(20261019)
        refused = 0
        for _ in range(45):
            lam = rng.uniform(0.02, 0.98)
            z = cmath.exp(2j * math.pi * lam)
            sigma = rng.uniform(-6.0, 0.0)
            s = rng.choice((complex(sigma), complex(round(sigma)),
                            complex(sigma, rng.uniform(-4.0, 4.0))))
            a = rng.choice((rng.uniform(1e-3, 4.0), 1.0, rng.randint(0, 3) + 0.5,
                            rng.randint(1, 3) + rng.choice((-1, 1)) * rng.uniform(0.0, 0.03)))
            p = LerchParams(z, s, a)
            if not zeta_module.lerch_transform_serves(complex(a)):
                with pytest.raises(ConvergenceError, match="pieces"):
                    lerch_phi(p)
                refused += 1
                continue
            got = lerch_phi(p)
            assert got.strategy == "lerch/lerch-transform"
            want = mpmath.lerchphi(mpmath.expj(cmath.phase(z)), mpmath.mpc(s), a)
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (lam, s, a)
        assert 0 < refused < 20

    def test_transformation_next_to_one_at_the_double_z(self):
        # lam within 1e-6 to 1e-2 of 0 or 1, where Phi moves fast with |z|:
        # the double z lies off the circle by up to about 1e-16, and the
        # estimate charges that step.  The reference is at the z passed.
        # Lerch's transformation at the angle itself stays within its own,
        # tighter estimate of the value at e^{i arg z}.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 20
        rng = random.Random(20261021)
        returned = 0
        for i in range(30):
            d = 10 ** rng.uniform(-6.0, -2.0)
            lam = rng.choice((d, 1.0 - d))
            z = cmath.exp(2j * math.pi * lam)
            sigma = rng.uniform(-6.0, 0.0)
            s = rng.choice((complex(sigma), complex(round(sigma) or -1),
                            complex(sigma, rng.uniform(-4.0, 4.0))))
            a = rng.choice((rng.uniform(1e-3, 4.0), 1.0, rng.randint(0, 3) + 0.5))
            if not zeta_module.lerch_transform_serves(complex(a)):
                continue
            got = lerch_phi(LerchParams(z, s, a))
            want = mpmath.lerchphi(mpmath.mpc(z), mpmath.mpc(s), a)
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (lam, s, a)
            if i < 8:
                theta = cmath.phase(z)
                on = zeta_module.lerch_transform(theta, s, a)
                want = mpmath.lerchphi(mpmath.expj(theta), mpmath.mpc(s), a)
                assert abs(mpmath.mpc(on.value) - want) <= on.err_estimate, (lam, s, a)
                assert on.err_estimate <= got.err_estimate
            returned += 1
        assert returned > 20

    def test_circle_sum_grid_against_mpmath(self):
        # |z| in [e^{-0.05}, 1], |arg z| from the cap's angle to pi,
        # Re s in (0, 4], |Im s| <= 30, real and complex a: the circle
        # sum, with up to MULT_CAP pieces of the multiplication formula,
        # returns within its estimate.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 20
        rng = random.Random(20261020)
        low = 2.0 * math.pi / (3.0 * zeta_module.MULT_CAP)
        pieces = set()
        for _ in range(24):
            theta = rng.choice((-1, 1)) * rng.uniform(low, math.pi)
            z = rng.choice((1.0, math.exp(-rng.uniform(0.0, 0.05)))) * cmath.exp(1j * theta)
            s = complex(rng.uniform(0.01, 4.0), rng.choice((0.0, rng.uniform(-30.0, 30.0))))
            a = rng.choice((complex(rng.uniform(0.01, 4.0)),
                            complex(rng.uniform(0.05, 4.0), rng.uniform(-1.0, 1.0))))
            value, err, work = zeta_module.circle_lerch(z, s, a)
            pieces.add(zeta_module.circle_pieces(theta))
            want = mpmath.lerchphi(mpmath.mpc(z), mpmath.mpc(s), mpmath.mpc(a))
            assert abs(mpmath.mpc(value) - want) <= err, (z, s, a)
        assert 1 in pieces and max(pieces) > 4

    @pytest.mark.parametrize(
        "p",
        [LerchParams(cmath.exp(0.1j), 2, 1),
         LerchParams(cmath.exp(-0.1j), 0.5 + 3j, -2.5 + 1j),
         LerchParams(cmath.exp(1j), -1.5, 1.01),
         LerchParams(cmath.exp(2j), -2.5 + 1j, 3.995)],
        ids=["order-2", "complex-a", "order--1.5", "a-next-to-4"],
    )
    def test_past_the_cap_refused_with_bounded_work(self, p, monkeypatch):
        # Below the cap's angle the circle sum would need more than
        # MULT_CAP pieces; lerch_phi refuses before summing.
        calls = 0
        cpow = zeta_module.cpow

        def counting_cpow(base, expo):
            nonlocal calls
            calls += 1
            return cpow(base, expo)

        monkeypatch.setattr(zeta_module, "cpow", counting_cpow)
        with pytest.raises(ConvergenceError, match="pieces"):
            lerch_phi(p)
        assert calls < 10

    def test_nonpositive_order_takes_every_real_a(self):
        # Complex a is refused at Re s <= 0; a real a below 0 reaches
        # alpha in (0, 1] through terms with negative k + a.
        mpmath = pytest.importorskip("mpmath")
        with pytest.raises(DomainError, match="needs real a"):
            LerchParams(1j, -1.5, 1 + 1j)
        z = cmath.exp(2j)
        # At s = 0 the value is 1/(1 - z) for every a, also next to the
        # integers, where the inner circle sums would pass their cap.
        for s, a in ((-1.5, -0.3), (-2.5 + 1j, -2.7), (0.0, -4.5), (0.0, 2.01),
                     (0.0, 0.995)):
            got = lerch_phi(LerchParams(z, s, a))
            assert got.strategy == "lerch/lerch-transform"
            with mpmath.workdps(30):
                want = mpmath.lerchphi(mpmath.expj(2), mpmath.mpc(s), a)
                assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (s, a)


class TestPolylog:
    def test_reference_values(self):
        assert rel(polylog(math.exp(-1.0), 2.0).value, oracles.LI2_INV_E) <= 1e-12
        assert rel(polylog(0.5, 1.5).value, oracles.LI_1P5_HALF) <= 1e-12

    def test_li1_closed_form(self):
        # Li_1(z) = -log(1-z)
        for z in (0.5, -0.7, 0.3 + 0.2j):
            want = -cmath.log(1.0 - complex(z))
            assert rel(polylog(z, 1.0).value, want) <= 1e-12

    def test_duplication(self):
        # Li_s(z) + Li_s(-z) = 2^{1-s} Li_s(z^2)
        z, s = 0.6, 2.5
        lhs = polylog(z, s).value + polylog(-z, s).value
        rhs = 2.0 ** (1.0 - s) * polylog(z * z, s).value
        assert rel(lhs, rhs) <= 1e-12


class TestChiRatio:
    def test_functional_equation_closure(self):
        # chi(s) chi(1-s) = 1
        for s in (0.3, 2.5, 0.5 + 3.0j):
            lhs = chi_ratio(s).value * chi_ratio(1.0 - complex(s)).value
            assert rel(lhs, 1.0) <= 1e-12

    def test_matches_zeta_ratio(self):
        # s=3 would sit on a Gamma pole (zeta(-2) = 0), so probe off-pole.
        for s in (2.0, 2.5, -0.5):
            want = riemann_zeta(s).value / riemann_zeta(1.0 - s).value
            assert rel(chi_ratio(s).value, want) <= 1e-10

    def test_pole_at_odd_integers(self):
        with pytest.raises(PoleError):
            chi_ratio(3.0)

    def test_near_gamma_poles_within_estimate(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for s in (1e-9, 1e-6, -2 + 1e-7, -4 - 1e-9):
            got = chi_ratio(s)
            sm = mpmath.mpf(s)
            want = mpmath.pi ** (sm - 0.5) * mpmath.gamma((1 - sm) / 2) / mpmath.gamma(sm / 2)
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, s


class TestDigamma:
    def test_euler_gamma(self):
        EULER_GAMMA = 0.5772156649015329
        assert abs(digamma(1.0) + EULER_GAMMA) <= 1e-13

    def test_recurrence(self):
        for a in (0.7, 2.3, 5.5):
            assert abs(digamma(a + 1.0) - digamma(a) - 1.0 / a) <= 1e-12


class TestSeriesConstants:
    def test_env_is_not_read_by_library(self, monkeypatch):
        # The term budget is the constant MAX_TERMS; no variable overrides it.
        monkeypatch.setenv("ZETAKIT_MAX_TERMS", "1")
        assert rel(riemann_zeta(2.0).value, oracles.ZETA_2) <= 1e-12
