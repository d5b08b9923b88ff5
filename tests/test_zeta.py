"""Zeta family: Hurwitz/Riemann zeta, eta, Lerch, polylog, chi ratio."""

import cmath
import math
import random
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zetakit.zeta as zeta_module
from zetakit.result import EvalResult
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
from grids import grid_refs, ref_gap
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
        # arguments; values, estimates and work are pinned bit for bit, and
        # each value lies within its estimate of 40-digit mpmath.  The
        # powers are Python's complex power (cpow), and the estimates charge
        # its documented rounding.
        mpmath = pytest.importorskip("mpmath")
        got = [(r.value, r.err_estimate, r.work) for r in (
            hurwitz_zeta(-4.5, 0.3), hurwitz_zeta(-7.25 + 2j, 2.6),
            hurwitz_zeta(-60.5, 1.5), hurwitz_zeta(-9.5, 1.25, abs_tol=1e-3),
            zeta_module.lerch_minus_one(-6.75 - 1.5j, 3.125 + 0j, 1e-6),
        )]
        assert got == [
            ((0.0038058819301665784+0j), 4.654935154248504e-16, 555),
            ((-17.849021584536516+24.384206913444416j), 2.46194458827371e-13, 50),
            ((7.488639476304268e+33+0j), 7.895874851856758e+20, 9),
            ((-0.0066647408839414085+0j), 2.614686787022166e-12, 9),
            ((68.63105329540234+142.7660569743352j), 3.342872871539117e-09, 11),
        ]
        with mpmath.workdps(40):
            s, a = mpmath.mpc(-6.75, -1.5), mpmath.mpf(3.125)
            wants = [mpmath.zeta(-4.5, mpmath.mpf(0.3)),
                     mpmath.zeta(mpmath.mpc(-7.25, 2), mpmath.mpf(2.6)),
                     mpmath.zeta(-60.5, 1.5), mpmath.zeta(-9.5, 1.25),
                     2 ** -s * (mpmath.zeta(s, a / 2) - mpmath.zeta(s, (a + 1) / 2))]
            for (value, err, _), want in zip(got, wants):
                assert abs(mpmath.mpc(value) - want) <= err, value

    def test_reflection_prefactor_is_one_exponential(self):
        # Gamma(1 - s) alone overflows from Re s ~ -170, the prefactor only
        # near -218 (alternating, fd at x = 0) and -259 (zeta); beyond that
        # the series raises OverflowError, never a NaN.
        mpmath = pytest.importorskip("mpmath")
        got = zeta_module.lerch_minus_one(-170.5 + 0j, 1.5 + 0j)
        with mpmath.workdps(30):
            s = mpmath.mpf(-170.5)
            want = 2 ** -s * (mpmath.zeta(s, 0.75) - mpmath.zeta(s, 1.25))
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate
            s = mpmath.mpf(-255.5)
            want = mpmath.zeta(s, 1.5)
            got = hurwitz_zeta(-255.5, 1.5)
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate
        with pytest.raises(OverflowError):
            zeta_module.lerch_minus_one(-218.5 + 0j, 1.5 + 0j)
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

    def test_hurwitz_diff_next_to_s_one(self):
        # zeta(s, a) and zeta(s, b) each carry the pole 1/(s - 1); their
        # plain difference lost about 1e-16/|s - 1| relative (7.5e-7 at
        # s = 1 + 1e-10).  The pole-free values keep every digit, and s = 1
        # gives psi(b) - psi(a).
        mpmath = pytest.importorskip("mpmath")
        a, b = 0.3, 0.8
        with mpmath.workdps(40):
            for s in (1 + 1e-10, 1 + 1e-8, complex(1 - 3e-7, 2e-9), 1.0):
                got = hurwitz_diff(complex(s), a, b)
                if s == 1.0:
                    want = mpmath.digamma(b) - mpmath.digamma(a)
                else:
                    sm = mpmath.mpc(s)
                    want = mpmath.zeta(sm, a) - mpmath.zeta(sm, b)
                gap = abs(mpmath.mpc(got.value) - want)
                assert gap <= got.err_estimate and gap <= 1e-14 * abs(want), s

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

    def test_reflection_ladder_rungs_against_mpmath(self):
        # A ladder steps one reflection series through the orders s, s - 1,
        # ...: seeded real a, both steps, complex s and the abs_tol values
        # the Taylor route asks for.  Every rung is honest against 30-digit
        # mpmath, and its first rung is fourier_reflection itself.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(20261019)
        with mpmath.workdps(30):
            for i in range(16):
                step = 1 + i % 2
                s = complex(rng.uniform(-10.0, -4.0), rng.choice((0.0, rng.uniform(-5.0, 5.0))))
                a = rng.uniform(0.05, 5.0)
                abs_tol = (0.0, 1e-12, 1e-9, 1e-6)[i // 2 % 4]
                ladder = zeta_module.ReflectionLadder(s, a, step)
                for k in range(6):
                    value, err, work = ladder.rung(abs_tol)
                    if k == 0:
                        assert (value, err, work) == zeta_module.fourier_reflection(
                            s, a, step, abs_tol)
                    sk, am = mpmath.mpc(s) - k, mpmath.mpf(a)
                    want = mpmath.zeta(sk, am) if step == 1 else 2 ** -sk * (
                        mpmath.zeta(sk, am / 2) - mpmath.zeta(sk, (am + 1) / 2))
                    assert abs(mpmath.mpc(value) - want) <= err, (step, s, a, abs_tol, k)

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


    def test_pole_free_values_against_mpmath(self):
        # pole_free gives zeta(s, a) - 1/(s - 1), finite at s = 1 (-psi(a))
        # and without the pole's cancellation next to it: s within 1e-15 to
        # 1e-3 of 1, and Re s in [1, 9] with |Im s| <= 10, real and complex
        # a with Re a > 0.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(20261122)
        with mpmath.workdps(40):
            for i in range(80):
                if i % 2:
                    s = 1.0 + complex(rng.choice((-1, 1)) * 10 ** rng.uniform(-15.0, -3.0),
                                      rng.choice((0.0, 10 ** rng.uniform(-15.0, -3.0))))
                else:
                    s = complex(rng.uniform(1.0, 9.0), rng.choice((0.0, rng.uniform(-10.0, 10.0))))
                a = complex(rng.uniform(1e-3, 3.0), rng.choice((0.0, rng.uniform(-0.05, 0.05))))
                got = hurwitz_zeta(s, a, pole_free=True)
                sm, am = mpmath.mpc(s), mpmath.mpc(a)
                want = mpmath.zeta(sm, am) - 1 / (sm - 1)
                gap = abs(mpmath.mpc(got.value) - want)
                assert gap <= got.err_estimate and gap <= 1e-13 * abs(want), (s, a)
            got = hurwitz_zeta(1.0, 0.3, pole_free=True)
            assert abs(mpmath.mpc(got.value) + mpmath.digamma(0.3)) <= got.err_estimate


    def test_pole_free_at_the_transformation_orders(self):
        # Lerch's transformation at alpha = 1 takes the pole-free values at
        # the inner order t = 1 - s, Re t >= 1, with c in (0.05, 1] or
        # c = 1 +- i eps (be at real x): 200 frozen 40-digit references
        # (grids.pole_free_grid), honest and within 4e-15 relative.
        for (t, c), ref in grid_refs("pole_free"):
            got = hurwitz_zeta(t, c, pole_free=True)
            gap, size = ref_gap(got.value, ref)
            assert gap <= Decimal(got.err_estimate), (t, c)
            assert gap <= Decimal(4e-15) * size, (t, c)


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

    def test_next_to_one_against_mpmath(self):
        # 1 - 2^{1-s} comes from expm1 of the real part of (1-s) log 2, so
        # it keeps its relative accuracy next to s = 1, where exp(u) - 1
        # lost about 1.1e-16/|u| (3.3e-13 at s = 1.00015).
        mpmath = pytest.importorskip("mpmath")
        for s in (1.00015, 1.0003, 1.0002 + 1e-4j, 1.0 + 3e-5j, 0.9998):
            got = dirichlet_eta(s)
            with mpmath.workdps(30):
                want = mpmath.altzeta(mpmath.mpc(s))
            gap = abs(mpmath.mpc(got.value) - want)
            assert gap <= got.err_estimate, s
            assert gap <= 1e-15 * abs(want), s


class TestLerchPhi:
    def test_single_term_estimate_charges_the_power(self):
        # At z = 0 the value is the one power a^{-s}, whose rounding is
        # cpow's 2.2e-16 (1 + |s| (1 + |log a|)) relative: at (0, 30, 2.5)
        # it is off by 5.3 times a charge of 1e-16 |value|.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(20261019)
        points = [(30.0, 2.5)]
        for _ in range(400):
            u = complex(rng.uniform(-0.5, 2.0), rng.uniform(-1.4, 1.4))
            points.append((complex(rng.uniform(-60.0, 60.0), rng.uniform(-20.0, 20.0)),
                           cmath.exp(u)))
        with mpmath.workdps(40):
            for s, a in points:
                got = lerch_phi(LerchParams(0.0, s, a))
                assert got.strategy == "lerch/single-term"
                want = mpmath.power(mpmath.mpc(a), -mpmath.mpc(s))
                assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (s, a)

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

    def test_cvz_inside_the_disk_against_mpmath(self):
        # |z| = e^{-x}, x in [1e-3, 0.7], |arg z| >= 0.2, Re s in (0, 4],
        # |Im s| <= 10, real and complex a: lerch_phi takes the CVZ circle
        # sum exactly where its m n terms are fewer than the direct sum's
        # predicted ceil(ln REL_TOL / ln |z|), and returns within its
        # estimate and 1e-10 relative either way.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(20261019)
        routes = set()
        for _ in range(36):
            x = 10 ** rng.uniform(-3.0, math.log10(0.7))
            z = cmath.exp(complex(-x, rng.choice((-1, 1)) * rng.uniform(0.2, math.pi)))
            s = complex(rng.uniform(0.05, 4.0), rng.choice((0.0, rng.uniform(-10.0, 10.0))))
            a = rng.choice((complex(rng.uniform(0.1, 4.0)),
                            complex(rng.uniform(0.1, 4.0), rng.uniform(-2.0, 2.0))))
            got = lerch_phi(LerchParams(z, s, a))
            shorter = (zeta_module._circle_length(z, s, a)
                       < zeta_module.direct_length(math.log(abs(z))))
            assert got.strategy == ("lerch/cvz-circle" if shorter
                                    else "lerch/direct-sum"), (z, s, a)
            routes.add(got.strategy)
            with mpmath.workdps(20):
                want = mpmath.lerchphi(mpmath.mpc(z), mpmath.mpc(s), mpmath.mpc(a))
            gap = abs(mpmath.mpc(got.value) - want)
            assert gap <= got.err_estimate, (z, s, a)
            assert gap <= 1e-10 * abs(want), (z, s, a)
        assert routes == {"lerch/cvz-circle", "lerch/direct-sum"}

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
        # |z| = 0.9: the direct sum, predicted at 285 terms, serves.
        with mock.patch.object(zeta_module, "MAX_TERMS", 3):
            with pytest.raises(ConvergenceError):
                lerch_phi(LerchParams(0.9, 1.001, 1.0))

    @pytest.mark.parametrize(
        "call",
        [
            # lerch_phi takes the Taylor series in log z at these three
            # (TestUnitCircle.test_next_to_one_takes_the_mu_series).
            lambda: zeta_module._direct_rung(math.exp(-1e-6), 2, 1),
            lambda: zeta_module._direct_rung(math.exp(-1e-6), 2, 1 + 1j),
            lambda: zeta_module._direct_rung(math.exp(-1e-6), 2, -0.5),
            # r^N = 1e-5: at Re s < 0 the terms grow until k = N.  The
            # public calls at these three take Lerch's transformation
            # (test_next_to_one_at_nonpositive_order_takes_the_transformation).
            lambda: zeta_module._direct_rung(math.exp(-2.3e-5), -40, 1),
            lambda: zeta_module._direct_rung(-math.exp(-1e-7), -1.5, 1),
            lambda: zeta_module._direct_rung(math.exp(-1e-6), -2, 1),
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

    @pytest.mark.parametrize("call, tag, ref", [
        (lambda: lerch_phi(LerchParams(math.exp(-2.3e-5), -40, 1)), "lerch/lerch-transform",
         lambda mp: mp.lerchphi(mp.mpf(math.exp(-2.3e-5)), -40, 1)),
        (lambda: ext_fd(ExtParams(0, -1.5, 1e-7), Strategy.XSERIES), "fd/xseries-lerch-transform",
         lambda mp: mp.exp(-mp.mpf(1e-7)) * mp.lerchphi(-mp.exp(-mp.mpf(1e-7)), -1.5, 1)),
        (lambda: ext_be(ExtParams(0, -2, 1e-6), Strategy.XSERIES), "be/xseries-lerch-transform",
         lambda mp: mp.exp(-mp.mpf(1e-6)) * mp.lerchphi(mp.exp(-mp.mpf(1e-6)), -2, 1)),
    ], ids=["lerch", "fd", "be"])
    def test_next_to_one_at_nonpositive_order_takes_the_transformation(self, call, tag, ref):
        # Inside the circle at Re s <= 0, where the direct sum is predicted
        # past SERIES_CROSSOVER terms and refuses, Lerch's transformation at
        # the complex angle of z returns, against Phi at the double z for
        # lerch_phi and at the exact e^{-x} for the extended pair.
        mpmath = pytest.importorskip("mpmath")
        got = call()
        with mpmath.workdps(40):
            want = ref(mpmath)
            gap = abs(mpmath.mpc(got.value) - want)
        assert got.strategy == tag
        assert gap <= got.err_estimate and gap <= 1e-13 * abs(want)

    @pytest.mark.parametrize(
        "call, want",
        [
            # The direct sum itself: lerch_phi takes the Taylor series in
            # log z at these two.
            (lambda: zeta_module._direct_rung(math.exp(-1e-6), 3, 1), None),
            # |(n+a)^{-s}| carries e^{800 arg(n+a)}, past the double range
            # at small n: the refusal must not overflow on the way.
            (lambda: zeta_module._direct_rung(math.exp(-1e-6), 2 - 800j, 0.5 + 2j),
             None),
            # Next to |z| = 1 off the real axis lerch_phi takes the CVZ
            # circle sum, m n = 4 x 32 powers, and sums no direct term.
            (lambda: ext_fd(ExtParams(2.1107, 1.6595 + 2.3909j,
                                      3.33e-5 - 2.5272j)), "fd/xseries-cvz-circle"),
        ],
        ids=["lerch-order-3", "lerch-order-2-800i", "auto-fd"],
    )
    def test_hopeless_direct_sum_refused_early(self, call, want, monkeypatch):
        # The check first proves the budget short at n = 64, 256 and 512
        # here: the direct sum makes at most 1,024 complex powers, not
        # 500,000.
        calls = 0
        cpow = zeta_module.cpow

        def counting_cpow(base, expo):
            nonlocal calls
            calls += 1
            return cpow(base, expo)

        monkeypatch.setattr(zeta_module, "cpow", counting_cpow)
        if want is None:
            with pytest.raises(ConvergenceError, match="not converged"):
                call()
        else:
            assert call().strategy == want
        assert 0 < calls <= 1024

    def test_long_direct_sum_next_to_the_circle_still_returns(self):
        # 33,052 terms at |z| = e^{-1e-3}.  With the budget cut to that need
        # the checks run (r^{N/2} > 2e-13) and none fires; one term less
        # and the sum raises.  lerch_phi itself takes the CVZ circle sum
        # there, 1,509 terms, and agrees within the two estimates.
        z, s, a = math.exp(-1e-3) * cmath.exp(1j), 2 - 400j, 0.5 + 2j
        value, err, work = zeta_module._direct_rung(z, s, a)[:3]
        assert work == 33_053
        with mock.patch.object(zeta_module, "MAX_TERMS", 33_052):
            assert zeta_module._direct_rung(z, s, a)[:3] == (value, err, work)
        with mock.patch.object(zeta_module, "MAX_TERMS", 33_051):
            with pytest.raises(ConvergenceError):
                zeta_module._direct_rung(z, s, a)
        cvz = lerch_phi(LerchParams(z, s, a))
        assert (cvz.strategy, cvz.work) == ("lerch/cvz-circle", 1_509)
        assert abs(cvz.value - value) <= cvz.err_estimate + err

    @pytest.mark.parametrize("f, p", [
        (ext_be, ExtParams(2.745048424289283, 3.7434708545701 + 17.006277493720262j,
                           2.1763705180484632e-07 + 2.118123008847725j)),
        (ext_be, ExtParams(0.7660487626861648, 1.4222797248913515 + 6.396378493171518j,
                           4.28095013558279e-05 - 1.9947092263609614j)),
        (ext_fd, ExtParams(1.9508581292395943, 2.9832007478366154 + 5.475621530866327j,
                           1.1200688774064958e-05 - 1.8100262592047j)),
    ], ids=["be-17i", "be-6i", "fd-5i"])
    def test_auto_next_to_the_circle_sums_no_direct_term(self, f, p, monkeypatch):
        # AUTO points that summed 500,000 direct terms (about 0.8 s) before
        # the direct sum refused and AUTO reduced: the CVZ circle sum is
        # far shorter there, so lerch_phi takes it at once.
        mpmath = pytest.importorskip("mpmath")
        calls = 0
        cpow = zeta_module.cpow

        def counting_cpow(base, expo):
            nonlocal calls
            calls += 1
            return cpow(base, expo)

        monkeypatch.setattr(zeta_module, "cpow", counting_cpow)
        got = f(p)
        kind = "fd" if f is ext_fd else "be"
        assert got.strategy == f"{kind}/xseries-cvz-circle"
        assert calls <= 100
        with mpmath.workdps(30):
            xm, am = mpmath.mpc(p.x), mpmath.mpf(p.nu) + 1
            z = (-1 if kind == "fd" else 1) * mpmath.exp(-xm)
            want = mpmath.exp(-am * xm) * mpmath.lerchphi(z, mpmath.mpc(p.s), am)
        gap = abs(mpmath.mpc(got.value) - want)
        assert gap <= got.err_estimate and gap <= 1e-14 * abs(want)

    def test_auto_fd_at_hopeless_budget_takes_taylor_route(self):
        # The point the defining series refuses returns through the Taylor
        # series in x, in a few thousand units of work, and through AUTO,
        # which takes Lerch's transformation at the angle pi + 1e-7 i.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        xm = mpmath.mpf("1e-7")
        want = mpmath.exp(-xm) * mpmath.lerchphi(-mpmath.exp(-xm), -1.5, 1)
        for strategy, route in ((Strategy.POWER_SERIES_X, "fd/power-series-x"),
                                (Strategy.AUTO, "fd/xseries-lerch-transform")):
            got = ext_fd(ExtParams(0, -1.5, 1e-7), strategy)
            assert got.strategy == route
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

    @pytest.mark.parametrize("z, s, a, route", [
        (cmath.exp(2j), -2.5, 0.3, "lerch-transform"),
        (0.999 * cmath.exp(0.5j), -2.5, 2.3, "lerch-transform"),
        (math.exp(-1e-6), 2.0, -0.5, "mu-series"),
        (0.9 * cmath.exp(2j), 1.5, -1.5, "cvz-circle"),
        (cmath.exp(2j), 1.5, 0.5, "cvz-circle"),
        (0.5, -1.5, 1.0, "direct-sum"),
    ], ids=["circle", "inside-reduced", "mu-series", "circle-sum-head",
            "circle-sum", "direct"])
    def test_routes_that_read_log_z_get_cmath_log(self, z, s, a, route):
        # lerch_phi takes log z only on the routes that read it (Lerch's
        # transformation, the Taylor series in log z, the circle sum's
        # head terms), and each gets cmath.log(z) bit for bit.
        got = lerch_phi(LerchParams(z, s, a))
        assert got.strategy == "lerch/" + route
        assert got == zeta_module.lerch_by_route(
            route, complex(z), complex(s), complex(a), cmath.log(z))

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
        elif full.strategy == "lerch/mu-series":
            return   # its reflection coefficients cap their terms at MAX_TERMS
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
            if not zeta_module.lerch_transform_serves(complex(a), 0.0):
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
        # lam within 1e-6 to 1e-2 of 0 or 1, where Phi moves fast with |z|,
        # and |z| on the circle or up to 1e-14 off it on either side.  The
        # transformation reads the double z at its complex angle -i log z,
        # so lerch_phi is within its estimate and 1e-13 of Phi at the z
        # passed.  Lerch's transformation at the real angle stays within
        # its estimate of the value at e^{i arg z}.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(20261021)
        returned = 0
        sides = set()
        with mpmath.workdps(40):
            for i in range(30):
                d = 10 ** rng.uniform(-6.0, -2.0)
                lam = rng.choice((d, 1.0 - d))
                off = rng.choice((-1, 1)) * 10 ** rng.uniform(-16.0, -14.05)
                z = (1.0 + rng.choice((0.0, off))) * cmath.exp(2j * math.pi * lam)
                sigma = rng.uniform(-6.0, 0.0)
                s = rng.choice((complex(sigma), complex(round(sigma) or -1),
                                complex(sigma, rng.uniform(-4.0, 4.0))))
                a = rng.choice((rng.uniform(1e-3, 4.0), 1.0, rng.randint(0, 3) + 0.5))
                if not zeta_module.lerch_transform_serves(complex(a), 0.0):
                    continue
                got = lerch_phi(LerchParams(z, s, a))
                assert got.strategy == "lerch/lerch-transform"
                want = mpmath.lerchphi(mpmath.mpc(z), mpmath.mpc(s), a)
                gap = abs(mpmath.mpc(got.value) - want)
                assert gap <= got.err_estimate and gap <= 1e-13 * abs(want), (z, s, a)
                if i < 8:
                    theta = cmath.phase(z)
                    on = zeta_module.lerch_transform(theta, s, a)
                    want = mpmath.lerchphi(mpmath.expj(theta), mpmath.mpc(s), a)
                    assert abs(mpmath.mpc(on.value) - want) <= on.err_estimate, (lam, s, a)
                sides.add(abs(z) > 1.0)
                returned += 1
        assert returned > 20 and sides == {False, True}

    def test_transformation_at_integer_a_next_to_order_zero(self):
        # At integer a the inner Hurwitz values carry poles +-1/s that
        # cancel; read through the rounded order 1 - s they lost about
        # 1e-16/|s| relative (5.2e-10 at the first point).  The pole-free
        # values and the cancelled part -2 sin(pi s/2)/s keep full accuracy
        # for s within 1e-15 to 1e-3 of 0, real and complex.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(20261123)
        cases = [(0.5151788725109321, complex(-2.2510190788135833e-07), 4.0)]
        for _ in range(30):
            s = complex(-10 ** rng.uniform(-15.0, -3.0),
                        rng.choice((0.0, rng.choice((-1, 1)) * 10 ** rng.uniform(-15.0, -3.0))))
            cases.append((rng.uniform(0.02, 0.98), s, float(rng.randint(1, 5))))
        with mpmath.workdps(40):
            for lam, s, a in cases:
                z = cmath.exp(2j * math.pi * lam)
                got = lerch_phi(LerchParams(z, s, a))
                assert got.strategy == "lerch/lerch-transform"
                want = mpmath.lerchphi(mpmath.mpc(z), mpmath.mpc(s), a)
                gap = abs(mpmath.mpc(got.value) - want)
                assert gap <= got.err_estimate and gap <= 1e-14 * abs(want), (lam, s, a)

    def test_transformation_at_a_complex_angle_against_mpmath(self):
        # theta = arg z + i Re x, z = -+e^{-x} inside the circle: lam =
        # theta/(2 pi) is complex, with Re lam = 0 for be at real x, where
        # the inner sum's term k = 0 goes ahead.  Seeded x next to the
        # circle and next to z = 1, a reduced through up to 6 terms.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(20261124)
        with mpmath.workdps(40):
            for _ in range(40):
                sign = rng.choice((-1, 1))
                x = complex(10 ** rng.uniform(-7.0, -1.0),
                            rng.choice((0.0, rng.uniform(-8.0, 8.0),
                                        math.pi + 10 ** rng.uniform(-7.0, -2.0))))
                z = sign * cmath.exp(-x)
                theta = complex(cmath.phase(z), x.real)
                s = complex(rng.uniform(-8.0, 0.0), rng.choice((0.0, rng.uniform(-10.0, 10.0))))
                a = rng.choice((rng.uniform(1e-3, 7.0), float(rng.randint(1, 7)),
                                rng.randint(0, 6) + 0.5))
                if not zeta_module.lerch_transform_serves(complex(a), -x.real):
                    continue
                got = zeta_module.lerch_transform(theta, s, a)
                want = mpmath.lerchphi(sign * mpmath.exp(-mpmath.mpc(x)), mpmath.mpc(s), a)
                gap = abs(mpmath.mpc(got.value) - want)
                assert gap <= got.err_estimate and gap <= 1e-12 * abs(want), (x, s, a)

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
            value, err, work = zeta_module.circle_lerch(
                zeta_module._circle_weights(z, s), s, a)
            pieces.add(zeta_module.circle_pieces(theta))
            want = mpmath.lerchphi(mpmath.mpc(z), mpmath.mpc(s), mpmath.mpc(a))
            assert abs(mpmath.mpc(value) - want) <= err, (z, s, a)
        assert 1 in pieces and max(pieces) > 4

    def test_next_to_one_grid_against_mpmath(self):
        # Seeded grid (grids.lerch_near_one_grid) of lerch_phi and polylog
        # within |arg z| <= 0.13 of the positive real axis, on |z| = 1 and
        # inside it past the direct sum's 300-term crossover, at Re s in
        # (0, 4]: every point takes the Taylor series in log z and returns
        # within its estimate and 1e-12 of the frozen mpmath reference.
        for (fn, z, s, a), ref in grid_refs("lerch_near_one"):
            got = polylog(z, s) if fn == "polylog" else lerch_phi(LerchParams(z, s, a))
            assert got.strategy == f"{fn}/mu-series", (fn, z, s, a)
            gap, ref_abs = ref_gap(got.value, ref)
            assert gap <= Decimal(got.err_estimate), (fn, z, s, a)
            assert gap <= Decimal(1e-12) * ref_abs, (fn, z, s, a)

    def test_inside_at_nonpositive_order_grid_against_mpmath(self):
        # Seeded grid (grids.lerch_inside_grid) of lerch_phi and polylog
        # inside the circle past the direct sum's 300-term crossover, at
        # Re s in [-8, 0], where Lerch's transformation serves: every point
        # takes it at the complex angle of z and returns within its
        # estimate and 1e-12 of the frozen mpmath reference.  Next to the
        # zero of Li_{-4} at z = -1 the value is a difference of terms of
        # order 1, so there the bound is 1e-15 absolute: two points, 1e-7
        # inside, are 1.9e-9 and 3.7e-9 relative off (4e-17 absolute).
        for (fn, z, s, a), ref in grid_refs("lerch_inside"):
            got = polylog(z, s) if fn == "polylog" else lerch_phi(LerchParams(z, s, a))
            assert got.strategy == f"{fn}/lerch-transform", (fn, z, s, a)
            gap, ref_abs = ref_gap(got.value, ref)
            assert gap <= Decimal(got.err_estimate), (fn, z, s, a)
            assert gap <= Decimal(1e-12) * ref_abs or gap <= Decimal(1e-15), (fn, z, s, a)

    @pytest.mark.parametrize(
        "p",
        [LerchParams(cmath.exp(0.1j), 2, 1),
         LerchParams(cmath.exp(-0.1j), 0.5 + 3j, -2.5 + 1j),
         LerchParams(math.exp(-1e-6), 2, 1),
         LerchParams(math.exp(-1e-6), 2, 1 + 1j),
         LerchParams(math.exp(-1e-6), 2, -0.5),
         LerchParams(math.exp(-1e-6), 3, 1),
         LerchParams(0.999999, 2, 1)],
        ids=["order-2", "complex-a", "lerch", "lerch-complex-a", "lerch-negative-a",
             "lerch-order-3", "cli"],
    )
    def test_next_to_one_takes_the_mu_series(self, p):
        # Within 2 pi/(3 MULT_CAP) of the positive real axis at Re s > 0 no
        # CVZ sum reaches z, and lerch_phi refused: past the cap on the
        # circle, with its direct sum's budget short inside it.  The
        # Taylor series in log z returns each point within its estimate
        # and 1e-12 of mpmath, from a few dozen coefficients.
        mpmath = pytest.importorskip("mpmath")
        got = lerch_phi(p)
        assert got.strategy == "lerch/mu-series" and got.work < 1_000
        with mpmath.workdps(40):
            want = mpmath.lerchphi(mpmath.mpc(p.z), mpmath.mpc(p.s), mpmath.mpc(p.a))
            gap = abs(mpmath.mpc(got.value) - want)
        assert gap <= got.err_estimate and gap <= 1e-12 * abs(want)

    @pytest.mark.parametrize(
        "p",
        [LerchParams(0.99, complex(1.9999999999999991, 2.2250738585e-313), 1.0),
         LerchParams(0.9375, complex(1.0, 2.2250738585e-313), 1.0),
         LerchParams(0.95 * cmath.exp(0.005j), complex(3.0, -4e-13), 0.7),
         LerchParams(0.93, complex(1.0 + 3e-13, 5e-13), 2.45),
         LerchParams(cmath.exp(0.01j), complex(2.0, 1e-13), 1.5)],
        ids=["order-2-subnormal", "order-1-subnormal", "order-3", "order-1",
             "order-2-circle"],
    )
    def test_next_to_one_at_an_order_next_to_an_integer(self, p):
        # Within 1e-12 of a positive integer m, real or not, the Taylor
        # series in log z takes the joint limit of the singular part and
        # the coefficient zeta(s - m + 1, a); with an imaginary part it
        # once took both apart and raised PoleError (hurwitz_zeta's pole
        # test) or OverflowError (Gamma(1 - s)).  mpmath reads a
        # subnormal imaginary part of the order wrongly at 40 digits, so
        # there the reference is taken at the real order, which moves Phi
        # by far less than an ulp.
        mpmath = pytest.importorskip("mpmath")
        got = lerch_phi(p)
        assert got.strategy == "lerch/mu-series"
        s = complex(p.s.real) if abs(p.s.imag) < 1e-300 else p.s
        with mpmath.workdps(40):
            want = mpmath.lerchphi(mpmath.mpc(p.z), mpmath.mpc(s), mpmath.mpc(p.a))
            gap = abs(mpmath.mpc(got.value) - want)
        assert gap <= got.err_estimate and gap <= 1e-11 * abs(want)

    @pytest.mark.parametrize(
        "p",
        [LerchParams(cmath.exp(1j), -1.5, 1.01),
         LerchParams(cmath.exp(2j), -2.5 + 1j, 3.995)],
        ids=["order--1.5", "a-next-to-4"],
    )
    def test_past_the_cap_refused_with_bounded_work(self, p, monkeypatch):
        # At Re s <= 0 with a next to an integer, the inner circle sums of
        # Lerch's transformation would need more than MULT_CAP pieces;
        # lerch_phi refuses before summing.
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


class TestTransformationPair:
    """Lerch's transformation evaluates its two inner sums as one pair:
    one circle plan for both sides, and at real s with conjugate kernel
    parameters the second kernel is the conjugate of the first."""

    KERNELS = ("hurwitz_zeta", "alternating_lerch", "circle_lerch")

    @staticmethod
    def _points():
        # (kind, theta, s, a): alpha in {1, 1/2, 1/8, 5/8, 0.3}, a = alpha
        # + m for m in {0, 1, 2}; theta mirrored (pi + i eps or i eps), on
        # the circle, or one ulp to 1e-16 off 0 or pi; s real in [-8, 0)
        # or complex.
        rng = random.Random(20261127)
        near_pi = math.nextafter(math.pi, 0.0)
        for i in range(150):
            a = rng.choice((1.0, 0.5, 0.125, 0.625, 0.3)) + rng.randint(0, 2)
            eps = 10 ** rng.uniform(-8.0, -1.0)
            kind = ("mirrored", "circle", "off")[i % 3]
            if kind == "mirrored":
                theta = complex(rng.choice((math.pi, -math.pi, 0.0)), eps)
            elif kind == "circle":
                theta = complex(rng.choice((-1, 1)) * rng.uniform(0.1, 3.0))
            else:
                theta = complex(rng.choice((1e-16, -1e-16, near_pi, -near_pi)), eps)
            sigma = -rng.uniform(1e-3, 8.0)
            s = rng.choice((complex(sigma), complex(round(sigma) or -1),
                            complex(sigma, rng.uniform(-4.0, 4.0))))
            yield kind, theta, s, a

    @staticmethod
    def _bits(r):
        return (r.value.real.hex(), r.value.imag.hex(), r.err_estimate.hex(), r.strategy)

    def _run(self, monkeypatch, theta, s, a):
        """lerch_transform's result and the work of each kernel call."""
        works = []
        for name in self.KERNELS:
            def counted(*args, _inner=getattr(zeta_module, name), **kwargs):
                out = _inner(*args, **kwargs)
                works.append(out.work if isinstance(out, EvalResult) else out[2])
                return out
            monkeypatch.setattr(zeta_module, name, counted)
        got = zeta_module.lerch_transform(theta, s, a)
        monkeypatch.undo()
        return got, works

    def test_pair_equals_the_two_sums_taken_apart(self, monkeypatch):
        mirrored = 0
        for kind, theta, s, a in self._points():
            got, works = self._run(monkeypatch, theta, s, a)
            monkeypatch.setattr(zeta_module, "_mirrored", lambda *args: False)
            apart, apart_works = self._run(monkeypatch, theta, s, a)
            point = (kind, theta, s, a)
            assert self._bits(got) == self._bits(apart), point
            assert len(apart_works) == 2, point
            if len(works) == 1:
                mirrored += 1
                assert works == apart_works[:1], point
                assert got.work == apart.work - apart_works[1], point
            else:
                assert works == apart_works and got.work == apart.work, point
            if s.imag:
                assert len(works) == 2, point
            elif kind == "mirrored":
                assert len(works) == 1, point
            elif kind == "circle":
                assert len(works) == 2, point
        assert mirrored > 40

    def test_one_circle_plan_for_both_sides(self, monkeypatch):
        # At alpha off {1/2, 1} the weights at n and 3n/4 are built once,
        # at e^{-2 pi i alpha}, and conjugated for the other side.
        calls = []
        weights = zeta_module.chebyshev_weights
        monkeypatch.setattr(zeta_module, "chebyshev_weights",
                            lambda *args: calls.append(1) or weights(*args))
        for kind, theta, s, a in self._points():
            if (a - math.ceil(a) + 1) in (0.5, 1.0):
                continue
            calls.clear()
            zeta_module.lerch_transform(theta, s, a)
            assert len(calls) == 2, (kind, theta, s, a)

    def test_conjugate_plan_is_the_plan_at_the_conjugate(self):
        rng = random.Random(20261128)
        for _ in range(20):
            z = cmath.exp(1j * rng.choice((-1, 1)) * rng.uniform(0.2, math.pi))
            t = complex(rng.uniform(1.0, 9.0), rng.choice((0.0, rng.uniform(-4.0, 4.0))))
            c = complex(rng.uniform(0.05, 1.5), rng.choice((0.0, rng.uniform(-1.0, 1.0))))
            plan = zeta_module._circle_weights(z, t)
            mirror = zeta_module._conjugate_plan(plan)
            assert mirror == zeta_module._circle_weights(z.conjugate(), t), (z, t)
            assert (zeta_module.circle_lerch(mirror, t, c)
                    == zeta_module.circle_lerch(zeta_module._circle_weights(z.conjugate(), t), t, c))


class TestOrderLadders:
    """Lerch sums at the orders s, s + 1, s + 2, ...: the direct and the
    alternating sums step their terms from order to order by one division
    by n + a, inside one regime of the route rule, and every order agrees
    with its own sum."""

    # (z, s, a): fd at x = 1 with an order 1e-3 past a real zero of Phi
    # (s + 2, where |Phi| is too small for the held prefix's stopping test),
    # Re(s + k) crossing 0; fd at x = 0.05, the direct sum below Re 0 and
    # the alternating sum above; be at x = 0.3; complex x, the direct sum
    # and then the circle sum order by order; an integer order that meets
    # 0 and 1; and z within 1e-12 of 1, Hurwitz zeta order by order.
    ZERO = -2.71882486427315   # Phi(-e^{-1}, s, 1) = 0, from mpmath
    # (z, s, a, the order whose held prefix fails)
    LERCH = [(-math.exp(-1.0), ZERO - 2.0 + 1e-3, 1.0, 2),
             (-math.exp(-0.05), -3.5 + 2j, 2.0, None),
             (math.exp(-0.3), -4.5 + 1j, 3.0, None),
             (-cmath.exp(-0.3 - 2j), -2.5 - 3j, 2.0, None),
             (math.exp(-2.5), -1.0, 1.0, None),
             (math.exp(-1e-13), -2.5, 2.0, None),
             (cmath.exp(complex(-1e-3, 0.05)), -1.5 + 1j, 0.5, None)]

    @staticmethod
    def _counted(monkeypatch):
        calls = [0]
        cpow = zeta_module.cpow

        def counting_cpow(base, expo):
            calls[0] += 1
            return cpow(base, expo)

        monkeypatch.setattr(zeta_module, "cpow", counting_cpow)
        return calls

    def test_lerch_rungs_agree_with_each_order(self, monkeypatch):
        # Each of orders s .. s + 40 takes lerch_phi's route and agrees with
        # lerch_phi there within the two estimates.  A held rung makes no
        # power; a rung whose held prefix fails its stopping test sums its
        # order afresh (the order past the zero), as does the first rung of
        # each regime.
        routes = set()
        for z, s, a, afresh in self.LERCH:
            orders = zeta_module.lerch_orders(z, s, a, cmath.log(z))
            for k in range(41):
                calls = self._counted(monkeypatch)
                rung = next(orders)
                monkeypatch.undo()
                want = lerch_phi(LerchParams(z, s + k, a))
                routes.add(rung.strategy)
                assert rung.strategy == want.strategy, (z, s, a, k)
                assert abs(rung.value - want.value) <= rung.err_estimate + want.err_estimate
                first = k == 0 or (s + k).real > 0.0 >= (s + k - 1).real
                laddered = rung.strategy in ("lerch/direct-sum", "lerch/cvz-alternating")
                if k == afresh:
                    assert calls[0] > 0 and rung.work > want.work
                elif laddered and not first:
                    assert calls[0] == 0 and rung.work == want.work, (z, s, a, k)
        assert routes == {"lerch/direct-sum", "lerch/cvz-alternating", "lerch/cvz-circle",
                          "lerch/hurwitz-delegate", "lerch/mu-series", "lerch/lerch-transform"}

    def test_fd_zero_rungs_agree_with_each_order(self):
        # fd at x = 0: reflection at Re <= -4, the Hurwitz halves on
        # (-4, 0] and at order 1, the alternating sum above 0, whose rungs
        # step.  s = -6.5 crosses -4 and 0; s = -2 meets 0 and 1.
        for m, s in ((1, -6.5), (2, -2.0), (1, -0.75 + 3j), (3, 0.5)):
            orders = zeta_module.minus_one_orders(complex(s), complex(m + 1))
            tags = []
            for k in range(41):
                rung = next(orders)
                want = zeta_module.lerch_minus_one(s + k, complex(m + 1))
                tags.append(rung.strategy)
                assert rung.strategy == want.strategy, (m, s, k)
                assert abs(rung.value - want.value) <= rung.err_estimate + want.err_estimate
            if s == -6.5:
                assert tags[:3] == ["fd/zero-reflection"] * 3
                assert tags[3:7] == ["fd/zero-hurwitz-diff"] * 4 and tags[7] == "fd/zero-alternating-cvz"
            if s == -2.0:
                assert tags[2:4] == ["fd/zero-hurwitz-diff"] * 2 and tags[4] == "fd/zero-alternating-cvz"

    @pytest.mark.parametrize("make", [
        lambda: zeta_module.direct_ladder(-math.exp(-0.3), 0.5, 1.0),
        lambda: zeta_module.direct_ladder(cmath.exp(-1.0 + 2j), 0.25 + 1j, 2.0),
        lambda: zeta_module.alternating_ladder(0.5, 1.0),
        lambda: zeta_module.alternating_ladder(1.5 - 2j, 3.0, -0.05),
    ])
    def test_estimate_charges_every_division(self, monkeypatch, make):
        # Rung k's terms went through k divisions since their powers were
        # made (no rung here sums afresh: none makes a power), 2.2e-16
        # relative each at integer a; the estimate charges that on
        # sum |term| >= |value|.
        ladder = make()
        next(ladder)
        calls = self._counted(monkeypatch)
        for k in range(1, 41):
            value, err, _ = next(ladder)
            assert err >= 2.2e-16 * k * abs(value)
        assert calls[0] == 0


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
