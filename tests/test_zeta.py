"""Zeta family: Hurwitz/Riemann zeta, eta, Lerch, polylog, chi ratio."""

import cmath
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zetakit.zeta as zeta_module
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
            lambda: ext_fd(ExtParams(0, -1.5, 1e-7)),
            lambda: ext_be(ExtParams(0, 2, 1e-6), Strategy.XSERIES),
        ],
        ids=["lerch", "lerch-complex-a", "fd", "be"],
    )
    def test_hopeless_budget_refused_with_bounded_work(self, call, monkeypatch):
        # |z| = e^{-x} so close to 1 that 500,000 terms cannot reach 1e-13:
        # the refusal comes before the sum, not after the whole budget.
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

    @given(
        r=st.floats(0.0, 0.999),
        theta=st.floats(-math.pi, math.pi),
        a=st.floats(0.01, 20.0),
        sigma=st.floats(-6.0, 6.0),
        t=st.one_of(st.just(0.0), st.floats(-10.0, 10.0)),
        frac=st.floats(0.0, 1.5),
    )
    @settings(max_examples=150, deadline=None)
    def test_refusal_only_when_budget_too_small(self, r, theta, a, sigma, t, frac):
        # A call with MAX_TERMS = M raises exactly when the same call with
        # the default budget needs more than M terms (work - 1 > M), so the
        # up-front refusal never turns away a sum that would have converged.
        # M is drawn around that need, and M = need itself is always tried.
        self._check_refusal(
            LerchParams(r * cmath.exp(1j * theta), complex(sigma, t), a), frac
        )

    @given(
        r=st.floats(0.0, 0.999),
        theta=st.floats(-math.pi, math.pi),
        a_re=st.floats(0.01, 20.0),
        a_im=st.floats(-20.0, 20.0),
        sigma=st.floats(-6.0, 6.0),
        t=st.floats(-10.0, 10.0),
        frac=st.floats(0.0, 1.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_refusal_only_when_budget_too_small_complex_a(
        self, r, theta, a_re, a_im, sigma, t, frac
    ):
        # The same property for Re a > 0 off the real axis, where the
        # refusal bound carries e^{-2 |Im s| |arg a|}.
        self._check_refusal(
            LerchParams(r * cmath.exp(1j * theta), complex(sigma, t),
                        complex(a_re, a_im)),
            frac,
        )

    @staticmethod
    def _check_refusal(p: LerchParams, frac: float) -> None:
        full = lerch_phi(p)
        need = full.work - 1
        for budget in (max(1, round(frac * need)), max(1, need)):
            with mock.patch.object(zeta_module, "MAX_TERMS", budget):
                if need > budget:
                    with pytest.raises(ConvergenceError):
                        lerch_phi(p)
                else:
                    assert lerch_phi(p) == full


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
