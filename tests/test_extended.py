"""Extended Fermi-Dirac / Bose-Einstein pair: strategies, bridges, duals."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetakit import (
    ConvergenceError,
    DomainError,
    ExtParams,
    LerchParams,
    PoleError,
    Strategy,
    be_classical,
    be_kernel,
    ext_be,
    ext_be_negint_exact,
    ext_fd,
    ext_fd_negint_exact,
    fd_classical,
    fd_kernel,
    fd_zero_hurwitz_route,
    hurwitz_zeta,
    lerch_phi,
    riemann_zeta,
)

import oracles
from oracles import fd_negint_reference


def rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# Bridge-invariant grid: nu x s x x covering boundary nu=0, fractional nu,
# complex order, and small-through-large x.
BRIDGE_NU = (0.0, 0.5, 2.0)
BRIDGE_S = (1.5, 2.0, 2.0 + 2.0j)
BRIDGE_X = (0.1, 1.0, 3.0)


class TestZeroArgument:
    def test_golden_values(self):
        assert rel(ext_fd(ExtParams(0.0, 2.0, 0.0)).value, oracles.FD_ZERO_S2) <= 1e-12
        assert rel(ext_be(ExtParams(0.0, 2.0, 0.0)).value, oracles.BE_ZERO_S2) <= 1e-12
        assert rel(ext_be(ExtParams(0.0, -1.0, 0.0)).value, oracles.BE_ZERO_SM1) <= 1e-12

    def test_be_zero_is_shifted_hurwitz(self):
        for nu in (0.0, 0.5, 2.3):
            for s in (2.5, 0.5, -1.5, 2.0 + 1.0j):
                got = ext_be(ExtParams(nu, s, 0.0)).value
                want = hurwitz_zeta(s, nu + 1.0).value
                assert rel(got, want) <= 1e-12

    def test_fd_zero_hurwitz_route_matches_auto(self):
        for nu in (0.0, 0.5, 2.3):
            for s in (2.5, 1.5, 0.5):
                via_hurwitz = fd_zero_hurwitz_route(nu, s)
                auto = ext_fd(ExtParams(nu, s, 0.0))
                assert via_hurwitz.strategy != auto.strategy or nu == 0.0
                assert rel(via_hurwitz.value, auto.value) <= 1e-11

    def test_forced_xseries_at_zero_is_the_lerch_alternating_sum(self):
        # z = -1 exactly: the forced defining series reaches lerch_phi's
        # alternating branch under its own tag, with AUTO's value.
        for nu in (0.0, 0.5, 2.3):
            for s in (2.5, 0.5, 2.0 + 1.0j):
                forced = ext_fd(ExtParams(nu, s, 0.0), Strategy.XSERIES)
                auto = ext_fd(ExtParams(nu, s, 0.0))
                assert forced.strategy == "fd/xseries-cvz"
                assert forced.value == auto.value

    def test_be_pole_at_s_one(self):
        with pytest.raises(PoleError, match="pole at s=1"):
            ext_be(ExtParams(0.5, 1.0, 0.0))

    def test_fd_is_entire_at_s_one(self):
        # The alternating structure kills the pole: values stay finite
        # across s in {0.5, 1, 1.5} and two routes agree.
        for s in (0.5, 1.0, 1.5):
            a = ext_fd(ExtParams(0.5, s, 0.0))
            b = fd_zero_hurwitz_route(0.5, s)
            assert math.isfinite(abs(a.value))
            assert rel(a.value, b.value) <= 1e-11

    def test_fd_zero_known_value(self):
        # nu=0, s=1: eta(1) = log 2
        assert rel(ext_fd(ExtParams(0.0, 1.0, 0.0)).value, math.log(2.0)) <= 1e-12


class TestLerchBridge:
    @pytest.mark.parametrize("nu", BRIDGE_NU)
    @pytest.mark.parametrize("s", BRIDGE_S)
    @pytest.mark.parametrize("x", BRIDGE_X)
    def test_fd_equals_scaled_lerch(self, nu, s, x):
        got = ext_fd(ExtParams(nu, s, x)).value
        scale = cmath.exp(-(nu + 1.0) * x)
        want = scale * lerch_phi(LerchParams(-math.exp(-x), s, nu + 1.0)).value
        assert rel(got, want) <= 1e-11

    @pytest.mark.parametrize("nu", BRIDGE_NU)
    @pytest.mark.parametrize("s", BRIDGE_S)
    @pytest.mark.parametrize("x", BRIDGE_X)
    def test_be_equals_scaled_lerch(self, nu, s, x):
        got = ext_be(ExtParams(nu, s, x)).value
        scale = cmath.exp(-(nu + 1.0) * x)
        want = scale * lerch_phi(LerchParams(math.exp(-x), s, nu + 1.0)).value
        assert rel(got, want) <= 1e-11


    def test_xseries_estimate_is_honest(self):
        # At Re s < 0 the terms of the defining series grow before the
        # geometric factor wins and cancel in the sum, so the estimate must
        # charge the rounding of every term, not only the tail.  The fixed
        # points are short sums at large (nu + 1) x, where the rounding of
        # the prefactor's exponent dominates.  Twenty digits agree with
        # forty on this domain to 1.3e-18 relative.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 20
        rng = random.Random(20261018)
        points = [(ext_be, 1, 2.0, 0.0, 3.95), (ext_be, 1, 2.0, 0.5, 3.95)]
        for _ in range(40):
            fn, sign = rng.choice(((ext_fd, -1), (ext_be, 1)))
            nu = rng.uniform(0.0, 3.0)
            s = complex(rng.uniform(-6.0, 6.0), rng.choice((0.0, rng.uniform(-4.0, 4.0))))
            points.append((fn, sign, nu, s, 10 ** rng.uniform(-3.0, math.log10(4.0))))
        for fn, sign, nu, s, x in points:
            got = fn(ExtParams(nu, s, x), Strategy.XSERIES)
            xm, am = mpmath.mpf(x), mpmath.mpf(nu) + 1
            want = mpmath.exp(-am * xm) * mpmath.lerchphi(
                sign * mpmath.exp(-xm), mpmath.mpc(s), am
            )
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (
                fn.__name__, nu, s, x,
            )


class TestStrategies:
    def test_explicit_strategies_agree_fd(self):
        p = ExtParams(0.5, 2.5, 1.0)
        xs = ext_fd(p, Strategy.XSERIES)
        ps = ext_fd(p, Strategy.POWER_SERIES_X)
        wq = ext_fd(p, Strategy.WEYL_QUAD)
        assert xs.strategy != ps.strategy != wq.strategy
        assert rel(xs.value, ps.value) <= 1e-10
        assert rel(xs.value, wq.value) <= max(1e-8, 10 * (xs.err_estimate + wq.err_estimate) / abs(xs.value))

    def test_power_series_x_integer_order(self):
        # Integer s makes alternate Taylor coefficients collapse; the
        # pairwise stopping rule must still converge.
        p = ExtParams(0.5, 2.0, 1.0)
        ps = ext_fd(p, Strategy.POWER_SERIES_X)
        xs = ext_fd(p, Strategy.XSERIES)
        assert rel(ps.value, xs.value) <= 1e-10

    def test_power_series_x_outside_radius_raises(self):
        with pytest.raises(ConvergenceError):
            ext_fd(ExtParams(0.5, 2.5, 3.0), Strategy.POWER_SERIES_X)

    def test_be_power_series_singular_part(self):
        # Non-integer s: the x^{s-1} Gamma(1-s) singular term is included.
        p = ExtParams(0.5, 2.5, 0.5)
        ps = ext_be(p, Strategy.POWER_SERIES_X)
        xs = ext_be(p, Strategy.XSERIES)
        assert rel(ps.value, xs.value) <= 1e-10

    def test_be_power_series_positive_integer_order_limit_form(self):
        # At s = m the pole of zeta(s-k, nu+1) at k = m-1 and the singular
        # part Gamma(1-s) x^{s-1} combine into a finite limit term.
        p = ExtParams(0.5, 2.0, 0.5)
        ps = ext_be(p, Strategy.POWER_SERIES_X)
        xs = ext_be(p, Strategy.XSERIES)
        assert rel(ps.value, xs.value) <= 1e-12
        for nu in (0.0, 0.125):
            for m in (1, 3):
                for x in (1e-6, 0.01, 1.0):
                    p = ExtParams(nu, float(m), x)
                    ps = ext_be(p, Strategy.POWER_SERIES_X)
                    try:
                        xs = ext_be(p, Strategy.XSERIES)
                    except ConvergenceError:
                        continue  # 500,000 terms cannot reach x = 1e-6
                    tol = ps.err_estimate + xs.err_estimate
                    assert abs(ps.value - xs.value) <= tol, (nu, m, x)

    def test_be_power_series_limit_form_within_estimate(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for nu in (0.0, 0.125):
            for m in (1, 3):
                for x in (1e-6, 0.01, 1.0):
                    got = ext_be(ExtParams(nu, float(m), x), Strategy.POWER_SERIES_X)
                    want = complex(
                        mpmath.exp(-(nu + 1) * mpmath.mpf(x))
                        * mpmath.lerchphi(mpmath.exp(-mpmath.mpf(x)), m, nu + 1)
                    )
                    assert abs(got.value - want) <= got.err_estimate, (nu, m, x)

    def test_be_power_series_positive_integer_order_at_zero(self):
        # x = 0: the limit term vanishes for m >= 2; m = 1 is the pole.
        for nu in (0.0, 0.5):
            got = ext_be(ExtParams(nu, 3.0, 0.0), Strategy.POWER_SERIES_X)
            want = hurwitz_zeta(3.0, nu + 1.0)
            assert rel(got.value, want.value) <= 1e-14
        with pytest.raises(DomainError):
            ext_be(ExtParams(0.0, 1.0, 0.0), Strategy.POWER_SERIES_X)

    def test_be_power_series_singular_part_error_is_honest(self):
        # Near x = 0 at negative order the singular part Gamma(1-s) x^{s-1}
        # dominates; the rounding of its large exponent must be charged.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for nu, s, x in ((0.0, -5.5, 0.005), (0.125, -2.5 + 3.0j, 0.01)):
            got = ext_be(ExtParams(nu, s, x), Strategy.POWER_SERIES_X)
            xm = mpmath.mpf(x)
            want = complex(
                mpmath.exp(-(nu + 1) * xm)
                * mpmath.lerchphi(mpmath.exp(-xm), mpmath.mpc(s), nu + 1)
            )
            assert abs(got.value - want) <= got.err_estimate, (nu, s, x)

    def test_auto_be_small_x_positive_integer_order_returns(self):
        # be(0, 2, x) = Li_2(e^{-x}); the direct sum would need far more
        # than 500,000 terms at x = 1e-6.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        got = ext_be(ExtParams(0.0, 2.0, 1e-6))
        want = complex(mpmath.polylog(2, mpmath.exp(-mpmath.mpf("1e-6"))))
        assert got.strategy == "be/power-series-x"
        assert abs(got.value - want) <= got.err_estimate

    def test_nu_series_matches_auto(self):
        for nu in (0.0, 0.3, 0.7):
            p = ExtParams(nu, 2.5, 0.0)
            ns = ext_fd(p, Strategy.NU_SERIES)
            assert rel(ns.value, ext_fd(p).value) <= 1e-10

    def test_nu_series_does_not_overflow_at_large_k(self):
        # nu = 7/8 needs about 250 terms; (s)_k alone overflows near k = 170.
        p = ExtParams(0.875, 1.5, 0.0)
        ns = ext_fd(p, Strategy.NU_SERIES)
        assert rel(ns.value, ext_fd(p).value) <= 1e-10

    def test_nu_series_near_radius_edge_is_honest(self):
        # Close to nu=1 the expansion converges like 0.95^k; the route must
        # either deliver the right value or refuse, never return garbage.
        p = ExtParams(0.95, 2.5, 0.0)
        try:
            ns = ext_fd(p, Strategy.NU_SERIES)
        except ConvergenceError:
            return
        assert rel(ns.value, ext_fd(p).value) <= 1e-9

    def test_negint_strategy_exact_polynomial(self):
        p = ExtParams(1.0, -3.0, 0.0)
        res = ext_fd(p, Strategy.NEG_INT_BERNOULLI)
        want = float(fd_negint_reference(3, Fraction(1)))
        assert "negint" in res.strategy
        assert rel(res.value, want) <= 1e-14

    def test_negint_strategy_needs_integer_order(self):
        with pytest.raises(DomainError):
            ext_fd(ExtParams(1.0, -2.5, 0.0), Strategy.NEG_INT_BERNOULLI)

    def test_auto_dispatch_tags(self):
        # tiny x: fd switches to the accelerated alternating route, be to
        # its Taylor route; moderate x uses the defining series.
        assert ext_fd(ExtParams(0.5, 2.5, 0.01)).strategy == "fd/xseries-cvz"
        assert ext_be(ExtParams(0.5, 2.5, 0.01)).strategy == "be/power-series-x"
        assert ext_be(ExtParams(0.5, -2.5, 0.01)).strategy == "be/power-series-x"
        assert ext_be(ExtParams(0.5, 2.0, 0.01)).strategy == "be/power-series-x"
        assert ext_fd(ExtParams(0.5, 2.5, 0.2)).strategy == "fd/xseries-direct"
        assert ext_be(ExtParams(0.5, 2.5, 0.2)).strategy == "be/xseries-direct"

    def test_complex_x_via_xseries(self):
        # Complex arguments ride the defining series; cross-check against
        # the Lerch bridge.
        nu, s = 0.5, 2.5
        x = 1.0 + 1.5j
        got = ext_fd(ExtParams(nu, s, x), Strategy.XSERIES).value
        want = cmath.exp(-(nu + 1.0) * x) * lerch_phi(
            LerchParams(-cmath.exp(-x), s, nu + 1.0)
        ).value
        assert rel(got, want) <= 1e-11


class TestDomain:
    def test_negative_real_x_rejected(self):
        with pytest.raises(DomainError):
            ExtParams(0.5, 2.0, -0.1)

    def test_negative_real_nu_rejected(self):
        with pytest.raises(DomainError):
            ExtParams(-0.5, 2.0, 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            ExtParams(0.0, float("nan"), 0.0)


class TestExactNegIntLayer:
    def test_fd_euler_route_vs_bernoulli_bisection(self):
        # Package computes E_n(nu+1)/2; the oracle reaches the same value
        # through the Hurwitz bisection, so the two polynomial families
        # must agree exactly.
        for n in range(0, 9):
            for nu in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(23, 10)):
                assert ext_fd_negint_exact(nu, n) == fd_negint_reference(n, nu)

    def test_be_matches_hurwitz_closed_form(self):
        from oracles import hurwitz_negint_reference

        for n in range(0, 9):
            for nu in (Fraction(0), Fraction(1, 2), Fraction(23, 10)):
                assert ext_be_negint_exact(nu, n) == hurwitz_negint_reference(n, nu + 1)

    def test_float_layer_matches_exact_layer(self):
        for n in (0, 1, 2, 5):
            for nu in (0.0, 0.5, 2.3):
                got_fd = ext_fd(ExtParams(nu, -float(n), 0.0)).value
                want_fd = float(ext_fd_negint_exact(Fraction(nu), n))
                assert abs(got_fd - want_fd) <= 1e-11 * (1.0 + abs(want_fd))
                got_be = ext_be(ExtParams(nu, -float(n), 0.0)).value
                want_be = float(ext_be_negint_exact(Fraction(nu), n))
                assert abs(got_be - want_be) <= 1e-11 * (1.0 + abs(want_be))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            ext_fd_negint_exact(Fraction(1), -1)
        with pytest.raises(DomainError):
            ext_be_negint_exact(Fraction(-1), 2)


class TestClassicalWrappers:
    def test_fd_nonpositive_x_reduces_to_extended(self):
        for x in (-1.5, -0.25, 0.0):
            got = fd_classical(2.5, x)
            want = ext_fd(ExtParams(0.0, 2.5, -x))
            assert got.strategy.startswith("fd-classical/")
            assert rel(got.value, want.value) <= 1e-13

    def test_fd_positive_x_against_quadrature_oracle(self):
        # Independent trapezoid evaluation of the occupation integral
        # t^{s-1} / (e^{t-x} + 1) / Gamma(s) on a dense uniform grid.
        s, x = 2.5, 1.5
        n, top = 200_000, 60.0
        h = top / n
        acc = 0.0
        for i in range(1, n):
            t = i * h
            acc += t ** (s - 1.0) / (math.exp(min(t - x, 700.0)) + 1.0)
        oracle = acc * h / math.gamma(s)
        got = fd_classical(s, x)
        assert got.strategy == "fd-classical/weyl-gk-adaptive"
        assert rel(got.value, oracle) <= 1e-7

    def test_fd_positive_x_needs_positive_order(self):
        with pytest.raises(DomainError):
            fd_classical(-0.5, 1.0)

    def test_be_zero_is_riemann(self):
        got = be_classical(2.0, 0.0)
        assert got.strategy == "be-classical/zeta"
        assert rel(got.value, riemann_zeta(2.0).value) <= 1e-14

    def test_be_diverges_for_positive_x(self):
        with pytest.raises(DomainError, match="divergent"):
            be_classical(2.0, 0.5)

    def test_be_zero_needs_order_above_one(self):
        with pytest.raises((DomainError, PoleError)):
            be_classical(0.5, 0.0)

    def test_be_negative_x_reduces_to_extended(self):
        got = be_classical(2.5, -1.0)
        want = ext_be(ExtParams(0.0, 2.5, 1.0))
        assert rel(got.value, want.value) <= 1e-13


class TestKernels:
    def test_fd_kernel_value_and_decay(self):
        k = fd_kernel(0.5)
        # occupation form: e^{-(nu+1)t} / (1 + e^{-t})
        t = 1.7
        want = math.exp(-1.5 * t) / (1.0 + math.exp(-t))
        assert abs(k.value(t) - want) <= 1e-14
        assert k.decay_b == math.inf

    def test_be_kernel_value(self):
        k = be_kernel(0.5)
        t = 1.7
        want = math.exp(-1.5 * t) / (1.0 - math.exp(-t))
        assert abs(k.value(t) - want) <= 1e-14

    def test_kernel_derivatives_match_finite_differences(self):
        for kern in (fd_kernel(0.7), be_kernel(0.7)):
            t, h = 1.3, 1e-5
            want = (kern.value(t + h) - kern.value(t - h)) / (2.0 * h)
            got = kern.derivative(1, t)
            assert abs(got - want) <= 1e-8 * (1.0 + abs(want))


class TestProperties:
    @given(
        nu=st.floats(0.0, 3.0),
        s=st.floats(1.2, 4.0),
        x=st.floats(0.0, 3.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_difference_equation_random_points(self, nu, s, x):
        lhs = ext_fd(ExtParams(nu + 1.0, s, x)).value + ext_fd(ExtParams(nu, s, x)).value
        rhs = (nu + 1.0) ** (-s) * math.exp(-(nu + 1.0) * x)
        assert rel(lhs, rhs) <= 1e-9

    @given(
        nu=st.floats(0.0, 2.0),
        s=st.floats(1.5, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_be_monotone_decreasing_in_x(self, nu, s):
        xs = (0.0, 0.5, 1.0, 2.0)
        vals = [ext_be(ExtParams(nu, s, x)).value.real for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @given(
        nu=st.floats(0.0, 2.0),
        x=st.floats(0.0, 2.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_conjugate_symmetry(self, nu, x):
        s = 2.0 + 1.5j
        a = ext_fd(ExtParams(nu, s, x)).value
        b = ext_fd(ExtParams(nu, s.conjugate(), x)).value
        assert rel(a, b.conjugate()) <= 1e-11

    @given(nu=st.floats(0.0, 2.0), s=st.floats(1.2, 3.0), x=st.floats(0.0, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_fd_bounded_by_be(self, nu, s, x):
        # Alternating series is dominated by the all-positive one.
        fd = ext_fd(ExtParams(nu, s, x)).value.real
        be = ext_be(ExtParams(nu, s, x)).value.real
        assert 0.0 < fd <= be * (1.0 + 1e-12)
