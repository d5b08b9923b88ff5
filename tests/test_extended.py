"""Extended Fermi-Dirac / Bose-Einstein pair: strategies, bridges, duals."""

import cmath
import decimal
import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

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
from zetakit import extended

import oracles
import zetakit.zeta as zeta_module
from oracles import fd_negint_reference


BENCH = Path(__file__).resolve().parents[1] / "bench"
NEAR_CIRCLE_REFS = BENCH / "refs" / "table-near-circle.json"


def rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def near_circle_refs():
    """(key, fn, strategy, nu, s, x, reference) of every near-circle
    benchmark point; the reference is a pair of 30-digit strings."""
    refs = json.loads(NEAR_CIRCLE_REFS.read_text())["refs"]
    for key, ref in refs.items():
        fn, strategy, *coords = key.split("|")
        nu, s, x = (complex(*map(float, c.split(","))) for c in coords)
        yield key, fn, strategy, nu, s, x, ref


def ref_gap(value: complex, ref) -> tuple[decimal.Decimal, decimal.Decimal]:
    """|value - reference| and |reference|, to 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        ref_re, ref_im = decimal.Decimal(ref[0]), decimal.Decimal(ref[1])
        d_re = decimal.Decimal(value.real) - ref_re
        d_im = decimal.Decimal(value.imag) - ref_im
        return (d_re * d_re + d_im * d_im).sqrt(), (ref_re * ref_re + ref_im * ref_im).sqrt()


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

    def test_alternating_sum_estimate_is_honest(self):
        # With the S_32 - S_24 gap near zero, the rounding of each term's
        # exponent is the error; at the first point it is 1.6e-18 on a
        # value of 1.3e-3.  The same sum runs at small x for Re s > 0.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        rng = random.Random(20261018)
        points = [(3.125, 4.5, 0.0)]
        for _ in range(30):
            s = complex(rng.uniform(0.1, 8.0), rng.choice((0.0, rng.uniform(-4.0, 4.0))))
            points.append((rng.uniform(0.0, 4.0), s, rng.choice((0.0, 10 ** rng.uniform(-6.0, -1.4)))))
        for nu, s, x in points:
            got = ext_fd(ExtParams(nu, s, x))
            assert got.strategy in ("fd/zero-alternating-cvz", "fd/xseries-cvz")
            sm, am = mpmath.mpc(s), mpmath.mpf(nu) + 1
            if x == 0.0:
                want = 2 ** -sm * (mpmath.zeta(sm, am / 2) - mpmath.zeta(sm, (am + 1) / 2))
            else:
                xm = mpmath.mpf(x)
                want = mpmath.exp(-am * xm) * mpmath.lerchphi(-mpmath.exp(-xm), sm, am)
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (nu, s, x)

    @staticmethod
    def _odd_term_grid():
        # nu in [0, 3] and non-integer Re s in [-40, -4], |Im s| <= 10: the
        # region where fd(nu, s, 0) is one reflection series over odd n.
        rng = random.Random(20261018)
        for _ in range(200):
            sigma = rng.uniform(-40.0, -4.0)
            s = complex(sigma, rng.choice((0.0, rng.uniform(-10.0, 10.0))))
            yield rng.uniform(0.0, 3.0), s

    def test_odd_term_reflection_estimate_is_honest(self):
        # The reference sums the alternating series by Euler-Boole
        # summation, a route that shares nothing with the Fourier series
        # (mpmath's Hurwitz zeta takes about 0.15 s a point here).
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for nu, s in self._odd_term_grid():
            got = ext_fd(ExtParams(nu, s, 0.0))
            assert got.strategy == "fd/zero-reflection"
            want = oracles.alternating_zeta_boole(mpmath, s, mpmath.mpf(nu) + 1)
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (nu, s)

    def test_odd_term_reflection_matches_hurwitz_difference(self):
        # The Hurwitz-difference route sums two full reflection series; the
        # two routes share no series term.
        for nu, s in self._odd_term_grid():
            got = ext_fd(ExtParams(nu, s, 0.0))
            other = fd_zero_hurwitz_route(nu, s)
            assert other.strategy == "fd/zero-hurwitz-diff"
            assert abs(got.value - other.value) <= got.err_estimate + other.err_estimate, (nu, s)

    def test_reflection_reduction_memory_stays_flat(self):
        # At nu = 1e6 the odd-term series first reduces a by 10^6 terms.
        # Summed in chunks as they are made, they are never held at once;
        # as one list they took 93 MB.
        tracemalloc.start()
        try:
            got = ext_fd(ExtParams(1e6, -4.5, 0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.strategy == "fd/zero-reflection"
        assert peak < 5_000_000

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
    def test_weyl_quad_estimate_is_honest(self):
        # Forced quadrature at fractional Re s in (-3, 1): the sub-unit
        # orders integrate t^{s-1} near t = 0, the negative ones through the
        # kernel's derivatives shifted into (0, 1].  be needs x > 0.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(20261019)
        points = []
        while len(points) < 40:
            fn, sign = rng.choice(((ext_fd, -1), (ext_be, 1)))
            x = rng.choice((0.0, 0.3, 1.0, 2.5))
            sigma = rng.uniform(-3.0, 1.0)
            if (fn is ext_be and x == 0.0) or abs(sigma - round(sigma)) < 0.05:
                continue
            s = complex(sigma, rng.choice((0.0, rng.uniform(-3.0, 3.0))))
            points.append((fn, sign, rng.choice((0.0, 0.5, 2.3)), s, x))
        with mpmath.workdps(20):
            for fn, sign, nu, s, x in points:
                got = fn(ExtParams(nu, s, x), Strategy.WEYL_QUAD)
                xm, am = mpmath.mpf(x), mpmath.mpf(nu) + 1
                want = mpmath.exp(-am * xm) * mpmath.lerchphi(
                    sign * mpmath.exp(-xm), mpmath.mpc(s), am
                )
                assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (
                    fn.__name__, nu, s, x,
                )

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

    def test_auto_fd_small_x_nonpositive_order_within_estimate(self):
        # Re s <= 0 at real 0 < x < 0.05 takes the Taylor route, whose
        # coefficients fd(nu, s - k, 0) come from Euler-Maclaurin Hurwitz
        # differences (-4 < Re s < 0) and the odd-term reflection series
        # (Re s <= -4).  The defining series would need about 1/x terms,
        # beyond the budget at x = 1e-7.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30

        def want(nu, s, x):
            xm, am = mpmath.mpf(x), mpmath.mpf(nu) + 1
            return mpmath.exp(-am * xm) * mpmath.lerchphi(
                -mpmath.exp(-xm), mpmath.mpc(s), am
            )

        # Euler-Maclaurin still loses about 3e-10 relative on the
        # coefficient fd(0.5, -3.5, 0), hence the one looser tolerance.
        named = [(0.0, -5.5, 0.005, 1e-10), (0.125, -2.5, 0.045, 1e-10),
                 (0.0, -2.5, 0.045, 1e-10), (0.0, -1.5, 1e-7, 1e-10),
                 (1.0, -0.5, 0.01, 1e-10), (0.5, -3.5, 0.02, 1e-9)]
        for nu, s, x, tol in named:
            got = ext_fd(ExtParams(nu, s, x))
            ref = want(nu, s, x)
            assert got.strategy == "fd/power-series-x"
            assert abs(mpmath.mpc(got.value) - ref) <= tol * abs(ref), (nu, s, x)
        rng = random.Random(20261018)
        for _ in range(30):
            nu = rng.uniform(0.0, 3.0)
            s = complex(rng.uniform(-8.0, 0.0), rng.choice((0.0, rng.uniform(-4.0, 4.0))))
            x = 10 ** rng.uniform(-8.0, math.log10(0.05))
            got = ext_fd(ExtParams(nu, s, x))
            err = abs(mpmath.mpc(got.value) - want(nu, s, x))
            assert err <= got.err_estimate, (nu, s, x)

    def test_auto_fd_small_x_nonpositive_order_matches_bench_refs(self):
        # Every AUTO fd point of the near-circle benchmark universe at real
        # 0 < x < 0.05 and Re s <= 0 returns, within its estimate and
        # accurate as the benchmark grades it: relative 1e-10, or absolute
        # 1e-12 next to a zero.  The references are 30-digit values.
        checked = 0
        for key, fn, strategy, nu, s, x, ref in near_circle_refs():
            if (fn, strategy) != ("ext_fd", "Auto") or x.imag != 0.0:
                continue
            if not (0.0 < x.real < 0.05 and s.real <= 0.0):
                continue
            got = ext_fd(ExtParams(nu, s, x))
            gap, ref_abs = ref_gap(got.value, ref)
            assert gap <= decimal.Decimal(got.err_estimate), key
            assert gap <= decimal.Decimal(1e-12) or gap <= decimal.Decimal(1e-10) * ref_abs, key
            checked += 1
        assert checked == 200

    def test_auto_unit_circle_nonpositive_order_matches_bench_refs(self):
        # Every AUTO point of the near-circle benchmark universe at complex
        # x with Re s <= 0 returns within its estimate and accurate as the
        # benchmark grades it: relative 1e-10, or absolute 1e-12.  On the
        # imaginary axis (real nu, |z| = 1) lerch_phi takes Lerch's
        # transformation; expanded about x = 0 instead, 480 of them fail,
        # at the 40-term cap, by the grow-streak detector or with |x| past
        # the Taylor radius.
        checked = transformed = 0
        for key, fn, strategy, nu, s, x, ref in near_circle_refs():
            if strategy != "Auto" or x.imag == 0.0 or s.real > 0.0:
                continue
            got = (ext_fd if fn == "ext_fd" else ext_be)(ExtParams(nu, s, x))
            gap, ref_abs = ref_gap(got.value, ref)
            assert gap <= decimal.Decimal(got.err_estimate), key
            assert gap <= decimal.Decimal(1e-12) or gap <= decimal.Decimal(1e-10) * ref_abs, key
            transformed += got.strategy.endswith("/xseries-lerch-transform")
            checked += 1
        assert checked == 1056 and transformed == 768

    def test_auto_unit_circle_positive_order_matches_bench_refs(self):
        # Every AUTO point of the near-circle benchmark universe on the
        # imaginary axis at Re s > 0 returns through the circle sum, within
        # its estimate and accurate, also at |arg z| < pi/3, where the
        # Euler transform refused.
        checked = 0
        for key, fn, strategy, nu, s, x, ref in near_circle_refs():
            if strategy != "Auto" or x.real != 0.0 or x.imag == 0.0 or s.real <= 0.0:
                continue
            got = (ext_fd if fn == "ext_fd" else ext_be)(ExtParams(nu, s, x))
            gap, ref_abs = ref_gap(got.value, ref)
            assert gap <= decimal.Decimal(got.err_estimate), key
            assert gap <= decimal.Decimal(1e-12) or gap <= decimal.Decimal(1e-10) * ref_abs, key
            assert got.strategy.endswith("/xseries-cvz-circle"), key
            checked += 1
        assert checked == 672

    def test_auto_unit_circle_grid_against_mpmath(self):
        # Seeded grid over both kinds: Re x in [0, 0.05), Im x in
        # [-2 pi, 4 pi], Re s in [-6, 0] (real, integer and complex) and
        # nu in [0, 3].  AUTO returns every point within its estimate: on
        # the imaginary axis by Lerch's transformation where its inner
        # circle sums stay within their cap, by the reduction elsewhere.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 20
        rng = random.Random(20261101)
        for _ in range(500):
            kind = rng.choice(("fd", "be"))
            nu = rng.uniform(0.0, 3.0)
            sigma = rng.uniform(-6.0, 0.0)
            s = rng.choice((complex(sigma), complex(round(sigma)),
                            complex(sigma, rng.uniform(-4.0, 4.0))))
            x = complex(rng.choice((0.0, rng.uniform(0.0, 0.05))),
                        rng.uniform(-2.0 * math.pi, 4.0 * math.pi))
            got = (ext_fd if kind == "fd" else ext_be)(ExtParams(nu, s, x))
            if x.real == 0.0 and zeta_module.lerch_transform_serves(nu + 1.0):
                assert got.strategy == f"{kind}/xseries-lerch-transform"
            else:
                assert got.strategy.startswith(f"{kind}/circle-")
            xm, am = mpmath.mpc(x), mpmath.mpf(nu) + 1
            z = (-1 if kind == "fd" else 1) * mpmath.exp(-xm)
            want = mpmath.exp(-am * xm) * mpmath.lerchphi(z, mpmath.mpc(s), am)
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (kind, nu, s, x)

    def test_auto_imaginary_axis_estimate_stays_tight_next_to_z_one(self):
        # On the imaginary axis z = -+e^{-x} lies on the circle exactly, so
        # AUTO takes Lerch's transformation at the angle of z and pays no
        # charge for the rounding of |z|, which lerch_phi must charge for
        # its double z (about 1e-9 relative at the first point).
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for f, kind, nu, s, x in ((ext_be, "be", 0.3, -3.0, 1e-6j),
                                  (ext_be, "be", 1.7, -2.5 + 1j, (2.0 * math.pi + 3e-5) * 1j),
                                  (ext_fd, "fd", 0.3, -4.0, (math.pi - 1e-5) * 1j)):
            got = f(ExtParams(nu, s, x))
            assert got.strategy == f"{kind}/xseries-lerch-transform"
            assert got.err_estimate <= 1e-12 * abs(got.value)
            xm, am = mpmath.mpc(x), mpmath.mpf(nu) + 1
            z = (-1 if kind == "fd" else 1) * mpmath.exp(-xm)
            want = mpmath.exp(-am * xm) * mpmath.lerchphi(z, mpmath.mpc(s), am)
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (kind, nu, s, x)

    def test_auto_near_circle_positive_order_keeps_the_defining_series(self):
        # Complex x with 0 < Re x < 0.05 at Re s > 0: where the defining
        # series finishes, AUTO returns it, also at |Im s| = 20 to 25, where
        # the reduction loses digits; where it refuses, AUTO reduces.
        for f, kind in ((ext_fd, "fd"), (ext_be, "be")):
            for nu, s, x in ((0.5, 0.5 + 25j, 0.004 + 2.0j),
                             (1.5, 3.0 - 20j, 0.03 - 1.6j),
                             (2.0, 1.5 + 1j, 0.001 + 7.0j)):
                p = ExtParams(nu, s, x)
                assert f(p) == f(p, Strategy.XSERIES), (kind, nu, s, x)
            p = ExtParams(0.5, 1.0 + 2j, 1e-6 + 2.0j)
            with pytest.raises(ConvergenceError, match="not converged"):
                f(p, Strategy.XSERIES)
            assert f(p).strategy.startswith(f"{kind}/circle-")

    def test_circle_positive_order_grid_against_mpmath(self):
        # The reduction at Re s > 0 (AUTO's route where the defining series
        # cannot finish), called directly.  Half the grid sits next to a be
        # centre at integer s, where the pole limit's -log x enters the
        # slope that the shift's rounding is charged with.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 20
        rng = random.Random(20261102)
        for i in range(200):
            kind = rng.choice(("fd", "be"))
            nu = rng.uniform(0.0, 3.0)
            if i % 2:
                s = complex(rng.choice((1, 2, 3)))
                # fd has a be centre at odd multiples of i pi, be at even.
                j = rng.choice((-1, 1, 3)) + (kind == "be")
                x = complex(10 ** rng.uniform(-6.0, math.log10(0.05)),
                            j * math.pi + rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-8.0, 0.0))
            else:
                sigma = rng.uniform(0.05, 4.0)
                s = rng.choice((complex(sigma), complex(max(1, round(sigma))),
                                complex(sigma, rng.uniform(-4.0, 4.0))))
                x = complex(10 ** rng.uniform(-6.0, math.log10(0.05)),
                            rng.uniform(-2.0 * math.pi, 4.0 * math.pi))
            got = extended._circle(kind, complex(nu), s, x)
            assert got.strategy.startswith(f"{kind}/circle-")
            xm, am = mpmath.mpc(x), mpmath.mpf(nu) + 1
            z = (-1 if kind == "fd" else 1) * mpmath.exp(-xm)
            want = mpmath.exp(-am * xm) * mpmath.lerchphi(z, mpmath.mpc(s), am)
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (kind, nu, s, x)

    def test_auto_reduced_onto_a_centre_takes_the_real_x_rules(self):
        # x = i j pi (the double j * math.pi standing for the exact
        # multiple) lands on a centre: the x = 0 value there, times the
        # phase e^{-i j pi (nu+1)}, whose exponent's rounding (up to 1e-13
        # at j = 10) the estimate must charge.  A be centre, z within 1e-12
        # of 1, is reduced; at an fd centre, z = -1, lerch_phi takes Lerch's
        # transformation.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        for f, kind, nu, s, j, centre in (
            (ext_fd, "fd", 0.5, -3.0, 1, "be"), (ext_be, "be", 2.9, -3.0, 6, "be"),
            (ext_fd, "fd", 2.875, -2.5, 7, "be"), (ext_be, "be", 2.7, -1.5, 10, "be"),
            (ext_fd, "fd", 0.3, -4.0, 3, "be"), (ext_fd, "fd", 1.5, -2.5, -2, "fd"),
        ):
            got = f(ExtParams(nu, s, 1j * (j * math.pi)))
            assert got.strategy == (f"{kind}/circle-be" if centre == "be"
                                    else f"{kind}/xseries-lerch-transform")
            a, sm = mpmath.mpf(nu) + 1, mpmath.mpf(s)
            value = mpmath.zeta(sm, a) if centre == "be" else 2 ** -sm * (
                mpmath.zeta(sm, a / 2) - mpmath.zeta(sm, (a + 1) / 2))
            want = mpmath.exp(-1j * mpmath.pi * j * a) * value
            assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (kind, nu, s, j)

    def test_auto_refuses_a_reduction_its_rounding_undetermines(self):
        # One ulp past 2 pi (be) or 3 pi (fd) the reduced be argument is
        # about 1e-15 i, below the rounding of the shift, next to be's
        # singularity at 0.  A charge first order in that rounding would
        # not bound the error, so AUTO refuses.  fd is smooth at its centre
        # and returns.  At Im x = 1e15 the shift's rounding would be 0.2,
        # but no shift is taken: Lerch's transformation returns, and its
        # estimate charges the rounding of the factor e^{-(nu+1) x}.
        mpmath = pytest.importorskip("mpmath")
        for f, x in ((ext_be, 1j * math.nextafter(2.0 * math.pi, 7.0)),
                     (ext_fd, 1j * math.nextafter(3.0 * math.pi, 10.0))):
            with pytest.raises(DomainError, match="rounds by more than"):
                f(ExtParams(0.5, -1.5, x))
        got = ext_fd(ExtParams(0.5, -1.5, 1j * math.nextafter(2.0 * math.pi, 7.0)))
        assert got.strategy == "fd/xseries-lerch-transform"
        with mpmath.workdps(40):
            for f, kind in ((ext_be, "be"), (ext_fd, "fd")):
                got = f(ExtParams(0.5, -1.5, 1e15j))
                assert got.strategy == f"{kind}/xseries-lerch-transform"
                xm = mpmath.mpc(0, 1e15)
                z = (-1 if kind == "fd" else 1) * mpmath.exp(-xm)
                want = mpmath.exp(-1.5 * xm) * mpmath.lerchphi(z, -1.5, 1.5)
                assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, kind

    def test_power_series_x_weighted_coefficients_are_honest(self):
        # Coefficient k is computed only to the accuracy its weight
        # |x^k/k!| needs; the returned estimate must still cover the error,
        # forced and through AUTO, on the imaginary axis up to 0.9 of the
        # radius and at small real x.  Forced points past the 40-term cap
        # raise; AUTO reduces imaginary x to a centre first.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        rng = random.Random(20261018)
        returned = 0
        for kind, f, radius in (("fd", ext_fd, math.pi), ("be", ext_be, 2.0 * math.pi)):
            for strategy in (Strategy.POWER_SERIES_X, Strategy.AUTO):
                for _ in range(20):
                    nu = rng.uniform(0.0, 3.0)
                    sigma = rng.uniform(-6.0, 3.0 if strategy is Strategy.POWER_SERIES_X else 0.0)
                    s = complex(sigma, rng.choice((0.0, rng.uniform(-4.0, 4.0))))
                    x = rng.choice((1j * rng.uniform(0.0, 0.9 * radius),
                                    complex(rng.uniform(0.001, 0.05))))
                    try:
                        got = f(ExtParams(nu, s, x), strategy)
                    except ConvergenceError:
                        continue
                    if strategy is Strategy.POWER_SERIES_X or x.imag == 0.0:
                        assert got.strategy == f"{kind}/power-series-x"
                    xm, am = mpmath.mpc(x), mpmath.mpf(nu) + 1
                    z = (-1 if kind == "fd" else 1) * mpmath.exp(-xm)
                    want = mpmath.exp(-am * xm) * mpmath.lerchphi(z, mpmath.mpc(s), am)
                    err = abs(mpmath.mpc(got.value) - want)
                    assert err <= got.err_estimate, (kind, strategy, nu, s, x)
                    returned += 1
        assert returned >= 50

    @pytest.mark.parametrize("f, p, bound", [
        (ext_be, ExtParams(0.125, 0.5, 0.01), 200),
        (ext_fd, ExtParams(0.5, -2.5, 0.01), 260),
        (ext_fd, ExtParams(0.125, -4.5, 0.0), 280),
        (ext_be, ExtParams(0.0, -0.5, 0.045), 210),
    ])
    def test_taylor_and_reflection_work_is_bounded(self, f, p, bound):
        # Weighted coefficient accuracy and the odd-term series: with every
        # coefficient at full accuracy and fd's reflection as two Hurwitz
        # series these took 883, 1926, 1111 and 957.
        assert f(p).work <= bound

    def test_nu_series_matches_auto(self):
        for nu in (0.0, 0.3, 0.7):
            p = ExtParams(nu, 2.5, 0.0)
            ns = ext_fd(p, Strategy.NU_SERIES)
            assert rel(ns.value, ext_fd(p).value) <= 1e-10

    def test_nu_series_near_radius_edge_is_honest(self):
        # About nu = 0 these converge like 0.95^k and 0.944^k, the second
        # beyond 600 orders; about m = 1 the ratio is below 0.03.
        for f, p in ((ext_fd, ExtParams(0.95, 2.5, 0.0)),
                     (ext_fd, ExtParams(0.944, 1.65, 0.3)),
                     (ext_be, ExtParams(0.944, 1.65, 0.3))):
            ns = f(p, Strategy.NU_SERIES)
            assert rel(ns.value, f(p).value) <= 1e-10, p

    def test_nu_series_past_one_matches_auto(self):
        for nu in (1.5, 2.375):
            for s in (-2.5, 0.5, 2.5, 1.5 + 2j):
                for x in (0.0, 0.3, 2.0):
                    for f in (ext_fd, ext_be):
                        p = ExtParams(nu, s, x)
                        ns = f(p, Strategy.NU_SERIES)
                        assert ns.strategy.endswith("/nu-series")
                        assert rel(ns.value, f(p).value) <= 1e-10, (f, p)

    def test_nu_series_at_large_x_keeps_the_decay_whole(self):
        # e^{-(nu+1)x} is applied once: split as e^{(m-nu)x} e^{-(m+1)x},
        # the second factor underflows (nu = 0.6, x = 400: e^{-800}) while
        # the value, about 4e-279, is a normal float.
        for nu in (0.6, 2.6):
            for x in (190.0, 400.0):
                for f in (ext_fd, ext_be):
                    p = ExtParams(nu, 2.0, x)
                    ns = f(p, Strategy.NU_SERIES)
                    want = f(p, Strategy.XSERIES).value
                    assert abs(ns.value - want) <= ns.err_estimate, (f, p)
                    assert rel(ns.value, want) <= 1e-12, (f, p)
        # Here e^{(m-nu)x} would pass the double range; the value underflows.
        assert ext_fd(ExtParams(0.6, 2.0, 2000.0), Strategy.NU_SERIES).value == 0.0

    def test_nu_series_at_nonpositive_integer_order_is_finite(self):
        # (s)_k vanishes past k = -s.  fd's coefficients are entire, so the
        # sum stops there; be's at x = 0 has its pole at order 1, and the
        # product leaves one last term.  Exact values are polynomials.
        for nu in (Fraction(1, 4), Fraction(1, 2), Fraction(19, 8)):
            for n in (0, 2, 3):
                p = ExtParams(float(nu), -n, 0.0)
                be = ext_be(p, Strategy.NU_SERIES)
                fd = ext_fd(p, Strategy.NU_SERIES)
                want_be = float(ext_be_negint_exact(nu, n))
                want_fd = float(ext_fd_negint_exact(nu, n))
                assert abs(be.value - want_be) <= max(be.err_estimate, 1e-14), (nu, n)
                assert abs(fd.value - want_fd) <= max(fd.err_estimate, 1e-14), (nu, n)
                assert rel(be.value, want_be) <= 1e-12 and rel(fd.value, want_fd) <= 1e-12
        p = ExtParams(0.5, -2, 0.7)
        assert rel(ext_be(p, Strategy.NU_SERIES).value, ext_be(p).value) <= 1e-12

    def test_nu_series_grid_against_mpmath(self):
        # nu in [0, 8], Re s in [-4, 5] real and complex, x in {0, 0.3,
        # 1, 2.5}, both kinds: every point returns within its estimate.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(20261019)
        for _ in range(160):
            kind = rng.choice(("fd", "be"))
            nu = rng.uniform(0.0, 8.0)
            s = complex(rng.uniform(-4.0, 5.0), rng.choice((0.0, rng.uniform(-3.0, 3.0))))
            x = rng.choice((0.0, 0.3, 1.0, 2.5))
            f = ext_fd if kind == "fd" else ext_be
            got = f(ExtParams(nu, s, x), Strategy.NU_SERIES)
            if x:
                want = oracles.ext_defining_sum(mpmath, kind, nu, s, x)
            else:
                with mpmath.workdps(30):
                    a = mpmath.mpf(nu) + 1
                    want = mpmath.zeta(s, a) if kind == "be" else (
                        mpmath.mpf(2) ** -mpmath.mpc(s)
                        * (mpmath.zeta(s, a / 2) - mpmath.zeta(s, (a + 1) / 2)))
            gap = abs(mpmath.mpc(got.value) - want)
            assert gap <= got.err_estimate, (kind, nu, s, x)
            assert gap <= 1e-10 * abs(want), (kind, nu, s, x)

    def test_nu_series_bench_grid_work(self):
        # table-bulk's two NuSeries grids and their nu + 1/8 twins.  The
        # work counter is deterministic; about nu = 0 these 336 points take
        # 361,419 units, 150,296 of them at nu = 7/8, where the series
        # converged like (7/8)^k and (s)_k overflowed near k = 170.  About
        # m = 1 it converges like (1/16)^k; there every point, and x = 0.3,
        # must also agree with AUTO.
        work = 0
        for f in (ext_fd, ext_be):
            for nu in (0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875):
                for s in (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5):
                    for x in (0.0, 0.3, 1.0, 2.0):
                        if x == 0.3 and nu != 0.875:
                            continue
                        p = ExtParams(nu, s, x)
                        ns = f(p, Strategy.NU_SERIES)
                        if nu == 0.875:
                            assert rel(ns.value, f(p).value) <= 1e-10, (f, p)
                        if x != 0.3:
                            work += ns.work
        assert work <= 0.4 * 361_419

    def test_nu_series_at_complex_nu(self):
        # Centred at floor(m*), m* = Re nu + (Im nu)^2/(Re nu + 1), where
        # |nu - m|/(m + 1) is least: m = 6 at nu = 0.5 + 3i (ratio 0.895;
        # 1.52 at m = 1, the integer next to Re nu).
        for nu, s, x in ((0.5 + 3j, 2.0, 0.3), (0.5 + 3j, 2.5, 0.0),
                         (1 + 5j, -1.5, 1.0), (0.25 + 1j, 1.5 + 2j, 0.3)):
            for f in (ext_fd, ext_be):
                p = ExtParams(nu, s, x)
                ns = f(p, Strategy.NU_SERIES)
                auto = f(p)
                assert ns.strategy.endswith("/nu-series"), (f, p)
                assert abs(ns.value - auto.value) <= ns.err_estimate + auto.err_estimate, (f, p)
                assert rel(ns.value, auto.value) <= 1e-12, (f, p)

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
        # tiny x: fd switches to the accelerated alternating route at
        # Re s > 0 and to the Taylor route otherwise, be always to its
        # Taylor route; moderate x uses the defining series.
        assert ext_fd(ExtParams(0.5, 2.5, 0.01)).strategy == "fd/xseries-cvz"
        assert ext_be(ExtParams(0.5, 2.5, 0.01)).strategy == "be/power-series-x"
        assert ext_be(ExtParams(0.5, -2.5, 0.01)).strategy == "be/power-series-x"
        assert ext_be(ExtParams(0.5, 2.0, 0.01)).strategy == "be/power-series-x"
        assert ext_fd(ExtParams(0.5, -2.5, 0.01)).strategy == "fd/power-series-x"
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


def axis(lo: complex, hi: complex, count: int) -> list[complex]:
    """count evenly spaced values from lo to hi, as a table grid axis."""
    if count == 1:
        return [complex(lo)]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


class TestAlternatingLength:
    """The alternating sum takes the terms |Im s| needs, 32 up to 4."""

    # (kinds, strategy, nu axis, s axis, x axis): table-bulk's grids with
    # an x = 0 point and table-near-circle's real-x grids.
    BENCH_GRIDS = (
        (("fd", "be"), Strategy.AUTO, axis(0, 3, 7), axis(-4.5, 4.5, 10), [0.0]),
        (("fd", "be"), Strategy.AUTO, axis(0, 3, 4),
         axis(-2.5 + 1.5j, 2.5 + 1.5j, 6), [0.0]),
        (("fd",), Strategy.WEYL_QUAD, axis(0, 2, 3), axis(-2.5, 2.5, 11), [0.0]),
        (("fd", "be"), Strategy.NU_SERIES, axis(0, 0.75, 4), axis(-2.5, 3.5, 7), [0.0]),
        (("fd", "be"), Strategy.AUTO, axis(0, 1, 2), axis(-5.5, 3, 18), [0.005]),
        (("fd", "be"), Strategy.AUTO, [0.0], axis(-1, 3, 5), [0.001]),
        (("fd", "be"), Strategy.AUTO, axis(0, 1, 2), axis(-5.5, 3, 18),
         axis(0.01, 0.045, 3)),
        (("fd",), Strategy.AUTO, [0.0], [-1.5], axis(1e-7, 1e-5, 2)),
        (("be",), Strategy.AUTO, [0.0], [2.0], [1e-6]),
    )

    def test_bench_grid_sums_keep_32_terms(self, monkeypatch):
        # Every benchmark point, and its nu + 1/8 twin, has |Im s| <= 1.5:
        # each alternating sum there is S_32 with its S_24 estimate.
        lengths = []
        cvz = zeta_module.alternating_sum_cvz

        def traced(term, n):
            lengths.append(n)
            return cvz(term, n)

        monkeypatch.setattr(zeta_module, "alternating_sum_cvz", traced)
        for kinds, strategy, nus, ss, xs in self.BENCH_GRIDS:
            for kind in kinds:
                f = ext_fd if kind == "fd" else ext_be
                for nu in nus:
                    for twin in (0.0, 0.125):
                        for s in ss:
                            for x in xs:
                                try:
                                    f(ExtParams(nu.real + twin, s, x), strategy)
                                except (ConvergenceError, DomainError, PoleError):
                                    pass
        assert len(lengths) > 100
        assert lengths == [32, 24] * (len(lengths) // 2)

    def test_fd_small_x_large_imaginary_order(self):
        # |Im s| = 80 needs 123 terms; 32 were 36% off with a 21% estimate.
        mpmath = pytest.importorskip("mpmath")
        x = 1e-6
        got = ext_fd(ExtParams(1.0, 1 + 80j, x))
        want = mpmath.exp(-2 * mpmath.mpf(x)) * oracles.alternating_lerch_boole(
            mpmath, 1 + 80j, 2.0, -mpmath.log(mpmath.exp(-mpmath.mpf(x))))
        assert got.strategy == "fd/xseries-cvz" and got.work == 123
        assert abs(mpmath.mpc(got.value) - want) <= 1e-12 * abs(want)
        assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate

    def test_lerch_next_to_minus_one_large_imaginary_order(self):
        # 170 terms; the direct sum takes 550 ms here and is 100% off.
        mpmath = pytest.importorskip("mpmath")
        z, s, a = -0.9999998, 3 + 120j, 1.5 - 1j
        got = lerch_phi(LerchParams(z, s, a))
        want = oracles.alternating_lerch_boole(
            mpmath, s, a, -mpmath.log(-mpmath.mpf(z)))
        assert got.strategy == "lerch/cvz-alternating" and got.work == 170
        assert abs(mpmath.mpc(got.value) - want) <= 1e-12 * abs(want)
        assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate

    def test_fd_tiny_x_imaginary_order_sixty(self):
        # 99 terms; the direct sum takes 764 ms here and is 1.7e-3 off.
        mpmath = pytest.importorskip("mpmath")
        x = 1e-5
        z = -cmath.exp(-x)
        got = ext_fd(ExtParams(0.0, 2 + 60j, x))
        want = mpmath.exp(-mpmath.mpf(x)) * oracles.alternating_lerch_boole(
            mpmath, 2 + 60j, 1.0, -mpmath.log(-mpmath.mpf(z.real)))
        assert got.strategy == "fd/xseries-cvz" and got.work == 99
        assert abs(mpmath.mpc(got.value) - want) <= 1e-12 * abs(want)
        assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate

    def test_be_at_i_pi_sums_z_next_to_minus_one(self):
        # e^{-i pi} rounds to z = -1 + 1.2e-16i, on the segment but off
        # z = -1 itself.  |Im s| = 60 needs 99 terms; 32 were 0.137 off.
        # The double nearest pi stands for pi: be(0, s, i pi) = -Phi(-1, s, 1).
        mpmath = pytest.importorskip("mpmath")
        s = 0.5 + 60j
        got = ext_be(ExtParams(0.0, s, 1j * math.pi))
        want = -oracles.alternating_lerch_boole(mpmath, s, 1.0, 0)
        assert got.strategy == "be/xseries-cvz" and got.work == 99
        assert abs(mpmath.mpc(got.value) - want) <= 1e-12 * abs(want)
        assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate

    def test_forced_xseries_names_the_lerch_route(self):
        # The tag map is indexed strictly; every lerch_phi route maps.
        assert set(extended._LERCH_TAG_MAP) == {
            "single-term", "hurwitz-delegate", "cvz-alternating",
            "direct-sum", "cvz-circle", "lerch-transform"}
        for f, p, tag in (
            (ext_fd, ExtParams(0.0, 0.5 + 60j, 0.0), "fd/xseries-cvz"),
            (ext_be, ExtParams(0.5, 2.5, 0.0), "be/xseries-hurwitz-delegate"),
            (ext_fd, ExtParams(0.5, 2.5, 1.0), "fd/xseries-direct"),
            (ext_fd, ExtParams(0.5, 2.5, 1.0j), "fd/xseries-cvz-circle"),
            (ext_fd, ExtParams(0.5, -2.5, 1.0j), "fd/xseries-lerch-transform"),
        ):
            assert f(p, Strategy.XSERIES).strategy == tag, p


class TestTaylorRefusal:
    """The Taylor route refuses a sum it cannot finish with bounded work:
    through its grow-streak detector or its 40-term cap."""

    @staticmethod
    def _counted(monkeypatch, names):
        calls = []
        for name in names:
            def counted(*args, _name=name, _inner=getattr(extended, name), **kwargs):
                calls.append(_name)
                return _inner(*args, **kwargs)
            monkeypatch.setattr(extended, name, counted)
        return calls

    @pytest.mark.parametrize("f, p", [
        (ext_be, ExtParams(1e6, 15, 0.01)),
        (ext_fd, ExtParams(1e6, -2, 0.01)),
    ])
    def test_large_nu_keeps_the_full_sum(self, monkeypatch, f, p):
        # The grow-streak detector refuses these terms, which grow like
        # (nu x)^k / k!, at k = 23.
        calls = self._counted(monkeypatch, ("hurwitz_zeta", "_fd_zero"))
        with pytest.raises(ConvergenceError, match="stopped decreasing"):
            f(p)
        assert len(calls) <= 24

    @pytest.mark.parametrize("f, p", [
        (ext_fd, ExtParams(0.5, 2.5, 3.0)),
        (ext_fd, ExtParams(0, -2.5, 2.5)),
        (ext_be, ExtParams(1, -2, 6j)),
    ])
    def test_divergent_forced_point_stops_at_the_cap(self, monkeypatch, f, p):
        # Forced PowerSeriesX still expands about 0, so points near its
        # radius diverge; they raise after at most 40 coefficients.
        calls = self._counted(monkeypatch, ("hurwitz_zeta", "_fd_zero"))
        with pytest.raises(ConvergenceError):
            f(p, Strategy.POWER_SERIES_X)
        assert len(calls) <= 40


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

    def test_fd_positive_x_half_order_is_honest(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(20):
            for x in (0.3, 1.0, 2.5, 6.0):
                got = fd_classical(0.5, x)
                want = -mpmath.polylog(0.5, -mpmath.exp(x))
                assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, x

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
