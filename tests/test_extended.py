"""Extended Fermi-Dirac / Bose-Einstein pair: strategies, bridges, duals."""

import cmath
import collections
import decimal
import itertools
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
    ln_gamma,
    riemann_zeta,
)
from zetakit import extended, faults, numeric_core

import grids
import oracles
from grids import grid_refs, ref_gap
import zetakit.zeta as zeta_module
from oracles import fd_negint_reference


BENCH = Path(__file__).resolve().parents[1] / "bench"


def rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def bench_refs(workload: str):
    """(key, fn, strategy, nu, s, x, reference) of every point of a table
    benchmark universe; the reference is a pair of 30-digit strings."""
    refs = json.loads((BENCH / "refs" / f"{workload}.json").read_text())["refs"]
    for key, ref in refs.items():
        fn, strategy, *coords = key.split("|")
        nu, s, x = (complex(*map(float, c.split(","))) for c in coords)
        yield key, fn, strategy, nu, s, x, ref


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
        # At nu = 5e4 the odd-term series first reduces a by 5 x 10^4 terms.
        # Summed in chunks as they are made, they are never held at once;
        # as one list they took 2.0 MB under tracemalloc, the chunks 0.35 MB.
        tracemalloc.start()
        try:
            got = ext_fd(ExtParams(5e4, -4.5, 0.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.strategy == "fd/zero-reflection"
        assert peak < 1_000_000

    def test_taylor_ladder_memory_stays_flat_above_the_hold_cap(self):
        # The Taylor route steps one reflection series through its deep
        # orders.  Past numeric_core._CHUNK reduction terms (here 2 x 10^4)
        # it makes them afresh at each order in chunks rather than holding
        # them: held, the terms and their bases would take about 1.4 MB.
        assert 2e4 > 4 * numeric_core._CHUNK
        tracemalloc.start()
        try:
            got = ext_fd(ExtParams(2e4, -4.5, 5e-6), Strategy.POWER_SERIES_X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.strategy == "fd/power-series-x"
        assert peak < 1_000_000

    def test_hurwitz_fault_moves_the_deep_taylor_be_rungs(self):
        # At Re s <= -4 every Taylor coefficient of be is a rung of one
        # reflection ladder, and no hurwitz_zeta call is made; an armed
        # hurwitz_zeta fault must still scale them all by 1 + 1e-6, so the
        # value moves by 1e-6 of its series part (the value less the
        # singular part Gamma(1-s) x^{s-1}).  fd's odd-term series never
        # passed through hurwitz_zeta, and stays put.
        p, p_fd = ExtParams(0.5, -6.5 + 1j, 2.0), ExtParams(0.5, -6.5 + 1j, 0.5)
        clean, fd_clean = ext_be(p, Strategy.POWER_SERIES_X), ext_fd(p_fd, Strategy.POWER_SERIES_X)
        with faults.inject("hurwitz_zeta"):
            faulty = ext_be(p, Strategy.POWER_SERIES_X)
            assert ext_fd(p_fd, Strategy.POWER_SERIES_X) == fd_clean
        singular = cmath.exp(ln_gamma(1.0 - p.s) + (p.s - 1.0) * cmath.log(p.x))
        series = clean.value - singular
        assert rel(faulty.value - clean.value, 1e-6 * series) <= 1e-5

    def test_reflection_reduction_estimate_charges_its_exponents(self):
        # Each of the 10^6 reduction terms (a0 + j)^{4.5} carries the
        # rounding of its exponent, up to 2.2e-16 |s| log(a0 + j) relative:
        # the value is off by 7.2e14 on 5.0e26, which the estimate covers.
        mpmath = pytest.importorskip("mpmath")
        got = ext_fd(ExtParams(1e6, -4.5, 0.0))
        want = oracles.alternating_zeta_boole(mpmath, -4.5, mpmath.mpf(1e6) + 1)
        assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate

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
        # Re s <= 0 at real 0 < x < 0.05: AUTO takes Lerch's transformation
        # at the complex angle of z = -e^{-x}, and the forced Taylor route,
        # whose coefficients fd(nu, s - k, 0) come from Euler-Maclaurin
        # Hurwitz differences (-4 < Re s < 0) and the odd-term reflection
        # series (Re s <= -4), agrees.  The defining series would need about
        # 1/x terms, beyond the budget at x = 1e-7.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30

        def want(nu, s, x):
            xm, am = mpmath.mpf(x), mpmath.mpf(nu) + 1
            return mpmath.exp(-am * xm) * mpmath.lerchphi(
                -mpmath.exp(-xm), mpmath.mpc(s), am
            )

        # Euler-Maclaurin still loses about 3e-10 relative on the Taylor
        # coefficient fd(0.5, -3.5, 0), hence the one looser tolerance.
        named = [(0.0, -5.5, 0.005, 1e-10), (0.125, -2.5, 0.045, 1e-10),
                 (0.0, -2.5, 0.045, 1e-10), (0.0, -1.5, 1e-7, 1e-10),
                 (1.0, -0.5, 0.01, 1e-10), (0.5, -3.5, 0.02, 1e-9)]
        for nu, s, x, tol in named:
            ref = want(nu, s, x)
            for strategy, route in ((Strategy.AUTO, "xseries-lerch-transform"),
                                    (Strategy.POWER_SERIES_X, "power-series-x")):
                got = ext_fd(ExtParams(nu, s, x), strategy)
                assert got.strategy == f"fd/{route}"
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
        for key, fn, strategy, nu, s, x, ref in bench_refs("table-near-circle"):
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

    def test_auto_at_small_real_x_matches_bench_refs(self):
        # Every AUTO point of the bulk benchmark universe at x = 0.05, where
        # the direct sum would take 599 terms: fd at Re s > 0 sums by the
        # alternating acceleration, be at Re s > 0 by the Taylor series in
        # x, and every point at Re s <= 0 by Lerch's transformation at the
        # complex angle of z.  The direct sum lost up to 1e-6 relative there
        # at Re s in [-4.5, -3] (18 fd points); now each point is within its
        # estimate and accurate as the benchmark grades it.
        checked = 0
        for key, fn, strategy, nu, s, x, ref in bench_refs("table-bulk"):
            if strategy != "Auto" or x != 0.05:
                continue
            kind = fn[-2:]
            got = (ext_fd if kind == "fd" else ext_be)(ExtParams(nu, s, x))
            route = ("xseries-lerch-transform" if s.real <= 0.0
                     else "xseries-cvz" if kind == "fd" else "power-series-x")
            assert got.strategy == f"{kind}/{route}", key
            gap, ref_abs = ref_gap(got.value, ref)
            assert gap <= decimal.Decimal(got.err_estimate), key
            assert gap <= decimal.Decimal(1e-12) or gap <= decimal.Decimal(1e-10) * ref_abs, key
            checked += 1
        assert checked == 304

    def test_auto_next_to_the_positive_axis_reduces_at_positive_order(self):
        # Every AUTO fd point of the near-circle universe at x = 0.05 + i pi
        # with Re s > 0: z = e^{-0.05} lies on the positive real axis, where
        # no CVZ sum applies and the direct sum takes about 600 terms, so
        # AUTO reduces onto the be centre at once.  Each point is within its
        # estimate and accurate as the benchmark grades it.
        checked = 0
        for key, fn, strategy, nu, s, x, ref in bench_refs("table-near-circle"):
            if fn != "ext_fd" or strategy != "Auto" or x != complex(0.05, math.pi) or s.real <= 0.0:
                continue
            got = ext_fd(ExtParams(nu, s, x))
            assert got.strategy == "fd/circle-be", key
            gap, ref_abs = ref_gap(got.value, ref)
            assert gap <= decimal.Decimal(got.err_estimate), key
            assert gap <= decimal.Decimal(1e-12) or gap <= decimal.Decimal(1e-10) * ref_abs, key
            checked += 1
        assert checked == 30

    def test_auto_unit_circle_nonpositive_order_matches_bench_refs(self):
        # Every AUTO point of the near-circle benchmark universe at complex
        # x with Re s <= 0 returns within its estimate and accurate as the
        # benchmark grades it: relative 1e-10, or absolute 1e-12.  With
        # real nu every one takes Lerch's transformation: on the imaginary
        # axis (|z| = 1), and at x = 0.05 + i pi at its complex angle.
        # Expanded about x = 0 instead, 480 of them fail, at the 40-term
        # cap, by the grow-streak detector or with |x| past the Taylor
        # radius.
        checked = transformed = 0
        for key, fn, strategy, nu, s, x, ref in bench_refs("table-near-circle"):
            if strategy != "Auto" or x.imag == 0.0 or s.real > 0.0:
                continue
            got = (ext_fd if fn == "ext_fd" else ext_be)(ExtParams(nu, s, x))
            gap, ref_abs = ref_gap(got.value, ref)
            assert gap <= decimal.Decimal(got.err_estimate), key
            assert gap <= decimal.Decimal(1e-12) or gap <= decimal.Decimal(1e-10) * ref_abs, key
            transformed += got.strategy.endswith("/xseries-lerch-transform")
            checked += 1
        assert checked == 1056 and transformed == 840

    def test_auto_unit_circle_positive_order_matches_bench_refs(self):
        # Every AUTO point of the near-circle benchmark universe on the
        # imaginary axis at Re s > 0 returns through the circle sum, within
        # its estimate and accurate, also at |arg z| < pi/3, where the
        # Euler transform refused.
        checked = 0
        for key, fn, strategy, nu, s, x, ref in bench_refs("table-near-circle"):
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
        # Seeded grid over both kinds (grids.auto_unit_circle_grid): Re x in
        # [0, 0.05), Im x in [-2 pi, 4 pi], Re s in [-6, 0] (real, integer
        # and complex) and nu in [0, 3].  AUTO returns every point within
        # its estimate of the frozen 20-digit mpmath.lerchphi reference: by
        # Lerch's transformation at the angle of z where its inner circle
        # sums stay within their cap (m Re x is below 3 x 0.05 here), by the
        # reduction elsewhere.
        for (kind, nu, s, x), ref in grid_refs("auto_unit_circle"):
            got = (ext_fd if kind == "fd" else ext_be)(ExtParams(nu, s, x))
            if zeta_module.lerch_transform_serves(nu + 1.0, -x.real):
                assert got.strategy == f"{kind}/xseries-lerch-transform"
            else:
                assert got.strategy.startswith(f"{kind}/circle-")
            gap, _ = ref_gap(got.value, ref)
            assert gap <= decimal.Decimal(got.err_estimate), (kind, nu, s, x)

    def test_auto_complex_angle_grid_against_mpmath(self):
        # Seeded grid next to the circle at Re s <= 0 (grids.complex_angle_
        # grid): real x, complex x and x within 1e-6 to 1e-2 of a centre
        # where z = 1; integer, half-integer and generic nu; s next to 0.
        # AUTO takes Lerch's transformation at the complex angle of z
        # wherever its inner sums serve nu + 1 and m Re x <= 1, and returns
        # within its estimate and 1e-12 of the frozen mpmath reference.
        # Its fallbacks, nu next to an integer and m Re x > 1, take the
        # Taylor route at real x, the expansion about a centre at complex x
        # or the defining series, each within its estimate; the expansion,
        # which reads mu from the exact phase of z, also within 1e-12.
        routes = collections.Counter()
        for (kind, nu, s, x), ref in grid_refs("complex_angle"):
            got = (ext_fd if kind == "fd" else ext_be)(ExtParams(nu, s, x))
            gap, ref_abs = ref_gap(got.value, ref)
            assert gap <= decimal.Decimal(got.err_estimate), (kind, nu, s, x)
            serves = zeta_module.lerch_transform_serves(nu + 1.0, -x.real)
            if serves:
                assert got.strategy == f"{kind}/xseries-lerch-transform", (kind, nu, s, x)
                assert gap <= decimal.Decimal(1e-12) * ref_abs, (kind, nu, s, x)
                routes["transform"] += 1
            else:
                assert not got.strategy.endswith("/xseries-lerch-transform"), (kind, nu, s, x)
                near = not zeta_module.lerch_transform_serves(nu + 1.0, 0.0)
                routes["near-integer" if near else "long-reduction"] += 1
            if got.strategy.startswith(f"{kind}/circle-"):
                assert gap <= decimal.Decimal(1e-12) * ref_abs, (kind, nu, s, x)
                routes["expanded"] += 1
        assert routes == {"transform": 115, "near-integer": 25, "long-reduction": 20,
                          "expanded": 22}

    def test_auto_transformation_passes_the_lerch_phi_fault_hook(self):
        # AUTO's and forced XSeries' Lerch transformation, at real, complex
        # and imaginary x, and inside the circle past the crossover, is a
        # lerch_phi value: an armed lerch_phi fault moves it by 1e-6.
        points = [(ext_fd, ExtParams(0.5, -2.5, 0.01), Strategy.AUTO),
                  (ext_be, ExtParams(1.25, -1.5 + 2j, 0.02 + 1j), Strategy.AUTO),
                  (ext_be, ExtParams(0.3, -4.5 + 1j, 3j), Strategy.AUTO),
                  (ext_fd, ExtParams(0.5, -2.5, 1e-7), Strategy.XSERIES)]
        for f, p, strategy in points:
            clean = f(p, strategy)
            with faults.inject("lerch_phi"):
                faulty = f(p, strategy)
            assert clean.strategy.endswith("/xseries-lerch-transform"), p
            assert rel(faulty.value - clean.value, 1e-6 * clean.value) <= 1e-5, p

    def test_auto_next_to_a_far_be_centre_takes_the_exact_phase(self):
        # z within 1e-10 of 1 at Im x next to 2 pi j for large j.  The
        # reduction subtracts the double j pi, which lands on the real axis
        # and stands for the exact multiple: off the value at the double x
        # by 3e-4 to 1.3e-3 with estimates near 3e-13, or, at Im x = 2e6 pi,
        # a DomainError.  The transformation reads its angle from the phase
        # of z, reduced exactly by cos and sin, and returns within its
        # estimate, and within 1e-12 where e^{-(nu+1) x} does not round by
        # more (2e-9 at |x| = 6e6).
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for f, kind, nu, s, x, tol in (
                (ext_be, "be", 0.5, -1.5, complex(1e-11, 200 * math.pi), 1e-12),
                (ext_be, "be", 2.25, -3.0 + 1j, complex(3e-12, -50 * math.pi), 1e-12),
                (ext_fd, "fd", 1.0, -2.5, complex(1e-10, 101 * math.pi), 1e-12),
                (ext_be, "be", 0.5, -1.5, complex(1e-9, 2e6 * math.pi + 1e-9), 1e-8),
            ):
                got = f(ExtParams(nu, s, x))
                assert got.strategy == f"{kind}/xseries-lerch-transform"
                xm, am = mpmath.mpc(x), mpmath.mpf(nu) + 1
                z = (-1 if kind == "fd" else 1) * mpmath.exp(-xm)
                want = mpmath.exp(-am * xm) * mpmath.lerchphi(z, mpmath.mpc(s), am)
                gap = abs(mpmath.mpc(got.value) - want)
                assert gap <= got.err_estimate and gap <= tol * abs(want), (kind, x)

    def test_auto_next_to_a_far_centre_expands_at_the_exact_phase(self):
        # z within 1e-9 of 1 at Im x next to j pi, |j| up to 200, where
        # Lerch's transformation does not serve (nu next to an integer,
        # complex nu) or Re s > 0: AUTO expands about the centre.  Read
        # against the double nearest pi, x - i j pi put these 1.7e-10 to
        # 1.2e-3 off under estimates near 1e-13.  With mu from the exact
        # phase of z each is within its estimate and 1e-12 of 50-digit
        # mpmath.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for kind, nu, s, x in (
                ("be", 0.99, -1.5, complex(1e-11, 200 * math.pi)),
                ("be", 1.995, -2.5 + 1j, complex(3e-12, -50 * math.pi)),
                ("fd", 2.99, -0.5, complex(1e-10, 101 * math.pi)),
                ("be", 0.99, 1.5, complex(1e-9, 40 * math.pi)),
                ("be", 0.3 + 0.2j, -1.5, complex(1e-11, 20 * math.pi)),
            ):
                got = (ext_fd if kind == "fd" else ext_be)(ExtParams(nu, s, x))
                assert got.strategy == f"{kind}/circle-be", (kind, nu, s, x)
                xm, am = mpmath.mpc(x), mpmath.mpc(nu) + 1
                z = (-1 if kind == "fd" else 1) * mpmath.exp(-xm)
                want = mpmath.exp(-am * xm) * mpmath.lerchphi(z, mpmath.mpc(s), am)
                gap = abs(mpmath.mpc(got.value) - want)
                assert gap <= got.err_estimate, (kind, nu, s, x)
                assert gap <= 1e-12 * abs(want), (kind, nu, s, x)

    def test_auto_large_nu_grid_against_mpmath(self):
        # Seeded grid at nu in [10, 1e3] next to the circle (grids.large_nu_
        # grid): where (nu + 1) times the Taylor argument passes 4 the Taylor
        # terms cancel away their digits, and AUTO takes the defining series
        # instead.  Every point returns within its estimate and 1e-10 of
        # the frozen mpmath reference.
        for (kind, nu, s, x), ref in grid_refs("large_nu"):
            got = (ext_fd if kind == "fd" else ext_be)(ExtParams(nu, s, x))
            gap, ref_abs = ref_gap(got.value, ref)
            assert gap <= decimal.Decimal(got.err_estimate), (kind, nu, s, x)
            assert gap <= decimal.Decimal(1e-10) * ref_abs, (kind, nu, s, x)

    def test_auto_large_nu_takes_the_defining_series(self):
        # Points where AUTO raised ConvergenceError (after 20 ms to 1.9 s)
        # or returned 1.4e-12 off from the Taylor route: the defining
        # series returns each, accurate and within its estimate.  At
        # nu = 1e5 the value, about 1e-422, underflows to 0, and the
        # estimate charges the underflow.
        mpmath = pytest.importorskip("mpmath")
        for f, kind in ((ext_fd, "fd"), (ext_be, "be")):
            for nu, s, x in ((1e3, -2.5, 0.01), (60, -0.5, 0.03 + 1j),
                             (200, -1.5, 0.02 + 3j), (200, -1.5, 0.02)):
                got = f(ExtParams(nu, s, x))
                assert got.strategy == f"{kind}/xseries-direct", (kind, nu, s, x)
                with mpmath.workdps(30):
                    xm, am = mpmath.mpc(x), mpmath.mpf(nu) + 1
                    z = (-1 if kind == "fd" else 1) * mpmath.exp(-xm)
                    want = mpmath.exp(-am * xm) * mpmath.lerchphi(z, mpmath.mpc(s), am)
                    gap = abs(mpmath.mpc(got.value) - want)
                assert gap <= got.err_estimate and gap <= 1e-13 * abs(want), (kind, nu, s, x)
            got = f(ExtParams(1e5, -2.5, 0.01))
            assert got.value == 0.0 and got.err_estimate > 0.0
            assert got.work < 4_000

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
        # the reduction loses digits.  At x = 1e-6 + 2i lerch_phi takes the
        # CVZ circle sum, 64 terms where the direct sum would need millions.
        # Where z is within the multiplication cap's angle of the positive
        # real axis no CVZ sum reaches it: the forced series, which refused
        # there, takes the Taylor series in log z, within its estimate, and
        # AUTO the same expansion about the centre.
        mpmath = pytest.importorskip("mpmath")
        for f, kind in ((ext_fd, "fd"), (ext_be, "be")):
            for nu, s, x in ((0.5, 0.5 + 25j, 0.004 + 2.0j),
                             (1.5, 3.0 - 20j, 0.03 - 1.6j),
                             (2.0, 1.5 + 1j, 0.001 + 7.0j)):
                p = ExtParams(nu, s, x)
                assert f(p) == f(p, Strategy.XSERIES), (kind, nu, s, x)
            p = ExtParams(0.5, 1.0 + 2j, 1e-6 + 2.0j)
            got = f(p, Strategy.XSERIES)
            assert got == f(p)
            assert (got.strategy, got.work) == (f"{kind}/xseries-cvz-circle", 64)
            with mpmath.workdps(30):
                xm, am = mpmath.mpc(p.x), mpmath.mpf(1.5)
                z = (-1 if kind == "fd" else 1) * mpmath.exp(-xm)
                want = mpmath.exp(-am * xm) * mpmath.lerchphi(z, mpmath.mpc(p.s), am)
            gap = abs(mpmath.mpc(got.value) - want)
            assert gap <= got.err_estimate and gap <= 1e-13 * abs(want), kind
            p = ExtParams(0.5, 1.0 + 2j, 1e-6 + (3.19j if kind == "fd" else 0.05j))
            got = f(p, Strategy.XSERIES)
            assert got.strategy == f"{kind}/xseries-mu-series"
            assert f(p).strategy == f"{kind}/circle-be"
            with mpmath.workdps(30):
                xm = mpmath.mpc(p.x)
                z = (-1 if kind == "fd" else 1) * mpmath.exp(-xm)
                want = mpmath.exp(-am * xm) * mpmath.lerchphi(z, mpmath.mpc(p.s), am)
            gap = abs(mpmath.mpc(got.value) - want)
            assert gap <= got.err_estimate and gap <= 1e-12 * abs(want), kind

    def test_circle_positive_order_grid_against_mpmath(self):
        # AUTO's expansion about the nearest centre at Re s > 0, called
        # directly at every point, against the frozen 20-digit
        # mpmath.lerchphi references: within the estimate.  Where AUTO takes
        # it itself, next to z = 1 where no CVZ sum reaches, also within
        # 1e-12.  Half the grid sits next to a be centre at integer s, where
        # the pole limit's -log x takes the phase of z.
        taken = 0
        for (kind, nu, s, x), ref in grid_refs("circle_positive_order"):
            centre = extended._centre(x, *extended._lerch_z(kind, x))
            got = extended._about_centre(kind, complex(nu), s, x, *centre)
            assert got.strategy.startswith(f"{kind}/circle-")
            gap, ref_abs = ref_gap(got.value, ref)
            assert gap <= decimal.Decimal(got.err_estimate), (kind, nu, s, x)
            if (ext_fd if kind == "fd" else ext_be)(ExtParams(nu, s, x)) == got:
                assert gap <= decimal.Decimal(1e-12) * ref_abs, (kind, nu, s, x)
                taken += 1
        assert taken == 98

    def test_auto_imaginary_axis_positive_order_grid_against_mpmath(self):
        # x = it within 1e-6 to 0.131 of a centre where z = 1, at Re s in
        # (0, 4] (grids.imaginary_axis_grid), once a hole in AUTO's domain:
        # no CVZ sum reaches z there, and every point raised.  AUTO now
        # expands about the centre, reading mu from the exact phase of z,
        # and returns each point within its estimate of the frozen mpmath
        # reference and within 1e-12.
        for (kind, nu, s, x), ref in grid_refs("imaginary_axis"):
            got = (ext_fd if kind == "fd" else ext_be)(ExtParams(nu, s, x))
            assert got.strategy == f"{kind}/circle-be", (kind, nu, s, x)
            gap, ref_abs = ref_gap(got.value, ref)
            assert gap <= decimal.Decimal(got.err_estimate), (kind, nu, s, x)
            assert gap <= decimal.Decimal(1e-12) * ref_abs, (kind, nu, s, x)

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

    def test_auto_one_ulp_off_a_centre_returns_the_value_at_the_double(self):
        # One ulp past 2 pi (be) or 3 pi (fd) mu is about 1e-15 i, read
        # from the exact phase of z, next to be's singularity at 0: the
        # value at the double input, about 1.3e38 and 1.8e37, within its
        # estimate and 1e-14 (AUTO refused while it read x against the
        # double nearest pi).  fd is smooth at its centre.  At Im x = 1e15
        # Lerch's transformation returns, and its estimate charges the
        # rounding of the factor e^{-(nu+1) x}.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for f, kind, x, size in (
                    (ext_be, "be", 1j * math.nextafter(2.0 * math.pi, 7.0), 1.27e38),
                    (ext_fd, "fd", 1j * math.nextafter(3.0 * math.pi, 10.0), 1.78e37)):
                got = f(ExtParams(0.5, -1.5, x))
                assert got.strategy == f"{kind}/circle-be"
                xm = mpmath.mpc(x)
                z = (-1 if kind == "fd" else 1) * mpmath.exp(-xm)
                want = mpmath.exp(-1.5 * xm) * mpmath.lerchphi(z, -1.5, 1.5)
                gap = abs(mpmath.mpc(got.value) - want)
                assert gap <= got.err_estimate and gap <= 1e-14 * abs(want), kind
                assert abs(abs(want) / size - 1) < 0.01, kind
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
        # raise; AUTO reduces imaginary x to a centre first, and takes
        # Lerch's transformation at real nu where its inner sums serve.
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
                    if strategy is Strategy.POWER_SERIES_X:
                        assert got.strategy == f"{kind}/power-series-x"
                    elif zeta_module.lerch_transform_serves(nu + 1.0, -x.real):
                        assert got.strategy == f"{kind}/xseries-lerch-transform"
                    elif x.imag == 0.0:
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
        # grids.nu_series_real_nu_grid: nu in [0, 8], Re s in [-4, 5] real
        # and complex, x in {0, 0.3, 1, 2.5}, both kinds: every point
        # returns within its estimate and 1e-10 of the frozen reference.
        for (kind, nu, s, x), ref in grid_refs("nu_series_real_nu"):
            got = (ext_fd if kind == "fd" else ext_be)(ExtParams(nu, s, x), Strategy.NU_SERIES)
            gap, ref_abs = ref_gap(got.value, ref)
            assert gap <= decimal.Decimal(got.err_estimate), (kind, nu, s, x)
            assert gap <= decimal.Decimal(1e-10) * ref_abs, (kind, nu, s, x)

    def test_nu_series_next_to_a_be_centre_grid_against_mpmath(self):
        # grids.nu_series_be_centre_grid: x within 1e-9 to 0.13 of a be
        # centre, on the circle and inside it, at Re s in [-6, 0], real
        # and complex nu.  The coefficients at Re(s + k) <= 0 take Lerch's
        # transformation at the exact log z, inside the circle as on it,
        # where the direct sum refused: every point returns within its
        # estimate and 1e-12 of the frozen reference.
        for (kind, nu, s, x), ref in grid_refs("nu_series_be_centre"):
            got = (ext_fd if kind == "fd" else ext_be)(ExtParams(nu, s, x), Strategy.NU_SERIES)
            assert got.strategy == f"{kind}/nu-series", (kind, nu, s, x)
            gap, ref_abs = ref_gap(got.value, ref)
            assert gap <= decimal.Decimal(got.err_estimate), (kind, nu, s, x)
            assert gap <= decimal.Decimal(1e-12) * ref_abs, (kind, nu, s, x)

    def test_nu_series_ladder_grid_against_mpmath(self):
        # grids.nu_series_grid: x in {0, 0.05, 0.3, 1, 2.5, 0.3 + 2i}, Re s
        # in [-4.5, 6], |Im s| <= 8, real and complex nu; the coefficients
        # cross every regime of their order ladders.  Every point that
        # returns is tagged nu-series and within its estimate of the frozen
        # reference, and within 1e-10 of it but at one known limit: fd at
        # x = 0 next to Re s = -4 takes its coefficients at Re(s + k) in
        # (-4, -3] from Euler-Maclaurin halves, good to about 1e-9 there.
        # Where |Im nu|/|nu + 1|, the least ratio over the shifts m, passes
        # 0.93, the weights (s)_k (m - nu)^k/k! leave the double range
        # before the series converges, and the route refuses.
        refused, loose = [], []
        for (kind, nu, s, x), ref in grid_refs("nu_series"):
            point = (kind, nu, s, x)
            try:
                got = (ext_fd if kind == "fd" else ext_be)(ExtParams(nu, s, x), Strategy.NU_SERIES)
            except ConvergenceError:
                refused.append(point)
                continue
            gap, ref_abs = ref_gap(got.value, ref)
            assert got.strategy == f"{kind}/nu-series", point
            assert gap <= decimal.Decimal(got.err_estimate), point
            if gap > decimal.Decimal(1e-10) * ref_abs:
                assert gap <= decimal.Decimal(1e-8) * ref_abs, point
                loose.append(point)
        assert len(refused) == 2
        assert all(abs(nu.imag) / abs(nu + 1.0) > 0.93 for _, nu, _, _ in refused)
        assert [(kind, x) for kind, _, _, x in loose] == [("fd", 0.0)]
        assert all(-4.5 <= s.real <= -4.0 for _, _, s, _ in loose)

    def test_nu_series_bench_grid_work(self):
        # table-bulk's two NuSeries grids and their nu + 1/8 twins.  The
        # work counter is deterministic: about the integer of least ratio
        # these 336 points take 115,176 units.  (About nu = 0 they took
        # 361,419, 150,296 of them at nu = 7/8, where the series converged
        # like (7/8)^k; about m = 1 it converges like (1/16)^k.)  The
        # coefficient ladders make as many terms as order-by-order sums.  At
        # nu = 7/8 every point, and x = 0.3, must also agree with AUTO.
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
        assert work <= 115_176

    def test_lerch_fault_moves_every_nu_series_rung(self):
        # At x != 0 every coefficient of the nu series is a lerch_phi value
        # or a ladder rung in its place, and an armed lerch_phi fault must
        # scale each by 1 + 1e-6, so the value moves by 1e-6 of itself: the
        # direct sum at Re(s + k) <= 0 and > 0, the alternating sum (fd at
        # x = 0.05), the circle sum order by order (complex x).  At x = 0
        # fd's coefficients never passed through lerch_phi (its alternating
        # sums have no hook), and stay put bit for bit.
        cases = [("fd", 1.25, -3.5 + 2j, 0.05), ("be", 0.5, -4.5, 0.3),
                 ("fd", 2.375, -1.5 - 3j, 0.3 + 2j), ("be", 1.0 + 1j, 0.5, 1.0)]
        ladders = [("fd", 1, -3.5 + 2j, 0.05), ("be", 0, -4.5, 0.3),
                   ("fd", 2, -1.5 - 3j, 0.3 + 2j), ("fd", 2, -6.5, 0.0)]
        at_zero = [(1.25, -6.5), (0.75, 0.5 + 1j), (2.0, -2.0), (0.125, 2.5)]

        def runs():
            values = [(ext_fd if kind == "fd" else ext_be)(
                ExtParams(nu, s, x), Strategy.NU_SERIES) for kind, nu, s, x in cases]
            rungs = [[c.value for c in itertools.islice(
                extended._nu_coefficients(kind, m, complex(s), complex(x)), 40)]
                for kind, m, s, x in ladders]
            fd_zero = [ext_fd(ExtParams(nu, s, 0.0), Strategy.NU_SERIES) for nu, s in at_zero]
            return values, rungs, fd_zero

        clean = runs()
        with faults.inject("lerch_phi"):
            faulty = runs()
        for c, f in zip(clean[0], faulty[0]):
            assert rel(f.value - c.value, 1e-6 * c.value) <= 1e-5
        for c, f in zip(clean[1][:3], faulty[1][:3]):
            assert f == [v * (1.0 + 1e-6) for v in c]
        assert faulty[1][3] == clean[1][3] and faulty[2] == clean[2]

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
        # Small x, where the direct sum would take more than 300 terms
        # (x below about 0.0998): fd at Re s > 0 sums the defining series
        # by the alternating acceleration, be at Re s > 0 takes the Taylor
        # route, and both at Re s <= 0 Lerch's transformation at the
        # complex angle of z.  The transformation leaves nu next to an
        # integer, and m x > 1 for its m = ceil(nu) reduction terms, to
        # the Taylor route, and the defining series takes (nu + 1) x > 4.
        # Beyond, the defining series; at Re s > 0 fd's alternating sum
        # wherever it is shorter than the direct sum's predicted
        # ceil(ln 1e-13 / -x) terms.
        for x in (0.01, 0.08):
            assert ext_fd(ExtParams(0.5, 2.5, x)).strategy == "fd/xseries-cvz"
            assert ext_be(ExtParams(0.5, 2.5, x)).strategy == "be/power-series-x"
            assert ext_be(ExtParams(0.5, -2.5, x)).strategy == "be/xseries-lerch-transform"
            assert ext_be(ExtParams(0.5, 2.0, x)).strategy == "be/power-series-x"
            assert ext_fd(ExtParams(0.5, -2.5, x)).strategy == "fd/xseries-lerch-transform"
            assert ext_fd(ExtParams(0.995, -2.5, x)).strategy == "fd/power-series-x"
            assert ext_be(ExtParams(0.5, -2.5, x + 3j)).strategy == "be/xseries-lerch-transform"
        assert ext_be(ExtParams(20.5, -2.5, 0.08)).strategy == "be/power-series-x"
        assert ext_fd(ExtParams(20.5, -2.5, 0.08 + 3j)).strategy == "fd/circle-be"
        assert ext_be(ExtParams(60.5, -2.5, 0.08)).strategy == "be/xseries-direct"
        assert ext_be(ExtParams(60.5, 2.5, 0.08)).strategy == "be/xseries-direct"
        assert ext_fd(ExtParams(0.5, 2.5, 0.2)).strategy == "fd/xseries-cvz"
        assert ext_fd(ExtParams(0.5, 2.5, 0.9)).strategy == "fd/xseries-cvz"
        assert ext_fd(ExtParams(0.5, 2.5, 1.0)).strategy == "fd/xseries-direct"
        assert ext_fd(ExtParams(0.5, -2.5, 0.2)).strategy == "fd/xseries-direct"
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
            "direct-sum", "cvz-circle", "lerch-transform", "mu-series"}
        for f, p, tag in (
            (ext_be, ExtParams(0.5, 2.5, 0.05), "be/xseries-mu-series"),
            (ext_fd, ExtParams(0.0, 0.5 + 60j, 0.0), "fd/xseries-cvz"),
            (ext_be, ExtParams(0.5, 2.5, 0.0), "be/xseries-hurwitz-delegate"),
            (ext_fd, ExtParams(0.5, 2.5, 1.0), "fd/xseries-direct"),
            (ext_fd, ExtParams(0.5, 2.5, 1.0j), "fd/xseries-cvz-circle"),
            (ext_fd, ExtParams(0.5, -2.5, 1.0j), "fd/xseries-lerch-transform"),
            (ext_fd, ExtParams(0.5, -2.5, 0.01), "fd/xseries-lerch-transform"),
        ):
            assert f(p, Strategy.XSERIES).strategy == tag, p


class TestTaylorRefusal:
    """The Taylor route refuses a sum it cannot finish with bounded work.
    With real nu, a non-integer order and |x| past 0.4 of the radius it
    refuses up front, before its first reflection rung k0 (the first k with
    Re(s - k) <= -4), where the ladder's bounds on coefficients k0 to 39
    prove that no pair of terms from k0 - 1 on can meet the stopping rule
    and that the last pair fails the 40-term test
    (``zeta._cannot_converge``).  Elsewhere it refuses through its
    grow-streak detector or its 40-term cap."""

    @staticmethod
    def _forced(points):
        """Each point's forced PowerSeriesX outcome, (value, estimate, tag,
        work) or the exception class, and how many were refused up front."""
        outcomes, refused = [], 0
        for f, p in points:
            try:
                r = f(p, Strategy.POWER_SERIES_X)
            except ConvergenceError as exc:
                outcomes.append(ConvergenceError)
                refused += "cannot converge" in str(exc)
            else:
                outcomes.append((r.value, r.err_estimate, r.strategy, r.work))
        return outcomes, refused

    def test_refusal_changes_no_outcome(self, monkeypatch):
        # Seeded grid: real nu in [0, 12], non-integer real and complex s
        # with Re s in [-14, 6], |x| from 0.05 to 0.999 of the radius, fd
        # and be.  With the rule on, every outcome equals the full loop's.
        rng = random.Random(20261123)
        points = []
        for _ in range(200):
            f, radius = rng.choice(((ext_fd, math.pi), (ext_be, 2.0 * math.pi)))
            s = complex(rng.uniform(-14.0, 6.0), rng.choice((0.0, rng.uniform(-8.0, 8.0))))
            x = cmath.rect(radius * rng.uniform(0.05, 0.999),
                           rng.choice((0.0, rng.uniform(-1.5, 1.5))))
            points.append((f, ExtParams(rng.uniform(0.0, 12.0), s, x)))
        ruled, refused = self._forced(points)
        monkeypatch.setattr(zeta_module, "_cannot_converge", lambda *args: False)
        full, none = self._forced(points)
        assert ruled == full and none == 0
        assert refused >= 1 and any(o is not ConvergenceError for o in ruled)

    def test_ladder_bounds_bracket_the_computed_rungs(self):
        # ReflectionLadder.bounds holds for the computed rungs, whatever
        # their abs_tol.  Where a bound would leave the floats the ladder
        # gives none.
        rng = random.Random(20261124)
        for _ in range(60):
            step = rng.choice((1, 2))
            a = rng.choice((rng.uniform(1.0, 13.0), float(rng.randint(1, 13)),
                            rng.randint(1, 12) + 1e-9))
            s = complex(rng.uniform(-40.0, -4.0), rng.choice((0.0, rng.uniform(-10.0, 10.0))))
            ladder = zeta_module.ReflectionLadder(s, a, step)
            for lo, hi in ladder.bounds(rng.randint(1, 40)):
                value, _, _ = ladder.rung(rng.choice((0.0, 1e-8 * hi, hi)))
                assert lo <= abs(value) <= hi, (s, a, step)
        assert zeta_module.ReflectionLadder(-4.5 + 0j, 1e8, 1).bounds(40) is None

    def test_low_bounds_keep_the_full_sum(self):
        # A stand-in ladder: each coefficient within [low, 1], weights
        # near 1 from k0 = 30 on, scale 1 before k0.  The sum stops at the
        # first pair of terms below REL_TOL times its scale, so a single
        # pair whose lower bounds vanish keeps the full sum, however large
        # the last pair.  The scale may grow by every upper bound, to about
        # 13 here: lower bounds of 5e-10 clear 1e3 REL_TOL times the scale
        # before k0 but not times that, and keep the full sum too.
        class Ladder:
            def __init__(self, lows):
                self.lows = lows

            def bounds(self, count):
                return [(lo, 1.0) for lo in self.lows[:count]]

        def refuses(lows):
            return zeta_module._cannot_converge(Ladder(lows), 30, 35.0, 1.0, 1.0, 1.0)

        assert refuses([1.0] * 10)
        assert not refuses([1.0] * 4 + [0.0, 0.0] + [1.0] * 4)
        assert not refuses([1.0] * 8 + [0.0, 0.0])
        assert not refuses([5e-10] * 10)

    @pytest.mark.parametrize("f, p, k0", [
        (ext_fd, ExtParams(0.0, 2.5, 2.5), 7),
        (ext_fd, ExtParams(1.125, 1.5, 2.5), 6),
        (ext_be, ExtParams(0.0, -0.5, 5.0), 4),
        (ext_be, ExtParams(1.0, -2.5 + 1j, 3.37), 2),
    ])
    def test_refused_point_stops_before_its_first_rung(self, monkeypatch, f, p, k0):
        # The coefficients before k0 are Euler-Maclaurin values; a refused
        # point computes those and no rung.
        calls = self._counted(monkeypatch, f)
        rung = zeta_module.ReflectionLadder.rung
        monkeypatch.setattr(zeta_module.ReflectionLadder, "rung",
                            lambda *args: calls.append("rung") or rung(*args))
        with pytest.raises(ConvergenceError, match=f"cannot converge .* from k={k0}"):
            f(p, Strategy.POWER_SERIES_X)
        assert len(calls) <= k0 and "rung" not in calls

    def test_auto_never_pays_for_the_check(self, monkeypatch):
        # AUTO expands within a third of the radius (Re x < 0.1 aside),
        # below the 0.4 of it where the check starts, though its ladders
        # start there too.
        ladders, checks = [], []
        ladder = zeta_module.ReflectionLadder.__init__
        monkeypatch.setattr(zeta_module.ReflectionLadder, "__init__",
                            lambda *args: ladders.append(1) or ladder(*args))
        monkeypatch.setattr(zeta_module, "_cannot_converge",
                            lambda *args: checks.append(1) or False)
        for name in ("auto_unit_circle", "complex_angle", "imaginary_axis"):
            for kind, nu, s, x in grids.GRIDS[name]():
                (ext_fd if kind == "fd" else ext_be)(ExtParams(nu, s, x))
        assert ladders and not checks

    @staticmethod
    def _counted(monkeypatch, f):
        """The calls of f's Taylor coefficients: zeta(s-k, a) for be,
        Phi(-1, s-k, a) for fd, each counted once, not within another."""
        name = "lerch_minus_one" if f is ext_fd else "hurwitz_zeta"
        calls, inner = [], getattr(zeta_module, name)
        monkeypatch.setattr(zeta_module, name,
                            lambda *args, **kwargs: calls.append(name) or inner(*args, **kwargs))
        return calls

    @pytest.mark.parametrize("f, p", [
        (ext_be, ExtParams(1e6, 15, 0.01)),
        (ext_fd, ExtParams(1e6, -2, 0.01)),
    ])
    def test_large_nu_keeps_the_full_sum(self, monkeypatch, f, p):
        # The grow-streak detector refuses these terms, which grow like
        # (nu x)^k / k!, at k = 23.  AUTO takes the defining series there.
        calls = self._counted(monkeypatch, f)
        with pytest.raises(ConvergenceError, match="stopped decreasing"):
            f(p, Strategy.POWER_SERIES_X)
        assert len(calls) <= 24
        assert f(p).strategy.endswith("/xseries-direct")

    @pytest.mark.parametrize("f, p", [
        (ext_fd, ExtParams(0.5, 2.5, 3.0)),
        (ext_fd, ExtParams(0, -2.5, 2.5)),
        (ext_be, ExtParams(1, -2, 6j)),
    ])
    def test_divergent_forced_point_stops_at_the_cap(self, monkeypatch, f, p):
        # Forced PowerSeriesX still expands about 0, so points near its
        # radius diverge; they raise after at most 40 coefficients.
        calls = self._counted(monkeypatch, f)
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

    def test_float_route_estimates_are_honest(self):
        # Every float closed form at s = -n, n = 0..63, lies within its
        # estimate of the exact value at the double nu: the exact functions
        # at real nu, the exact coefficients summed at 80 digits at complex
        # nu, times e^{-i pi nu} at x = i pi.
        mpmath = pytest.importorskip("mpmath")
        route = Strategy.NEG_INT_BERNOULLI

        def mp(q: Fraction):
            return mpmath.mpf(q.numerator) / q.denominator

        def horner(poly, a):
            acc = mpmath.mpc(0)
            for c in reversed(poly.coeffs):
                acc = acc * a + mp(c)
            return acc

        with mpmath.workdps(80):
            for n in range(64):
                for nu in (0.0, 0.5, 2.3, 7.25, 1 + 2j, 0.3 - 0.7j):
                    if isinstance(nu, complex):
                        a = mpmath.mpc(nu) + 1
                        be = -horner(numeric_core.bernoulli_poly_coeffs(n + 1), a) / (n + 1)
                        fd = horner(numeric_core.euler_poly_coeffs(n), a) / 2
                    else:
                        be = mp(ext_be_negint_exact(Fraction(nu), n))
                        fd = mp(ext_fd_negint_exact(Fraction(nu), n))
                    fd_pi = -mpmath.exp(-1j * mpmath.pi * mpmath.mpc(nu)) * be
                    for got, want in (
                        (ext_be(ExtParams(nu, -n, 0.0), route), be),
                        (ext_fd(ExtParams(nu, -n, 0.0), route), fd),
                        (ext_fd(ExtParams(nu, -n, 1j * math.pi), route), fd_pi),
                    ):
                        assert abs(mpmath.mpc(got.value) - want) <= got.err_estimate, (
                            got.strategy, n, nu)

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
