"""Acceptance criteria.

Each test maps one-to-one onto a shipping gate: golden values, catalog
health, cross-strategy agreement, the exact rational layer, analytic
continuation, complex-argument duality, fault sensitivity, and byte-level
determinism of the selftest report.
"""

import itertools
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from zetakit import (
    ConvergenceError,
    DomainError,
    ExtParams,
    PoleError,
    Strategy,
    bernoulli_number,
    bernoulli_poly,
    chi_ratio,
    dirichlet_eta,
    ext_be,
    ext_be_negint_exact,
    ext_fd,
    ext_fd_negint_exact,
    hurwitz_zeta,
    polylog,
    riemann_zeta,
    run_catalog,
)
from zetakit import faults

import oracles
from oracles import (
    fd_negint_reference,
    hurwitz_negint_reference,
)


def rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# --------------------------------------------------------------------------
# 1. golden values
# --------------------------------------------------------------------------


def test_criterion_1_golden_values():
    started = time.monotonic()
    checks = [
        (riemann_zeta(2.0).value, oracles.ZETA_2),
        (riemann_zeta(0.0).value, oracles.ZETA_0),
        (riemann_zeta(-1.0).value, oracles.ZETA_M1),
        (dirichlet_eta(1.0).value, oracles.ETA_1),
        (dirichlet_eta(2.0).value, oracles.ETA_2),
        (hurwitz_zeta(2.0, 0.5).value, oracles.HURWITZ_2_HALF),
        (ext_fd(ExtParams(0.0, 2.0, 0.0)).value, oracles.FD_ZERO_S2),
        (ext_be(ExtParams(0.0, 2.0, 0.0)).value, oracles.BE_ZERO_S2),
        (ext_be(ExtParams(0.0, -1.0, 0.0)).value, oracles.BE_ZERO_SM1),
        (polylog(math.exp(-1.0), 2.0).value, oracles.LI2_INV_E),
    ]
    elapsed = time.monotonic() - started
    for got, want in checks:
        assert rel(got, want) <= 1e-11
    assert elapsed < 5.0


# --------------------------------------------------------------------------
# 2. identity catalog on default grids
# --------------------------------------------------------------------------


def test_criterion_2_identity_catalog_full_run():
    started = time.monotonic()
    reports = run_catalog()
    elapsed = time.monotonic() - started
    failures = {r.name: r.max_rel_err for r in reports if not r.passed}
    assert failures == {}
    assert len(reports) == 24
    assert elapsed < 60.0


# --------------------------------------------------------------------------
# 3. cross-strategy agreement on the 36-point grid
# --------------------------------------------------------------------------

GRID_NU = (0.0, 0.5, 2.0)
GRID_S = (1.5, 2.0)
GRID_X = (0.1, 1.0, 3.0)
ROUTES = (
    Strategy.XSERIES,
    Strategy.POWER_SERIES_X,
    Strategy.NU_SERIES,
    Strategy.WEYL_QUAD,
)


def test_criterion_3_cross_strategy_agreement():
    points = [
        (fn, nu, s, x)
        for fn, nu, s, x in itertools.product(("fd", "be"), GRID_NU, GRID_S, GRID_X)
    ]
    assert len(points) == 36
    checked_pairs = 0
    for fn, nu, s, x in points:
        evaluate = ext_fd if fn == "fd" else ext_be
        results = []
        for route in ROUTES:
            try:
                results.append(evaluate(ExtParams(nu, s, x), route))
            except (DomainError, ConvergenceError):
                continue  # route does not apply at this point
        assert len(results) >= 2, (fn, nu, s, x)
        for a, b in itertools.combinations(results, 2):
            scale = max(abs(a.value), abs(b.value))
            allowed = max(1e-8 * scale, 10.0 * (a.err_estimate + b.err_estimate))
            assert abs(a.value - b.value) <= allowed, (fn, nu, s, x, a.strategy, b.strategy)
            checked_pairs += 1
    assert checked_pairs >= 36  # every point produced at least one comparison


# --------------------------------------------------------------------------
# 4. exact rational layer
# --------------------------------------------------------------------------

RATIONAL_ARGS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(23, 10), Fraction(-3, 7))
RATIONAL_NU = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(23, 10))


def test_criterion_4_bernoulli_recurrence_exact():
    for n in range(1, 9):
        acc = sum(
            Fraction(math.comb(n + 1, k)) * bernoulli_number(k) for k in range(n + 1)
        )
        assert acc == 0


def test_criterion_4_forward_difference_exact():
    # B_n(x+1) - B_n(x) = n x^{n-1}
    for n in range(1, 9):
        for x in RATIONAL_ARGS:
            assert bernoulli_poly(n, x + 1) - bernoulli_poly(n, x) == n * x ** (n - 1)


def test_criterion_4_power_sum_chain_exact():
    # (B_{n+1}(nu+1) - B_{n+1}(nu)) / (n+1) = nu^n
    for n in range(0, 9):
        for nu in RATIONAL_NU:
            lhs = (bernoulli_poly(n + 1, nu + 1) - bernoulli_poly(n + 1, nu)) / (n + 1)
            assert lhs == nu**n


def test_criterion_4_hurwitz_negint_closed_form_exact():
    # zeta(1-n, a) = -B_n(a)/n expressed through the package's exact layer
    # (shifted to zeta(-n, nu+1)) against the independent oracle table, and
    # its telescoping consequence zeta(-n, a) - zeta(-n, a+1) = a^n.
    for n in range(0, 9):
        for nu in RATIONAL_NU:
            assert ext_be_negint_exact(nu, n) == hurwitz_negint_reference(n, nu + 1)
    for n in range(0, 9):
        for a in (Fraction(1, 2), Fraction(1), Fraction(23, 10)):
            lhs = hurwitz_negint_reference(n, a) - hurwitz_negint_reference(n, a + 1)
            assert lhs == a**n


def test_criterion_4_extended_negint_closed_forms_exact():
    # The all-positive family reproduces -B_{n+1}(nu+1)/(n+1); the
    # alternating family reproduces the same values through the Euler
    # polynomial layer and the exact bisection, with zero error.
    for n in range(0, 9):
        for nu in RATIONAL_NU:
            be = ext_be_negint_exact(nu, n)
            assert be == -bernoulli_poly(n + 1, nu + 1) / (n + 1)
            fd = ext_fd_negint_exact(nu, n)
            assert fd == fd_negint_reference(n, nu)
            # exact difference equation at s = -n, x = 0:
            # fd(nu+1) + fd(nu) = (nu+1)^n
            fd_up = ext_fd_negint_exact(nu + 1, n)
            assert fd_up + fd == (nu + 1) ** n


# --------------------------------------------------------------------------
# 5. continuation consistency
# --------------------------------------------------------------------------


def test_criterion_5_hurwitz_negative_integers_vs_closed_form():
    for s_int in (-3, -2, -1, 0):
        n = 1 - s_int  # zeta(1-n, a) = -B_n(a)/n with n = 1 - s
        for a in (Fraction(1, 2), Fraction(1), Fraction(2)):
            want = float(-bernoulli_poly(n, a) / n)
            got = hurwitz_zeta(float(s_int), float(a)).value
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want))
            assert abs(got.imag) <= 1e-13


def test_criterion_5_em_vs_functional_equation_20_points():
    # 20 points with sigma in [-3, -0.5]; tau in [0.3, 2] keeps |zeta| away
    # from the real-axis trivial zeros so relative error is well posed.
    sigmas = [-3.0 + 2.5 * k / 9.0 for k in range(10)]
    taus = (0.3, 2.0)
    points = [complex(sig, tau) for tau in taus for sig in sigmas]
    assert len(points) == 20
    for s in points:
        em = riemann_zeta(s, via="em")
        fe = riemann_zeta(s, via="functional")
        assert em.strategy != fe.strategy
        assert rel(em.value, fe.value) <= 1e-9, s


# --------------------------------------------------------------------------
# 6. duality at complex argument
# --------------------------------------------------------------------------


def test_criterion_6_duality_via_complex_x_series():
    # Left side: alternating family through the defining series at the
    # shifted complex argument x + i pi (an actually-complex code path).
    # Right side: all-positive family at real x through its own routes.
    worst = 0.0
    for nu in (0.0, 0.5, 1.0, 2.3):
        for s in (1.5, 2.0, 3.0, 2.5 + 2.0j):
            for x in (0.25, 1.0, 3.0):
                lhs_res = ext_fd(ExtParams(nu, s, complex(x, math.pi)), Strategy.XSERIES)
                rhs_res = ext_be(ExtParams(nu, s, x))
                assert lhs_res.strategy.startswith("fd/")
                assert rhs_res.strategy.startswith("be/")
                import cmath

                lhs = lhs_res.value
                rhs = cmath.exp(-1j * math.pi * (nu + 1.0)) * rhs_res.value
                worst = max(worst, rel(lhs, rhs))
    assert worst <= 1e-9

    (report,) = run_catalog(["duality-6.7"])
    assert report.passed
    assert report.max_rel_err <= 1e-9


# --------------------------------------------------------------------------
# 7. fault sensitivity
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "target", ["ln_gamma", "hurwitz_zeta", "lerch_phi", "ext_fd", "ext_be"]
)
def test_criterion_7_fault_sensitivity(target):
    with faults.inject(target):
        reports = run_catalog(reduced=True)
    assert any(not r.passed for r in reports), f"{target} fault went unnoticed"


def test_criterion_7_clean_run_control():
    reports = run_catalog(reduced=True)
    assert all(r.passed for r in reports)


# --------------------------------------------------------------------------
# 8. determinism of the selftest report
# --------------------------------------------------------------------------


def test_criterion_8_selftest_byte_determinism():
    def run() -> bytes:
        proc = subprocess.run(
            [sys.executable, "-m", "zetakit", "selftest"],
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    first = run()
    second = run()
    assert first == second
    assert first.strip().startswith(b"{")
