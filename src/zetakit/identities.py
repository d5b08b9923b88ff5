"""Grid-driven numerical verification of the function-family identities.

Every entry in the catalog names one relation between independently
computed quantities, carries its own parameter grid and relative
tolerance; the grid holds only points inside the relation's stated
preconditions.  Running an entry produces an :class:`IdentityReport` with
the worst observed residual, so a regression anywhere in the evaluation
stack surfaces as a named, reproducible failure.

Entries whose source relation is reproduced here with a repaired sign or
argument carry a ``corrected`` marker in their name; their docline in
``build_catalog`` states the repaired form.  The relation behind
``mult-5.10`` is verified in the exactly-derived bridge form; the
as-printed variant (with extra exponential prefactors) is reported by
:func:`mult_5_10_printed_form_gap` for information only.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from collections import namedtuple
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence

from .errors import DomainError, ZetakitError
from .extended import (
    ExtParams,
    Strategy,
    be_classical,
    ext_be,
    ext_fd,
    fd_classical,
    fd_zero_hurwitz_route,
)
from .numeric_core import (
    bernoulli_number,
    bernoulli_poly_coeffs,
    cpow,
    euler_poly_coeffs,
)
from .result import Record
from .weyl import KernelSpec, weyl_transform
from .zeta import (
    LerchParams,
    chi_ratio,
    dirichlet_eta,
    hurwitz_zeta,
    lerch_phi,
    riemann_zeta,
)

__all__ = [
    "IdentitySpec",
    "IdentityReport",
    "check",
    "build_catalog",
    "run_catalog",
    "reports_to_json",
    "mult_5_10_printed_form_gap",
    "QUICK_SUBSET",
]

Point = Mapping[str, Any]
Evaluator = Callable[[Point], complex]

# Shared default axes.  They cover the boundary nu = 0, a non-integer nu,
# integer and complex orders, the x = 0 boundary, and one large x.
_NU = (0.0, 0.5, 1.0, 2.3)
_S = (1.5, 2.0, 3.0, 2.5 + 2.0j)
_X = (0.0, 0.25, 1.0, 3.0)

_REL_FLOOR = 1e-30   # divides |lhs - rhs| when both sides are tiny
_ABS_NEAR_ZERO = 1e-12  # near-zero points compare absolutely against this


class IdentitySpec(Record, namedtuple("IdentitySpec", "name lhs rhs grid tol")):
    """One named identity: evaluators, grid, and tolerance (an immutable
    record, see :mod:`zetakit.result`)."""

    __slots__ = ()

    def __new__(cls, name: str, lhs: Evaluator, rhs: Evaluator,
                grid: tuple[dict, ...], tol: float = 1e-10):
        if not grid:
            raise DomainError(f"identity {name!r} has an empty grid")
        if not tol > 0:
            raise DomainError(f"identity {name!r} needs tol > 0")
        return tuple.__new__(cls, (name, lhs, rhs, grid, tol))


class IdentityReport(Record, namedtuple(
        "IdentityReport",
        "name points_tested max_rel_err mean_rel_err worst_point passed")):
    """Residual summary for one identity over its grid (an immutable record,
    see :mod:`zetakit.result`)."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "points_tested": self.points_tested,
            "max_rel_err": _json_float(self.max_rel_err),
            "mean_rel_err": _json_float(self.mean_rel_err),
            "worst_point": self.worst_point,
            "pass": self.passed,
        }


def _json_float(x: float):
    return x if math.isfinite(x) else repr(x)


def _jsonable(v):
    if isinstance(v, bool) or isinstance(v, int) or isinstance(v, float):
        return v
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, complex):
        if v.imag == 0.0:
            return v.real
        return f"{v.real:.15g}{v.imag:+.15g}i"
    return str(v)


def _point_dict(point: Point) -> dict:
    return {k: _jsonable(v) for k, v in point.items()}


def check(spec: IdentitySpec) -> IdentityReport:
    """Evaluate both sides on every grid point.

    The per-point error is |lhs - rhs| / max(|lhs|, |rhs|, 1e-30); when
    that ratio misses the tolerance but the absolute gap is below 1e-12
    the point counts as a near-zero match and contributes the absolute
    gap instead.  An evaluation error marks the whole report failed and
    is recorded on the worst point.
    """
    errs: list[float] = []
    worst_err = -1.0
    worst_point: dict | None = None
    error_point: dict | None = None
    for point in spec.grid:
        try:
            lhs = complex(spec.lhs(point))
            rhs = complex(spec.rhs(point))
        except (ZetakitError, ArithmeticError, ValueError) as exc:
            if error_point is None:
                error_point = {
                    **_point_dict(point),
                    "error": f"{type(exc).__name__}: {exc}",
                }
            continue
        gap = abs(lhs - rhs)
        rel = gap / max(abs(lhs), abs(rhs), _REL_FLOOR)
        if rel > spec.tol and gap <= _ABS_NEAR_ZERO:
            rel = gap
        errs.append(rel)
        if rel > worst_err:
            worst_err = rel
            worst_point = _point_dict(point)
    if error_point is not None:
        return IdentityReport(
            name=spec.name,
            points_tested=len(spec.grid),
            max_rel_err=math.inf,
            mean_rel_err=math.inf,
            worst_point=error_point,
            passed=False,
        )
    max_err = max(errs) if errs else 0.0
    mean_err = sum(errs) / len(errs) if errs else 0.0
    return IdentityReport(
        name=spec.name,
        points_tested=len(spec.grid),
        max_rel_err=max_err,
        mean_rel_err=mean_err,
        worst_point=worst_point,
        passed=max_err <= spec.tol,
    )


# ---------------------------------------------------------------------------
# Catalog construction
# ---------------------------------------------------------------------------

def _grid(**axes) -> tuple[dict, ...]:
    keys = list(axes)
    return tuple(
        dict(zip(keys, combo))
        for combo in itertools.product(*(axes[k] for k in keys))
    )


# The subset the quick self-test runs: cheap entries that still cover
# every function family (gamma/zeta/eta, Hurwitz, Lerch, both extended
# functions, and the exact polynomial layer).
QUICK_SUBSET = (
    "corrected-2.5",
    "corrected-2.6",
    "diff-eq-7.2",
    "diff-eq-7.6",
    "duality-6.7",
    "functional-eq-1.2",
    "hurwitz-diff-7.11",
    "lerch-diff-7.7",
    "negint-5.9",
)


def build_catalog(reduced: bool = False) -> dict[str, IdentitySpec]:
    """Assemble every identity spec, keyed by name.

    Each grid keeps only the points its guard admits (the relation's
    preconditions).  ``reduced`` then thins each grid to every other point
    (self-test mode); full grids are the acceptance configuration.  The
    evaluators run at the library's fixed series tolerance and budget
    (``zeta.REL_TOL``, ``zeta.MAX_TERMS``).
    """

    def fd(nu, s, x, strategy=Strategy.AUTO):
        return ext_fd(ExtParams(nu, s, x), strategy).value

    def be(nu, s, x, strategy=Strategy.AUTO):
        return ext_be(ExtParams(nu, s, x), strategy).value

    def hz(s, a):
        return hurwitz_zeta(s, a).value

    def lerch(z, s, a):
        return lerch_phi(LerchParams(z, s, a)).value

    specs: list[IdentitySpec] = []

    def add(name, lhs, rhs, grid, guard=lambda p: True, tol=1e-10):
        kept = tuple(p for p in grid if guard(p))
        if reduced:
            kept = kept[::2]
        specs.append(
            IdentitySpec(
                name=name, lhs=lhs, rhs=rhs, grid=kept,
                tol=tol,
            )
        )

    # --- difference equations -------------------------------------------
    # fd recurrence in nu at general x: consecutive orders telescope to a
    # single exponential term.
    add(
        "diff-eq-7.2",
        lambda p: fd(p["nu"] + 1.0, p["s"], p["x"]) + fd(p["nu"], p["s"], p["x"]),
        lambda p: cpow(p["nu"] + 1.0, -complex(p["s"]))
        * cmath.exp(-(p["nu"] + 1.0) * p["x"]),
        _grid(nu=_NU, s=_S, x=_X),
    )
    # same recurrence at x = 0, pushed through the zeta-difference route
    # rather than the alternating one, so the two x = 0 paths cross-check.
    add(
        "diff-eq-7.6",
        lambda p: fd_zero_hurwitz_route(p["nu"], p["s"]).value
        + fd_zero_hurwitz_route(p["nu"] - 1.0, p["s"]).value,
        lambda p: cpow(p["nu"], -complex(p["s"])),
        _grid(nu=(1.0, 2.3), s=_S),
        guard=lambda p: p["nu"] >= 1.0,
    )
    add(
        "lerch-diff-7.7",
        lambda p: lerch(p["z"], p["s"], p["a"])
        - p["z"] * lerch(p["z"], p["s"], p["a"] + 1.0),
        lambda p: cpow(p["a"], -complex(p["s"])),
        _grid(
            z=tuple(
                sign * math.exp(-x) for x in (0.25, 1.0, 3.0) for sign in (1.0, -1.0)
            ),
            s=_S,
            a=(1.0, 2.3),
        ),
        guard=lambda p: p["a"] >= 1.0,
    )
    add(
        "hurwitz-diff-7.11",
        lambda p: hz(p["s"], p["nu"]) - hz(p["s"], p["nu"] + 1.0),
        lambda p: cpow(p["nu"], -complex(p["s"])),
        _grid(nu=(1.0, 2.3), s=_S),
        guard=lambda p: p["nu"] >= 1.0,
    )

    # --- connection formulas ---------------------------------------------
    add(
        "bisection-6.1",
        lambda p: fd(2.0 * p["nu"], p["s"], p["x"]),
        lambda p: be(2.0 * p["nu"], p["s"], p["x"])
        - cpow(2.0, 1.0 - complex(p["s"])) * be(p["nu"], p["s"], 2.0 * p["x"]),
        _grid(nu=_NU, s=_S, x=_X),
        guard=lambda p: p["x"] != 0.0 or complex(p["s"]).real > 1.0,
    )
    add(
        "fd-be-6.6",
        lambda p: fd_classical(p["s"], p["x"]).value,
        lambda p: be_classical(p["s"], p["x"]).value
        - cpow(2.0, 1.0 - complex(p["s"])) * be_classical(p["s"], 2.0 * p["x"]).value,
        _grid(s=_S, x=(-2.0, -1.0, -0.25)),
    )
    # The phase sits with the shifted-argument side: shifting x by i*pi
    # multiplies every series term by exp(-i*pi*(n+nu+1)), whose n-part
    # cancels the alternation, leaving exp(-i*pi*(nu+1)) times the
    # one-signed function.  (The inverted-phase variant only holds at
    # integer nu.)
    add(
        "duality-6.7",
        lambda p: fd(p["nu"], p["s"], complex(p["x"], math.pi), Strategy.XSERIES),
        lambda p: cmath.exp(-1j * math.pi * (p["nu"] + 1.0))
        * be(p["nu"], p["s"], p["x"]),
        _grid(nu=_NU, s=_S, x=_X),
        guard=lambda p: p["x"] != 0.0 or complex(p["s"]).real > 1.0,
    )
    add(
        "evenodd-6.10",
        lambda p: fd(p["nu"] + 1.0, p["s"], p["x"]),
        lambda p: cpow(2.0, -complex(p["s"]))
        * (
            be(p["nu"] / 2.0, p["s"], 2.0 * p["x"])
            - be((p["nu"] + 1.0) / 2.0, p["s"], 2.0 * p["x"])
        ),
        _grid(nu=(0.5, 1.0, 2.3), s=_S, x=_X),
        guard=lambda p: p["nu"] > 0.0,
    )
    # x = 0 closed form, with the argument pair ((nu+1)/2, (nu+2)/2) that
    # actually telescopes to the alternating series (repaired arguments).
    add(
        "cor-6.12-corrected",
        lambda p: fd(p["nu"], p["s"], 0.0),
        lambda p: cpow(2.0, -complex(p["s"]))
        * (hz(p["s"], (p["nu"] + 1.0) / 2.0) - hz(p["s"], (p["nu"] + 2.0) / 2.0)),
        _grid(nu=_NU, s=_S),
    )

    # --- multiplication formulas ------------------------------------------
    # Verified in the bridge form: the order-q splitting of the one-signed
    # series pushed through its Lerch representation term by term.  The
    # as-printed prefactor variant is reported separately (informational).
    add(
        "mult-5.10",
        lambda p: be(p["a"], p["s"], p["x"]),
        lambda p: cpow(p["q"], -complex(p["s"]))
        * sum(
            cmath.exp(-(p["a"] + j) * p["x"])
            * lerch(math.exp(-p["q"] * p["x"]), p["s"], (p["a"] + j) / p["q"])
            for j in range(1, p["q"] + 1)
        ),
        _grid(q=(2, 3), a=_NU, s=_S, x=_X),
        guard=lambda p: p["a"] >= p["q"] - 1.0,
    )
    add(
        "mult-5.12",
        lambda p: be(p["a"], p["s"], 0.0),
        lambda p: cpow(p["q"], -complex(p["s"]))
        * sum(
            be((p["a"] + j - p["q"]) / p["q"], p["s"], 0.0)
            for j in range(1, p["q"] + 1)
        ),
        _grid(q=(2, 3), a=_NU, s=_S),
        guard=lambda p: p["a"] >= p["q"] - 1.0,
    )
    add(
        "mult-5.13",
        lambda p: hz(p["s"], p["a"] + 1.0),
        lambda p: cpow(p["q"], -complex(p["s"]))
        * sum(hz(p["s"], (p["a"] + j) / p["q"]) for j in range(1, p["q"] + 1)),
        _grid(q=(2, 3), a=(0.0, 0.5, 1.0, 2.3), s=_S),
    )
    add(
        "mult-5.14",
        lambda p: riemann_zeta(p["s"]).value,
        lambda p: cpow(p["q"], -complex(p["s"]))
        * sum(hz(p["s"], j / p["q"]) for j in range(1, p["q"] + 1)),
        _grid(q=(2, 3), s=_S),
    )

    # --- integral self-representation --------------------------------------
    def _selfrep_rhs(p: Point) -> complex:
        nu, beta = p["nu"], p["beta"]

        def kernel_value(u: float, nu=nu, beta=beta) -> complex:
            return ext_fd(ExtParams(nu, beta, u), Strategy.AUTO).value

        kernel = KernelSpec(value=kernel_value, decay_b=math.inf)
        return weyl_transform(kernel, p["r"], p["x"]).value

    add(
        "weyl-selfrep-4.8",
        lambda p: fd(p["nu"], p["r"] + p["beta"], p["x"]),
        _selfrep_rhs,
        _grid(r=(1.0, 0.5), beta=(1.0, 1.5), nu=(0.0, 1.0), x=(0.0, 0.5)),
        guard=lambda p: (p["r"], p["beta"]) in ((1.0, 1.0), (0.5, 1.5)),
        tol=1e-7,
    )

    # --- power series in x ---------------------------------------------------
    add(
        "xseries-4.14",
        lambda p: fd(p["nu"], p["s"], p["x"], Strategy.POWER_SERIES_X),
        lambda p: fd(p["nu"], p["s"], p["x"], Strategy.XSERIES),
        _grid(nu=_NU, s=_S, x=(0.25, 1.0)),
        tol=1e-8,
    )

    def _eta_series(p: Point) -> complex:
        s, x = complex(p["s"]), p["x"]
        acc = complex(0.0)
        xpow = 1.0
        small = 0
        for k in range(60):
            term = dirichlet_eta(s - k).value * xpow
            acc += term
            if abs(term) <= 1e-17 * max(abs(acc), 1e-30):
                small += 1
                if small >= 2:
                    break
            else:
                small = 0
            xpow *= x / (k + 1)
        return acc

    add(
        "xseries-4.15",
        lambda p: fd_classical(p["s"], p["x"]).value,
        _eta_series,
        _grid(s=_S, x=(-0.5, -0.2)),
        tol=1e-8,
    )

    # --- series in nu ---------------------------------------------------------
    # Eqs. 4.7/5.8 expand about nu = 0; the route moves the centre to the
    # nearest integer by the difference equation (diff-eq-7.2), so every
    # Re(nu) >= 0 is in its domain.
    add(
        "nuseries-4.7",
        lambda p: fd(p["nu"], p["s"], 0.0, Strategy.NU_SERIES),
        lambda p: fd(p["nu"], p["s"], 0.0),
        _grid(nu=(0.0, 0.5), s=_S),
    )
    add(
        "nuseries-5.8",
        lambda p: be(p["nu"], p["s"], 0.0, Strategy.NU_SERIES),
        lambda p: be(p["nu"], p["s"], 0.0),
        _grid(nu=(0.0, 0.5), s=_S),
    )

    # --- negative integer orders ------------------------------------------
    add(
        "negint-5.9",
        lambda p: hz(complex(-p["n"]), p["a"]),
        lambda p: complex(
            -bernoulli_poly_coeffs(p["n"] + 1).evaluate(p["a"]) / (p["n"] + 1)
        ),
        _grid(a=(0.5, 1.0, 1.5, 2.3), n=(0, 1, 2, 3, 4, 5)),
    )
    add(
        "negint-7.8",
        lambda p: fd(p["nu"], complex(-p["n"]), complex(0.0, math.pi), Strategy.XSERIES),
        lambda p: cmath.exp(-1j * math.pi * p["nu"])
        * bernoulli_poly_coeffs(p["n"] + 1).evaluate(p["nu"] + 1.0)
        / (p["n"] + 1),
        _grid(nu=_NU, n=(1, 2, 3, 5)),
    )
    # the exact rational chain: consecutive Bernoulli polynomials differ by
    # a pure power; computed entirely in Fractions, so the residual is 0.
    add(
        "negint-7.9",
        lambda p: complex(
            float(
                (
                    bernoulli_poly_coeffs(p["n"] + 1).evaluate(p["nu"] + 1)
                    - bernoulli_poly_coeffs(p["n"] + 1).evaluate(p["nu"])
                )
                / (p["n"] + 1)
            )
        ),
        lambda p: complex(float(p["nu"] ** p["n"])),
        _grid(
            nu=(Fraction(0), Fraction(1, 2), Fraction(1), Fraction(23, 10)),
            n=(0, 1, 2, 3, 4, 5, 6, 7, 8),
        ),
    )

    # --- classical zeta relations ----------------------------------------
    add(
        "functional-eq-1.2",
        lambda p: riemann_zeta(p["s"], via="em").value,
        lambda p: chi_ratio(p["s"]).value
        * riemann_zeta(1.0 - complex(p["s"]), via="em").value,
        _grid(
            s=(
                -2.5,
                -1.5,
                -0.5,
                0.5,
                2.5,
                3.5,
                0.5 + 2.0j,
                -0.5 + 3.0j,
                2.5 + 1.0j,
                -1.5 + 0.5j,
            )
        ),
        tol=1e-9,
    )
    # even zeta values vs the Bernoulli table; the sign is (-1)^(n+1)
    # (repaired), which the n = 1 case pins down: zeta(2) = +pi^2/6.
    add(
        "corrected-2.5",
        lambda p: riemann_zeta(complex(2 * p["n"])).value,
        lambda p: (
            (-1.0) ** (p["n"] + 1)
            * (2.0 * math.pi) ** (2 * p["n"])
            / (2.0 * math.factorial(2 * p["n"]))
            * float(bernoulli_number(2 * p["n"]))
        ),
        _grid(n=(1, 2, 3, 4, 5, 6)),
    )
    # Euler polynomials from their own recursion vs the Bernoulli link;
    # the bracket subtracts (repaired sign), which n = 0 pins down:
    # E_0 = 1, not 4x - 3.
    add(
        "corrected-2.6",
        lambda p: complex(euler_poly_coeffs(p["n"]).evaluate(float(p["x"]))),
        lambda p: complex(
            2.0
            / (p["n"] + 1)
            * (
                bernoulli_poly_coeffs(p["n"] + 1).evaluate(float(p["x"]))
                - 2.0 ** (p["n"] + 1)
                * bernoulli_poly_coeffs(p["n"] + 1).evaluate(float(p["x"]) / 2.0)
            )
        ),
        _grid(n=(0, 1, 2, 3, 4, 5, 6), x=_X),
    )

    catalog = {s.name: s for s in specs}
    if len(catalog) != len(specs):  # pragma: no cover - construction bug
        raise DomainError("duplicate identity names in catalog")
    return catalog


def run_catalog(
    names: Sequence[str] | None = None, reduced: bool = False
) -> list[IdentityReport]:
    """Check all (or the named) identities; reports sorted by name."""
    catalog = build_catalog(reduced)
    if names:
        missing = sorted(set(names) - set(catalog))
        if missing:
            raise KeyError(f"unknown identities: {', '.join(missing)}")
        selected = sorted(set(names))
    else:
        selected = sorted(catalog)
    return [check(catalog[name]) for name in selected]


def reports_to_json(reports: Sequence[IdentityReport]) -> str:
    """Deterministic JSON array of report objects."""
    return json.dumps(
        [r.to_dict() for r in reports], indent=2, allow_nan=False
    )


def mult_5_10_printed_form_gap() -> dict[str, float]:
    """Residuals of the as-printed multiplication variant (informational).

    The printed variant carries prefactors exp(a x (1-q)/q) and
    exp(x j (1-q)/q) on the order-q splitting.  At x = 0 all prefactors
    are 1 and it coincides with the verified bridge form; at x > 0 the
    prefactors make it fail, which this function documents by returning
    the maximum relative residual on each side of the x = 0 boundary.
    """
    gaps = {"x_zero": 0.0, "x_positive": 0.0}
    for q in (2, 3):
        for a in (1.0, 2.3):
            if a < q - 1.0:
                continue
            for s in (2.0, 1.5):
                for x in (0.0, 1.0):
                    lhs = ext_be(ExtParams(a, s, x), Strategy.AUTO).value
                    rhs = cpow(q, -complex(s)) * cmath.exp(a * x * (1.0 - q) / q) * sum(
                        cmath.exp(x * j * (1.0 - q) / q)
                        * ext_be(
                            ExtParams((a + j - q) / q, s, q * x), Strategy.AUTO
                        ).value
                        for j in range(1, q + 1)
                    )
                    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), _REL_FLOOR)
                    key = "x_zero" if x == 0.0 else "x_positive"
                    gaps[key] = max(gaps[key], rel)
    return gaps
