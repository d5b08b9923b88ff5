"""Seeded point grids whose mpmath references are frozen in grid_refs.json.

``make_grid_refs.py`` writes, for each grid, one [point, reference] row
per point; the tests regenerate the points and refuse to compare when
they differ from the stored ones.
"""

import cmath
import decimal
import json
import math
import random
from pathlib import Path

REFS_FILE = "grid_refs.json"


def auto_unit_circle_grid():
    """(kind, nu, s, x): both kinds, Re x in [0, 0.05), Im x in
    [-2 pi, 4 pi], Re s in [-6, 0] (real, integer and complex), nu in
    [0, 3]."""
    rng = random.Random(20261101)
    for _ in range(500):
        kind = rng.choice(("fd", "be"))
        nu = rng.uniform(0.0, 3.0)
        sigma = rng.uniform(-6.0, 0.0)
        s = rng.choice((complex(sigma), complex(round(sigma)),
                        complex(sigma, rng.uniform(-4.0, 4.0))))
        x = complex(rng.choice((0.0, rng.uniform(0.0, 0.05))),
                    rng.uniform(-2.0 * math.pi, 4.0 * math.pi))
        yield kind, nu, s, x


def circle_positive_order_grid():
    """(kind, nu, s, x) at Re s > 0 and 0 < Re x < 0.05; half the points
    next to a be centre at integer s."""
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
        yield kind, nu, s, x


def complex_angle_grid():
    """(kind, nu, s, x) next to the circle at Re s <= 0, where AUTO takes
    Lerch's transformation at the complex angle of z = -+e^{-x}, and its
    two fallbacks, one point in eight each: nu within 0.015 of an integer,
    and m Re x > 1 for the m = ceil(nu) terms of the reduction of
    a = nu + 1.  x is real (lam on the imaginary axis for be), complex, or
    within 1e-6 to 1e-2 of a centre where z = 1: 2 pi i j for be,
    i pi (2j + 1) for fd.  nu is an integer, a half-integer or generic in
    [0, 6]; Re s in [-8, 0], with integers and s next to 0, and
    |Im s| <= 10."""
    rng = random.Random(20261120)
    for i in range(160):
        case = i % 8
        kind = rng.choice(("fd", "be"))
        if case == 3:
            nu = rng.randint(1, 6) + rng.choice((-1, 1)) * rng.uniform(1e-4, 0.015)
        elif case == 7:
            nu = rng.uniform(21.0, 40.0)
        else:
            nu = rng.choice((float(rng.randint(0, 6)), rng.randint(0, 5) + 0.5,
                             rng.uniform(0.0, 6.0)))
        shape = rng.choice(("real", "complex", "centre"))
        lo = math.log10(0.05) if case == 7 else -6.0
        if shape == "real":
            x = complex(10 ** rng.uniform(lo, math.log10(0.09)))
        elif shape == "complex":
            x = complex(10 ** rng.uniform(lo, math.log10(0.09)), rng.uniform(-8.0, 8.0))
        else:
            j = rng.choice((-1, 1, 2)) if kind == "be" else rng.choice((-1, 0, 1))
            centre = 2 * j * math.pi if kind == "be" else (2 * j + 1) * math.pi
            d, phi = 10 ** rng.uniform(-6.0, -2.0), rng.uniform(-0.5 * math.pi, 0.5 * math.pi)
            x = complex(d * math.cos(phi) + (0.06 if case == 7 else 0.0),
                        centre + d * math.sin(phi))
        sigma = rng.uniform(-8.0, 0.0)
        s = rng.choice((complex(sigma), complex(round(sigma)),
                        complex(sigma, rng.uniform(-10.0, 10.0)),
                        complex(-10 ** rng.uniform(-12.0, -3.0),
                                rng.choice((0.0, 10 ** rng.uniform(-12.0, -3.0))))))
        yield kind, nu, s, x


def large_nu_grid():
    """(kind, nu, s, x) at nu in [10, 1e3], Re x in [0.005, 0.1], |Im x|
    <= 4 and Re s in [-4, 3], where the Taylor terms grow like
    ((nu + 1) |x|)^k / k!."""
    rng = random.Random(20261121)
    for _ in range(80):
        kind = rng.choice(("fd", "be"))
        nu = 10 ** rng.uniform(1.0, 3.0)
        x = complex(rng.uniform(0.005, 0.1), rng.choice((0.0, rng.uniform(-4.0, 4.0))))
        s = complex(rng.uniform(-4.0, 3.0), rng.choice((0.0, rng.uniform(-2.0, 2.0))))
        yield kind, nu, s, x


def imaginary_axis_grid():
    """(kind, nu, s, x) on the imaginary axis at Re s in (0, 4], within
    1e-6 to 0.131 of a centre where z = -+e^{-x} = 1: x = i (c + d), c =
    2 pi j for be and pi (2j + 1) for fd, |j| <= 3, where no CVZ sum
    reaches z.  s is real, a positive integer or complex with |Im s| <= 4;
    nu is an integer or generic in [0, 3]."""
    rng = random.Random(20261122)
    for _ in range(200):
        kind = rng.choice(("fd", "be"))
        nu = rng.choice((float(rng.randint(0, 3)), rng.uniform(0.0, 3.0)))
        j = rng.randint(-3, 3)
        centre = 2 * j * math.pi if kind == "be" else (2 * j + 1) * math.pi
        d = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-6.0, math.log10(0.131))
        sigma = 4.0 - rng.uniform(0.0, 4.0)
        s = rng.choice((complex(sigma), complex(max(1, round(sigma))),
                        complex(sigma, rng.uniform(-4.0, 4.0))))
        yield kind, nu, s, complex(0.0, centre + d)


def lerch_near_one_grid():
    """(fn, z, s, a) for lerch_phi and polylog (a = 1) next to z = 1, where
    no CVZ sum reaches z: |arg z| in [1e-6, 0.13], |z| = 1 or e^{-r} with r
    in [1e-8, 0.099] (the direct sum past its 300-term crossover), Re s in
    (0, 4] real, a positive integer or with |Im s| <= 4, and a real in
    (0, 6], complex, or negative off the integers."""
    rng = random.Random(20261201)
    for _ in range(200):
        fn = rng.choice(("lerch", "polylog"))
        r = rng.choice((0.0, 10 ** rng.uniform(-8.0, math.log10(0.099))))
        theta = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-6.0, math.log10(0.13))
        z = cmath.exp(complex(-r, theta))
        sigma = 4.0 - rng.uniform(0.0, 4.0)
        s = rng.choice((complex(sigma), complex(max(1, round(sigma))),
                        complex(sigma, rng.uniform(-4.0, 4.0))))
        a = 1.0 if fn == "polylog" else rng.choice((
            rng.uniform(0.05, 6.0), complex(rng.uniform(0.1, 4.0), rng.uniform(-1.0, 1.0)),
            -rng.randint(0, 2) - rng.uniform(0.05, 0.95)))
        yield fn, z, s, a


def lerch_inside_grid():
    """(fn, z, s, a) for lerch_phi and polylog (a = 1) inside the circle
    past the direct sum's 300-term crossover, |z| = e^{-r} with r in
    [1e-10, 0.0997], at Re s in [-8, 0], real, an integer or with
    |Im s| <= 10, where Lerch's transformation serves: a = alpha + m in
    (0, 6] with alpha 1, 1/2 or in [0.05, 0.95] and m r <= 1.  arg z is 0,
    pi, within 1e-6 to 0.1 of 0, or anywhere."""
    rng = random.Random(20261202)
    for _ in range(200):
        fn = rng.choice(("lerch", "polylog"))
        r = 10 ** rng.uniform(-10.0, math.log10(0.0997))
        theta = rng.choice((0.0, math.pi, rng.uniform(-math.pi, math.pi),
                            rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-6.0, -1.0)))
        z = cmath.exp(complex(-r, theta))
        sigma = rng.uniform(-8.0, 0.0)
        s = rng.choice((complex(sigma), complex(round(sigma)),
                        complex(sigma, rng.uniform(-10.0, 10.0))))
        alpha = rng.choice((1.0, 0.5, rng.uniform(0.05, 0.95)))
        a = 1.0 if fn == "polylog" else alpha + rng.randint(0, min(5, math.floor(1.0 / r)))
        yield fn, z, s, a


def nu_series_be_centre_grid():
    """(kind, nu, s, x) for the NuSeries route within 1e-9 to 0.13 of a be
    centre, where z = -+e^{-x} is next to 1: Im x = c + d with c = 2 pi j
    for be and pi (2j + 1) for fd, |j| <= 30, and Re x = 0 or in
    [1e-12, 0.09]; Re s in [-6, 0], real or with |Im s| <= 6; nu real in
    [0, 3] or with |Im nu| <= 1."""
    rng = random.Random(20261203)
    for _ in range(60):
        kind = rng.choice(("fd", "be"))
        j = rng.randint(-30, 30)
        centre = 2 * j * math.pi if kind == "be" else (2 * j + 1) * math.pi
        d = rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-9.0, math.log10(0.13))
        x = complex(rng.choice((0.0, 10 ** rng.uniform(-12.0, math.log10(0.09)))), centre + d)
        s = complex(rng.uniform(-6.0, 0.0), rng.choice((0.0, rng.uniform(-6.0, 6.0))))
        nu = complex(rng.uniform(0.0, 3.0), rng.choice((0.0, rng.uniform(-1.0, 1.0))))
        yield kind, nu, s, x


def pole_free_grid():
    """(t, c) where Lerch's transformation at alpha = 1 takes pole-free
    Hurwitz zeta, zeta(t, c) - 1/(t - 1): t = 1 - s in [1, 7.5] (real,
    an integer, or with |Im t| <= 4) and c in (0.05, 1], or c = 1 +- i eps
    with eps in [1e-8, 1] (be at real x, with term 0 split off)."""
    rng = random.Random(20261126)
    for _ in range(200):
        tau = rng.uniform(1.0, 7.5)
        t = rng.choice((complex(tau), complex(max(2, round(tau))),
                        complex(tau, rng.uniform(-4.0, 4.0))))
        c = rng.choice((complex(rng.uniform(0.05, 1.0)),
                        complex(1.0, rng.choice((-1, 1)) * 10 ** rng.uniform(-8.0, 0.0))))
        yield t, c


def nu_series_grid():
    """(kind, nu, s, x) for the NuSeries route: x in {0, 0.05, 0.3, 1, 2.5,
    0.3 + 2i}, Re s in [-4.5, 6] with half the orders real and the others
    at |Im s| <= 8, and nu real in [0, 4] or complex with Re nu in [0, 4]
    and |Im nu| <= 3.  Its coefficients at the orders s, s + 1, ... cross
    every regime of the Lerch and x = 0 routes."""
    rng = random.Random(20261128)
    for _ in range(200):
        kind = rng.choice(("fd", "be"))
        x = complex(rng.choice((0.0, 0.05, 0.3, 1.0, 2.5, 0.3 + 2j)))
        s = complex(rng.uniform(-4.5, 6.0), rng.choice((0.0, rng.uniform(-8.0, 8.0))))
        nu = complex(rng.uniform(0.0, 4.0), rng.choice((0.0, rng.uniform(-3.0, 3.0))))
        yield kind, nu, s, x


def nu_series_real_nu_grid():
    """(kind, nu, s, x) for the NuSeries route: real nu in [0, 8], Re s in
    [-4, 5], real or with |Im s| <= 3, and x in {0, 0.3, 1, 2.5}."""
    rng = random.Random(20261019)
    for _ in range(160):
        kind = rng.choice(("fd", "be"))
        nu = rng.uniform(0.0, 8.0)
        s = complex(rng.uniform(-4.0, 5.0), rng.choice((0.0, rng.uniform(-3.0, 3.0))))
        x = rng.choice((0.0, 0.3, 1.0, 2.5))
        yield kind, nu, s, x


GRIDS = {
    "auto_unit_circle": auto_unit_circle_grid,
    "circle_positive_order": circle_positive_order_grid,
    "complex_angle": complex_angle_grid,
    "large_nu": large_nu_grid,
    "imaginary_axis": imaginary_axis_grid,
    "lerch_near_one": lerch_near_one_grid,
    "lerch_inside": lerch_inside_grid,
    "nu_series_be_centre": nu_series_be_centre_grid,
    "pole_free": pole_free_grid,
    "nu_series": nu_series_grid,
    "nu_series_real_nu": nu_series_real_nu_grid,
}


def point_record(*point):
    """A point as JSON data, exactly: its strings and floats, each complex
    as its real and imaginary parts."""
    record = []
    for v in point:
        record.extend((v.real, v.imag) if isinstance(v, complex) else (v,))
    return record


def grid_refs(name: str):
    """(point, reference) of a seeded grid, with its frozen reference;
    refuses when the stored points are not the ones the grid generates
    (rerun tests/make_grid_refs.py)."""
    rows = json.loads((Path(__file__).with_name(REFS_FILE)).read_text())[name]
    points = list(GRIDS[name]())
    assert [row[0] for row in rows] == [point_record(*p) for p in points], (
        f"{REFS_FILE} does not hold the points of grid {name}")
    return [(p, row[1]) for p, row in zip(points, rows)]


def ref_gap(value: complex, ref) -> tuple[decimal.Decimal, decimal.Decimal]:
    """|value - reference| and |reference|, to 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        ref_re, ref_im = decimal.Decimal(ref[0]), decimal.Decimal(ref[1])
        d_re = decimal.Decimal(value.real) - ref_re
        d_im = decimal.Decimal(value.imag) - ref_im
        return (d_re * d_re + d_im * d_im).sqrt(), (ref_re * ref_re + ref_im * ref_im).sqrt()
