"""Seeded point grids whose mpmath references are frozen in grid_refs.json.

``make_grid_refs.py`` writes, for each grid, one [point, reference] row
per point; the tests regenerate the points and refuse to compare when
they differ from the stored ones.
"""

import math
import random

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


GRIDS = {
    "auto_unit_circle": auto_unit_circle_grid,
    "circle_positive_order": circle_positive_order_grid,
}


def point_record(kind, nu, s, x):
    """A point as JSON data: the kind and the floats, exactly."""
    return [kind, nu, s.real, s.imag, x.real, x.imag]
