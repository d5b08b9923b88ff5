"""Benchmark inputs: the three workloads and the points each seed selects.

The table workloads are unions of ``zetakit table`` grids, written as the
flag sets that reproduce them.  Together the grids of one workload form its
*universe*, together with each grid's twin (see ``NU_TWIN``);
``bench/refs/<workload>.json`` holds a 30-digit reference for every
universe point.  A seed picks each point or its twin, one of each pair of
neighbours along s (``select_table_points``), and shuffles the result.

The ``catalog`` workload is every guarded-in grid point of
``build_catalog()``; the seed only shuffles their order.

This module imports nothing from zetakit, so point generation stays a pure
function of the seed and of the grids below.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

PI_IM = f"{math.pi!r}i"   # x = i*pi as a ``zetakit table`` literal

TABLE_GRIDS: dict[str, tuple[str, ...]] = {
    "table-bulk": (
        # AUTO at x = 0 (half-integer s keeps be off its s = 1 pole)
        "--fn ext_fd --nu 0:3:7 --s=-4.5:4.5:10 --x 0",
        "--fn ext_be --nu 0:3:7 --s=-4.5:4.5:10 --x 0",
        "--fn ext_fd --nu 0:3:4 --s=-2.5+1.5i:2.5+1.5i:6 --x 0",
        "--fn ext_be --nu 0:3:4 --s=-2.5+1.5i:2.5+1.5i:6 --x 0",
        # AUTO at x in [0.05, 4]: short defining-series sums
        "--fn ext_fd --nu 0:3:4 --s=-4.5:4.5:19 --x 0.05:3.95:4",
        "--fn ext_be --nu 0:3:4 --s=-4.5:4.5:19 --x 0.05:3.95:4",
        "--fn ext_fd --nu 0:3:4 --s=-2.5+1.5i:2.5+1.5i:6 --x 0.25:4:4",
        "--fn ext_be --nu 0:3:4 --s=-2.5+1.5i:2.5+1.5i:6 --x 0.25:4:4",
        # forced routes, each over its whole documented domain
        "--fn ext_fd --nu 0:2:3 --s=-2.5:2.5:11 --x 0:2:3 --strategy WeylQuad",
        "--fn ext_be --nu 0:2:3 --s=-2.5:2.5:11 --x 0.5:2:3 --strategy WeylQuad",
        "--fn ext_fd --nu 0:0.75:4 --s=-2.5:3.5:7 --x 0:2:3 --strategy NuSeries",
        "--fn ext_be --nu 0:0.75:4 --s=-2.5:3.5:7 --x 0:2:3 --strategy NuSeries",
        "--fn ext_fd --nu 0:2:3 --s=-2.5:2.5:6 --x 0.1:2.5:4 --strategy PowerSeriesX",
        "--fn ext_be --nu 0:2:3 --s=-2.5:2.5:6 --x 0.1:5:4 --strategy PowerSeriesX",
        "--fn ext_fd --nu 0:3:4 --s=-6:0:7 --x 0 --strategy NegIntBernoulli",
        f"--fn ext_fd --nu 0:3:4 --s=-6:0:7 --x {PI_IM} --strategy NegIntBernoulli",
        "--fn ext_be --nu 0:3:4 --s=-6:0:7 --x 0 --strategy NegIntBernoulli",
    ),
    "table-near-circle": (
        # real x in (0, 0.05): long geometric sums, tiny-x CVZ and Taylor
        "--fn ext_fd --nu 0:1:2 --s=-5.5:3:18 --x 0.005",
        "--fn ext_be --nu 0:1:2 --s=-5.5:3:18 --x 0.005",
        "--fn ext_fd --nu 0 --s=-1:3:5 --x 0.001",
        "--fn ext_be --nu 0 --s=-1:3:5 --x 0.001",
        "--fn ext_fd --nu 0:1:2 --s=-5.5:3:18 --x 0.01:0.045:3",
        "--fn ext_be --nu 0:1:2 --s=-5.5:3:18 --x 0.01:0.045:3",
        # x in [1e-7, 1e-5]: the direct sum exhausts its 500,000-term budget
        "--fn ext_fd --nu 0 --s=-1.5 --x 1e-7:1e-5:2",
        "--fn ext_be --nu 0 --s 2 --x 1e-6",
        # imaginary x = i t, t in (0, 2 pi): |z| = 1
        "--fn ext_fd --nu 0:1:3 --s=-2.5:2.5:11 --x 0.25i:6i:8",
        "--fn ext_be --nu 0:1:3 --s=-2.5:2.5:11 --x 0.25i:6i:8",
        "--fn ext_fd --nu 0:1:3 --s=-1.5+2i:1.5+2i:4 --x 0.25i:6i:8",
        "--fn ext_be --nu 0:1:3 --s=-1.5+2i:1.5+2i:4 --x 0.25i:6i:8",
        # x = t + i pi: the reflection that exchanges fd and be
        f"--fn ext_fd --nu 0:1:3 --s=-2.5:2.5:11 --x 0.05+{PI_IM}:2+{PI_IM}:4",
        f"--fn ext_be --nu 0:1:3 --s=-2.5:2.5:11 --x 0.05+{PI_IM}:2+{PI_IM}:4",
    ),
}

# Every grid has a twin whose nu axis is shifted by NU_TWIN (exact in
# binary).  A seed picks, point by point, the grid point or its twin, so
# passes differ between seeds while each pass keeps the same mix of routes.
NU_TWIN = 0.125

WORKLOADS = ("catalog", "table-bulk", "table-near-circle")


@dataclass(frozen=True)
class TablePoint:
    """One ``ext_fd``/``ext_be`` call: function, route and (nu, s, x)."""

    fn: str
    strategy: str
    nu: complex
    s: complex
    x: complex

    @property
    def key(self) -> str:
        """Exact, round-trippable identity of the point (float reprs)."""
        parts = [self.fn, self.strategy]
        for v in (self.nu, self.s, self.x):
            parts.append(f"{v.real!r},{v.imag!r}")
        return "|".join(parts)


# ---------------------------------------------------------------------------
# ``zetakit table`` flag grammar (same literals and ranges as the CLI)
# ---------------------------------------------------------------------------

def parse_literal(text: str) -> complex:
    """``a``, ``bi`` or ``a+bi`` literal, as ``zetakit`` accepts it."""
    raw = text.strip()
    if raw[-1] not in "iI":
        return complex(float(raw), 0.0)
    body = raw[:-1]
    split = -1
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            split = k
            break
    real_text, imag_text = ("", body) if split < 0 else (body[:split], body[split:])
    imag = {"": 1.0, "+": 1.0, "-": -1.0}.get(imag_text)
    if imag is None:
        imag = float(imag_text)
    return complex(float(real_text) if real_text else 0.0, imag)


def parse_axis(text: str) -> list[complex]:
    """A single literal, or ``start:stop:count`` evenly spaced values."""
    if ":" not in text:
        return [parse_literal(text)]
    start_t, stop_t, count_t = text.split(":")
    start, stop, count = parse_literal(start_t), parse_literal(stop_t), int(count_t)
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    values = [start + step * k for k in range(count)]
    values[-1] = stop
    return values


def parse_flags(flags: str) -> dict[str, str]:
    """``--name value`` / ``--name=value`` pairs of one flag set."""
    out: dict[str, str] = {}
    tokens = flags.split()
    i = 0
    while i < len(tokens):
        name = tokens[i][2:]
        if "=" in name:
            name, value = name.split("=", 1)
            i += 1
        else:
            value = tokens[i + 1]
            i += 2
        out[name] = value
    return out


def twin_flags(flags: str) -> str:
    """The flag set of a grid's twin: its nu axis shifted by NU_TWIN."""
    f = parse_flags(flags)
    f["nu"] = ":".join(
        part if i == 2 else repr(parse_literal(part).real + NU_TWIN)
        for i, part in enumerate(f["nu"].split(":"))
    )
    return " ".join(f"--{k}={v}" for k, v in f.items())


def grid_points(flags: str) -> list[TablePoint]:
    """Every point of one flag set, in the CLI's nu-major grid order."""
    f = parse_flags(flags)
    strategy = f.get("strategy", "Auto")
    return [
        TablePoint(f["fn"], strategy, nu, s, x)
        for nu in parse_axis(f["nu"])
        for s in parse_axis(f["s"])
        for x in parse_axis(f["x"])
    ]


def universe(workload: str) -> list[TablePoint]:
    """All points any seed can select for a table workload."""
    return [
        p
        for flags in TABLE_GRIDS[workload]
        for p in grid_points(flags) + grid_points(twin_flags(flags))
    ]


def universe_digest(points: list[TablePoint]) -> str:
    return hashlib.sha256("\n".join(p.key for p in points).encode()).hexdigest()


def select_table_points(workload: str, seed: int) -> list[TablePoint]:
    """The points one seed evaluates, in the order it evaluates them.

    Along each row of a grid (its points of equal nu and x, in s order)
    neighbouring points form pairs, and the seed gives the twin to one point
    of each pair.  An odd last point takes its twin on every other row.
    Every seed thus takes the same number of twins from every row, and
    neighbours cost about the same, so a pass's cost and its slowest points
    stay alike from seed to seed.  (Twins can differ in cost: the ``NuSeries``
    route takes about twice as long at nu = 7/8 as at nu = 3/4.)
    """
    rng = random.Random(f"{workload}:{seed}")
    chosen: list[TablePoint] = []
    odd_rows = 0
    for flags in TABLE_GRIDS[workload]:
        rows: dict[tuple[complex, complex], list[tuple[TablePoint, TablePoint]]] = {}
        for base, twin in zip(grid_points(flags), grid_points(twin_flags(flags))):
            rows.setdefault((base.nu, base.x), []).append((base, twin))
        for row in rows.values():
            for i in range(0, len(row) - 1, 2):
                first = rng.random() < 0.5
                chosen += [row[i][first], row[i + 1][not first]]
            if len(row) % 2:
                chosen.append(row[-1][odd_rows % 2])
                odd_rows += 1
    rng.shuffle(chosen)
    return chosen


def catalog_order(names_and_counts: list[tuple[str, int]], seed: int) -> list[tuple[str, int]]:
    """Seed-shuffled (entry, grid index) pairs covering every catalog point."""
    items = [(name, i) for name, n in names_and_counts for i in range(n)]
    random.Random(f"catalog:{seed}").shuffle(items)
    return items
