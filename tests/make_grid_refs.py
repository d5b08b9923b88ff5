"""Write grid_refs.json: the 20-digit reference of every point of the
seeded grids in grids.py, e^{-(nu+1)x} mpmath.lerchphi(-+e^{-x}, s, nu+1),
its x = 0 value by Hurwitz zeta on the NuSeries grids,
zeta(t, c) - 1/(t - 1) on the pole-free grid, or mpmath.lerchphi(z, s, a)
itself (z times it for polylog) on the Lerch grids.

Run offline from the repository root, once, or after a grid changes:

    python3 tests/make_grid_refs.py

It takes about a minute.  Only this script needs mpmath for these
grids; the tests read the stored values.
"""

import json
import sys
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import grids  # noqa: E402


# Working precision of a grid's references where 20 digits do not suffice:
# within 1e-6 of z = 1, 1 - z = 1 - e^{-x} loses six of them.
WORK_DPS = {"complex_angle": 40, "large_nu": 30, "imaginary_axis": 40, "pole_free": 40,
            "nu_series": 30, "nu_series_real_nu": 30, "lerch_near_one": 40,
            "lerch_inside": 40, "nu_series_be_centre": 40}


def reference(kind, nu, s, x, dps=20):
    """The reference value, worked at ``dps`` digits, as a pair of
    20-digit strings, real and imaginary."""
    with mpmath.workdps(dps):
        xm, am = mpmath.mpc(x), mpmath.mpf(nu) + 1
        z = (-1 if kind == "fd" else 1) * mpmath.exp(-xm)
        want = mpmath.exp(-am * xm) * mpmath.lerchphi(z, mpmath.mpc(s), am)
    return [str(want.real), str(want.imag)]


def pole_free_reference(t, c, dps=20):
    """zeta(t, c) - 1/(t - 1), worked at ``dps`` digits, as a pair of
    20-digit strings."""
    with mpmath.workdps(dps):
        tm, cm = mpmath.mpc(t), mpmath.mpc(c)
        want = mpmath.zeta(tm, cm) - 1 / (tm - 1)
    return [str(want.real), str(want.imag)]


def nu_series_reference(kind, nu, s, x, dps=20):
    """The reference at complex nu, and at x = 0 zeta(s, a) for be and
    2^{-s} [zeta(s, a/2) - zeta(s, (a+1)/2)] for fd, a = nu + 1, worked at
    ``dps`` digits, as a pair of 20-digit strings."""
    with mpmath.workdps(dps):
        am, sm, xm = mpmath.mpc(nu) + 1, mpmath.mpc(s), mpmath.mpc(x)
        if x == 0:
            want = mpmath.zeta(sm, am) if kind == "be" else mpmath.mpf(2) ** -sm * (
                mpmath.zeta(sm, am / 2) - mpmath.zeta(sm, (am + 1) / 2))
        else:
            z = (-1 if kind == "fd" else 1) * mpmath.exp(-xm)
            want = mpmath.exp(-am * xm) * mpmath.lerchphi(z, sm, am)
    return [str(want.real), str(want.imag)]


def lerch_reference(fn, z, s, a, dps=20):
    """lerchphi(z, s, a), times z for polylog, worked at ``dps`` digits, as
    a pair of 20-digit strings."""
    with mpmath.workdps(dps):
        zm = mpmath.mpc(z)
        want = mpmath.lerchphi(zm, mpmath.mpc(s), mpmath.mpc(a))
        if fn == "polylog":
            want *= zm
    return [str(want.real), str(want.imag)]


REFERENCES = {"pole_free": pole_free_reference, "nu_series": nu_series_reference,
              "nu_series_real_nu": nu_series_reference, "lerch_near_one": lerch_reference,
              "lerch_inside": lerch_reference, "nu_series_be_centre": nu_series_reference}


def main() -> None:
    mpmath.mp.dps = 20
    blocks = []
    for name, grid in grids.GRIDS.items():
        points = list(grid())
        dps = WORK_DPS.get(name, 20)
        ref = REFERENCES.get(name, reference)
        rows = [json.dumps([grids.point_record(*p), ref(*p, dps)]) for p in points]
        blocks.append(f"{json.dumps(name)}: [\n" + ",\n".join(rows) + "\n]")
    (HERE / grids.REFS_FILE).write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
