"""Generate the 30-digit references for the table workloads.

    python3 bench/make_refs.py [--workers 2] [workload ...]

For every point of a workload's universe (``workloads.universe``) this
writes ``bench/refs/<workload>.json`` with

    e^{-(nu+1) x} * Phi(-+e^{-x}, s, nu+1)

(minus sign for ``ext_fd``, plus for ``ext_be``) from ``mpmath.lerchphi``.
Inputs are the exact binary values the library receives, except that an
imaginary part equal to the double nearest pi stands for pi itself: the
grids write x = i*pi (and t + i*pi) that way, and at x = i*pi with s a
non-positive integer the function is defined by continuation in s, which
the double one ulp away does not approach.
Each value is computed at 40 and at 60 significant digits; a point whose two
values differ by more than 1e-32 relative stops the script, so every stored
digit is one mpmath agrees with itself on.  This is the only file of the
benchmark that imports mpmath; the timed runs read the JSON files.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import sys
import time
from pathlib import Path

import mpmath

import workloads

DIGITS = 30
REFS_DIR = Path(__file__).resolve().parent / "refs"


def _value(fn: str, nu: complex, s: complex, x: complex, dps: int):
    with mpmath.workdps(dps):
        nu_m, s_m = mpmath.mpmathify(nu), mpmath.mpmathify(s)
        sign = -1 if fn == "ext_fd" else 1
        if x.imag == math.pi:  # e^{-i pi} = -1 exactly, so z stays real
            x_m = mpmath.mpc(x.real, mpmath.pi)
            z = -sign * mpmath.exp(-mpmath.mpf(x.real))
        else:
            x_m = mpmath.mpc(x.real, x.imag)
            z = sign * mpmath.exp(-x_m)
        return mpmath.exp(-(nu_m + 1) * x_m) * mpmath.lerchphi(z, s_m, nu_m + 1)


def reference(point: workloads.TablePoint) -> tuple[str, list[str] | None]:
    """(key, [re, im]) to DIGITS significant digits; None if mpmath is unstable."""
    lo = _value(point.fn, point.nu, point.s, point.x, 40)
    hi = _value(point.fn, point.nu, point.s, point.x, 60)
    with mpmath.workdps(60):
        hi = mpmath.mpc(hi)
        if abs(mpmath.mpc(lo) - hi) > mpmath.mpf("1e-32") * abs(hi):
            return point.key, None
        return point.key, [mpmath.nstr(hi.real, DIGITS), mpmath.nstr(hi.imag, DIGITS)]


def build(workload: str, workers: int) -> None:
    points = workloads.universe(workload)
    start = time.perf_counter()
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(workers) as pool:
        refs = dict(pool.map(reference, points, chunksize=8))
    unstable = sorted(k for k, v in refs.items() if v is None)
    if unstable:
        raise SystemExit(f"mpmath unstable at {len(unstable)} points: {unstable}")
    out = {
        "workload": workload,
        "universe_sha256": workloads.universe_digest(points),
        "digits": DIGITS,
        "formula": "exp(-(nu+1)x) * lerchphi(-+exp(-x), s, nu+1), mpmath "
        + mpmath.__version__,
        "refs": refs,
    }
    REFS_DIR.mkdir(exist_ok=True)
    path = REFS_DIR / f"{workload}.json"
    path.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    print(f"{path.name}: {len(refs)} points in {time.perf_counter() - start:.1f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("workload", nargs="*", default=list(workloads.TABLE_GRIDS))
    args = parser.parse_args(argv)
    for workload in args.workload:
        build(workload, args.workers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
