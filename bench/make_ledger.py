"""Write ``bench/known_defects.json``, the ledger of known defects.

    python3 bench/make_ledger.py          # from the root of a zetakit checkout
    python3 bench/make_ledger.py --init   # start a new ledger (seed commit only)

Evaluates every point any seed can select (both twins of every table grid
point, every catalog grid point) and records, per point, which of
``fail``/``wrong``/``inaccurate`` it shows.  A run's accuracy gate fails on
any defect at a point that the ledger does not list for that point, so the
ledger can only shrink: without ``--init`` an existing ledger is intersected
with what the code shows now, dropping what has been fixed and never adding
anything.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run
import workloads

LEDGER = run.BENCH_DIR / "known_defects.json"


def current_defects(zetakit) -> dict[str, dict[str, list[str]]]:
    out = {}
    for name in workloads.WORKLOADS:
        if name == "catalog":
            wl = run.CatalogWorkload(0, zetakit)
        else:
            wl = run.TableWorkload(name, workloads.universe(name), zetakit)
        found = wl.defects([wl.evaluate(item) for item in wl.items])
        out[name] = {k: sorted(f) for k, f in sorted(zip(wl.keys, found)) if f}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--init", action="store_true",
                        help="replace the ledger instead of shrinking it")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))
    import zetakit

    now = current_defects(zetakit)
    if not args.init and LEDGER.is_file():
        old = json.loads(LEDGER.read_text())
        now = {
            name: {k: kept for k, f in points.items()
                   if (kept := sorted(set(f) & set(old.get(name, {}).get(k, ()))))}
            for name, points in now.items()
        }
    LEDGER.write_text(json.dumps(now, indent=1, sort_keys=True) + "\n")
    for name, points in now.items():
        print(f"{name}: {len(points)} points with known defects")
    return 0


if __name__ == "__main__":
    sys.exit(main())
