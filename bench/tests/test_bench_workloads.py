"""Self-tests of point generation and of the benchmark's refusal paths."""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from zetakit.cli import parse_axis  # noqa: E402

TABLES = tuple(workloads.TABLE_GRIDS)
_KEYS_SNIPPET = (
    "import sys, workloads; "
    "print(workloads.select_table_points(sys.argv[1], int(sys.argv[2]))[5].key)"
)


def test_points_are_a_pure_function_of_the_seed():
    for name in TABLES:
        a = [p.key for p in workloads.select_table_points(name, 7)]
        assert a == [p.key for p in workloads.select_table_points(name, 7)]
        assert a != [p.key for p in workloads.select_table_points(name, 8)]
        # same answer in a fresh interpreter with another hash seed
        env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=str(BENCH))
        out = subprocess.run([sys.executable, "-c", _KEYS_SNIPPET, name, "7"],
                             env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == a[5]
    order = workloads.catalog_order([("a", 3), ("b", 2)], 4)
    assert order == workloads.catalog_order([("a", 3), ("b", 2)], 4)
    assert sorted(order) == [("a", 0), ("a", 1), ("a", 2), ("b", 0), ("b", 1)]


def test_each_seed_takes_one_of_every_twin_pair():
    for name in TABLES:
        universe = {p.key for p in workloads.universe(name)}
        chosen = [p.key for p in workloads.select_table_points(name, 3)]
        assert len(chosen) == len(set(chosen)) == len(universe) // 2
        assert set(chosen) <= universe


def test_flag_sets_reproduce_zetakit_table_grids():
    for name in TABLES:
        for flags in workloads.TABLE_GRIDS[name]:
            for text in (flags, workloads.twin_flags(flags)):
                for axis in ("nu", "s", "x"):
                    value = workloads.parse_flags(text)[axis]
                    assert workloads.parse_axis(value) == parse_axis(value)


def test_references_cover_every_universe_point():
    for name in TABLES:
        refs = json.loads((BENCH / "refs" / f"{name}.json").read_text())
        points = workloads.universe(name)
        assert refs["universe_sha256"] == workloads.universe_digest(points)
        assert {p.key for p in points} == set(refs["refs"])


def test_run_refuses_without_library_sources(tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "catalog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
