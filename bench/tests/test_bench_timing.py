"""Self-tests of the timing arithmetic: scaling to the reference speed.

    python3 -m pytest bench/tests -q      # from the repository root
"""

import itertools
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402


class _Items:
    name = "fake"
    items = [0, 1, 2, 3]

    @staticmethod
    def evaluate(item):
        return ("ok", item)


def test_latencies_are_scaled_by_the_probes_around_them(monkeypatch):
    ref = speed.REF_PROBE_NS
    # probes before items 0 and 2, and one after the pass
    readings = iter([ref, 2 * ref, 2 * ref])
    monkeypatch.setattr(run, "PROBE_EVERY", 2)
    monkeypatch.setattr(run.speed, "probe_ns", lambda: next(readings))
    clock = itertools.count(0, 100)   # every latency reads 100 ns
    monkeypatch.setattr(run, "perf_counter_ns", lambda: next(clock))

    passes = run.Passes()
    passes.one(_Items)
    # items 0-1: median(ref, 2 ref); items 2-3: median(ref, 2 ref, 2 ref)
    assert list(passes.scaled_ns) == pytest.approx([100 / 1.5] * 2 + [50] * 2)
    assert passes.evals_per_s() == pytest.approx(4 / (2 * 100 / 1.5 + 100) * 1e9)
    assert passes.evals_per_s(scaled=False) == pytest.approx(4 / 400e-9)


def test_point_latency_is_the_median_over_passes(monkeypatch):
    monkeypatch.setattr(run, "MIN_SAMPLES", 2)   # one group of passes
    passes = run.Passes()
    passes.scaled_ns = array("d", [10, 500, 30, 200, 20, 100])   # 3 passes, 2 points
    passes.count = 3
    assert passes.point_latencies() == [20, 200]
