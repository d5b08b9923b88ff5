"""The benchmark's per-layer tracer must still find every function it traces.

``bench/spans.py`` looks library functions up by name and wraps every
binding of them; a deleted or renamed function would otherwise surface only
on a traced benchmark run, so this test enters the tracer directly.
"""

import importlib.util
from pathlib import Path

import zetakit
from zetakit import ExtParams, ext_be, ext_fd

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_target():
    spans = _load_spans()
    recorder = spans.Recorder()
    with spans.patched(recorder) as restored:
        assert restored
        # The unit-circle be point runs the Euler transform, whose tuple
        # return the tracer reads its work from.
        zetakit.ext_fd(ExtParams(0.5, 2.0, 0.3))
        zetakit.ext_be(ExtParams(0.0, 2.0, 2j))
        # The Taylor-in-x route passes hurwitz_zeta a keyword argument, and
        # fd at x = 0, Re s <= -4 runs the odd-term reflection series.
        zetakit.ext_be(ExtParams(0.125, 0.5, 0.01))
        zetakit.ext_fd(ExtParams(0.125, -4.5, 0.0))
        # fd at small real x sums the defining series in lerch_phi's
        # alternating branch.
        zetakit.ext_fd(ExtParams(0.5, 2.5, 0.01))
    assert {"extended.ext_fd", "extended.ext_be", "zeta.lerch_phi",
            "zeta.hurwitz_zeta",
            "numeric_core.euler_transform_tail"} <= set(recorder.name)
    assert ("zeta.lerch_phi", "lerch/cvz-alternating") in set(
        zip(recorder.name, recorder.tag))
    assert all(error is None for error in recorder.error)
    assert spans.traced_bindings() == []
    assert zetakit.ext_fd is ext_fd and zetakit.ext_be is ext_be
