"""Self-tests of the span recorder: patching, restoring and self time.

    python3 -m pytest bench/tests -q      # from the repository root
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import spans  # noqa: E402
import zetakit  # noqa: E402
from zetakit import extended, identities, zeta  # noqa: E402


def _all_bindings():
    return {
        (mod.__name__, attr): value
        for mod in spans._zetakit_modules()
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_every_binding_is_patched_then_restored():
    before = _all_bindings()
    rec = spans.Recorder()
    with spans.patched(rec) as restore:
        patched = {f"{mod.__name__}.{attr}" for mod, attr, _ in restore}
        # the caller's own binding is patched, not only the defining module's
        assert {"zetakit.extended.lerch_phi", "zetakit.identities.ext_fd",
                "zetakit.ext_fd", "zetakit.zeta.compensated_sum"} <= patched
        identities.build_catalog()["diff-eq-7.2"].lhs({"nu": 0.5, "s": 2.0, "x": 0.25})
    assert spans.traced_bindings() == []
    assert _all_bindings() == before
    names = set(rec.name)
    assert {"extended.ext_fd", "zeta.lerch_phi", "numeric_core.compensated_sum"} <= names


def test_bindings_restored_when_the_run_raises():
    with pytest.raises(zetakit.PoleError):
        with spans.patched(spans.Recorder()):
            zeta.hurwitz_zeta(1.0, 1.0)
    assert spans.traced_bindings() == []
    assert extended.lerch_phi is zeta.lerch_phi


def test_failed_call_is_recorded_with_its_exception():
    rec = spans.Recorder()
    with pytest.raises(zetakit.PoleError):
        with spans.patched(rec):
            zetakit.riemann_zeta(1.0)
    assert rec.name == ["zeta.riemann_zeta"]
    assert rec.error == ["PoleError"]
    stats = spans.layer_stats(rec)
    assert stats["zeta.riemann_zeta.fail"] == 1


def _synthetic(rows):
    rec = spans.Recorder()
    for name, start, end, parent, tag, work, error in rows:
        rec.name.append(name)
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)
        rec.tag.append(tag)
        rec.work.append(work)
        rec.error.append(error)
    return rec


def test_self_time_on_nested_spans():
    rec = _synthetic([
        ("extended.ext_fd", 0, 100, -1, "fd/xseries-direct", 30, None),   # 0
        ("zeta.lerch_phi", 10, 40, 0, "lerch/direct-sum", 30, None),       # 1
        ("numeric_core.compensated_sum", 15, 20, 1, None, 30, None),       # 2
        ("zeta.lerch_phi", 50, 70, 0, "lerch/euler-transform", 5, None),   # 3
        ("numeric_core.compensated_sum", 60, 80, 0, None, 7, None),        # 4 overlaps 3
        ("numeric_core.ln_gamma", 200, 260, -1, None, 0, "PoleError"),     # 5
    ])
    # 0: 100 - |[10,40] u [50,80]| = 40; 1: 30 - 5; 3 and 4 have no children
    assert spans.self_times(rec.start, rec.end, rec.parent) == [40, 25, 5, 20, 20, 60]
    stats = spans.layer_stats(rec)
    assert stats["extended.ext_fd.self_ms"] == pytest.approx(40e-6)
    assert stats["zeta.lerch_phi.self_ms"] == pytest.approx(45e-6)
    assert stats["numeric_core.compensated_sum.terms"] == 37
    assert stats["zeta.lerch_phi.direct-sum.calls"] == 1
    assert stats["zeta.lerch_phi.euler-transform.work"] == 5
    assert stats["extended.route.fd.xseries-direct.calls"] == 1
    assert stats["extended.route.fd.xseries-direct.ms"] == pytest.approx(100e-6)
    assert stats["numeric_core.ln_gamma.fail"] == 1
    assert stats["numeric_core.ln_gamma.fail_ms"] == pytest.approx(60e-6)
