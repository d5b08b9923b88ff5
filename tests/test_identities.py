"""Identity catalog: coverage, report schema, guards, fault sensitivity."""

import json
import math

import pytest

from zetakit import (
    QUICK_SUBSET,
    IdentityReport,
    IdentitySpec,
    build_catalog,
    check,
    reports_to_json,
    run_catalog,
)
from zetakit import faults
from zetakit.identities import mult_5_10_printed_form_gap

EXPECTED_NAMES = [
    "bisection-6.1",
    "cor-6.12-corrected",
    "corrected-2.5",
    "corrected-2.6",
    "diff-eq-7.2",
    "diff-eq-7.6",
    "duality-6.7",
    "evenodd-6.10",
    "fd-be-6.6",
    "functional-eq-1.2",
    "hurwitz-diff-7.11",
    "lerch-diff-7.7",
    "mult-5.10",
    "mult-5.12",
    "mult-5.13",
    "mult-5.14",
    "negint-5.9",
    "negint-7.8",
    "negint-7.9",
    "nuseries-4.7",
    "nuseries-5.8",
    "weyl-selfrep-4.8",
    "xseries-4.14",
    "xseries-4.15",
]

# Which catalog entries must notice a 1e-6 relative perturbation of each
# target.  A uniform relative fault cancels identically on any identity that
# runs the same function on both sides, so detection leans on entries with
# exact right-hand sides or with cross-function structure.
FAULT_DETECTORS = {
    "ln_gamma": ["functional-eq-1.2", "weyl-selfrep-4.8"],
    "hurwitz_zeta": ["hurwitz-diff-7.11", "negint-5.9", "corrected-2.5"],
    "lerch_phi": ["lerch-diff-7.7", "diff-eq-7.2"],
    "ext_fd": ["diff-eq-7.2", "bisection-6.1", "fd-be-6.6"],
    "ext_be": ["bisection-6.1", "duality-6.7", "fd-be-6.6"],
    "bernoulli-table": ["corrected-2.6", "negint-5.9", "negint-7.9"],
}


class TestCatalogShape:
    def test_names_are_exactly_the_documented_set(self):
        assert sorted(build_catalog()) == EXPECTED_NAMES

    def test_quick_subset_is_contained(self):
        assert set(QUICK_SUBSET) <= set(EXPECTED_NAMES)

    def test_specs_have_nonempty_guarded_grids(self):
        for spec in build_catalog().values():
            assert len(spec.grid) > 0

    def test_reduced_grids_subsample(self):
        full = {s.name: len(s.grid) for s in build_catalog().values()}
        reduced = {s.name: len(s.grid) for s in build_catalog(reduced=True).values()}
        for name in full:
            assert reduced[name] == len(range(0, full[name], 2))

    def test_tolerances(self):
        tols = {s.name: s.tol for s in build_catalog().values()}
        assert tols["weyl-selfrep-4.8"] == 1e-7
        assert tols["xseries-4.14"] == 1e-8
        assert tols["xseries-4.15"] == 1e-8
        assert tols["functional-eq-1.2"] == 1e-9
        assert tols["diff-eq-7.2"] == 1e-10


class TestFullCatalog:
    def test_everything_passes_on_default_grids(self):
        reports = run_catalog()
        failures = [r.name for r in reports if not r.passed]
        assert failures == []

    def test_exact_rational_entry_has_zero_residual(self):
        (report,) = run_catalog(["negint-7.9"])
        assert report.passed
        assert report.max_rel_err == 0.0

    def test_report_order_is_lexicographic(self):
        reports = run_catalog()
        names = [r.name for r in reports]
        assert names == sorted(names)

    def test_selected_subset(self):
        reports = run_catalog(["diff-eq-7.2"])
        assert len(reports) == 1
        assert reports[0].name == "diff-eq-7.2"

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown identities"):
            run_catalog(["diff-eq-7.2", "nope"])


class TestReportContract:
    def test_json_schema_fields(self):
        reports = run_catalog(["diff-eq-7.2", "negint-7.9"], reduced=True)
        parsed = json.loads(reports_to_json(reports))
        assert isinstance(parsed, list)
        for obj in parsed:
            assert list(obj.keys()) == [
                "name",
                "points_tested",
                "max_rel_err",
                "mean_rel_err",
                "worst_point",
                "pass",
            ]

    def test_serialization_is_deterministic(self):
        a = reports_to_json(run_catalog(reduced=True))
        b = reports_to_json(run_catalog(reduced=True))
        assert a == b

    def test_complex_worst_point_serialized_as_literal(self):
        reports = run_catalog(["diff-eq-7.2"])
        obj = json.loads(reports_to_json(reports))[0]
        flat = json.dumps(obj["worst_point"])
        assert "j" not in flat  # python repr of complex never leaks out

    def test_evaluation_error_becomes_failed_report(self):
        def boom(point):
            raise ValueError("synthetic failure")

        spec = IdentitySpec(
            name="synthetic-error",
            lhs=boom,
            rhs=lambda point: 1.0,
            grid=({"s": 2.0},),
        )
        report = check(spec)
        assert not report.passed
        assert math.isinf(report.max_rel_err)
        assert "error" in report.worst_point
        payload = json.loads(reports_to_json([report]))
        assert payload[0]["max_rel_err"] == "inf"

    def test_near_zero_absolute_comparison(self):
        # Both sides tiny and equal to 1e-13 absolute: passes even though
        # the relative gap is large.
        spec = IdentitySpec(
            name="synthetic-near-zero",
            lhs=lambda point: 1e-13,
            rhs=lambda point: 3e-14,
            grid=({"s": 0.0},),
        )
        report = check(spec)
        assert report.passed

    def test_spec_rejects_empty_grid(self):
        from zetakit import DomainError

        with pytest.raises(DomainError):
            IdentitySpec(
                name="empty",
                lhs=lambda p: 0.0,
                rhs=lambda p: 0.0,
                grid=(),
            )


class TestFaultSensitivity:
    @pytest.mark.parametrize("target", sorted(FAULT_DETECTORS))
    def test_each_fault_is_detected(self, target):
        with faults.inject(target):
            reports = run_catalog(reduced=True)
        failed = {r.name for r in reports if not r.passed}
        must_catch = set(FAULT_DETECTORS[target])
        assert must_catch <= failed, (target, failed)

    def test_faults_do_not_leak(self):
        with faults.inject("ext_fd"):
            pass
        reports = run_catalog(reduced=True)
        assert all(r.passed for r in reports)

    def test_unknown_target_rejected(self):
        with pytest.raises(KeyError):
            with faults.inject("not-a-target"):
                pass


class TestPrintedFormGap:
    def test_bridge_derived_form_exact_at_zero_printed_fails_away(self):
        gaps = mult_5_10_printed_form_gap()
        assert gaps["x_zero"] <= 1e-12
        assert gaps["x_positive"] > 0.1
