"""Command-line interface: parsing, formats, exit codes, round-trips."""

import csv
import io
import json
import math

import pytest

from zetakit import ext_be, ext_fd, ExtParams
from zetakit.cli import (
    EXIT_CONVERGENCE,
    EXIT_DOMAIN,
    EXIT_IDENTITY,
    EXIT_OK,
    EXIT_USAGE,
    format_complex,
    main,
    parse_axis,
    parse_complex_literal,
)

import oracles


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text, want",
        [
            ("2", 2 + 0j),
            ("-1.5", -1.5 + 0j),
            ("2.5e-3", 0.0025 + 0j),
            ("3i", 3j),
            ("-3i", -3j),
            ("i", 1j),
            ("-i", -1j),
            ("+i", 1j),
            ("2+3i", 2 + 3j),
            ("2-3i", 2 - 3j),
            ("-2.5+0.5i", -2.5 + 0.5j),
            ("1e-3i", 0.001j),
            ("2.5-1e+2i", 2.5 - 100j),
            (" 2+3i ", 2 + 3j),
            ("2+3I", 2 + 3j),
        ],
    )
    def test_accepted(self, text, want):
        assert parse_complex_literal(text) == want

    @pytest.mark.parametrize("text", ["", "abc", "2+", "2+3", "1 + 2i", "2i+3"])
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_complex_literal(text)

    def test_round_trip_through_formatter(self):
        # Representable short values round-trip exactly; arbitrary doubles
        # round-trip to the printed 15 significant digits.
        for v in (2.0 + 0j, -1.5 + 0.25j, 0.1j):
            assert parse_complex_literal(format_complex(v)) == v
        v = complex(1 / 3, -2 / 7)
        back = parse_complex_literal(format_complex(v))
        assert format_complex(back) == format_complex(v)


class TestAxes:
    def test_single_value(self):
        assert parse_axis("2.5") == [2.5 + 0j]

    def test_range_endpoints_exact(self):
        vals = parse_axis("0:1:5")
        assert len(vals) == 5
        assert vals[0] == 0.0
        assert vals[-1] == 1.0

    def test_count_one(self):
        assert parse_axis("3:9:1") == [3.0 + 0j]

    def test_complex_range(self):
        vals = parse_axis("0+1i:0+3i:3")
        assert vals == [1j, 2j, 3j]

    def test_negative_start(self):
        vals = parse_axis("-3:0:4")
        assert vals[0] == -3.0 and vals[-1] == 0.0

    @pytest.mark.parametrize("text", ["1:2", "1:2:3:4", "1:2:0", "1:2:-1", "a:b:3"])
    def test_rejected(self, text):
        with pytest.raises(ValueError):
            parse_axis(text)


class TestEval:
    def test_golden_text_output(self, capsys):
        assert main(["eval", "--fn", "ext_fd", "--nu", "0", "--s", "2", "--x", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "value = 0.822467033424113" in out
        assert "strategy = " in out
        assert "work = " in out

    def test_json_output_schema(self, capsys):
        assert main(["eval", "--fn", "zeta", "--s", "2", "--format", "json"]) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        assert set(obj) == {"value", "err_estimate", "strategy", "work"}
        assert obj["value"]["re"] == pytest.approx(oracles.ZETA_2, rel=1e-13)

    def test_csv_output(self, capsys):
        assert main(["eval", "--fn", "zeta", "--s", "2", "--format", "csv"]) == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["value_re", "value_im", "err_estimate", "strategy", "work"]
        assert float(rows[1][0]) == pytest.approx(oracles.ZETA_2, rel=1e-13)

    def test_pole_exit_code_and_message(self, capsys):
        assert main(["eval", "--fn", "zeta", "--s", "1"]) == EXIT_DOMAIN
        assert "pole at s=1" in capsys.readouterr().err

    def test_domain_exit_code(self, capsys):
        assert main(["eval", "--fn", "hurwitz", "--s", "2", "--a", "-1"]) == EXIT_DOMAIN

    def test_convergence_exit_code(self, capsys):
        # |z| so close to 1 that the term budget cannot reach the tolerance:
        # at Re s <= 0 inside the circle, with a = 2.01 next to an integer,
        # where Lerch's transformation would pass MULT_CAP pieces, the
        # direct sum serves, and refuses up front.  (At a = 1 the
        # transformation returns, and at s = 2 the Taylor series in log z.)
        code = main(
            ["eval", "--fn", "lerch", "--z", "0.999999", "--s=-2", "--a", "2.01"]
        )
        assert code == EXIT_CONVERGENCE

    @pytest.mark.parametrize("flags", [
        ["--nu", "1+1i", "--s=1.5", "--x", "1000i"],
        ["--nu", "0", "--s=-300", "--x", "0"],
    ], ids=["series-prefactor", "reflection-prefactor"])
    def test_overflow_is_a_one_line_domain_error(self, flags, capsys):
        # A value past the double range ends in a message, not a traceback.
        assert main(["eval", "--fn", "ext_fd", *flags]) == EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("error: overflow: ") and err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--rel-tol=1e-6", "--max-terms=3"])
    def test_series_flags_are_usage_errors(self, flag, capsys):
        code = main(["eval", "--fn", "zeta", "--s", "2", flag])
        assert code == EXIT_USAGE

    def test_usage_missing_param(self, capsys):
        assert main(["eval", "--fn", "zeta"]) == EXIT_USAGE
        assert "requires --s" in capsys.readouterr().err

    def test_usage_extra_param(self, capsys):
        assert main(["eval", "--fn", "zeta", "--s", "2", "--nu", "1"]) == EXIT_USAGE

    def test_usage_unknown_function(self, capsys):
        assert main(["eval", "--fn", "nope", "--s", "2"]) == EXIT_USAGE

    def test_usage_grid_rejected(self, capsys):
        assert main(["eval", "--fn", "zeta", "--s", "1:2:5"]) == EXIT_USAGE

    def test_usage_bad_literal(self, capsys):
        assert main(["eval", "--fn", "zeta", "--s", "abc"]) == EXIT_USAGE

    def test_strategy_flag_on_ext(self, capsys):
        assert main(
            ["eval", "--fn", "ext_fd", "--nu", "0.5", "--s", "2.5", "--x", "1",
             "--strategy", "PowerSeriesX"]
        ) == EXIT_OK
        assert "power-series-x" in capsys.readouterr().out

    def test_strategy_flag_rejected_elsewhere(self, capsys):
        assert main(["eval", "--fn", "zeta", "--s", "2", "--strategy", "XSeries"]) == EXIT_USAGE

    def test_unknown_strategy(self, capsys):
        assert main(
            ["eval", "--fn", "ext_fd", "--nu", "0", "--s", "2", "--x", "0",
             "--strategy", "Magic"]
        ) == EXIT_USAGE

    def test_complex_parameters(self, capsys):
        assert main(
            ["eval", "--fn", "ext_fd", "--nu", "0.5", "--s", "2.5+2i", "--x", "1",
             "--format", "json"]
        ) == EXIT_OK
        obj = json.loads(capsys.readouterr().out)
        want = ext_fd(ExtParams(0.5, 2.5 + 2.0j, 1.0)).value
        assert obj["value"]["re"] == pytest.approx(want.real, rel=1e-13)
        assert obj["value"]["im"] == pytest.approx(want.imag, rel=1e-13)

    def test_output_file_lf_endings(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        assert main(
            ["eval", "--fn", "zeta", "--s", "2", "--format", "csv",
             "--output", str(target)]
        ) == EXIT_OK
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").startswith("value_re,")


class TestTable:
    def test_header_and_row_count(self, capsys):
        assert main(["table", "--fn", "eta", "--s", "1.5:3.5:5", "--format", "csv"]) == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["s", "value_re", "value_im", "err_estimate", "strategy", "work", "status"]
        assert len(rows) == 6  # header + 5 points

    def test_be_values_monotone_decreasing_in_x(self, capsys):
        assert main(
            ["table", "--fn", "ext_be", "--nu", "0", "--s", "2", "--x", "0:1:3",
             "--format", "csv"]
        ) == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        vals = [float(r[3]) for r in rows]
        assert vals == sorted(vals, reverse=True)
        # direct-series oracle at the interior point x = 0.5
        oracle = sum(math.exp(-n * 0.5) / n**2 for n in range(1, 400))
        assert vals[1] == pytest.approx(oracle, rel=1e-10)

    def test_failure_row_continues(self, capsys):
        assert main(["table", "--fn", "zeta", "--s", "0:2:3", "--format", "csv"]) == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert len(rows) == 3
        statuses = [r[-1] for r in rows]
        assert statuses[0] == "ok" and statuses[2] == "ok"
        assert statuses[1] != "ok" and "pole at s=1" in statuses[1]

    def test_overflow_row_continues(self, capsys):
        args = ["table", "--fn", "ext_fd", "--nu", "0", "--s=-300:-1:3", "--x", "0",
                "--format", "csv"]
        assert main(args) == EXIT_OK
        statuses = [r[-1] for r in csv.reader(io.StringIO(capsys.readouterr().out))][1:]
        assert statuses[0].startswith("overflow: ") and statuses[1:] == ["ok", "ok"]

    def test_csv_round_trip_reevaluation(self, capsys):
        assert main(
            ["table", "--fn", "ext_be", "--nu", "0.5", "--s", "1.5:2.5:3",
             "--x", "0.5", "--format", "csv"]
        ) == EXIT_OK
        text = capsys.readouterr().out
        reader = csv.DictReader(io.StringIO(text))
        for row in reader:
            assert row["status"] == "ok"
            nu = parse_complex_literal(row["nu"])
            s = parse_complex_literal(row["s"])
            x = parse_complex_literal(row["x"])
            again = ext_be(ExtParams(nu, s, x)).value
            assert f"{again.real:.15g}" == row["value_re"]
            assert f"{again.imag:.15g}" == row["value_im"]

    def test_json_matches_csv_to_last_digit(self, capsys):
        args = ["table", "--fn", "eta", "--s", "1.5:3.5:5"]
        assert main(args + ["--format", "csv"]) == EXIT_OK
        csv_rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert main(args + ["--format", "json"]) == EXIT_OK
        json_rows = json.loads(capsys.readouterr().out)
        for crow, jrow in zip(csv_rows, json_rows, strict=True):
            assert f"{jrow['value']['re']:.15g}" == crow[1]
            assert f"{jrow['value']['im']:.15g}" == crow[2]

    def test_text_format_aligned(self, capsys):
        assert main(["table", "--fn", "eta", "--s", "1.5:3.5:5"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("s ")
        assert len(lines) == 6

    def test_negative_range_after_space(self, capsys):
        assert main(["table", "--fn", "eta", "--s", "-3:3:3", "--format", "csv"]) == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert [r[0] for r in rows] == ["-3", "0", "3"]

    def test_negative_value_reaches_domain_check(self, capsys):
        code = main(["table", "--fn", "ext_fd", "--nu", "0", "--s", "2:3:2", "--x", "-1"])
        assert code == EXIT_OK
        assert "Re(x) >= 0" in capsys.readouterr().out
        assert main(["eval", "--fn", "ext_fd", "--nu", "0", "--s", "2", "--x", "-1"]) == EXIT_DOMAIN
        assert "Re(x) >= 0" in capsys.readouterr().err

    def test_requires_a_grid(self, capsys):
        assert main(["table", "--fn", "zeta", "--s", "2"]) == EXIT_USAGE

    def test_complex_grid_axis(self, capsys):
        assert main(
            ["table", "--fn", "ext_fd", "--nu", "0.5", "--s", "2+0i:2+2i:3",
             "--x", "1", "--format", "json"]
        ) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [r["s"]["im"] for r in rows] == [0.0, 1.0, 2.0]
        assert all(r["status"] == "ok" for r in rows)

    def test_two_grid_axes_in_cartesian_order(self, capsys):
        # nu and x are gridded: rows follow the Cartesian product, with the
        # last parameter (x) varying fastest, and each row's cells match the
        # eval command at the same point.
        assert main(
            ["table", "--fn", "ext_fd", "--nu", "0:1:2", "--s", "2.5",
             "--x", "0:0.5:3", "--format", "csv"]
        ) == EXIT_OK
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert [(r[0], r[1], r[2]) for r in rows] == [
            (nu, "2.5", x) for nu in ("0", "1") for x in ("0", "0.25", "0.5")
        ]
        assert all(r[-1] == "ok" for r in rows)
        for row in (rows[1], rows[5]):
            assert main(["eval", "--fn", "ext_fd", "--nu", row[0], "--s", row[1],
                         "--x", row[2], "--format", "csv"]) == EXIT_OK
            cells = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1]
            assert cells == row[3:8]


class TestCheck:
    def test_single_identity_report(self, capsys):
        assert main(["check", "--only", "diff-eq-7.2"]) == EXIT_OK
        captured = capsys.readouterr()
        reports = json.loads(captured.out)
        assert len(reports) == 1
        assert reports[0]["name"] == "diff-eq-7.2"
        assert reports[0]["pass"] is True
        assert "PASS diff-eq-7.2" in captured.err

    def test_unknown_identity_is_usage_error(self, capsys):
        assert main(["check", "--only", "nope"]) == EXIT_USAGE

    def test_injected_fault_fails(self, capsys):
        code = main(
            ["check", "--only", "diff-eq-7.2", "--reduced", "--inject-fault", "ext_fd"]
        )
        assert code == EXIT_IDENTITY
        captured = capsys.readouterr()
        reports = json.loads(captured.out)
        assert reports[0]["pass"] is False
        assert "FAILED" in captured.err

    def test_full_reduced_run_passes(self, capsys):
        assert main(["check", "--reduced"]) == EXIT_OK
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 24
        assert all(r["pass"] for r in reports)

    def test_informational_printed_form_note(self, capsys):
        assert main(["check", "--only", "mult-5.10", "--reduced"]) == EXIT_OK
        err = capsys.readouterr().err
        assert "informational" in err


class TestSelftest:
    def test_quick_passes(self, capsys):
        assert main(["selftest", "--quick"]) == EXIT_OK
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["pass"] is True
        assert all(g["pass"] for g in payload["golden"])
        assert len(payload["golden"]) == 10
        assert all(r["pass"] for r in payload["identities"])
        assert "selftest:" in captured.err

    def test_inject_bernoulli_table_fails(self, capsys):
        assert main(
            ["selftest", "--quick", "--inject-fault", "bernoulli-table"]
        ) == EXIT_IDENTITY
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is False

    def test_inject_fault_fails(self, capsys):
        assert main(["selftest", "--quick", "--inject-fault", "ext_fd"]) == EXIT_IDENTITY

    def test_inject_fault_reaches_golden_checks(self, capsys):
        assert main(["selftest", "--quick", "--inject-fault", "ext_fd"]) == EXIT_IDENTITY
        golden = json.loads(capsys.readouterr().out)["golden"]
        failed = {g["name"] for g in golden if not g["pass"]}
        assert failed == {g["name"] for g in golden if g["name"].startswith("ext_fd(")}
        assert failed

    def test_stdout_is_byte_deterministic(self, capsys):
        assert main(["selftest", "--quick"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["selftest", "--quick"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second


class TestArgparsePlumbing:
    def test_no_command_is_usage(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command_is_usage(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "zetakit", "eval", "--fn", "zeta", "--s", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "1.64493406684823" in proc.stdout
