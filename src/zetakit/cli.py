"""Command-line front end: evaluate, tabulate, and verify.

Four subcommands:

* ``eval``     -- one function at one parameter point, with provenance.
* ``table``    -- the same over a Cartesian grid, as text/CSV/JSON rows.
* ``check``    -- run the identity catalog and report per-entry residuals.
* ``selftest`` -- golden-value checks plus the catalog on reduced grids.

``check --inject-fault TARGET`` and ``selftest --inject-fault TARGET`` arm
one of ``faults.FAULT_TARGETS`` for the whole run (for ``selftest``, the
golden checks as well as the catalog); a sound harness then fails.

Exit codes: 0 success, 1 usage error, 2 domain error (poles and overflow
included), 3 convergence failure, 4 identity/selftest failure.

Numeric output uses 15 significant digits (``%.15g``); complex numbers are
written as ``a+bi`` literals, which the argument parser accepts back, so CSV
tables round-trip through re-evaluation.  The series tolerance and term
budget are the library constants ``zeta.REL_TOL`` and ``zeta.MAX_TERMS``;
no flag changes them.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import sys
import time
from typing import Callable, Sequence

from . import faults
from .errors import (
    ConvergenceError,
    DomainError,
    PoleError,
    RangeError,
    ZetakitError,
)
from .extended import (
    ExtParams,
    Strategy,
    be_classical,
    ext_be,
    ext_fd,
    fd_classical,
)
from .result import EvalResult
from .zeta import (
    LerchParams,
    chi_ratio,
    dirichlet_eta,
    hurwitz_zeta,
    lerch_phi,
    polylog,
    riemann_zeta,
)

__all__ = [
    "main",
    "parse_complex_literal",
    "parse_axis",
    "format_complex",
    "golden_checks",
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_DOMAIN",
    "EXIT_CONVERGENCE",
    "EXIT_IDENTITY",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3
EXIT_IDENTITY = 4

# Reference value computed independently with 40-digit decimal arithmetic
# (sum of e^{-k}/k^2), then rounded to the nearest double.
_LI2_INV_E = 0.4087542873488963


class UsageError(Exception):
    """Bad flags, literals, or parameter combinations (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit 1 instead of 2, and whose
    parameter flags take values that start with '-' (``--s -3:3:3``)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        # argparse reads "-3:3:3" or "-i" as an option; glue such a value
        # to its parameter flag so it arrives as "--s=-3:3:3".
        joined: list[str] = []
        for tok in sys.argv[1:] if args is None else args:
            if (joined and joined[-1] in _PARAM_OPTIONS
                    and tok.startswith("-") and not tok.startswith("--")):
                joined[-1] += "=" + tok
            else:
                joined.append(tok)
        return super().parse_known_args(joined, namespace)


# ---------------------------------------------------------------------------
# literal / grid parsing
# ---------------------------------------------------------------------------


def parse_complex_literal(text: str) -> complex:
    """Parse ``a+bi`` / ``a-bi`` literals with optional parts.

    Accepts plain reals ("2", "-1.5e3"), pure imaginaries ("3i", "-i"),
    and combined forms ("2+3i", "2.5-1e+2i").  Case-insensitive ``i``.
    """
    raw = text.strip()
    if not raw:
        raise ValueError("empty numeric literal")
    if raw[-1] not in "iI":
        return complex(float(raw), 0.0)
    body = raw[:-1]
    # Split at the last +/- that is neither an exponent sign nor leading.
    split = -1
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            split = k
            break
    real_text, imag_text = ("", body) if split < 0 else (body[:split], body[split:])
    if imag_text in ("", "+"):
        imag = 1.0
    elif imag_text == "-":
        imag = -1.0
    else:
        imag = float(imag_text)
    real = float(real_text) if real_text else 0.0
    return complex(real, imag)


def parse_axis(text: str) -> list[complex]:
    """Parse a parameter flag: single literal, or ``start:stop:count`` grid."""
    if ":" not in text:
        return [parse_complex_literal(text)]
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:count, got {text!r}")
    start = parse_complex_literal(parts[0])
    stop = parse_complex_literal(parts[1])
    count = int(parts[2])
    if count < 1:
        raise ValueError(f"range count must be >= 1, got {count}")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    values = [start + step * k for k in range(count)]
    values[-1] = stop
    return values


def format_complex(v: complex) -> str:
    """%.15g rendering; complex numbers become round-trippable a+bi."""
    if v.imag == 0.0:
        return f"{v.real:.15g}"
    return f"{v.real:.15g}{v.imag:+.15g}i"


# ---------------------------------------------------------------------------
# function registry
# ---------------------------------------------------------------------------


def _need_real(v: complex, name: str) -> float:
    if v.imag != 0.0:
        raise DomainError(f"{name} must be real for this function, got {v!r}")
    return v.real


def _call_zeta(v, strategy):
    return riemann_zeta(v["s"])


def _call_eta(v, strategy):
    return dirichlet_eta(v["s"])


def _call_hurwitz(v, strategy):
    return hurwitz_zeta(v["s"], v["a"])


def _call_lerch(v, strategy):
    return lerch_phi(LerchParams(v["z"], v["s"], v["a"]))


def _call_polylog(v, strategy):
    return polylog(v["z"], v["s"])


def _call_chi(v, strategy):
    return chi_ratio(v["s"])


def _call_ext_fd(v, strategy):
    return ext_fd(ExtParams(v["nu"], v["s"], v["x"]), strategy)


def _call_ext_be(v, strategy):
    return ext_be(ExtParams(v["nu"], v["s"], v["x"]), strategy)


def _call_fd_classical(v, strategy):
    return fd_classical(v["s"], _need_real(v["x"], "x"))


def _call_be_classical(v, strategy):
    return be_classical(v["s"], _need_real(v["x"], "x"))


_Caller = Callable[..., EvalResult]

# name -> (ordered parameter flags, callable, accepts --strategy)
FUNCTIONS: dict[str, tuple[tuple[str, ...], _Caller, bool]] = {
    "zeta": (("s",), _call_zeta, False),
    "eta": (("s",), _call_eta, False),
    "hurwitz": (("s", "a"), _call_hurwitz, False),
    "lerch": (("z", "s", "a"), _call_lerch, False),
    "polylog": (("z", "s"), _call_polylog, False),
    "chi": (("s",), _call_chi, False),
    "ext_fd": (("nu", "s", "x"), _call_ext_fd, True),
    "ext_be": (("nu", "s", "x"), _call_ext_be, True),
    "fd_classical": (("s", "x"), _call_fd_classical, False),
    "be_classical": (("s", "x"), _call_be_classical, False),
}

_PARAM_FLAGS = ("nu", "s", "x", "a", "z")
_PARAM_OPTIONS = frozenset(f"--{flag}" for flag in _PARAM_FLAGS)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _resolve_function(args: argparse.Namespace) -> tuple[tuple[str, ...], _Caller, bool]:
    try:
        return FUNCTIONS[args.fn]
    except KeyError:
        known = ", ".join(sorted(FUNCTIONS))
        raise UsageError(f"unknown function {args.fn!r}; known: {known}")


def _collect_axes(
    args: argparse.Namespace, params: tuple[str, ...], fn: str
) -> dict[str, list[complex]]:
    axes: dict[str, list[complex]] = {}
    for flag in _PARAM_FLAGS:
        raw = getattr(args, flag)
        if flag in params:
            if raw is None:
                raise UsageError(f"function {fn!r} requires --{flag}")
            try:
                axes[flag] = parse_axis(raw)
            except ValueError as exc:
                raise UsageError(f"bad value for --{flag}: {exc}")
        elif raw is not None:
            raise UsageError(f"function {fn!r} does not take --{flag}")
    return axes


def _resolve_strategy(args: argparse.Namespace, takes_strategy: bool) -> Strategy:
    if args.strategy is None:
        return Strategy.AUTO
    if not takes_strategy:
        raise UsageError(f"function {args.fn!r} does not take --strategy")
    for member in Strategy:
        if member.value.lower() == args.strategy.lower():
            return member
    known = ", ".join(m.value for m in Strategy)
    raise UsageError(f"unknown strategy {args.strategy!r}; known: {known}")


def _emit(args: argparse.Namespace, payload: str) -> None:
    """Write the payload to --output or stdout, UTF-8, LF endings."""
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


_RESULT_HEADER = ["value_re", "value_im", "err_estimate", "strategy", "work"]


def _result_cells(res: EvalResult | None) -> list[str]:
    """The ``_RESULT_HEADER`` cells of one result; blanks for a failed point."""
    if res is None:
        return [""] * len(_RESULT_HEADER)
    return [
        f"{res.value.real:.15g}",
        f"{res.value.imag:.15g}",
        f"{res.err_estimate:.15g}",
        res.strategy,
        str(res.work),
    ]


def _csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _classify(exc: ZetakitError | OverflowError) -> tuple[int, str]:
    if isinstance(exc, OverflowError):
        return EXIT_DOMAIN, "overflow"
    if isinstance(exc, PoleError):
        return EXIT_DOMAIN, "pole"
    if isinstance(exc, (DomainError, RangeError)):
        return EXIT_DOMAIN, "domain"
    if isinstance(exc, ConvergenceError):
        return EXIT_CONVERGENCE, "convergence"
    return EXIT_DOMAIN, "error"


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _cmd_eval(args: argparse.Namespace) -> int:
    params, caller, takes_strategy = _resolve_function(args)
    axes = _collect_axes(args, params, args.fn)
    for name, values in axes.items():
        if len(values) != 1:
            raise UsageError(
                f"eval takes a single point; --{name} is a grid (use the table command)"
            )
    point = {name: values[0] for name, values in axes.items()}
    strategy = _resolve_strategy(args, takes_strategy)

    result = caller(point, strategy)

    if args.format == "json":
        payload = json.dumps(result.to_dict(), indent=2, allow_nan=False) + "\n"
    elif args.format == "csv":
        payload = _csv([_RESULT_HEADER, _result_cells(result)])
    else:
        payload = (
            f"value = {format_complex(result.value)}\n"
            f"err_estimate = {result.err_estimate:.6e}\n"
            f"strategy = {result.strategy}\n"
            f"work = {result.work}\n"
        )
    _emit(args, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _table_rows(
    params: tuple[str, ...],
    axes: dict[str, list[complex]],
    caller: _Caller,
    strategy: Strategy,
) -> list[tuple[dict, EvalResult | None, str]]:
    """(point, result or None, status) per grid point, in Cartesian product
    order: the last parameter varies fastest."""
    rows: list[tuple[dict, EvalResult | None, str]] = []
    for combo in itertools.product(*(axes[name] for name in params)):
        point = dict(zip(params, combo))
        try:
            res = caller(point, strategy)
        except (ZetakitError, OverflowError) as exc:
            _, kind = _classify(exc)
            rows.append((point, None, f"{kind}: {exc}"))
        else:
            rows.append((point, res, "ok"))
    return rows


def _cmd_table(args: argparse.Namespace) -> int:
    params, caller, takes_strategy = _resolve_function(args)
    axes = _collect_axes(args, params, args.fn)
    if all(len(v) == 1 for v in axes.values()):
        raise UsageError("table requires at least one gridded parameter (start:stop:count)")
    strategy = _resolve_strategy(args, takes_strategy)
    rows = _table_rows(params, axes, caller, strategy)

    header = list(params) + _RESULT_HEADER + ["status"]
    body = [
        [format_complex(point[name]) for name in params] + _result_cells(res) + [status]
        for point, res, status in rows
    ]
    if args.format == "json":
        objs = []
        for point, res, status in rows:
            obj: dict = {name: {"re": point[name].real, "im": point[name].imag}
                         for name in params}
            obj.update(res.to_dict() if res else
                       dict.fromkeys(("value", "err_estimate", "strategy", "work")))
            obj["status"] = status
            objs.append(obj)
        payload = json.dumps(objs, indent=2, allow_nan=False) + "\n"
    elif args.format == "csv":
        payload = _csv([header] + body)
    else:
        table = [header] + body
        widths = [max(len(line[i]) for line in table) for i in range(len(header))]
        lines = [
            "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
            for line in table
        ]
        payload = "\n".join(lines) + "\n"
    _emit(args, payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _armed_fault(args: argparse.Namespace):
    """The ``--inject-fault`` target armed, or a no-op without the flag."""
    if args.inject_fault:
        return faults.inject(args.inject_fault)
    return contextlib.nullcontext()


def _cmd_check(args: argparse.Namespace) -> int:
    from .identities import mult_5_10_printed_form_gap, reports_to_json, run_catalog

    names: Sequence[str] | None = args.only or None
    try:
        with _armed_fault(args):
            reports = run_catalog(names, reduced=args.reduced)
    except KeyError as exc:
        raise UsageError(str(exc).strip("'\""))

    _emit(args, reports_to_json(reports) + "\n")

    for rep in reports:
        flag = "PASS" if rep.passed else "FAIL"
        print(
            f"{flag} {rep.name}: {rep.points_tested} points, "
            f"max_rel_err={rep.max_rel_err:.3e}",
            file=sys.stderr,
        )
    if names is None or "mult-5.10" in names:
        gaps = mult_5_10_printed_form_gap()
        print(
            "info: mult-5.10 as printed differs from the verified form for x>0 "
            f"(residual {gaps['x_positive']:.3e}) and agrees at x=0 "
            f"(residual {gaps['x_zero']:.3e}); informational, not a gate",
            file=sys.stderr,
        )
    failures = [rep.name for rep in reports if not rep.passed]
    if failures:
        print(f"FAILED: {', '.join(failures)}", file=sys.stderr)
        return EXIT_IDENTITY
    return EXIT_OK


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def golden_checks() -> list[dict]:
    """Closed-form reference checks used by the selftest command.

    Every reference is a classical constant; tolerances are relative.
    """
    pi2 = math.pi * math.pi
    auto = Strategy.AUTO
    cases: list[tuple[str, Callable[[], EvalResult], float]] = [
        ("zeta(2)", lambda: riemann_zeta(2.0), pi2 / 6.0),
        ("zeta(0)", lambda: riemann_zeta(0.0), -0.5),
        ("zeta(-1)", lambda: riemann_zeta(-1.0), -1.0 / 12.0),
        ("eta(1)", lambda: dirichlet_eta(1.0), math.log(2.0)),
        ("eta(2)", lambda: dirichlet_eta(2.0), pi2 / 12.0),
        ("hurwitz(2, 0.5)", lambda: hurwitz_zeta(2.0, 0.5), pi2 / 2.0),
        ("ext_fd(0, 2, 0)", lambda: ext_fd(ExtParams(0.0, 2.0, 0.0), auto), pi2 / 12.0),
        ("ext_be(0, 2, 0)", lambda: ext_be(ExtParams(0.0, 2.0, 0.0), auto), pi2 / 6.0),
        ("ext_be(0, -1, 0)", lambda: ext_be(ExtParams(0.0, -1.0, 0.0), auto), -1.0 / 12.0),
        ("polylog(exp(-1), 2)", lambda: polylog(math.exp(-1.0), 2.0), _LI2_INV_E),
    ]
    out: list[dict] = []
    for name, thunk, reference in cases:
        entry: dict = {"name": name, "reference": reference, "tol": 1e-11}
        try:
            res = thunk()
        except ZetakitError as exc:
            entry.update(value=None, rel_err=None, error=f"{type(exc).__name__}: {exc}", **{"pass": False})
        else:
            rel = abs(res.value - reference) / abs(reference)
            entry.update(
                value={"re": res.value.real, "im": res.value.imag},
                rel_err=rel,
                strategy=res.strategy,
                **{"pass": rel <= 1e-11},
            )
        out.append(entry)
    return out


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .identities import QUICK_SUBSET, run_catalog

    names = list(QUICK_SUBSET) if args.quick else None

    started = time.monotonic()
    with _armed_fault(args):
        golden = golden_checks()
        reports = run_catalog(names, reduced=True)
    elapsed = time.monotonic() - started

    all_pass = all(g["pass"] for g in golden) and all(r.passed for r in reports)
    payload = {
        "golden": golden,
        "identities": [r.to_dict() for r in reports],
        "pass": all_pass,
    }
    _emit(args, json.dumps(payload, indent=2, allow_nan=False) + "\n")

    n_golden = sum(1 for g in golden if g["pass"])
    n_ident = sum(1 for r in reports if r.passed)
    print(
        f"selftest: golden {n_golden}/{len(golden)} pass, "
        f"identities {n_ident}/{len(reports)} pass, {elapsed:.2f}s",
        file=sys.stderr,
    )
    return EXIT_OK if all_pass else EXIT_IDENTITY


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, with_params: bool) -> None:
    parser.add_argument("--output", default=None, help="write output to this file instead of stdout")
    if with_params:
        parser.add_argument("--fn", required=True, help="function name (e.g. zeta, ext_fd)")
        for flag in _PARAM_FLAGS:
            parser.add_argument(f"--{flag}", default=None, help=f"parameter {flag} (a+bi literal)")
        parser.add_argument("--strategy", default=None, help="evaluation route for ext_fd/ext_be")
        parser.add_argument(
            "--format", choices=("text", "csv", "json"), default="text", help="output format"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zetakit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one function at one point")
    _add_common(p_eval, with_params=True)
    p_eval.set_defaults(handler=_cmd_eval)

    p_table = sub.add_parser("table", help="evaluate over a start:stop:count grid")
    _add_common(p_table, with_params=True)
    p_table.set_defaults(handler=_cmd_table)

    p_check = sub.add_parser("check", help="run the identity catalog")
    _add_common(p_check, with_params=False)
    p_check.add_argument("--only", action="append", default=None, metavar="NAME",
                         help="restrict to this identity (repeatable)")
    p_check.add_argument("--reduced", action="store_true", help="use the reduced grids")
    p_check.add_argument("--inject-fault", choices=faults.FAULT_TARGETS, default=None,
                         help="debug: perturb one target while checking")
    p_check.set_defaults(handler=_cmd_check)

    p_self = sub.add_parser("selftest", help="golden values + catalog on reduced grids")
    _add_common(p_self, with_params=False)
    p_self.add_argument("--quick", action="store_true", help="quick identity subset (< 5 s)")
    p_self.add_argument("--inject-fault", choices=faults.FAULT_TARGETS, default=None,
                        help="debug: perturb one target while testing")
    p_self.set_defaults(handler=_cmd_selftest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ZetakitError, OverflowError) as exc:
        code, kind = _classify(exc)
        prefix = "overflow: " if kind == "overflow" else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
