#!/usr/bin/env python3
"""zetakit benchmark: timed, checked passes over one workload.

    python3 bench/run.py --workload table-near-circle --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36 --trace 0

Run it from the root of a zetakit checkout: the library is imported from
that checkout's ``src/`` and from nowhere else.  One client evaluates the
seed's points one after another (a closed loop) in whole passes until
``--seconds`` are used.  With ``--trace 0`` the last line of output is a
JSON object with the end-to-end metrics; with ``--trace 1`` untraced and
traced passes alternate, and the JSON carries the per-layer metrics and
the tracing overhead.  ``bench/README.md`` defines every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from decimal import Decimal, localcontext
from pathlib import Path
from time import perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

REL_TOL = 1e-10      # accuracy gate of inaccurate_ratio / accurate_ratio
ABS_FLOOR = 1e-12    # identities.check's near-zero floor
REL_FLOOR = 1e-30    # identities.check's denominator floor
SETUP_REPEATS = 21
PROBE_EVERY = 100    # evaluations between two speed probes within a pass
MIN_SAMPLES = 1000   # latency samples per run, so that ten lie beyond p99
# The first calls that build the lazy exact tables: bernoulli_number builds
# the whole Bernoulli table; the Euler table grows only as far as asked, and
# no workload asks beyond degree 6 (orders down to s = -6).
WARM_UP = "zetakit.bernoulli_number(0)\nzetakit.euler_poly_coeffs(6)\n"
SETUP_SNIPPET = (
    "import time\n"
    "from speed import probe_ns\n"
    "before = probe_ns()\n"
    "t0 = time.perf_counter()\n"
    "import zetakit\n"
    + WARM_UP
    + "t = time.perf_counter() - t0\n"
    "print(repr(t), before, probe_ns())\n"
)


def source_digest(src: Path) -> str:
    """sha256 over the library sources, naming the code a baseline came from."""
    h = hashlib.sha256()
    for path in sorted((src / "zetakit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class SetupSampler:
    """Set-up time: fresh interpreters timing import plus the exact-table build.

    The SETUP_REPEATS samples are spread over the whole run, a few between
    passes.  Each child probes its CPU's speed before and after, and its time
    is scaled to the reference speed (``speed.py``).
    """

    def __init__(self, src: Path, seconds: float) -> None:
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(BENCH_DIR))))
        self.seconds = seconds
        self.raw: list[float] = []     # seconds as measured
        self.times: list[float] = []   # scaled to the reference speed

    def catch_up(self, elapsed_ns: int) -> None:
        """Sample until the count keeps pace with the share of the run elapsed."""
        share = min(1.0, elapsed_ns / (self.seconds * 1e9))
        while len(self.times) < math.ceil(SETUP_REPEATS * share):
            out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=self.env,
                                 capture_output=True, text=True, timeout=120, check=True)
            took, before, after = out.stdout.split()
            self.raw.append(float(took))
            self.times.append(float(took) * speed.scale([float(before), float(after)]))


# ---------------------------------------------------------------------------
# workloads: items, one timed evaluation, and the checks on its outcome
# ---------------------------------------------------------------------------

class TableWorkload:
    """``ext_fd``/``ext_be`` calls checked against stored 30-digit references."""

    def __init__(self, name: str, points: list, zetakit) -> None:
        self.name = name
        self.items = points
        self.keys = [p.key for p in self.items]
        refs = json.loads((BENCH_DIR / "refs" / f"{name}.json").read_text())
        digest = workloads.universe_digest(workloads.universe(name))
        missing = [k for k in self.keys if k not in refs["refs"]]
        if refs["universe_sha256"] != digest or missing:
            raise SystemExit(
                f"error: bench/refs/{name}.json does not match the generated points "
                f"({len(missing)} missing); run python3 bench/make_refs.py"
            )
        self.refs = [refs["refs"][k] for k in self.keys]
        ext = zetakit.extended
        self._module = ext
        self._params = ext.ExtParams
        self._strategy = {s.value: s for s in ext.Strategy}
        self._error = zetakit.ZetakitError

    def evaluate(self, p: workloads.TablePoint):
        try:
            r = getattr(self._module, p.fn)(self._params(p.nu, p.s, p.x),
                                             self._strategy[p.strategy])
        except self._error as exc:
            return ("raise", type(exc).__name__)
        return ("ok", r.value, r.err_estimate, r.strategy, r.work)

    def defects(self, outcomes: list) -> list[set[str]]:
        """Per point: subset of {fail, wrong, inaccurate} against the reference."""
        out = []
        with localcontext() as ctx:
            ctx.prec = 60
            for (re_t, im_t), o in zip(self.refs, outcomes):
                if o[0] == "raise":
                    out.append({"fail"})
                    continue
                value, err = o[1], o[2]
                ref_re, ref_im = Decimal(re_t), Decimal(im_t)
                d_re, d_im = Decimal(value.real) - ref_re, Decimal(value.imag) - ref_im
                gap = (d_re * d_re + d_im * d_im).sqrt()
                ref_abs = (ref_re * ref_re + ref_im * ref_im).sqrt()
                scale = max(Decimal(abs(value)), ref_abs, Decimal(REL_FLOOR))
                found = set()
                if gap > Decimal(err):
                    found.add("wrong")
                if gap > Decimal(ABS_FLOOR) and gap / scale > Decimal(REL_TOL):
                    found.add("inaccurate")
                out.append(found)
        return out

    def counts(self, outcomes: list) -> dict:
        """Deterministic counts of one pass: total work and calls per route."""
        ok = [o for o in outcomes if o[0] == "ok"]
        return {"work": sum(o[4] for o in ok),
                "routes": dict(sorted(Counter(o[3] for o in ok).items()))}

    def verify(self, outcomes: list) -> list[str]:
        return []


class CatalogWorkload:
    """Every guarded-in grid point of ``build_catalog()``: lhs and rhs."""

    def __init__(self, seed: int, zetakit) -> None:
        self.name = "catalog"
        self.identities = zetakit.identities
        self.catalog = zetakit.build_catalog()
        sizes = [(name, len(self.catalog[name].grid)) for name in sorted(self.catalog)]
        self.items = workloads.catalog_order(sizes, seed)
        self.keys = [f"{name}|{i}" for name, i in self.items]
        self._catch = (zetakit.ZetakitError, ArithmeticError, ValueError)

    def evaluate(self, item):
        spec = self.catalog[item[0]]
        point = spec.grid[item[1]]
        try:
            return ("ok", complex(spec.lhs(point)), complex(spec.rhs(point)))
        except self._catch as exc:
            return ("raise", type(exc).__name__)

    @staticmethod
    def check_error(o, tol: float) -> float:
        """identities.check's error of one point: relative, or absolute near zero."""
        gap = abs(o[1] - o[2])
        rel = gap / max(abs(o[1]), abs(o[2]), REL_FLOOR)
        return gap if rel > tol and gap <= ABS_FLOOR else rel

    def defects(self, outcomes: list) -> list[set[str]]:
        out = []
        for (name, _), o in zip(self.items, outcomes):
            if o[0] == "raise":
                out.append({"fail"})
                continue
            out.append({label for label, tol in (("wrong", self.catalog[name].tol),
                                                 ("inaccurate", REL_TOL))
                        if self.check_error(o, tol) > tol})
        return out

    def counts(self, outcomes: list) -> dict:
        return {}

    def verify(self, outcomes: list) -> list[str]:
        """Our per-entry verdicts must equal identities.check on the same specs."""
        mine: dict[str, list] = {n: [0, [], False] for n in self.catalog}
        for (name, _), o in zip(self.items, outcomes):
            entry = mine[name]
            entry[0] += 1
            if o[0] == "raise":
                entry[2] = True
                continue
            entry[1].append(self.check_error(o, self.catalog[name].tol))
        problems = []
        for name, spec in sorted(self.catalog.items()):
            tested, rels, raised = mine[name]
            worst = math.inf if raised else max(rels, default=0.0)
            report = self.identities.check(spec)
            got = (tested, worst, not raised and worst <= spec.tol)
            want = (report.points_tested, report.max_rel_err, report.passed)
            if got != want:
                problems.append(f"catalog verdict for {name}: bench {got} != check {want}")
        return problems


def make_workload(name: str, seed: int, zetakit):
    if name == "catalog":
        return CatalogWorkload(seed, zetakit)
    return TableWorkload(name, workloads.select_table_points(name, seed), zetakit)


# ---------------------------------------------------------------------------
# timed passes
# ---------------------------------------------------------------------------

class Passes:
    """Whole passes over a workload's items, with per-evaluation latencies.

    Every PROBE_EVERY evaluations, between two of them, and once after the
    last, the CPU's speed is probed (``speed.py``).  Each latency is scaled to
    the reference speed by the median of the probe just before it and the
    probes on either side of that one.
    """

    def __init__(self) -> None:
        self.raw_ns = array("q")      # every latency, as measured
        self.scaled_ns = array("d")   # the same, at the reference speed
        self.first: list | None = None
        self.count = 0
        self.pass_ns: list[int] = []     # evaluation time of each pass, as measured
        self.factors: list[float] = []   # median speed factor of each pass
        self.mismatches = 0   # point outcomes that differ from the first pass

    def one(self, wl, rec=None) -> None:
        """One pass; with a recorder, each catalog point gets a root span."""
        outcomes = []
        lat = array("q")
        probes = []
        evaluate = wl.evaluate
        roots = rec is not None and wl.name == "catalog"
        for k, item in enumerate(wl.items):
            if k % PROBE_EVERY == 0:
                probes.append(speed.probe_ns())
            root = rec.open(f"identities.{item[0]}") if roots else None
            t0 = perf_counter_ns()
            outcomes.append(evaluate(item))
            t1 = perf_counter_ns()
            lat.append(t1 - t0)
            if roots:
                rec.close(root)
        probes.append(speed.probe_ns())
        factors = [speed.scale(probes[max(0, j - 1):j + 2]) for j in range(len(probes) - 1)]
        self.raw_ns.extend(lat)
        self.scaled_ns.extend(ns * factors[k // PROBE_EVERY] for k, ns in enumerate(lat))
        self.pass_ns.append(sum(lat))
        self.factors.append(statistics.median(factors))
        self.count += 1
        if self.first is None:
            self.first = outcomes
        else:
            self.mismatches += sum(repr(a) != repr(b) for a, b in zip(outcomes, self.first))

    def run(self, wl, seconds: float, setup: SetupSampler | None = None) -> "Passes":
        """At least two passes, then more while the next one fits in ``seconds``.

        Set-up samples, if asked for, are taken between passes.
        """
        begin = perf_counter_ns()
        while True:
            self.one(wl)
            elapsed = perf_counter_ns() - begin
            if setup:
                setup.catch_up(elapsed)
            if self.count >= 2 and elapsed * (self.count + 1) / self.count > seconds * 1e9:
                if setup:
                    setup.catch_up(int(seconds * 1e9))
                return self

    def evals_per_s(self, scaled: bool = True) -> float:
        """Evaluations completed per second of evaluation time, over all passes."""
        lat = self.scaled_ns if scaled else self.raw_ns
        return len(lat) / (sum(lat) / 1e9)

    def point_latencies(self, scaled: bool = True) -> list[float]:
        """Each point's median latency within each group of consecutive passes, sorted.

        The passes form the fewest groups that yield MIN_SAMPLES samples: one
        group for the table workloads, two for ``catalog``.  The median over a
        point's repeats keeps a repeat that the host or a garbage collection
        slowed from reaching the tail.
        """
        lat = self.scaled_ns if scaled else self.raw_ns
        per_pass = len(lat) // self.count
        groups = min(self.count, math.ceil(MIN_SAMPLES / per_pass))
        out = []
        for g in range(groups):
            passes = range(g * self.count // groups, (g + 1) * self.count // groups)
            out.extend(statistics.median(lat[p * per_pass + i] for p in passes)
                       for i in range(per_pass))
        return sorted(out)


def percentile_us(sorted_ns: list[int], q: float) -> float:
    """Nearest-rank percentile, in microseconds."""
    return sorted_ns[max(0, math.ceil(q * len(sorted_ns)) - 1)] / 1e3


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------

def load_json(path: Path) -> dict:
    return json.loads(path.read_text()) if path.is_file() else {}


def traced_run(wl, seconds: float, problems: list[str]):
    """Untraced and traced passes, alternating, for ``seconds`` in all.

    Alternating keeps slow drifts of the machine out of the overhead
    estimate.  Returns (untraced passes, per-layer metrics per pass, counts
    of one traced pass, spans of the first traced pass).
    """
    rec = spans.Recorder()
    untraced, traced = Passes(), Passes()
    pass_counts: list[dict] = []
    sums: Counter = Counter()
    kept: dict = {}
    begin = perf_counter_ns()
    while True:
        untraced.one(wl)
        with spans.patched(rec):
            traced.one(wl, rec)
        stats = spans.layer_stats(rec)
        pass_counts.append(spans.count_stats(stats))
        sums.update(stats)
        sums["trace.spans"] += len(rec)
        if not kept:
            kept = rec.snapshot()
        rec.clear()
        elapsed = perf_counter_ns() - begin
        if untraced.count >= 2 and elapsed * (traced.count + 1) / traced.count > seconds * 1e9:
            break
    left = spans.traced_bindings()
    if left:
        problems.append(f"bindings still traced after the run: {left}")
    if any(c != pass_counts[0] for c in pass_counts):
        problems.append("per-layer counts differ between traced passes")
    if traced.mismatches or any(repr(a) != repr(b) for a, b in zip(traced.first, untraced.first)):
        problems.append("traced outcomes differ from untraced outcomes")
    layer = {k: v / traced.count for k, v in sums.items()}
    eps_plain = untraced.evals_per_s()
    eps_traced = traced.evals_per_s()
    layer["trace.overhead_pct"] = 100.0 * (eps_plain - eps_traced) / eps_plain
    layer["trace.evals_per_s_untraced"] = eps_plain
    layer["trace.evals_per_s_traced"] = eps_traced
    return untraced, layer, pass_counts[0], kept


def run_workload(args, root: Path) -> int:
    src = root / "src"
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    import zetakit
    if Path(zetakit.__file__).resolve().parent != (src / "zetakit").resolve():
        raise SystemExit(f"error: imported zetakit from {zetakit.__file__}, not {src}")
    exec(WARM_UP, {"zetakit": zetakit})   # set-up is measured above, not in the passes

    wl = make_workload(args.workload, args.seed, zetakit)
    per_pass = len(wl.items)
    digest = source_digest(src)
    baseline = load_json(BENCH_DIR / "baseline.json")
    base_wl = baseline.get("workloads", {}).get(wl.name, {})
    points = hashlib.sha256("\n".join(wl.keys).encode()).hexdigest()
    same_code = (baseline.get("src_sha256") == digest and base_wl.get("seed") == args.seed
                 and base_wl.get("points_sha256") == points)
    problems: list[str] = []

    layer: dict[str, float] = {}
    layer_counts: dict[str, int] = {}
    setup = None
    if not args.trace:
        setup = SetupSampler(src, args.seconds)
        untraced = Passes().run(wl, args.seconds, setup)
    else:
        untraced, layer, layer_counts, kept = traced_run(wl, args.seconds, problems)
        if same_code and base_wl.get("layer_counts") not in (None, layer_counts):
            problems.append("per-layer counts differ from the baseline of the same code")
        spans.write_spans(root / ".bench_out" / f"spans-{wl.name}-seed{args.seed}.json", kept)

    # --- output checks on the untraced passes ---
    outcomes = untraced.first
    if untraced.mismatches:
        problems.append(f"{untraced.mismatches} point outcomes changed between passes")
    problems.extend(wl.verify(outcomes))
    counts = wl.counts(outcomes)
    if same_code and counts and base_wl.get("counts") not in (None, counts):
        problems.append("work or route counts differ from the baseline of the same code")
    defects = wl.defects(outcomes)
    ledger = load_json(BENCH_DIR / "known_defects.json").get(wl.name, {})
    gate = [k for k, found in zip(wl.keys, defects) if found - set(ledger.get(k, ()))]
    problems.extend(f"new defect at {k}" for k in gate[:10])
    tally = {c: sum(c in found for found in defects) for c in ("fail", "wrong", "inaccurate")}

    attempted = per_pass * untraced.count
    lat = untraced.point_latencies()
    raw_lat = untraced.point_latencies(scaled=False)
    e2e = {
        "setup_s": statistics.median(setup.times) if setup else None,
        "evals_per_s": untraced.evals_per_s(),
        "eval_us.p50": percentile_us(lat, 0.50),
        "eval_us.p99": percentile_us(lat, 0.99),
        "returned_ratio": 1 - tally["fail"] / per_pass,
        "honest_ratio": 1 - tally["wrong"] / per_pass,
        "accurate_ratio": 1 - tally["inaccurate"] / per_pass,
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    # --- report ---
    print(f"workload {wl.name}  seed {args.seed}  passes {untraced.count}"
          f"  evaluations {attempted} ({per_pass} per pass)  python "
          f"{sys.version.split()[0]}  nproc {os.cpu_count()}")
    if setup:
        print(f"  setup_s samples: {' '.join(f'{t:.4f}' for t in setup.times)}")
    print(f"  latency samples: {len(lat)} (each point's median over "
          f"{untraced.count * per_pass // len(lat)} passes); "
          f"{len(lat) - math.ceil(0.99 * len(lat))} beyond p99")
    print(f"  timings are scaled to the reference speed; CPU speed factor per pass "
          f"{min(untraced.factors):.3f}..{max(untraced.factors):.3f}; as measured: "
          f"evals_per_s {untraced.evals_per_s(scaled=False):.6g}, eval_us.p50 "
          f"{percentile_us(raw_lat, 0.50):.6g}, eval_us.p99 {percentile_us(raw_lat, 0.99):.6g}"
          + (f", setup_s {statistics.median(setup.raw):.6g}" if setup else ""))
    for c in ("fail", "wrong", "inaccurate"):
        print(f"  {c}_ratio = {tally[c] / per_pass:.6f}  ({tally[c]} / {per_pass} evaluations)")
    if counts:
        print(f"  work per pass {counts['work']}; routes {counts['routes']}")
    print(f"  checks: {len(problems)} problem(s); {len(gate)} point(s) outside "
          f"the known-defect ledger; baseline counts compared: {same_code}")
    for p in problems:
        print(f"  PROBLEM: {p}")
    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[group]:
        value = (layer if args.trace else e2e).get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if not args.trace:
            print(f"  {m['name']:<16} {value:.6g} {m['unit']}")
    if args.trace:
        print(f"  tracing overhead {layer['trace.overhead_pct']:.1f}% of evals_per_s; "
              f"{layer['trace.spans']:.0f} spans per pass")
    result = {"correct": not problems, "attempted": attempted,
              "failed": len(gate) * untraced.count, "metrics": metrics}
    details = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "src_sha256": digest, "points_sha256": points,
        "passes": untraced.count, "per_pass": per_pass,
        "tally": tally, "counts": counts, "layer_counts": layer_counts,
        "setup_samples": setup.times if setup else None,
        "setup_samples_raw": setup.raw if setup else None,
        "pass_ms": [ns / 1e6 for ns in untraced.pass_ns],
        "pass_factors": untraced.factors,
        "problems": problems, "result": result, "per_layer_all": layer,
    }
    out = root / ".bench_out" / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process; prints each one's report."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True)
        sys.stdout.write(out.stdout)
        results[name] = json.loads(out.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="zetakit benchmark")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "zetakit" / "__init__.py").is_file():
        print(f"error: no zetakit sources under {root / 'src'}; "
              "run from the root of a zetakit checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
