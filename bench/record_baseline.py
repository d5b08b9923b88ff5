"""Record ``bench/baseline.json`` from runs of the current checkout.

    python3 bench/record_baseline.py [--seeds 10] [--seconds 36]

Run it from the repository root.  For each workload, one untraced run per
seed 1..N gives each end-to-end metric's median and quartiles (the spread
the benchmark's bounds must cover).  A traced run with seed 1 gives the
per-layer table, and the tracing overhead.  The deterministic counts come
from seed 1.  ``run.py`` compares later runs against those counts when the
``src/`` digest, the seed and the seed's points match.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
BASE_SEED = 1


def one_run(name: str, seed: int, seconds: float, traced: int) -> dict:
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)],
        check=True, stdout=subprocess.DEVNULL,
    )
    path = Path.cwd() / ".bench_out" / f"result-{name}-seed{seed}-trace{traced}.json"
    return json.loads(path.read_text())


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=36)
    args = parser.parse_args(argv)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    out: dict = {"seeds": list(range(1, args.seeds + 1)), "seconds": args.seconds,
                 "workloads": {}}
    for name in workloads.WORKLOADS:
        runs = [one_run(name, seed, args.seconds, 0) for seed in out["seeds"]]
        traced = one_run(name, BASE_SEED, args.seconds, 1)
        base = runs[0]
        out.update(python=base["python"], nproc=base["nproc"],
                   src_sha256=base["src_sha256"])
        layer = traced["result"]["metrics"]
        out["workloads"][name] = {
            "seed": BASE_SEED,
            "points_sha256": base["points_sha256"],
            "correct": all(r["result"]["correct"] for r in runs + [traced]),
            "end_to_end": {
                m["name"]: spread([r["result"]["metrics"][m["name"]]["value"] for r in runs])
                for m in spec["end_to_end"]
            },
            "tally_seed1": base["tally"],
            "per_pass": base["per_pass"],
            "counts": base["counts"],
            "layer_counts": traced["layer_counts"],
            "tracing_overhead_pct": layer["trace.overhead_pct"]["value"],
            "per_layer": {k: v["value"] for k, v in layer.items()},
        }
        print(f"{name}: done")
    path = BENCH_DIR / "baseline.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
