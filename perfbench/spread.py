"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
takes it: for each metric, the distance between the first and third
quartile of its values over several seeds, as a share of their median.

    python3 perfbench/spread.py --workload zoo-grid --seeds 0 1 2 3 4

Prints one line per run and then a table of spread against the bound
``BENCHMARK.json`` fixes for the metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        capture_output=True, text=True, check=False,
    )
    wall = time.perf_counter() - start
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall"] = wall
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    args = parser.parse_args()
    doc = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            r = run_once(workload, seed, doc["run_seconds"])
            brief = {k: round(v["value"], 4) for k, v in r["metrics"].items()}
            print(f"{workload} seed={seed} wall={r['wall']:.1f}s "
                  f"correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} {brief}", flush=True)
            for k, v in r["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        if len(args.seeds) < 2:
            continue
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            bound = bounds.get(name, float("nan"))
            flag = "ok" if spread < bound / 3 else (
                "within" if spread < bound else "OVER")
            print(f"  {workload:18s} {name:22s} median={q2:10.4f} "
                  f"spread={spread:.4f} bound={bound} {flag}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
