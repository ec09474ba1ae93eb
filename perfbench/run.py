"""Repository benchmark: end-to-end and per-layer timings of ``repro``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload zoo-grid --seed 0 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``zoo-grid``          campaign -> fit -> leaderboard, fresh processes;
* ``node-sweep-store``  a 3840-point distributed sweep into a store, then
                        the same command with ``--resume``;
* ``serve-mix``         one ``repro serve`` process, open then closed loop.

With ``--trace 0`` the last line of standard output is a JSON object
holding every end-to-end metric; with ``--trace 1`` it holds every
per-layer metric, from a separate traced run.  The line before it is
the run record: environment, workload parameters, sample counts and any
failures.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import threading
import traceback
from pathlib import Path

from harness import Context, environment, program_env

WORKLOADS = ("zoo-grid", "node-sweep-store", "serve-mix")

#: Where runs work (removed afterwards) and keep their records and spans.
OUT_DIR = Path("perfbench") / "out"

#: A run still going after this many seconds stops its processes and
#: fails, so a hung program cannot hold the benchmark past its limit.
RUN_LIMIT_S = 170.0

#: ``--trace 1`` reports every per-layer metric on every workload.  A
#: layer the workload's own steps never call (serve layers on the CLI
#: workloads, store layers on ``zoo-grid``, ...) is timed by one traced
#: pass of the first workload here that calls it, at the same seed.
COMPANIONS = {
    "zoo-grid": ("node-sweep-store", "serve-mix"),
    "node-sweep-store": ("zoo-grid", "serve-mix"),
    "serve-mix": ("zoo-grid", "node-sweep-store"),
}
#: ``--seconds`` of a companion's traced run: one CLI pass, and a serve
#: open loop long enough for its tail percentiles.
COMPANION_SECONDS = 10.0


def make_workload(name: str, ctx: Context):
    if name == "serve-mix":
        from serve_mix import ServeMix

        return ServeMix(ctx)
    from cli_workloads import NodeSweepStore, ZooGrid

    return ZooGrid(ctx) if name == "zoo-grid" else NodeSweepStore(ctx)


def run_companions(name: str, ctx: Context,
                   measured: dict[str, float], wanted: set[str]) -> None:
    """Add to ``measured`` the metrics in ``wanted`` that it lacks, from
    traced runs of :data:`COMPANIONS`; the run record names the source of
    each."""
    taken: dict[str, list[str]] = {}
    for other in COMPANIONS[name]:
        missing = wanted - set(measured)
        if not missing:
            break
        sub = Context(root=ctx.root, work=ctx.work / other, seed=ctx.seed,
                      seconds=COMPANION_SECONDS, env=ctx.env, procs=ctx.procs)
        sub.work.mkdir()
        try:
            found = make_workload(other, sub).run_traced()
        finally:
            ctx.attempted += sub.attempted
            ctx.failed += sub.failed
            ctx.failures.extend(f"{other}: {f}" for f in sub.failures)
        taken[other] = sorted(missing & set(found))
        measured.update({k: found[k] for k in taken[other]})
    ctx.details["companions"] = taken


def declared_metrics(root: Path, trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    doc = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("perfbench: run from a checkout root holding src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    declared = declared_metrics(root, bool(args.trace))

    out = root / OUT_DIR
    work = out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = Context(root=root, work=work, seed=args.seed, seconds=args.seconds,
                  env=program_env(root))

    def give_up() -> None:
        print(f"perfbench: run exceeded {RUN_LIMIT_S:.0f} s", file=sys.stderr)
        ctx.kill_all()
        shutil.rmtree(work, ignore_errors=True)
        os._exit(1)

    watchdog = threading.Timer(RUN_LIMIT_S, give_up)
    watchdog.daemon = True
    watchdog.start()
    try:
        workload = make_workload(args.workload, ctx)
        measured = (workload.run_traced() if args.trace else workload.run())
        if args.trace:
            run_companions(args.workload, ctx, measured, set(declared))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        watchdog.cancel()
        if ctx.failed and ctx.log.exists():
            shutil.copy(ctx.log, out / f"{work.name}-programs.log")
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for name, unit in declared.items():
        if name not in measured:
            ctx.failed += 1
            ctx.failures.append(f"{name} was not measured")
            continue
        if not math.isfinite(measured[name]):
            ctx.failed += 1
            ctx.failures.append(f"{name} is not finite")
            continue
        metrics[name] = {"value": float(measured[name]), "unit": unit}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(root), **ctx.details,
        "failures": ctx.failures[:20],
        "undeclared": sorted(set(measured) - set(declared)),
    }
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"record": record, "metrics": metrics},
                             indent=1))
    print(json.dumps(record))
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
