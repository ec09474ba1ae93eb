"""Campaign-engine throughput benchmark (``BENCH_campaign.json``).

Not a paper table: this is the perf-trajectory artifact for the campaign
engine itself.  The same sweep runs twice in one process — once with the
clean-time grid cache disabled (the pre-triage baseline) and once with it
on (the shipped default) — and the benchmark gates three contracts at
once:

* **Equivalence** — the two record streams are bit-identical; the grid
  cache memoises deterministic clean times only, never the noise stream.
* **Throughput** — the optimized configuration's median points/s must
  not fall below the baseline's, measured in the same job, so the triage
  fixes cannot silently regress.  Each timed run repeats the cold
  campaign until it has measured for at least a second, and baseline and
  optimized runs alternate, so scheduler noise and drift hit both sides
  alike.
* **Schema** — the emitted payload passes
  :func:`repro.benchdata.bench.validate_campaign_bench_payload` (and the
  shared :func:`repro.serve.bench.validate_bench_payload` dispatcher)
  before it is written.

Set ``REPRO_CAMPAIGN_BENCH_OUT`` to persist the payload somewhere other
than the test's tmp dir (the CI campaign-bench step points it at the
uploaded artifact path).
"""

import json
import os
import statistics

import pytest

from repro.benchdata import (
    CampaignSpec,
    campaign_bench_payload,
    run_campaign,
    validate_campaign_bench_payload,
    write_campaign_bench,
)
from repro.benchdata.engine import CLEAN_TIME_CACHE
from repro.core.forward import ForwardModel
from repro.core.persistence import save_model
from repro.hardware.device import get_device
from repro.hardware.roofline import COMPILE_CACHE
from repro.serve import (
    BenchConfig,
    ModelRegistry,
    bench_registry,
    validate_bench_payload,
)

BENCH_MODELS = ("alexnet", "resnet18", "resnet50", "mobilenet_v2", "vgg11")
BENCH_BATCHES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)
BENCH_IMAGES = (64, 128, 224)
BENCH_SEED = 29
#: Minimum measured time per timed run, seconds.  One cold campaign
#: measures for ~50 ms, short enough that a single scheduler hiccup
#: decided a one-campaign gate in about 2 of 15 standalone runs.
TIMED_RUN_SECONDS = 1.0
#: Alternating baseline/optimized timed-run pairs; the gate compares
#: the medians.
TIMED_PAIRS = 5


def _clear_engine_caches() -> None:
    """Cold-start every cache a campaign touches, so both timed runs pay
    identical warm-up costs and their stats counters stay comparable."""
    COMPILE_CACHE.clear()
    CLEAN_TIME_CACHE.clear()


def _bench_spec() -> CampaignSpec:
    return CampaignSpec(
        scenario="inference",
        models=BENCH_MODELS,
        device=get_device("a100-80gb"),
        batch_sizes=BENCH_BATCHES,
        image_sizes=BENCH_IMAGES,
        seed=BENCH_SEED,
    )


@pytest.mark.experiment
def test_campaign_perf_trajectory(tmp_path, capsys):
    spec = _bench_spec()

    # Warm-up outside the timed window: imports, first-touch allocations,
    # and graph builds land here instead of skewing the baseline.
    _clear_engine_caches()
    run_campaign(spec, verify="off", grid_cache=True)

    def timed_run(grid_cache: bool):
        """Cold campaigns until TIMED_RUN_SECONDS of measuring; returns
        (points/s over all of them, the last result)."""
        points = 0
        elapsed = 0.0
        while elapsed < TIMED_RUN_SECONDS:
            _clear_engine_caches()
            result = run_campaign(spec, verify="off", grid_cache=grid_cache)
            points += result.stats.n_executed
            elapsed += result.stats.elapsed_seconds
        return points / elapsed, result

    baseline_runs, optimized_runs = [], []
    for _ in range(TIMED_PAIRS):
        baseline_runs.append(timed_run(grid_cache=False))
        optimized_runs.append(timed_run(grid_cache=True))
    baseline = baseline_runs[-1][1]
    optimized = optimized_runs[-1][1]

    _clear_engine_caches()
    grid_before = CLEAN_TIME_CACHE.stats()
    run_campaign(spec, verify="off", grid_cache=True)
    grid_delta = CLEAN_TIME_CACHE.stats() - grid_before

    # Equivalence: the grid cache only memoises deterministic clean
    # times, so every record — and the profile-cache counters the stats
    # report — must match the uncached run exactly.
    assert optimized.dataset.records == baseline.dataset.records
    assert optimized.stats.counters == baseline.stats.counters
    assert len(optimized.dataset) > 0

    # Throughput: the shipped configuration must not lose to the
    # pre-triage baseline measured in this same process.
    baseline_pps = statistics.median(pps for pps, _ in baseline_runs)
    optimized_pps = statistics.median(pps for pps, _ in optimized_runs)
    assert baseline_pps > 0
    assert optimized_pps >= baseline_pps

    # The win must come from where we claim it does: one grid build per
    # (model, image) pair, then hits for every further batch size.
    assert grid_delta.hits > 0
    assert grid_delta.hit_rate > 0.5

    # Serve leg of the trajectory: fit on the benched records, drive the
    # server with a small seeded mix, fold its QPS into the payload.
    registry_dir = tmp_path / "registry"
    registry_dir.mkdir()
    save_model(
        ForwardModel().fit(optimized.dataset), registry_dir / "default.json"
    )
    serve_payload = bench_registry(
        ModelRegistry(registry_dir),
        BenchConfig(artifact="default", queries=64, threads=2, seed=11),
    )
    assert validate_bench_payload(serve_payload) == []
    assert serve_payload["totals"]["errors"] == 0

    payload = campaign_bench_payload(
        scenario=spec.scenario,
        device=spec.device.name,
        models=spec.models,
        n_points=optimized.stats.n_executed,
        workers=1,
        seed=spec.seed,
        # Per-campaign wall times at the median rates.
        baseline_wall_seconds=optimized.stats.n_executed / baseline_pps,
        optimized_wall_seconds=optimized.stats.n_executed / optimized_pps,
        grid_cache_stats=grid_delta.to_dict(),
        serve_qps=serve_payload["qps"],
        serve_queries=serve_payload["totals"]["queries"],
        serve_p50_ms=serve_payload["latency_ms"]["p50"],
    )
    assert validate_campaign_bench_payload(payload) == []
    # The shared dispatcher must route campaign payloads to the same
    # validator CI uses for BENCH_serve.json.
    assert validate_bench_payload(payload) == []

    out = os.environ.get(
        "REPRO_CAMPAIGN_BENCH_OUT", str(tmp_path / "BENCH_campaign.json")
    )
    write_campaign_bench(payload, out)
    written = json.loads(open(out).read())
    assert written["schema"] == payload["schema"]
    assert written["optimized"]["points_per_second"] >= written["baseline"][
        "points_per_second"
    ]

    with capsys.disabled():
        print(
            f"\ncampaign perf: {payload['n_points']} points, "
            f"baseline {baseline_pps:.1f} -> optimized "
            f"{optimized_pps:.1f} points/s "
            f"(speedup {payload['speedup']:.2f}x, grid-cache hit rate "
            f"{grid_delta.hit_rate:.0%}, serve {payload['serve']['qps']:.0f} "
            "q/s)"
        )
        print(f"wrote {out}")
