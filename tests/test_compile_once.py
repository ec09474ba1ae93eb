"""Compile once: each unique campaign graph is built and costed one time.

The campaign front end compiles every unique ``(model, image_size)`` graph
exactly once (:func:`repro.hardware.roofline.compile_graph`): one build,
one :func:`~repro.graph.metrics.graph_costs` pass, and the IR rules run
over the summary and profile derived from those costs — the profile the
sweep then measures.  These tests count the calls, prove that IR004 still
catches a fault in the shared costs, and keep ``scipy`` out of every
default command's imports.
"""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.zoo
from repro.analysis.verify import GraphVerificationError, rules
from repro.benchdata.campaign import (
    DEFAULT_BATCH_SIZES,
    DEFAULT_IMAGE_SIZES,
    DEFAULT_MODELS,
)
from repro.benchdata.engine import (
    CLEAN_TIME_CACHE,
    CampaignSpec,
    enumerate_points,
    run_campaign,
)
from repro.graph import metrics
from repro.graph.passes import PIPELINE_CACHE, PassPipeline
from repro.hardware import roofline
from repro.hardware.device import A100_80GB
from repro.hardware.roofline import COMPILE_CACHE, zoo_profile

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def cold_caches():
    """Empty compile/grid/pipeline caches around a test, so call counts
    start from zero and no patched result outlives the test."""

    def clear():
        for cache in (COMPILE_CACHE, CLEAN_TIME_CACHE, PIPELINE_CACHE):
            cache.clear()

    clear()
    yield
    clear()


def _spec(**kwargs) -> CampaignSpec:
    base = dict(
        scenario="inference",
        models=DEFAULT_MODELS,
        device=A100_80GB,
        batch_sizes=DEFAULT_BATCH_SIZES,
        image_sizes=DEFAULT_IMAGE_SIZES,
    )
    base.update(kwargs)
    return CampaignSpec(**base)


def _unique_graphs(spec: CampaignSpec) -> int:
    return len({(p.model, p.image_size) for p in enumerate_points(spec)})


def _count_calls(monkeypatch, owners, attr: str) -> list:
    """Wrap ``attr`` on every module that binds it; returns the call log."""
    calls: list = []
    original = getattr(owners[0], attr)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, attr, counted)
    return calls


class TestCompileOnce:
    def test_default_inference_campaign_builds_and_costs_each_graph_once(
        self, monkeypatch, cold_caches
    ):
        builds = _count_calls(monkeypatch, [repro.zoo], "build_model")
        costs = _count_calls(
            monkeypatch, [metrics, roofline, rules], "graph_costs"
        )
        spec = _spec()
        result = run_campaign(spec, verify="strict")
        unique = _unique_graphs(spec)
        assert unique == 96
        assert len(builds) == unique
        assert len(costs) == unique
        # Each graph misses once, in the compile step; every point hits.
        assert result.stats.cache.misses == unique
        assert result.stats.cache.hits == result.stats.n_points

    def test_fused_campaign_runs_the_pipeline_once_per_graph(
        self, monkeypatch, cold_caches
    ):
        runs = _count_calls(monkeypatch, [PassPipeline], "run")
        spec = _spec(
            models=("resnet18", "mobilenet_v2"),
            image_sizes=(64, 128),
            batch_sizes=(1, 8),
            transform="inference",
        )
        run_campaign(spec, verify="strict")
        assert len(runs) == _unique_graphs(spec) == 4

    def test_blocks_campaign_builds_each_block_once(
        self, monkeypatch, cold_caches
    ):
        import repro.zoo.blocks

        builds = _count_calls(monkeypatch, [repro.zoo.blocks], "build_block")
        spec = _spec(
            scenario="blocks", models=("MBConv",), image_sizes=(64, 96),
            batch_sizes=(1, 8),
        )
        run_campaign(spec, verify="strict")
        assert len(builds) == _unique_graphs(spec) == 2


@pytest.fixture
def doubled_flops(monkeypatch):
    """A fault in the shared costs: one layer's FLOPs counted twice."""
    original = roofline.graph_costs

    def faulty(graph):
        costs = original(graph)
        costs[1] = dataclasses.replace(costs[1], flops=2 * costs[1].flops)
        return costs

    monkeypatch.setattr(roofline, "graph_costs", faulty)


class TestSharedCostsStayVerified:
    SPEC = _spec(models=("alexnet",), image_sizes=(64,), batch_sizes=(1,))

    def test_doubled_layer_flops_in_shared_costs_fail_strict(
        self, cold_caches, doubled_flops
    ):
        # The compile step derives the verified summary and the measured
        # profile from one costs list; corrupting it must still trip
        # IR004's independent recomputation.
        with pytest.raises(GraphVerificationError, match="IR004"):
            run_campaign(self.SPEC, verify="strict")

    def test_profile_compiled_unverified_is_verified_before_measuring(
        self, cold_caches, doubled_flops
    ):
        zoo_profile("alexnet", 64)  # cached without verification
        with pytest.raises(GraphVerificationError, match="IR004"):
            run_campaign(self.SPEC, verify="strict")


def _run(code: str) -> tuple[str, list[str]]:
    """Run ``code`` in a fresh interpreter: (stdout, scipy modules left
    in ``sys.modules`` afterwards)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code + "\n"
         "print(sorted(m for m in sys.modules"
         " if m.split('.')[0] == 'scipy'), file=sys.stderr)"],
        capture_output=True, text=True, check=True, env=env,
    )
    return proc.stdout, ast.literal_eval(proc.stderr.strip().splitlines()[-1])


class TestImportHygiene:
    def test_cli_import_leaves_scipy_unloaded(self):
        _, scipy_modules = _run("import repro.cli")
        assert scipy_modules == []

    def test_cli_help_leaves_scipy_unloaded(self):
        out, scipy_modules = _run(
            "import runpy\n"
            "sys.argv = ['repro', '--help']\n"
            "try:\n"
            "    runpy.run_module('repro.cli', run_name='__main__')\n"
            "except SystemExit:\n"
            "    pass"
        )
        assert "usage:" in out
        assert scipy_modules == []
