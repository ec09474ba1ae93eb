"""Step plans: a distributed batch's noise-free training step, built once.

A :class:`~repro.distributed.trainer.StepPlan` holds everything of one
training step that depends only on ``(model, image_size, batch)``: the clean
forward and optimizer times, the reversed clean backward per-layer vector,
the gradient positions and the fusion-bucket layout.  A distributed campaign
builds one per batch through the engine's clean-time grid and reuses it for
every node count; only the seeded noise draws, the cumsum and the all-reduce
loop stay per point.  These tests pin that the records, counters and traces
are exactly what the per-point step produced before plans existed.

To regenerate the golden digests after an *intentional* change to the
simulator::

    PYTHONPATH=src python tests/test_step_plan.py > tests/data/distributed_golden.json
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.benchdata.engine import (
    CLEAN_TIME_CACHE,
    CampaignSpec,
    enumerate_points,
    run_campaign,
    trace_campaign,
)
from repro.distributed import trainer as trainer_module
from repro.distributed.cluster import ClusterSpec
from repro.distributed.fusion import fuse_tensors, fusion_layout
from repro.distributed.trainer import (
    BucketTrace,
    DistributedTrainer,
    TrainingStepTrace,
)
from repro.hardware import backend as backend_module
from repro.hardware.backend import _BWD_BYTES_FACTOR, get_backend
from repro.hardware.device import A100_80GB, DEVICE_PRESETS, JETSON_ORIN
from repro.hardware.executor import PhaseTimes
from repro.hardware.noise import lognormal_vector, point_seed
from repro.hardware.roofline import COMPILE_CACHE, zoo_profile
from repro.trace import Tracer, to_json

GOLDEN_PATH = Path(__file__).parent / "data" / "distributed_golden.json"

#: The distributed scenario's batch and image sweep (as ``repro campaign``).
BATCHES = (16, 32, 64, 128, 256)
IMAGES = (64, 128, 192)
GOLDEN_MODELS = ("resnet18", "mobilenet_v2")
GOLDEN_NODES = (1, 2, 3, 8, 64)
#: Work counters only: cache counters depend on what the process ran before.
WORK_COUNTERS = ("allreduce_bytes", "bytes", "flops")


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _golden_spec(backend: str = "", device=A100_80GB) -> CampaignSpec:
    return CampaignSpec(
        scenario="distributed",
        models=GOLDEN_MODELS,
        device=device,
        batch_sizes=BATCHES,
        image_sizes=IMAGES,
        seed=5,
        node_counts=GOLDEN_NODES,
        backend=backend,
    )


def _trace_spec() -> CampaignSpec:
    return CampaignSpec(
        scenario="distributed",
        models=("alexnet",),
        device=A100_80GB,
        batch_sizes=(16, 64),
        image_sizes=(64,),
        seed=3,
        node_counts=(1, 2, 16),
    )


def _campaign_digest(spec: CampaignSpec, **kwargs) -> dict:
    result = run_campaign(spec, verify="off", **kwargs)
    records = [r.to_dict() for r in result.dataset]
    return {
        "n_records": len(records),
        "n_oom": result.stats.n_oom,
        "records_blake2b": _digest(json.dumps(records)),
        "counters": {
            k: v for k, v in sorted(result.stats.counters.items())
            if k in WORK_COUNTERS
        },
    }


def _trace_digest(**kwargs) -> str:
    tracer = Tracer()
    trace_campaign(_trace_spec(), tracer, **kwargs)
    return _digest(to_json(tracer))


def _golden_payload() -> dict:
    return {
        "roofline": _campaign_digest(_golden_spec()),
        "fp16": _campaign_digest(_golden_spec("fp16")),
        # Edge boards gate the large batches out as OOM points.
        "edge": _campaign_digest(
            _golden_spec("edge", DEVICE_PRESETS["jetson-orin-nano"])
        ),
        "trace_blake2b": _trace_digest(),
    }


def _clear_caches() -> None:
    for cache in (COMPILE_CACHE, CLEAN_TIME_CACHE):
        cache.clear()


@pytest.fixture
def cold_caches():
    _clear_caches()
    yield
    _clear_caches()


# -- (a) records digest against the pre-plan golden --------------------------


class TestDistributedGolden:
    @pytest.mark.parametrize("variant", ["roofline", "fp16", "edge"])
    def test_records_and_counters_match_golden(self, variant):
        golden = json.loads(GOLDEN_PATH.read_text())
        spec = {
            "roofline": _golden_spec(),
            "fp16": _golden_spec("fp16"),
            "edge": _golden_spec("edge", DEVICE_PRESETS["jetson-orin-nano"]),
        }[variant]
        assert _campaign_digest(spec) == golden[variant], (
            "distributed records moved; regenerate "
            "tests/data/distributed_golden.json only for an intentional "
            "simulator change"
        )


# -- (b) planned step == inline step -----------------------------------------


def _reference_step(
    trainer: DistributedTrainer, profile, batch: int, rep: int
) -> TrainingStepTrace:
    """The step computed inline from the backends, as before step plans:
    per-call ``layer_times`` sweeps and :func:`fuse_tensors` ready times."""
    backends = trainer._node_backends
    n_ranks = trainer.cluster.total_devices
    name = profile.graph_name
    fwd = 0.0
    for b in backends:
        noise = trainer._noise(
            trainer._sync_sigma(b.noise_sigma), name, batch, "fwd", rep,
            tag=b.noise_tag,
        )
        fwd = max(fwd, b.forward_time_clean(profile, batch) * noise)
    bwd = None
    for b in backends:
        noisy = b.layer_times(
            profile,
            batch,
            flops_factor=trainer.backend.backward_flops_factor(profile),
            bytes_factor=_BWD_BYTES_FACTOR,
        )[::-1] * lognormal_vector(
            trainer._sync_sigma(b.noise_sigma),
            profile.n_layers,
            point_seed(
                trainer.seed, b.noise_tag, n_ranks, name, batch,
                "bwd-layers", rep,
            ),
        )
        bwd = noisy if bwd is None else np.maximum(bwd, noisy)
    completion = np.cumsum(bwd)
    bwd_end = float(completion[-1]) + max(
        b.device.base_overhead for b in backends
    )
    grad_mask = profile.has_params[::-1]
    sizes = (
        profile.param_counts[::-1][grad_mask] * trainer.backend.float_bytes
    ).tolist()
    ready = completion[grad_mask].tolist()
    buckets = []
    comm_end = bwd_end
    if n_ranks > 1 and sizes:
        coordination = (
            trainer_module._COORDINATION_BASE
            + trainer_module._COORDINATION_PER_RANK * n_ranks
        )
        cursor = 0.0
        fused = fuse_tensors(sizes, ready, trainer.fusion_threshold)
        for i, bucket in enumerate(fused):
            start = max(bucket.ready_time, cursor)
            end = start + (
                trainer._all_reduce_time(bucket.nbytes) + coordination
            ) * trainer._noise(
                trainer.cluster.ring_link.noise_sigma, name, batch, "comm",
                i, rep,
            )
            buckets.append(BucketTrace(bucket, start, end))
            cursor = end
        comm_end = max(bwd_end, cursor)
    opt = max(
        b.grad_update_time_clean(profile)
        * trainer._noise(
            b.noise_sigma, name, batch, "opt", rep, tag=b.noise_tag
        )
        for b in backends
    )
    return TrainingStepTrace(
        phases=PhaseTimes(
            forward=fwd,
            backward=bwd_end,
            grad_update=max(0.0, comm_end - bwd_end) + opt,
        ),
        buckets=tuple(buckets),
        backward_end=bwd_end,
        comm_end=comm_end,
        optimizer_time=max(
            b.grad_update_time_clean(profile) for b in backends
        ),
    )


TRAINERS = {
    "ring": lambda: DistributedTrainer(ClusterSpec(nodes=4), seed=7),
    "hierarchical": lambda: DistributedTrainer(
        ClusterSpec(nodes=3), seed=7, algorithm="hierarchical"
    ),
    "no-fusion": lambda: DistributedTrainer(
        ClusterSpec(nodes=2), seed=7, fusion_threshold=0
    ),
    "small-buckets": lambda: DistributedTrainer(
        ClusterSpec(nodes=2), seed=7, fusion_threshold=4e6
    ),
    "hetero": lambda: DistributedTrainer(
        ClusterSpec(
            nodes=2, gpus_per_node=4, device=A100_80GB,
            node_devices=(A100_80GB, JETSON_ORIN),
        ),
        seed=7,
    ),
    "edge": lambda: DistributedTrainer(
        ClusterSpec(nodes=2, device=JETSON_ORIN),
        seed=7,
        backend=get_backend("edge"),
    ),
    "fp16": lambda: DistributedTrainer(
        ClusterSpec(nodes=2), seed=7, backend=get_backend("fp16")
    ),
    "single-device": lambda: DistributedTrainer(
        ClusterSpec(nodes=1, gpus_per_node=1), seed=7
    ),
}
PLAN_BATCHES = (8, 32, 64)


class TestStepPlan:
    @pytest.mark.parametrize("config", sorted(TRAINERS))
    def test_planned_step_equals_inline_step(self, config):
        trainer = TRAINERS[config]()
        profile = zoo_profile("resnet50", 64)
        plans = trainer.plan_steps(profile, PLAN_BATCHES)
        assert len(plans[8].backends) == len(trainer._node_backends)
        for batch in PLAN_BATCHES:
            for rep in (0, 1):
                planned = trainer.run_step(
                    profile, batch, rep, plan=plans[batch]
                )
                assert planned == trainer.run_step(profile, batch, rep)
                assert planned == _reference_step(
                    trainer, profile, batch, rep
                )

    @pytest.mark.parametrize("config", ["ring", "hetero", "fp16"])
    def test_traced_planned_step_equals_traced_inline_step(self, config):
        trainer = TRAINERS[config]()
        profile = zoo_profile("resnet18", 64)
        plan = trainer.plan_steps(profile, (16,))[16]
        traces = []
        for step_plan in (plan, None):
            tracer = Tracer()
            step = trainer.run_step(profile, 16, tracer=tracer, plan=step_plan)
            traces.append((step, to_json(tracer)))
        assert traces[0] == traces[1]
        assert traces[0][0] == trainer.run_step(profile, 16)

    def test_one_plan_serves_every_node_count(self):
        profile = zoo_profile("resnet18", 64)
        plans = DistributedTrainer(ClusterSpec(nodes=1), seed=7).plan_steps(
            profile, (32,)
        )
        for nodes in (1, 2, 8, 64):
            trainer = DistributedTrainer(ClusterSpec(nodes=nodes), seed=7)
            assert trainer.run_step(profile, 32, plan=plans[32]) == (
                trainer.run_step(profile, 32)
            )

    def test_mismatched_plan_is_refused(self):
        profile = zoo_profile("resnet18", 64)
        trainer = DistributedTrainer(ClusterSpec(nodes=2), seed=7)
        plans = trainer.plan_steps(profile, (16, 32))
        with pytest.raises(ValueError, match="step plan"):
            trainer.run_step(profile, 32, plan=plans[16])
        other = DistributedTrainer(
            ClusterSpec(nodes=2), seed=7, fusion_threshold=1e6
        )
        with pytest.raises(ValueError, match="step plan"):
            other.run_step(profile, 16, plan=plans[16])

    @pytest.mark.parametrize("threshold", [0, 1e6, 64 * 1024 * 1024])
    def test_bucket_ready_is_completion_of_last_member(self, threshold):
        profile = zoo_profile("resnet50", 64)
        trainer = DistributedTrainer(
            ClusterSpec(nodes=2), seed=7, fusion_threshold=threshold
        )
        plan = trainer.plan_steps(profile, (32,))[32]
        grad_mask = profile.has_params[::-1]
        sizes = (profile.param_counts[::-1][grad_mask] * 4.0).tolist()
        assert plan.grad_positions.tolist() == np.flatnonzero(
            grad_mask
        ).tolist()
        assert plan.buckets == tuple(fusion_layout(sizes, threshold))
        completion = np.cumsum(plan.backends[0].backward_layers)
        ready = completion[plan.grad_positions].tolist()
        fused = fuse_tensors(sizes, ready, threshold)
        assert len(fused) == len(plan.buckets) > 1 or threshold > 1e6
        for bucket, layout in zip(fused, plan.buckets):
            assert (bucket.tensor_indices, bucket.nbytes) == (
                layout.tensor_indices, layout.nbytes
            )
            assert bucket.ready_time == ready[layout.last]


# -- (c) grid cache on/off ----------------------------------------------------


class TestDistributedGridCache:
    @pytest.mark.parametrize(
        "scenario, backend",
        [
            pytest.param("distributed", "", id=""),
            pytest.param("distributed", "edge", id="edge"),
            pytest.param("inference", "", id="inference"),
        ],
    )
    def test_campaign_grid_cache_records_identical(self, scenario, backend):
        device = DEVICE_PRESETS["jetson-orin-nano"] if backend else A100_80GB
        spec = CampaignSpec(
            scenario=scenario,
            models=("alexnet", "mobilenet_v2"),
            device=device,
            batch_sizes=(16, 64, 256),
            image_sizes=(64, 128),
            seed=37,
            node_counts=(1, 2, 8),
            backend=backend,
        )

        def cold_run(grid_cache):
            _clear_caches()
            return run_campaign(spec, verify="off", grid_cache=grid_cache)

        uncached = cold_run(grid_cache=False)
        cached = cold_run(grid_cache=True)
        assert cached.dataset.records == uncached.dataset.records
        assert cached.stats.counters == uncached.stats.counters
        assert cached.stats.n_oom == uncached.stats.n_oom
        assert (cached.stats.n_oom > 0) == bool(backend)

    def test_grid_hits_every_point_but_one_per_graph(self, cold_caches):
        for scenario in ("distributed", "inference"):
            _clear_caches()
            spec = dataclasses.replace(_golden_spec(), scenario=scenario)
            before = CLEAN_TIME_CACHE.stats()
            result = run_campaign(spec, verify="off")
            delta = CLEAN_TIME_CACHE.stats() - before
            graphs = len(
                {(p.model, p.image_size) for p in enumerate_points(spec)}
            )
            assert delta.lookups == result.stats.n_points, scenario
            assert delta.misses == graphs, scenario


# -- (d) one batched backward sweep per graph ---------------------------------


def test_cold_distributed_campaign_plans_each_graph_once(
    monkeypatch, cold_caches
):
    calls = []
    original = backend_module.layer_times

    def counted(profile, batch, device, flops_factor=1.0, bytes_factor=1.0):
        if bytes_factor == _BWD_BYTES_FACTOR:
            calls.append((profile.graph_name, np.shape(batch)))
        return original(profile, batch, device, flops_factor, bytes_factor)

    monkeypatch.setattr(backend_module, "layer_times", counted)
    spec = _golden_spec()
    result = run_campaign(spec, verify="strict")
    graphs = {(p.model, p.image_size) for p in enumerate_points(spec)}
    assert result.stats.n_executed == len(GOLDEN_MODELS) * len(IMAGES) * len(
        BATCHES
    ) * len(GOLDEN_NODES)
    assert len(calls) == len(graphs)
    assert all(shape == (len(BATCHES),) for _, shape in calls)


# -- (e) traces ---------------------------------------------------------------


def test_trace_campaign_output_unchanged(cold_caches):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _trace_digest() == golden["trace_blake2b"]
    assert _trace_digest(grid_cache=False) == golden["trace_blake2b"]


if __name__ == "__main__":  # pragma: no cover - snapshot regeneration
    print(json.dumps(_golden_payload(), indent=2, sort_keys=True))
