"""Campaign execution engine: parallel, cached, resumable sweeps.

The paper's measurement campaign is a few thousand independent
``(model, batch, image_size)`` points per scenario.  This module turns that
sweep into an explicit point list and executes it through one engine:

* **Enumeration** — :func:`enumerate_points` expands a
  :class:`CampaignSpec` into a deterministic, ordered list of
  :class:`SweepPoint` s.  The order is part of the contract: the assembled
  dataset always follows enumeration order, never completion order.
* **Execution** — :func:`run_campaign` measures every point either in
  process (``workers <= 1``) or fanned out over a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Results are keyed by
  point index, so parallel runs are byte-identical to serial ones; all
  measurement noise is seeded from the point identity via
  :func:`repro.hardware.noise.point_seed`, never from call order.
* **Memoisation** — each unique graph is compiled once per process
  (:func:`repro.hardware.roofline.compile_graph`: built, transformed,
  costed, verified) into the bounded compile cache; cache deltas of the
  compile step and of every point are aggregated across workers so the
  reported hit rate covers the whole campaign.
* **Resume** — with a :class:`repro.benchdata.store.CampaignStore`
  attached, each point's records (including the empty record lists of
  memory-gated points) are appended to a JSONL log as they complete;
  rerunning skips everything already on disk and appends only the rest.
* **Verification** — before measuring, :func:`run_campaign` compiles every
  unique graph the sweep will touch and runs the graph IR verifier
  (:mod:`repro.analysis.verify`) over the costs it is about to measure.
  ``verify="strict"`` refuses to measure a graph with ERROR diagnostics;
  the default ``"warn"`` measures anyway but emits a warning and records
  the error count in :class:`CampaignStats`.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.benchdata.records import ConvNetFeatures, Dataset, TimingRecord
from repro.caching import CacheStats, LRUCache
from repro.diagnostics import Diagnostic, Severity, sort_diagnostics
from repro.distributed.cluster import ClusterSpec
from repro.distributed.trainer import DistributedTrainer, StepPlan
from repro.hardware.device import DeviceSpec
from repro.hardware.executor import (
    SimulatedExecutor,
    _BWD_BYTES_FACTOR,
    _BWD_FLOPS_OTHER,
    _BWD_FLOPS_PARAM,
    _OPT_BYTES_PER_PARAM,
    _OPT_FLOPS_PER_PARAM,
)
from repro.hardware.memory import fits
from repro.hardware.roofline import (
    CostProfile,
    compile_graph,
    profile_cache_stats,
    zoo_profile,
)
from repro.trace.tracer import merge_counters
from repro.zoo.blocks import BLOCK_CATALOGUE
from repro.zoo.registry import get_entry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (store uses spec)
    from repro.benchdata.store import CampaignStore
    from repro.trace.tracer import Tracer

SCENARIOS = ("inference", "training", "distributed", "blocks")

def block_profile(block_name: str, image_size: int) -> CostProfile:
    """Cached cost profile of a Table 2 block at a given parent image size."""
    return compile_graph("block", block_name, image_size).profile


#: Bounded cache of clean-time grids, keyed by everything the noise-free
#: components depend on: device, execution backend, scenario (training adds
#: phases), graph transform, model identity, and the swept batch sizes.
#: One entry holds the whole batch sweep of a ``(model, image_size)`` pair,
#: computed from a single batched roofline evaluation per phase — so a
#: campaign pays the per-layer arithmetic once per model, not once per
#: point.  Inference and training cells are clean-time tuples; distributed
#: cells are :class:`PlannedBatch` es, shared by every node count.
CLEAN_TIME_CACHE: LRUCache[
    tuple[str, str, str, str, str, int, tuple[int, ...]],
    "dict[int, tuple[float, ...] | PlannedBatch]",
] = LRUCache(maxsize=512)


def _spec_backend(spec: CampaignSpec):
    """The spec's :class:`ExecutionBackend`, or ``None`` for the default.

    ``None`` (rather than an explicit :class:`RooflineBackend`) keeps the
    default construction path identical to the pre-backend engine; every
    consumer treats ``backend=None`` as the roofline policy.
    """
    if not spec.backend:
        return None
    from repro.hardware.backend import get_backend

    return get_backend(spec.backend, spec.device)


@dataclass(frozen=True)
class PlannedBatch:
    """Grid cell of a distributed campaign: what a point at one batch needs
    that does not depend on its node count."""

    plan: StepPlan
    features: ConvNetFeatures
    #: :func:`point_counters` without the all-reduce volume.
    counters: dict[str, float]
    #: All-reduce volume of one step, counted when more than one rank runs.
    grad_bytes: float

    def point_counters(self, ranks: int) -> dict[str, float]:
        return _with_allreduce(self.counters, ranks, self.grad_bytes)


def _plan_grid(
    spec: CampaignSpec, profile: CostProfile
) -> dict[int, PlannedBatch]:
    # Plans depend on the node device types, not the node count: one
    # single-node trainer plans the steps of every cluster in the sweep.
    cluster = ClusterSpec(
        nodes=1, gpus_per_node=spec.gpus_per_node, device=spec.device
    )
    trainer = DistributedTrainer(
        cluster, seed=spec.seed, backend=_spec_backend(spec)
    )
    plans = trainer.plan_steps(profile, spec.batch_sizes)
    features = ConvNetFeatures.from_profile(profile)
    grad_bytes = _grad_bytes(spec, profile)
    return {
        batch: PlannedBatch(
            plan, features, _work_counters(spec, profile, batch), grad_bytes
        )
        for batch, plan in plans.items()
    }


def _clean_time_grid(
    spec: CampaignSpec, point: SweepPoint, profile: CostProfile
) -> "dict[int, tuple[float, ...] | PlannedBatch]":
    """Cached clean-time components for every batch in the spec's sweep."""
    key = (
        spec.device.name,
        spec.backend,
        spec.scenario,
        spec.transform,
        point.model,
        point.image_size,
        spec.batch_sizes,
    )

    def build() -> "dict[int, tuple[float, ...] | PlannedBatch]":
        if spec.scenario == "distributed":
            return _plan_grid(spec, profile)
        executor = SimulatedExecutor(
            spec.device, seed=spec.seed, backend=_spec_backend(spec)
        )
        return executor.backend.clean_time_grids(
            profile,
            spec.batch_sizes,
            training=spec.scenario == "training",
        )

    return CLEAN_TIME_CACHE.get_or_compute(key, build)


@dataclass(frozen=True)
class SweepPoint:
    """One independently measurable configuration of a campaign."""

    scenario: str
    model: str
    image_size: int
    batch: int
    nodes: int = 1
    rep: int = 0

    @property
    def key(self) -> str:
        """Stable identity used for record-store resume bookkeeping."""
        return (
            f"{self.scenario}:{self.model}:{self.image_size}"
            f":{self.batch}:{self.nodes}:{self.rep}"
        )


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that determines a campaign's record set, and nothing else.

    Two specs with equal :meth:`fingerprint` produce byte-identical record
    streams — the invariant the store checks before resuming.
    """

    scenario: str
    models: tuple[str, ...]
    device: DeviceSpec
    batch_sizes: tuple[int, ...]
    image_sizes: tuple[int, ...]
    seed: int = 0
    reps: int = 1
    max_seconds: float | None = None
    node_counts: tuple[int, ...] = (1,)
    gpus_per_node: int = 4
    #: Graph transform applied before profiling: ``""`` (raw graphs, the
    #: default), ``"inference"`` (the default fusion pipeline), or a
    #: comma-separated list of registered pass names — the vocabulary of
    #: :func:`repro.graph.passes.resolve_transform`.  Part of the
    #: fingerprint, so fused and raw stores never cross-resume.
    transform: str = ""
    #: Execution backend name from
    #: :data:`repro.hardware.backend.BACKEND_REGISTRY`; ``""`` (the
    #: default) is the historical roofline simulator.  Part of the
    #: fingerprint when set, so e.g. edge and datacenter stores never
    #: cross-resume.
    backend: str = ""

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; one of {SCENARIOS}"
            )
        if self.transform:
            if self.scenario == "blocks":
                raise ValueError(
                    "transform is not supported for the blocks scenario"
                )
            from repro.graph.passes import resolve_transform

            resolve_transform(self.transform)  # KeyError on unknown passes
        if self.backend:
            from repro.hardware.backend import get_backend

            # Builds once to validate the name *and* the device pairing
            # (e.g. fp16 on a device without fp16 support) at spec
            # construction, not mid-campaign.
            get_backend(self.backend, self.device)

    def manifest(self) -> dict:
        """JSON-serialisable description, written to the store manifest."""
        m = {
            "scenario": self.scenario,
            "models": list(self.models),
            "device": self.device.name,
            "batch_sizes": list(self.batch_sizes),
            "image_sizes": list(self.image_sizes),
            "seed": self.seed,
            "reps": self.reps,
            "max_seconds": self.max_seconds,
            "node_counts": list(self.node_counts),
            "gpus_per_node": self.gpus_per_node,
        }
        # Only serialised when set, so every pre-transform (and
        # pre-backend) store manifest and its fingerprint remain valid for
        # resume.
        if self.transform:
            m["transform"] = self.transform
        if self.backend:
            m["backend"] = self.backend
        return m

    def fingerprint(self) -> str:
        blob = json.dumps(self.manifest(), sort_keys=True).encode()
        return hashlib.blake2b(blob, digest_size=16).hexdigest()


def _valid_images(model: str, image_sizes: tuple[int, ...]) -> list[int]:
    min_size = get_entry(model).min_image_size
    return [s for s in image_sizes if s >= min_size]


def enumerate_points(spec: CampaignSpec) -> list[SweepPoint]:
    """Expand a spec into its ordered sweep-point list.

    Only architecture constraints (minimum image size) are applied here;
    memory and runtime-budget gating need a built profile and therefore
    happen inside :func:`execute_point`, where the build is cached.
    """
    points: list[SweepPoint] = []
    if spec.scenario == "blocks":
        catalogue = (
            [b for b in BLOCK_CATALOGUE if b.name in spec.models]
            if spec.models
            else list(BLOCK_CATALOGUE)
        )
        for block in catalogue:
            min_size = get_entry(block.model).min_image_size
            for image in spec.image_sizes:
                if image < min_size:
                    continue
                for batch in spec.batch_sizes:
                    for rep in range(spec.reps):
                        points.append(
                            SweepPoint(
                                spec.scenario, block.name, image, batch,
                                rep=rep,
                            )
                        )
        return points

    node_counts = spec.node_counts if spec.scenario == "distributed" else (1,)
    for nodes in node_counts:
        for model in spec.models:
            for image in _valid_images(model, spec.image_sizes):
                for batch in spec.batch_sizes:
                    for rep in range(spec.reps):
                        points.append(
                            SweepPoint(
                                spec.scenario, model, image, batch,
                                nodes=nodes, rep=rep,
                            )
                        )
    return points


# -- verify-before-measure ---------------------------------------------------

VERIFY_MODES = ("off", "warn", "strict")


def verify_campaign_graphs(
    spec: CampaignSpec, points: list[SweepPoint] | None = None
) -> list[Diagnostic]:
    """Compile and verify every unique graph a campaign will measure.

    Each unique ``(model, image_size)`` graph is built, transformed and
    costed once (:func:`~repro.hardware.roofline.compile_graph`), and the
    IR rules check the summary and profile derived from those costs — the
    profile the sweep then reads from the same cache.  The graph is dropped
    after compiling.  For transformed campaigns the raw and the transformed
    graph are verified, plus the IR008 preservation check across the pair.
    The IR007 fusion advisory applies to raw inference sweeps only; IR009
    is evaluated on the raw graph's profile at the sweep's smallest batch.

    This is not free: on the default inference grid (96 graphs; 2-vCPU
    x86 host, CPython 3.11) the step takes ~0.6 s, builds and costing
    included, and is most of the campaign's compute — the sweep that
    follows reads every profile from the cache and runs in ~0.12 s.
    ``points`` is the spec's enumeration when the caller already has it.
    """
    # Imported lazily: repro.analysis pulls in repro.core, which imports
    # this package's records module — a cycle at module-import time.
    from repro.analysis.verify import rules

    kind = "block" if spec.scenario == "blocks" else "model"
    advise_fusion = spec.scenario == "inference" and not spec.transform
    pipeline = None
    if spec.transform:
        from repro.graph.passes import resolve_transform

        pipeline = resolve_transform(spec.transform)
    unique: dict[tuple[str, int], None] = {}
    for point in enumerate_points(spec) if points is None else points:
        unique.setdefault((point.model, point.image_size), None)
    edge_batch = min(spec.batch_sizes)
    found: list[Diagnostic] = []
    for name, image_size in unique:
        compiled = compile_graph(kind, name, image_size, pipeline, verify=True)
        assert compiled.findings is not None
        found.extend(
            d for d in compiled.findings
            if advise_fusion or d.rule != "IR007"
        )
        found.extend(
            rules.check_edge_memory(compiled.raw_profile, edge_batch)
        )
    return sort_diagnostics(found)


def _run_verification(
    spec: CampaignSpec, verify: str, points: list[SweepPoint]
) -> int:
    """Apply the requested verify mode; returns the ERROR count."""
    if verify not in VERIFY_MODES:
        raise ValueError(
            f"unknown verify mode {verify!r}; one of {VERIFY_MODES}"
        )
    if verify == "off":
        return 0
    diags = verify_campaign_graphs(spec, points)
    errors = [d for d in diags if d.severity is Severity.ERROR]
    if errors:
        if verify == "strict":
            from repro.analysis.verify import GraphVerificationError

            raise GraphVerificationError(diags)
        warnings.warn(
            f"campaign {spec.scenario!r} graphs failed verification with "
            f"{len(errors)} ERROR diagnostic(s); measuring anyway because "
            f"verify='warn'. First: {errors[0].render()}",
            RuntimeWarning,
            stacklevel=3,
        )
    return len(errors)


def _point_profile(spec: CampaignSpec, point: SweepPoint) -> CostProfile:
    if spec.scenario == "blocks":
        return block_profile(point.model, point.image_size)
    if spec.transform:
        from repro.graph.passes import resolve_transform

        # Resolving is a cheap registry lookup; the expensive build+rewrite
        # is memoised in COMPILE_CACHE under the pipeline fingerprint, so
        # workers and resumed runs share the same cached profiles as a
        # serial run.
        return zoo_profile(
            point.model, point.image_size, resolve_transform(spec.transform)
        )
    return zoo_profile(point.model, point.image_size)


def _gated(
    spec: CampaignSpec,
    point: SweepPoint,
    profile: CostProfile,
    clean: tuple[float, ...] | None = None,
) -> str:
    """Why a point is excluded: ``"oom"`` (does not fit device memory),
    ``"budget"`` (over the runtime budget), or ``""`` (measurable).

    Gating depends only on ``(spec, point)``, never on whether the point is
    being measured or traced — which is what makes the per-point OOM
    markers in the store deterministic across workers and resume splits.
    ``clean`` supplies the point's grid-cached clean-time components
    (forward first, backward second for training), which are bit-identical
    to the per-point computation they replace."""
    training = spec.scenario in ("training", "distributed")
    backend = _spec_backend(spec)
    if not fits(
        profile, point.batch, spec.device, training=training, backend=backend
    ):
        return "oom"
    if spec.max_seconds is None or spec.scenario == "distributed":
        return ""
    if clean is not None:
        estimate = clean[0]
        if spec.scenario == "training":
            estimate += clean[1]
        return "budget" if estimate > spec.max_seconds else ""
    executor = SimulatedExecutor(spec.device, seed=spec.seed, backend=backend)
    estimate = executor.backend.forward_time_clean(profile, point.batch)
    if spec.scenario == "training":
        estimate += executor.backend.backward_time_clean(profile, point.batch)
    return "budget" if estimate > spec.max_seconds else ""


def _work_counters(
    spec: CampaignSpec, profile: CostProfile, batch: int
) -> dict[str, float]:
    """FLOPs and bytes of one point's phases (all but the all-reduce)."""
    b = float(batch)
    act = float(profile.act_bytes.sum())
    weights = float(profile.weight_bytes.sum())
    flops = float(profile.flops.sum()) * b
    nbytes = act * b + weights
    if spec.scenario in ("training", "distributed"):
        factor = np.where(
            profile.has_params, _BWD_FLOPS_PARAM, _BWD_FLOPS_OTHER
        )
        flops += float((profile.flops * factor).sum()) * b
        nbytes += act * (b * _BWD_BYTES_FACTOR) + weights
        params = float(profile.param_counts.sum())
        flops += _OPT_FLOPS_PER_PARAM * params
        nbytes += _OPT_BYTES_PER_PARAM * params
    return {"flops": flops, "bytes": nbytes}


def _grad_bytes(spec: CampaignSpec, profile: CostProfile) -> float:
    """Gradient payload one rank all-reduces per step."""
    backend = _spec_backend(spec)
    grad_elem_bytes = 4.0 if backend is None else backend.float_bytes
    return grad_elem_bytes * float(
        profile.param_counts[profile.has_params].sum()
    )


def _with_allreduce(
    counters: dict[str, float], ranks: int, grad_bytes: float
) -> dict[str, float]:
    counters = dict(counters)
    if ranks > 1 and grad_bytes > 0.0:
        counters["allreduce_bytes"] = grad_bytes
    return counters


def point_counters(
    spec: CampaignSpec, point: SweepPoint, profile: CostProfile
) -> dict[str, float]:
    """Analytic work counters of one measured point (per-rank quantities).

    Always on — a handful of vectorised sums per point, independent of
    tracing — so campaign stats and store manifests are identical whether
    or not a trace was requested.  Mirrors the accounting the span layer
    records: forward work for inference, plus backward/optimizer work for
    training scenarios, plus all-reduce volume when more than one rank
    participates.
    """
    counters = _work_counters(spec, profile, point.batch)
    if spec.scenario != "distributed":
        return counters
    return _with_allreduce(
        counters, point.nodes * spec.gpus_per_node, _grad_bytes(spec, profile)
    )


def _measure_point(
    spec: CampaignSpec,
    point: SweepPoint,
    tracer: "Tracer | None" = None,
    grid_cache: bool = True,
) -> tuple[list[TimingRecord], dict[str, float], str]:
    """Measure one sweep point: ``(records, counters, gate_status)``.

    Gated points return ``([], {}, "oom" | "budget")`` — a graceful
    per-point record of *why* nothing was measured, which the store
    persists so e.g. an edge-backend campaign maps its OOM frontier
    instead of crashing.  With a ``tracer``, the measurement is
    additionally wrapped in a ``model`` span with the per-phase/per-layer
    spans the executor and trainer emit; the recorded values are identical
    either way.

    ``grid_cache`` (the default) sources the deterministic components from
    :data:`CLEAN_TIME_CACHE` — one batched roofline evaluation per
    ``(model, image_size)`` instead of one per point; for a distributed
    point that is the batch's step plan, features and work counters,
    shared by every node count — and skips the redundant memory re-check
    (gating already proved the fit).  Records and counters are
    bit-identical either way; ``grid_cache=False`` is the ungridded
    reference the equivalence suites compare against.
    """
    profile = _point_profile(spec, point)
    clean: tuple[float, ...] | None = None
    planned: PlannedBatch | None = None
    if grid_cache:
        cell = _clean_time_grid(spec, point, profile).get(point.batch)
        if isinstance(cell, PlannedBatch):
            planned = cell
        else:
            clean = cell
    gate = _gated(spec, point, profile, clean)
    if gate:
        return [], {}, gate
    backend = _spec_backend(spec)
    features = (
        ConvNetFeatures.from_profile(profile)
        if planned is None
        else planned.features
    )
    tracing = tracer is not None and tracer.enabled
    if tracing:
        tracer.begin(
            point.key,
            category="model",
            attrs={
                "model": point.model,
                "image_size": point.image_size,
                "batch": point.batch,
                "nodes": point.nodes,
                "rep": point.rep,
            },
        )

    if spec.scenario in ("inference", "blocks"):
        executor = SimulatedExecutor(
            spec.device, seed=spec.seed, backend=backend
        )
        t = executor.measure_inference(
            profile,
            point.batch,
            rep=point.rep,
            tracer=tracer,
            enforce_memory=clean is None,
            clean_time=None if clean is None else clean[0],
        )
        records = [
            TimingRecord(
                model=point.model,
                device=spec.device.name,
                image_size=point.image_size,
                batch=point.batch,
                nodes=1,
                devices=1,
                scenario="inference",
                features=features,
                t_fwd=t,
                rep=point.rep,
                backend=spec.backend,
            )
        ]
    elif spec.scenario == "training":
        executor = SimulatedExecutor(
            spec.device, seed=spec.seed, backend=backend
        )
        phases = executor.measure_training_step(
            profile,
            point.batch,
            rep=point.rep,
            tracer=tracer,
            enforce_memory=clean is None,
            clean_times=None if clean is None else clean,
        )
        records = [
            TimingRecord(
                model=point.model,
                device=spec.device.name,
                image_size=point.image_size,
                batch=point.batch,
                nodes=1,
                devices=1,
                scenario="training",
                features=features,
                t_fwd=phases.forward,
                t_bwd=phases.backward,
                t_grad=phases.grad_update,
                rep=point.rep,
                backend=spec.backend,
            )
        ]
    else:
        cluster = ClusterSpec(
            nodes=point.nodes,
            gpus_per_node=spec.gpus_per_node,
            device=spec.device,
        )
        trainer = DistributedTrainer(cluster, seed=spec.seed, backend=backend)
        phases = trainer.measure_step(
            profile,
            point.batch,
            rep=point.rep,
            enforce_memory=planned is None,
            tracer=tracer,
            plan=None if planned is None else planned.plan,
        )
        records = [
            TimingRecord(
                model=point.model,
                device=spec.device.name,
                image_size=point.image_size,
                batch=point.batch,
                nodes=point.nodes,
                devices=cluster.total_devices,
                scenario="distributed",
                features=features,
                t_fwd=phases.forward,
                t_bwd=phases.backward,
                t_grad=phases.grad_update,
                rep=point.rep,
                backend=spec.backend,
            )
        ]

    if tracing:
        tracer.end()
    if planned is not None:
        ranks = point.nodes * spec.gpus_per_node
        return records, planned.point_counters(ranks), ""
    return records, point_counters(spec, point, profile), ""


def execute_point(spec: CampaignSpec, point: SweepPoint) -> list[TimingRecord]:
    """Measure one sweep point; empty list when gated out (OOM / budget).

    Pure in the campaign sense: output depends only on ``(spec, point)``,
    so any execution order, process placement, or resume split yields the
    same records.
    """
    return _measure_point(spec, point)[0]


def trace_campaign(
    spec: CampaignSpec,
    tracer: "Tracer",
    points: list[SweepPoint] | None = None,
    grid_cache: bool = True,
) -> None:
    """Re-execute a campaign's sweep serially under ``tracer``.

    Tracing is a post-pass over the enumerated point list, deliberately
    independent of how the measuring run was parallelised, resumed, or
    cached: every duration re-derives from point-identity noise seeding
    (:func:`repro.hardware.noise.point_seed`), so the emitted trace is
    byte-identical to the one a fresh serial run would produce.  Gated
    points emit no spans, mirroring their empty record lists.
    """
    if points is None:
        points = enumerate_points(spec)
    tracer.begin(
        f"campaign:{spec.scenario}",
        category="campaign",
        attrs={"device": spec.device.name, "n_points": len(points)},
    )
    # Per-point measurement is the tracing contract: every span re-derives
    # from point-identity noise seeding, and batching across points would
    # interleave span streams.  The batchable clean components are already
    # amortised through CLEAN_TIME_CACHE.
    for point in points:
        _measure_point(
            spec, point, tracer=tracer, grid_cache=grid_cache
        )
    tracer.end()


# -- process-pool plumbing ---------------------------------------------------

_WORKER_SPEC: CampaignSpec | None = None
_WORKER_GRID_CACHE: bool = True


def _init_worker(spec: CampaignSpec, grid_cache: bool = True) -> None:
    global _WORKER_SPEC, _WORKER_GRID_CACHE
    _WORKER_SPEC = spec
    _WORKER_GRID_CACHE = grid_cache


def _run_point_task(
    task: tuple[int, SweepPoint]
) -> tuple[int, str, list[TimingRecord], dict[str, float], CacheStats, str]:
    """Executed inside a pool worker; returns per-point counter and cache
    deltas so the parent can aggregate campaign-wide totals across
    processes."""
    index, point = task
    assert _WORKER_SPEC is not None, "worker pool not initialised"
    before = profile_cache_stats()
    records, counters, gate = _measure_point(
        _WORKER_SPEC, point, grid_cache=_WORKER_GRID_CACHE
    )
    return (
        index, point.key, records, counters,
        profile_cache_stats() - before, gate,
    )


# -- driver ------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignStats:
    """Observability counters of one :func:`run_campaign` invocation."""

    scenario: str
    workers: int
    #: Enumerated sweep points (measured + gated + restored).
    n_points: int
    #: Points skipped because the record store already held them.
    n_restored: int
    #: Points actually measured by this run.
    n_executed: int
    #: Records in the assembled dataset.
    n_records: int
    elapsed_seconds: float
    cache: CacheStats = field(default_factory=CacheStats)
    #: ERROR diagnostics from pre-measurement graph verification (always 0
    #: under ``verify="strict"``, which refuses to measure instead).
    n_verify_errors: int = 0
    #: Work counters aggregated over the points measured by this run, in
    #: enumeration order (FLOPs executed, bytes moved, all-reduce volume,
    #: cache hits) — independent of worker count and of whether a trace
    #: was requested.
    counters: dict[str, float] = field(default_factory=dict)
    #: Points this run gated out for not fitting device memory — the OOM
    #: frontier an edge-backend campaign maps.
    n_oom: int = 0

    @property
    def points_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.n_executed / self.elapsed_seconds

    def summary(self) -> str:
        oom = f", {self.n_oom} OOM" if self.n_oom else ""
        return (
            f"campaign {self.scenario}: {self.n_points} points "
            f"({self.n_executed} measured, {self.n_restored} restored{oom}) "
            f"in {self.elapsed_seconds:.2f}s with {self.workers} worker(s) "
            f"— {self.points_per_second:.1f} points/s, "
            f"profile cache {self.cache.summary()}"
        )

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "workers": self.workers,
            "n_points": self.n_points,
            "n_restored": self.n_restored,
            "n_executed": self.n_executed,
            "n_records": self.n_records,
            "elapsed_seconds": self.elapsed_seconds,
            "points_per_second": self.points_per_second,
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_hit_rate": self.cache.hit_rate,
            "n_verify_errors": self.n_verify_errors,
            "n_oom": self.n_oom,
            "counters": dict(sorted(self.counters.items())),
        }


@dataclass(frozen=True)
class CampaignResult:
    dataset: Dataset
    stats: CampaignStats


def run_campaign(
    spec: CampaignSpec,
    workers: int = 0,
    store: "CampaignStore | None" = None,
    progress: Callable[[int, int], None] | None = None,
    verify: str = "warn",
    tracer: "Tracer | None" = None,
    grid_cache: bool = True,
) -> CampaignResult:
    """Execute a campaign and assemble its dataset in enumeration order.

    ``workers <= 1`` measures in process; larger values fan points out over
    a process pool.  Either way the record stream is identical.  With a
    ``store``, already-recorded points are restored instead of re-measured
    and new results are appended as they complete, making interrupted
    campaigns resumable at point granularity.  ``progress(done, total)`` is
    invoked after each newly measured point.

    ``verify`` controls pre-measurement graph verification: ``"warn"``
    (default) measures despite ERROR diagnostics but warns and counts them
    in the stats, ``"strict"`` raises
    :class:`~repro.analysis.verify.GraphVerificationError` instead of
    producing subtly wrong numbers, ``"off"`` skips verification.

    With a ``tracer``, the full sweep is additionally traced via
    :func:`trace_campaign` after measuring — a serial post-pass, so the
    trace (and the record stream, and the stats counters) is identical
    for any ``workers`` value and any resume split.

    ``grid_cache`` (the default) amortises the deterministic clean-time
    components across the sweep through :data:`CLEAN_TIME_CACHE` — for
    every scenario, a distributed sweep's step plans included, so each
    ``(model, image_size)`` pays them once across all its batches and node
    counts; the record stream is bit-identical with it off, just slower —
    the switch exists as the reference of the equivalence tests.
    """
    # The compile step inside verification is where each unique graph
    # misses; its lookups count toward the campaign's cache stats.
    points = enumerate_points(spec)
    before = profile_cache_stats()
    n_verify_errors = _run_verification(spec, verify, points)
    cache_delta = profile_cache_stats() - before
    restored = store.restored_points() if store is not None else {}
    pending = [
        (i, p) for i, p in enumerate(points) if p.key not in restored
    ]

    results: dict[int, list[TimingRecord]] = {}
    counters: dict[str, float] = {}
    n_oom = 0
    start = time.perf_counter()
    if workers > 1 and pending:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(spec, grid_cache),
        ) as pool:
            chunksize = max(1, len(pending) // (workers * 8))
            outcomes = pool.map(_run_point_task, pending, chunksize=chunksize)
            # pool.map yields in submission (= enumeration) order, so the
            # counter floats accumulate identically to a serial run.
            for index, key, records, point_delta, delta, gate in outcomes:
                results[index] = records
                merge_counters(counters, point_delta)
                cache_delta += delta
                n_oom += gate == "oom"
                if store is not None:
                    store.append(key, records, status=gate)
                if progress is not None:
                    progress(len(results), len(pending))
    else:
        # One _measure_point call per point is the determinism contract:
        # noise is seeded from each point's identity, records append in
        # enumeration order, and the store checkpoints between points.
        # The batchable clean components are amortised via the grid cache,
        # not by batching points.
        for index, point in pending:
            before = profile_cache_stats()
            records, point_delta, gate = _measure_point(
                spec, point, grid_cache=grid_cache
            )
            cache_delta += profile_cache_stats() - before
            results[index] = records
            merge_counters(counters, point_delta)
            n_oom += gate == "oom"
            if store is not None:
                store.append(point.key, records, status=gate)
            if progress is not None:
                progress(len(results), len(pending))
    elapsed = time.perf_counter() - start

    dataset = Dataset()
    for i, point in enumerate(points):
        if point.key in restored:
            dataset.extend(restored[point.key])
        else:
            dataset.extend(results[i])

    if tracer is not None and tracer.enabled:
        trace_campaign(spec, tracer, points, grid_cache=grid_cache)

    merge_counters(counters, cache_delta.as_counters())
    stats = CampaignStats(
        scenario=spec.scenario,
        workers=max(1, workers),
        n_points=len(points),
        n_restored=len(restored),
        n_executed=len(pending),
        n_records=len(dataset),
        elapsed_seconds=elapsed,
        cache=cache_delta,
        n_verify_errors=n_verify_errors,
        counters=counters,
        n_oom=n_oom,
    )
    if store is not None:
        store.finalize(stats)
    return CampaignResult(dataset=dataset, stats=stats)
