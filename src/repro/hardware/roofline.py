"""Vectorised roofline timing model.

A graph is compiled once into a :class:`CostProfile` — flat numpy arrays of
per-layer FLOPs, activation traffic, parameters, and an efficiency class —
after which timing any (batch, device, phase) combination is a handful of
vectorised array expressions.  For zoo models and Table 2 blocks,
:func:`compile_graph` is that one compile step: it builds the graph,
costs it once, and (on request) verifies the very numbers it hands out.  This is the hot path of the measurement
campaign (thousands of configurations × hundreds of layers), so it follows
the usual scientific-Python discipline: no per-layer Python loops after
profiling.

Per-layer time:

    t = max(flops / (peak · eff_type · util(flops)),
            bytes / (bw · util(bytes)))  +  launch_overhead

where ``eff_type`` is the achievable fraction of peak for the layer's class
(dense conv ≈ GEMM-efficient, depthwise conv very poor on wide GPUs,
elementwise layers purely bandwidth-bound) and ``util`` is the saturation
ramp from :class:`~repro.hardware.device.DeviceSpec`.  The max() and the
class mix are what make total runtime only *approximately* linear in the
aggregate metrics — the realistic regime for ConvMeter's regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.caching import CacheStats, LRUCache
from repro.diagnostics import Diagnostic, sort_diagnostics
from repro.graph.graph import ComputeGraph
from repro.graph.metrics import CostSummary, LayerCost, graph_costs
from repro.hardware.device import DeviceSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.graph.passes import PassPipeline

# Efficiency classes.
_CONV = 0        # dense convolution (im2col GEMM)
_CONV_1X1 = 1    # pointwise convolution
_CONV_GROUP = 2  # grouped convolution, 1 < groups < C_in
_CONV_DW = 3     # depthwise convolution
_LINEAR = 4      # fully connected
_POOL = 5        # pooling / LRN windows
_ELEMWISE = 6    # bn, activations, add, multiply, pad — bandwidth bound
_N_CLASSES = 7

#: Achievable fraction of peak compute per efficiency class, per device kind.
#: GPUs lose badly on depthwise/grouped convolutions (poor tensor-core /
#: SM occupancy); CPUs degrade more gently.
_COMPUTE_EFF = {
    "gpu": np.array([0.62, 0.50, 0.42, 0.18, 0.42, 0.25, 0.08]),
    "cpu": np.array([0.80, 0.70, 0.58, 0.35, 0.72, 0.35, 0.12]),
}

#: Achievable fraction of peak bandwidth per efficiency class.
_BANDWIDTH_EFF = {
    "gpu": np.array([0.85, 0.85, 0.70, 0.65, 0.80, 0.75, 0.90]),
    "cpu": np.array([0.80, 0.80, 0.70, 0.65, 0.80, 0.70, 0.85]),
}


def _classify(cost: LayerCost) -> int:
    if cost.is_conv:
        if cost.is_depthwise:
            return _CONV_DW
        if cost.conv_groups > 1:
            return _CONV_GROUP
        if cost.is_pointwise:
            return _CONV_1X1
        return _CONV
    if cost.layer_type in (
        "Linear",
        "FusedLinear",  # still one GEMM; the epilogue rides in its kernel
        "TokenLinear",
        "ScaledDotProductAttention",
    ):
        return _LINEAR
    if cost.layer_type in (
        "MaxPool2d",
        "AvgPool2d",
        "AdaptiveAvgPool2d",
        "GlobalAvgPool2d",
        "LocalResponseNorm",
    ):
        return _POOL
    return _ELEMWISE


@dataclass(frozen=True)
class CostProfile:
    """Flat per-layer cost arrays for one graph (per-sample quantities)."""

    graph_name: str
    flops: np.ndarray         # float64[L]
    act_bytes: np.ndarray     # float64[L]: (inputs + outputs) · 4, per sample
    weight_bytes: np.ndarray  # float64[L]
    eff_class: np.ndarray     # int64[L]
    has_params: np.ndarray    # bool[L]
    param_counts: np.ndarray  # float64[L]
    input_elems: np.ndarray   # float64[L]: per-sample input tensor sizes
    output_elems: np.ndarray  # float64[L]: per-sample activation footprint
    is_conv: np.ndarray       # bool[L]
    #: Graph node names / layer types, aligned with the cost arrays — the
    #: labels the tracing layer puts on per-layer spans.  Empty tuples on
    #: profiles built before these fields existed; span emission falls
    #: back to positional names.
    layer_names: tuple[str, ...] = ()
    layer_types: tuple[str, ...] = ()

    @property
    def n_layers(self) -> int:
        return int(self.flops.shape[0])

    @property
    def total_params(self) -> float:
        return float(self.param_counts.sum())

    @property
    def parametric_layers(self) -> int:
        return int(self.has_params.sum())

    # ConvMeter metric vector (per sample, batch size one) -----------------

    @property
    def total_flops(self) -> float:
        """Paper metric F: FLOPs over all layers."""
        return float(self.flops.sum())

    @property
    def conv_input_elems(self) -> float:
        """Paper metric I: summed input tensor sizes of conv layers."""
        return float(self.input_elems[self.is_conv].sum())

    @property
    def conv_output_elems(self) -> float:
        """Paper metric O: summed output tensor sizes of conv layers."""
        return float(self.output_elems[self.is_conv].sum())

    @staticmethod
    def from_costs(graph_name: str, costs: list[LayerCost]) -> "CostProfile":
        return CostProfile(
            graph_name=graph_name,
            flops=np.array([c.flops for c in costs], dtype=np.float64),
            act_bytes=np.array(
                [c.input_bytes + c.output_bytes for c in costs], dtype=np.float64
            ),
            weight_bytes=np.array(
                [c.weight_bytes for c in costs], dtype=np.float64
            ),
            eff_class=np.array([_classify(c) for c in costs], dtype=np.int64),
            has_params=np.array([c.params > 0 for c in costs], dtype=bool),
            param_counts=np.array([c.params for c in costs], dtype=np.float64),
            input_elems=np.array(
                [c.input_elems for c in costs], dtype=np.float64
            ),
            output_elems=np.array(
                [c.output_elems for c in costs], dtype=np.float64
            ),
            is_conv=np.array([c.is_conv for c in costs], dtype=bool),
            layer_names=tuple(c.name for c in costs),
            layer_types=tuple(c.layer_type for c in costs),
        )

    def span_names(self) -> tuple[str, ...]:
        """Per-layer span labels; positional fallbacks for old profiles."""
        if len(self.layer_names) == self.n_layers:
            return self.layer_names
        return tuple(f"layer[{i}]" for i in range(self.n_layers))


def profile_graph(
    graph: ComputeGraph, pipeline: "PassPipeline | None" = None
) -> CostProfile:
    """Compile a graph into a :class:`CostProfile`.

    With a ``pipeline`` (see :mod:`repro.graph.passes`), the graph is
    transformed first and the *optimized* graph is costed — the fused
    layer names flow into :meth:`CostProfile.span_names`, so traces show
    ``conv+bn+relu``-style spans.  The graph's name is preserved across
    transformation, keeping noise seeding (which keys on the name)
    comparable between raw and fused measurements of the same model.
    """
    if pipeline is not None:
        graph = pipeline.run(graph).graph
    return CostProfile.from_costs(graph.name, graph_costs(graph))


def layer_times(
    profile: CostProfile,
    batch: int | np.ndarray,
    device: DeviceSpec,
    flops_factor: float = 1.0,
    bytes_factor: float = 1.0,
) -> np.ndarray:
    """Noise-free per-layer execution times for one device, seconds.

    ``flops_factor``/``bytes_factor`` scale the per-layer work — the backward
    pass reuses the same profile with roughly doubled factors.

    ``batch`` may also be an integer array of shape ``(B,)``: the result is
    then ``float64[B, L]``, and row ``i`` is bit-identical to the scalar
    call at ``batch[i]`` — the batch axis enters only as a broadcast
    leading dimension, every per-layer expression keeps the same operand
    order and dtype as the scalar path.
    """
    b = np.asarray(batch)
    if b.ndim:
        if np.any(b < 1):
            raise ValueError(
                f"batch must be >= 1, got {int(b.min())}"
            )
        scale = b[:, None]
    else:
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        scale = batch
    flops = profile.flops * (scale * flops_factor)
    nbytes = (
        profile.act_bytes * (scale * bytes_factor) + profile.weight_bytes
    )
    eff_c = _COMPUTE_EFF[device.kind][profile.eff_class]
    eff_b = _BANDWIDTH_EFF[device.kind][profile.eff_class]
    # Roofline with an additive occupancy-ramp penalty: small kernels pay a
    # fixed warm-up cost (at half of nominal peak) before reaching steady
    # state, independent of the layer's achievable efficiency class.
    ramp_c = device.sat_flops / (0.5 * device.peak_flops)
    ramp_b = device.sat_bytes / (0.5 * device.mem_bandwidth)
    compute_t = np.where(
        flops > 0, flops / (device.peak_flops * eff_c) + ramp_c, 0.0
    )
    memory_t = np.where(
        nbytes > 0, nbytes / (device.mem_bandwidth * eff_b) + ramp_b, 0.0
    )
    return np.maximum(compute_t, memory_t) + device.launch_overhead


@dataclass(frozen=True)
class CompiledGraph:
    """A zoo model or block, built once and costed once.

    ``profile`` holds the per-layer costs of the measured graph (the
    pipeline's output when one was applied); verification checks the
    metric summary of those same costs, so what a campaign verifies is
    exactly what it measures.  The graph itself is not kept: everything
    downstream needs only these arrays and verdicts.
    """

    profile: CostProfile
    #: IR001–IR008 findings (:mod:`repro.analysis.verify`): the raw graph's
    #: with IR007 included, plus — under a pipeline, where IR007 is moot —
    #: the transformed graph's and the IR008 preservation pair.  ``None``
    #: until compiled with ``verify=True``.  IR009 depends on the caller's
    #: smallest batch, so it is left to the caller (see ``raw_profile``).
    findings: tuple[Diagnostic, ...] | None = None
    #: Profile of the untransformed graph, IR009's subject; set together
    #: with ``findings`` (``profile`` itself when no pipeline ran).
    raw_profile: CostProfile | None = None


#: The one cache of compiled graphs: explicitly bounded (a full sweep
#: touches |models| × |image sizes| ≈ 100 entries, at most doubled by a
#: fused variant per pipeline, plus the block catalogue; 512 leaves
#: headroom for what-if sweeps without letting memory grow with campaign
#: length) and observable, so campaigns can report the hit rate they
#: achieved.  Keyed by ``(kind, name, image_size, pipeline fingerprint)``
#: with kind ``"model"`` or ``"block"``; the empty fingerprint marks the
#: raw, untransformed graph.
COMPILE_CACHE: LRUCache[tuple[str, str, int, str], CompiledGraph] = LRUCache(
    maxsize=512
)


def _build_graph(kind: str, name: str, image_size: int) -> ComputeGraph:
    if kind == "block":
        from repro.zoo.blocks import BLOCK_CATALOGUE, build_block

        for spec in BLOCK_CATALOGUE:
            if spec.name == name:
                return build_block(spec, image_size)
        raise KeyError(f"unknown block {name!r}")
    from repro.zoo import build_model

    return build_model(name, image_size)


def _compile(
    kind: str,
    name: str,
    image_size: int,
    pipeline: "PassPipeline | None",
    verify: bool,
) -> CompiledGraph:
    graph = _build_graph(kind, name, image_size)
    measured = graph if pipeline is None else pipeline.run(graph).graph
    costs = graph_costs(measured)
    profile = CostProfile.from_costs(measured.name, costs)
    if not verify:
        return CompiledGraph(profile)
    # Imported lazily: repro.analysis pulls in repro.core, which imports
    # the campaign records module — a cycle at module-import time.
    from repro.analysis.verify import verify_graph, verify_transform

    summary = CostSummary.from_costs(costs)
    if pipeline is None:
        findings = verify_graph(
            graph, summary, ignore=("IR009",), profile=profile
        )
        return CompiledGraph(profile, tuple(findings), profile)
    # Both halves of the transform contract: the rewritten graph is itself
    # a well-formed IR, and the rewrite preserved the semantics.
    raw_costs = graph_costs(graph)
    raw_profile = CostProfile.from_costs(graph.name, raw_costs)
    findings = verify_graph(
        graph, CostSummary.from_costs(raw_costs),
        ignore=("IR007", "IR009"), profile=raw_profile,
    )
    findings += verify_graph(
        measured, summary, ignore=("IR007", "IR009"), profile=profile
    )
    findings += verify_transform(graph, measured)
    return CompiledGraph(
        profile, tuple(sort_diagnostics(findings)), raw_profile
    )


def compile_graph(
    kind: str,
    name: str,
    image_size: int,
    pipeline: "PassPipeline | None" = None,
    verify: bool = False,
) -> CompiledGraph:
    """Build, transform, cost and optionally verify a graph — once.

    ``kind`` is ``"model"`` (a zoo architecture) or ``"block"`` (a Table 2
    block at its parent's image size).  The result is memoised in
    :data:`COMPILE_CACHE`; ``verify=True`` also runs the IR rules over the
    graph with the summary and profile just derived, so IR004 checks the
    numbers the sweep will measure.  An entry compiled earlier without
    verification is compiled again, verified, and replaces it.
    """
    key = (
        kind,
        name,
        image_size,
        "" if pipeline is None else pipeline.fingerprint(),
    )
    compiled = COMPILE_CACHE.get_or_compute(
        key, lambda: _compile(kind, name, image_size, pipeline, verify)
    )
    if verify and compiled.findings is None:
        # Profiled earlier without verification and the graph is gone:
        # verifying means building it once more.
        compiled = _compile(kind, name, image_size, pipeline, True)
        COMPILE_CACHE.put(key, compiled)
    return compiled


def zoo_profile(
    model: str,
    image_size: int,
    pipeline: "PassPipeline | None" = None,
) -> CostProfile:
    """Cached profile of a zoo model — the campaign's workhorse lookup.

    ``pipeline`` selects a graph transformation applied before costing;
    fused and raw profiles live side by side in :data:`COMPILE_CACHE`
    under distinct fingerprints, so mixed raw/fused sweeps never collide.
    """
    return compile_graph("model", model, image_size, pipeline).profile


def profile_cache_stats() -> CacheStats:
    """Cumulative hit/miss/eviction counters of :data:`COMPILE_CACHE`."""
    return COMPILE_CACHE.stats()
