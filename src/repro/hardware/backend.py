"""Pluggable execution backends.

The simulator originally hard-wired one device family: the datacenter
roofline model of :mod:`repro.hardware.roofline` applied by
:class:`~repro.hardware.executor.SimulatedExecutor`.  An
:class:`ExecutionBackend` factors out everything that is *platform policy*
rather than graph structure — capability description, per-layer phase
timing, memory accounting, and measurement-noise application — so that a
new hardware scenario is a new backend class plus a registry entry, and the
whole pipeline (campaign → fit → predict → serve) runs against it
unchanged.

Three backends ship:

``roofline``
    The existing datacenter-GPU/CPU simulator, bit-identical to the
    pre-backend code path: same timing formulas, same memory model, and —
    critically — the same noise-stream identity (its :attr:`noise_tag` is
    the bare device name, so every seeded draw matches the historical
    stream byte for byte).

``edge``
    Jetson-class edge GPUs in the style of perf4sight (arXiv:2108.05580):
    unified LPDDR memory shared with the OS (a fixed reserved carve-out),
    relatively larger cuDNN workspaces, sustained (thermally limited)
    rather than peak clocks, and noisier measurements.  Memory-constrained
    OOM behavior dominates: campaigns record OOM points gracefully instead
    of crashing.

``fp16`` / ``bf16``
    Mixed-precision execution ("Toward Accurate Platform-Aware Performance
    Modeling for DNNs", arXiv:2012.00211): half-width activations and
    weights scale both the compute roofline (wide ALUs / tensor pipes) and
    the effective bandwidth roofline (half the bytes per element), while
    the optimizer keeps an fp32 master copy, so training-state memory does
    not shrink — only activations do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.hardware import memory as memory_model
from repro.hardware.device import (
    A100_80GB,
    DEVICE_PRESETS,
    JETSON_ORIN,
    DeviceSpec,
)
from repro.hardware.noise import lognormal_factor, point_seed
from repro.hardware.roofline import CostProfile, layer_times

#: Backward FLOPs of a parametric layer ≈ 2× forward (input-gradient plus
#: weight-gradient GEMMs); non-parametric layers only propagate gradients.
_BWD_FLOPS_PARAM = 2.0
_BWD_FLOPS_OTHER = 1.0

#: Backward activation traffic: read stored activations and gradients, write
#: gradients — roughly double the forward traffic.
_BWD_BYTES_FACTOR = 2.0

#: Adam update: ~10 FLOPs and ~16 bytes of state traffic per parameter.
_OPT_FLOPS_PER_PARAM = 10.0
_OPT_BYTES_PER_PARAM = 16.0

#: Kernels launched per parameter tensor during the optimizer step.
_OPT_KERNELS_PER_TENSOR = 2.0


class ExecutionBackend:
    """One simulated execution platform: timing, memory, and noise policy.

    The base class *is* the datacenter roofline policy (see
    :class:`RooflineBackend`); subclasses override the small surface that
    differs per platform — :attr:`timing_device` (what the roofline divides
    by), the memory-accounting methods, and :attr:`noise_tag` /
    :attr:`noise_sigma` (which noise stream the measurements draw from).

    Invariant relied on by the byte-identity suites: for the default
    backend, :attr:`noise_tag` equals ``device.name`` exactly, so seeded
    noise draws reproduce the historical stream.
    """

    #: Registry key of this backend family.
    kind: str = "roofline"
    #: Working datatype of activations/weights during compute phases.
    precision: str = "fp32"
    #: Bytes per element of the working datatype.
    float_bytes: float = 4.0
    #: im2col / cuDNN workspace as a fraction of the largest live pair.
    workspace_fraction: float = 0.1
    #: Multiplier on the device's measurement-noise sigma.
    noise_scale: float = 1.0

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device

    def for_device(self, device: DeviceSpec) -> "ExecutionBackend":
        """The same backend policy bound to a different device.

        Heterogeneous clusters use this to apply one backend family across
        mixed per-node device types.
        """
        return type(self)(device)

    # -- identity ------------------------------------------------------------

    @property
    def noise_tag(self) -> str:
        """Seed component identifying this backend's noise stream.

        The default is the bare device name — the historical stream — so
        the roofline backend is byte-identical to the pre-backend code.
        New backends must return a distinct tag (e.g. ``"edge:<name>"``)
        so their measurements are decorrelated from the default family's.
        """
        return self.device.name

    @property
    def noise_sigma(self) -> float:
        return self.device.noise_sigma * self.noise_scale

    def noise_factor(self, campaign_seed: int, *identity: object) -> float:
        """One seeded multiplicative noise draw for a measurement identity."""
        seed = point_seed(campaign_seed, self.noise_tag, *identity)
        return lognormal_factor(self.noise_sigma, seed)

    # -- device views --------------------------------------------------------

    @property
    def timing_device(self) -> DeviceSpec:
        """The device the roofline divides by during compute phases."""
        return self.device

    @property
    def optimizer_device(self) -> DeviceSpec:
        """Device view for the optimizer step (always fp32 master state)."""
        return self.device

    # -- timing --------------------------------------------------------------

    def layer_times(
        self,
        profile: CostProfile,
        batch,
        flops_factor=1.0,
        bytes_factor: float = 1.0,
    ) -> np.ndarray:
        """Per-layer roofline times on this backend's timing device."""
        return layer_times(
            profile,
            batch,
            self.timing_device,
            flops_factor=flops_factor,
            bytes_factor=bytes_factor,
        )

    def backward_flops_factor(self, profile: CostProfile) -> np.ndarray:
        """Per-layer FLOPs multiplier the backward sweep applies."""
        return np.where(profile.has_params, _BWD_FLOPS_PARAM, _BWD_FLOPS_OTHER)

    def forward_time_clean(self, profile: CostProfile, batch: int) -> float:
        """Deterministic forward-pass time (also the inference time)."""
        times = self.layer_times(profile, batch)
        return float(times.sum()) + self.device.base_overhead

    def backward_layer_times(self, profile: CostProfile, batch) -> np.ndarray:
        """Per-layer backward times in topological order; ``batch`` may be
        an integer array, as for :meth:`layer_times`."""
        return self.layer_times(
            profile,
            batch,
            flops_factor=self.backward_flops_factor(profile),
            bytes_factor=_BWD_BYTES_FACTOR,
        )

    def backward_time_clean(self, profile: CostProfile, batch: int) -> float:
        """Deterministic backward-pass time."""
        times = self.backward_layer_times(profile, batch)
        return float(times.sum()) + self.device.base_overhead

    def grad_update_time_clean(self, profile: CostProfile) -> float:
        """Deterministic single-device optimizer (Adam) step time.

        Per-tensor kernel launches dominate for deep networks, which is why
        the paper models the N=1 gradient update as ``c1 · L``.  Runs on
        :attr:`optimizer_device`: mixed-precision backends update fp32
        master weights at native (unboosted) rates.
        """
        dev = self.optimizer_device
        params = profile.param_counts[profile.has_params]
        if params.size == 0:
            return dev.base_overhead
        launch = _OPT_KERNELS_PER_TENSOR * params.size * dev.launch_overhead
        traffic = _OPT_BYTES_PER_PARAM * float(params.sum())
        compute = _OPT_FLOPS_PER_PARAM * float(params.sum())
        stream = max(
            traffic / (dev.mem_bandwidth * 0.8),
            compute / (dev.peak_flops * 0.05),
        )
        return launch + stream + dev.base_overhead

    def clean_time_grids(
        self,
        profile: CostProfile,
        batches: "tuple[int, ...] | list[int]",
        training: bool = False,
    ) -> dict[int, tuple[float, ...]]:
        """Clean-time components for a whole batch sweep, in one shot.

        Returns ``{batch: (forward,)}`` — or, with ``training=True``,
        ``{batch: (forward, backward, grad_update)}`` — computed from a
        single batched :meth:`layer_times` evaluation per phase instead of
        one per batch size.  Each component is bit-identical to the
        corresponding ``*_time_clean`` call at that batch: the batch axis
        only broadcasts, the per-layer sums reduce in the same order, and
        the base overhead adds as the same float64 pair.
        """
        b = np.asarray(batches)
        fwd = (
            self.layer_times(profile, b).sum(axis=1)
            + self.device.base_overhead
        ).tolist()
        if not training:
            return {int(n): (t,) for n, t in zip(batches, fwd)}
        bwd = (
            self.backward_layer_times(profile, b).sum(axis=1)
            + self.device.base_overhead
        ).tolist()
        grad = self.grad_update_time_clean(profile)
        return {int(n): (f, w, grad) for n, f, w in zip(batches, fwd, bwd)}

    # -- memory accounting ---------------------------------------------------

    def inference_memory_bytes(self, profile: CostProfile, batch: int) -> float:
        return memory_model.inference_memory_bytes(
            profile,
            batch,
            float_bytes=self.float_bytes,
            workspace_fraction=self.workspace_fraction,
        )

    def training_memory_bytes(self, profile: CostProfile, batch: int) -> float:
        return memory_model.training_memory_bytes(
            profile, batch, float_bytes=self.float_bytes
        )

    def memory_available(self) -> float:
        """Usable device memory after allocator/fragmentation headroom."""
        return self.device.memory_bytes * memory_model._HEADROOM

    def check_fits(
        self, profile: CostProfile, batch: int, training: bool
    ) -> None:
        memory_model.check_fits(
            profile, batch, self.device, training, backend=self
        )

    def fits(self, profile: CostProfile, batch: int, training: bool) -> bool:
        return memory_model.fits(
            profile, batch, self.device, training, backend=self
        )

    # -- description ---------------------------------------------------------

    def capabilities(self) -> dict:
        """Capability row for ``repro devices`` and the serve layer."""
        t = self.timing_device
        return {
            "backend": self.kind,
            "device": self.device.name,
            "device_kind": self.device.kind,
            "precision": self.precision,
            "peak_flops": t.peak_flops,
            "mem_bandwidth": t.mem_bandwidth,
            "memory_bytes": self.device.memory_bytes,
            "memory_available_bytes": self.memory_available(),
            "precision_modes": list(self.device.precision_modes),
            "noise_sigma": self.noise_sigma,
        }

    def describe(self) -> str:
        return f"{self.kind}:{self.device.name} ({self.precision})"


class RooflineBackend(ExecutionBackend):
    """The default datacenter roofline simulator — the pre-backend behavior.

    Pure delegation to the base class: its whole point is to *be* the
    historical code path, gated bit-identical by the golden-zoo, campaign
    byte-identity, and serve golden-response suites.
    """

    kind = "roofline"


class EdgeGpuBackend(ExecutionBackend):
    """Jetson-class edge GPU: memory-constrained, thermally limited.

    perf4sight's central observation is that on edge boards the feasible
    configuration frontier is set by memory, not speed: LPDDR is unified
    (shared with the OS and the CUDA context), cuDNN falls back to
    workspace-hungry algorithms, and sustained clocks sit below peak under
    passive cooling.  The timing model is the same roofline on a derated
    device view; the memory model subtracts a fixed reserved carve-out and
    charges a larger workspace fraction.
    """

    kind = "edge"
    #: LPDDR shared with the OS, desktop, and CUDA context — perf4sight
    #: measures roughly 2 GB of a Jetson's nominal memory as unavailable.
    reserved_bytes = 2.0e9
    #: Larger-workspace cuDNN algorithm choices on memory-tight boards.
    workspace_fraction = 0.25
    #: Sustained vs peak compute clock under the default power budget.
    sustained_compute = 0.85
    #: Sustained vs peak LPDDR bandwidth.
    sustained_bandwidth = 0.90
    #: DVFS and thermal throttling add measurement variance.
    noise_scale = 1.25

    def __init__(self, device: DeviceSpec = JETSON_ORIN) -> None:
        if device.kind != "gpu":
            raise ValueError(
                f"edge backend models GPUs, got {device.name!r} "
                f"(kind={device.kind!r})"
            )
        super().__init__(device)
        self._timing_device = device.scaled(
            name=device.name,
            flops=self.sustained_compute,
            bandwidth=self.sustained_bandwidth,
        )

    @property
    def noise_tag(self) -> str:
        return f"edge:{self.device.name}"

    @property
    def timing_device(self) -> DeviceSpec:
        return self._timing_device

    @property
    def optimizer_device(self) -> DeviceSpec:
        return self._timing_device

    def memory_available(self) -> float:
        usable = (
            self.device.memory_bytes * memory_model._HEADROOM
            - self.reserved_bytes
        )
        return max(0.0, usable)


#: (bytes per element, compute-roofline boost) per reduced precision.
_PRECISION_SPECS: dict[str, tuple[float, float]] = {
    "fp16": (2.0, 2.0),
    "bf16": (2.0, 2.0),
}


class MixedPrecisionBackend(ExecutionBackend):
    """Reduced-precision compute phases over fp32 master optimizer state.

    Half-width elements double the effective bandwidth roofline (half the
    bytes move per element) and the compute roofline (vector units retire
    twice the elements per cycle); activation and weight *footprints*
    halve.  Optimizer state does not: fp16 training keeps fp16 weights and
    gradients plus an fp32 master copy and two fp32 moments — 16 bytes per
    parameter, exactly the fp32 Adam footprint — so only activation memory
    shrinks, which matches what practitioners observe.
    """

    kind = "mixed-precision"

    def __init__(
        self, device: DeviceSpec = A100_80GB, precision: str = "fp16"
    ) -> None:
        try:
            elem_bytes, boost = _PRECISION_SPECS[precision]
        except KeyError:
            raise ValueError(
                f"unknown precision {precision!r}; supported: "
                f"{', '.join(sorted(_PRECISION_SPECS))}"
            ) from None
        if precision not in device.precision_modes:
            raise ValueError(
                f"device {device.name!r} does not support {precision} "
                f"(modes: {', '.join(device.precision_modes)})"
            )
        super().__init__(device)
        self.precision = precision
        self.float_bytes = elem_bytes
        self._timing_device = device.scaled(
            name=device.name, flops=boost, bandwidth=4.0 / elem_bytes
        )

    def for_device(self, device: DeviceSpec) -> "MixedPrecisionBackend":
        return MixedPrecisionBackend(device, self.precision)

    @property
    def noise_tag(self) -> str:
        return f"{self.precision}:{self.device.name}"

    @property
    def timing_device(self) -> DeviceSpec:
        return self._timing_device


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class BackendInfo:
    """Registry row: how to build a backend and what to tell the user."""

    name: str
    summary: str
    default_device: DeviceSpec
    factory: Callable[[DeviceSpec], ExecutionBackend]


def _fp16(device: DeviceSpec) -> MixedPrecisionBackend:
    return MixedPrecisionBackend(device, "fp16")


def _bf16(device: DeviceSpec) -> MixedPrecisionBackend:
    return MixedPrecisionBackend(device, "bf16")


#: Name → backend factory.  ``"roofline"`` is the default everywhere a
#: backend name is optional; an empty name resolves to it.
BACKEND_REGISTRY: dict[str, BackendInfo] = {
    "roofline": BackendInfo(
        name="roofline",
        summary="datacenter roofline simulator (default)",
        default_device=A100_80GB,
        factory=RooflineBackend,
    ),
    "edge": BackendInfo(
        name="edge",
        summary="memory-constrained edge GPU (Jetson class, perf4sight)",
        default_device=JETSON_ORIN,
        factory=EdgeGpuBackend,
    ),
    "fp16": BackendInfo(
        name="fp16",
        summary="mixed precision: fp16 compute over fp32 master state",
        default_device=A100_80GB,
        factory=_fp16,
    ),
    "bf16": BackendInfo(
        name="bf16",
        summary="mixed precision: bf16 compute over fp32 master state",
        default_device=A100_80GB,
        factory=_bf16,
    ),
}

DEFAULT_BACKEND = "roofline"

#: Jetson-class presets the edge backend ships with (smallest last so the
#: OOM boundary tests walk a descending memory cliff).
EDGE_DEVICE_NAMES: tuple[str, ...] = (
    "jetson-agx-orin",
    "jetson-xavier-nx",
    "jetson-orin-nano",
)


def get_backend(
    name: str = "", device: DeviceSpec | None = None
) -> ExecutionBackend:
    """Build a registered backend; empty name means the default roofline."""
    key = name or DEFAULT_BACKEND
    try:
        info = BACKEND_REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; registered: "
            f"{', '.join(BACKEND_REGISTRY)}"
        ) from None
    return info.factory(device if device is not None else info.default_device)


def edge_backends() -> tuple[EdgeGpuBackend, ...]:
    """One edge backend per shipped Jetson-class preset (for IR009)."""
    return tuple(
        EdgeGpuBackend(DEVICE_PRESETS[name]) for name in EDGE_DEVICE_NAMES
    )
