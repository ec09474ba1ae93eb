"""Single-device simulated executor.

Produces the "measured" runtimes the campaign records: inference time and
the three training-step phases of Figure 1 (forward pass, backward pass,
weight/gradient update) on one device.  Distributed runs build on this via
:mod:`repro.distributed.trainer`.

Since the backend refactor this class is a thin facade: all platform policy
— timing formulas, memory accounting, noise streams — lives in an
:class:`~repro.hardware.backend.ExecutionBackend`.  Constructed with a bare
:class:`DeviceSpec` it wraps the default :class:`RooflineBackend`, which is
bit-identical to the pre-backend behavior.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.graph.graph import ComputeGraph
from repro.hardware.backend import (
    ExecutionBackend,
    RooflineBackend,
    _BWD_BYTES_FACTOR,
    _BWD_FLOPS_OTHER,
    _BWD_FLOPS_PARAM,
    _OPT_BYTES_PER_PARAM,
    _OPT_FLOPS_PER_PARAM,
    _OPT_KERNELS_PER_TENSOR,
)
from repro.hardware.device import DeviceSpec
from repro.hardware.roofline import CostProfile, profile_graph

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.trace.tracer import Tracer

__all__ = [
    "PhaseTimes",
    "SimulatedExecutor",
    "_BWD_BYTES_FACTOR",
    "_BWD_FLOPS_OTHER",
    "_BWD_FLOPS_PARAM",
    "_OPT_BYTES_PER_PARAM",
    "_OPT_FLOPS_PER_PARAM",
    "_OPT_KERNELS_PER_TENSOR",
]


@dataclass(frozen=True)
class PhaseTimes:
    """Per-phase wall time of one training step, seconds."""

    forward: float
    backward: float
    grad_update: float

    @property
    def total(self) -> float:
        return self.forward + self.backward + self.grad_update

    @property
    def backward_plus_update(self) -> float:
        """The overlapped phase the paper fits jointly (Section 3.3)."""
        return self.backward + self.grad_update


class SimulatedExecutor:
    """Runs graphs on one simulated backend and reports noisy timings."""

    def __init__(
        self,
        device: DeviceSpec | None = None,
        seed: int = 0,
        backend: ExecutionBackend | None = None,
    ) -> None:
        if backend is None:
            if device is None:
                raise ValueError("need a device or a backend")
            backend = RooflineBackend(device)
        elif device is not None and device != backend.device:
            raise ValueError(
                f"device {device.name!r} disagrees with backend device "
                f"{backend.device.name!r}; pass one or the other"
            )
        self.backend = backend
        self.device = backend.device
        self.seed = seed

    def _noise(self, *identity: object) -> float:
        # Seeded purely by the measurement identity (never call order), so
        # parallel and resumed campaigns reproduce serial timings exactly.
        # The backend contributes its noise tag — the bare device name for
        # the default roofline backend, preserving the historical stream.
        return self.backend.noise_factor(self.seed, *identity)

    # -- span emission -------------------------------------------------------

    def _trace_phase(
        self,
        tracer: "Tracer",
        name: str,
        profile: CostProfile,
        batch: int,
        noise: float,
        total: float,
        flops_factor=1.0,
        bytes_factor: float = 1.0,
        reverse: bool = False,
    ) -> None:
        """Emit one compute phase as per-layer spans tiling ``[0, total]``.

        The per-layer durations are the roofline layer times scaled by the
        phase's measured noise factor; the framework base overhead (and
        float dust) lands in a closing ``overhead`` span, so the children
        sum exactly to the measured phase total.  ``reverse`` emits layers
        in reverse topological order — the backward sweep.
        """
        from repro.trace.tracer import record_layer_phase

        times = self.backend.layer_times(
            profile,
            batch,
            flops_factor=flops_factor,
            bytes_factor=bytes_factor,
        ) * noise
        flops = profile.flops * (batch * flops_factor)
        nbytes = (
            profile.act_bytes * (batch * bytes_factor) + profile.weight_bytes
        )
        names = profile.span_names()
        if reverse:
            times, flops, nbytes = times[::-1], flops[::-1], nbytes[::-1]
            names = names[::-1]
        record_layer_phase(tracer, name, names, times, flops, nbytes, total)

    def _trace_grad_update(
        self, tracer: "Tracer", profile: CostProfile, total: float
    ) -> None:
        """Emit the optimizer step as a single span of the measured total."""
        params = float(profile.param_counts.sum())
        flops = _OPT_FLOPS_PER_PARAM * params
        nbytes = _OPT_BYTES_PER_PARAM * params
        tracer.begin("grad_update", category="phase")
        tracer.add(
            "optimizer",
            total,
            category="optimizer",
            attrs={"flops": flops, "bytes": nbytes},
        )
        tracer.count("flops", flops)
        tracer.count("bytes", nbytes)
        tracer.end(total)

    # -- measurements --------------------------------------------------------

    def measure_inference(
        self,
        graph_or_profile: ComputeGraph | CostProfile,
        batch: int,
        rep: int = 0,
        enforce_memory: bool = True,
        tracer: "Tracer | None" = None,
        inference_mode: bool = False,
        clean_time: float | None = None,
    ) -> float:
        """One noisy inference measurement, seconds.

        ``clean_time`` short-circuits the deterministic component with a
        precomputed ``backend.forward_time_clean`` value (the campaign engine
        supplies it from a per-model grid cache); the caller is
        responsible for it matching ``(profile, batch)``.

        With a ``tracer``, emits a ``forward`` phase span whose per-layer
        children sum exactly to the returned time; the measurement itself
        is unchanged (tracing never perturbs the noise stream).

        ``inference_mode=True`` applies the default fusion pipeline
        (:func:`repro.graph.passes.default_inference_pipeline`) when given
        a graph — BatchNorms fold into their convolutions and cheap
        activations are absorbed, mirroring what a deployment runtime
        executes.  A :class:`CostProfile` is measured as supplied (profiles
        are pre-transformed via ``zoo_profile(..., pipeline=...)``).  Noise
        stays seeded per point identity, so fused measurements are as
        reproducible as raw ones.
        """
        profile = self._as_profile(graph_or_profile, inference_mode)
        if enforce_memory:
            self.backend.check_fits(profile, batch, training=False)
        clean = (
            self.backend.forward_time_clean(profile, batch)
            if clean_time is None
            else clean_time
        )
        noise = self._noise(profile.graph_name, batch, "inference", rep)
        total = clean * noise
        if tracer is not None and tracer.enabled:
            self._trace_phase(tracer, "forward", profile, batch, noise, total)
        return total

    def measure_training_step(
        self,
        graph_or_profile: ComputeGraph | CostProfile,
        batch: int,
        rep: int = 0,
        enforce_memory: bool = True,
        tracer: "Tracer | None" = None,
        clean_times: "tuple[float, float, float] | None" = None,
    ) -> PhaseTimes:
        """One noisy single-device training-step measurement.

        With a ``tracer``, emits ``forward`` / ``backward`` / ``grad_update``
        phase spans (backward layers in reverse topological order); each
        phase's children sum exactly to the corresponding returned time.

        ``clean_times`` short-circuits the deterministic
        ``(forward, backward, grad_update)`` components with precomputed
        values from ``backend.clean_time_grids``; the noise stream is
        untouched either way.
        """
        profile = self._as_profile(graph_or_profile)
        if enforce_memory:
            self.backend.check_fits(profile, batch, training=True)
        if clean_times is None:
            clean_times = (
                self.backend.forward_time_clean(profile, batch),
                self.backend.backward_time_clean(profile, batch),
                self.backend.grad_update_time_clean(profile),
            )
        name = profile.graph_name
        fwd_noise = self._noise(name, batch, "fwd", rep)
        fwd = clean_times[0] * fwd_noise
        bwd_noise = self._noise(name, batch, "bwd", rep)
        bwd = clean_times[1] * bwd_noise
        grad = clean_times[2] * self._noise(name, batch, "grad", rep)
        if tracer is not None and tracer.enabled:
            self._trace_phase(
                tracer, "forward", profile, batch, fwd_noise, fwd
            )
            self._trace_phase(
                tracer,
                "backward",
                profile,
                batch,
                bwd_noise,
                bwd,
                flops_factor=self.backend.backward_flops_factor(profile),
                bytes_factor=_BWD_BYTES_FACTOR,
                reverse=True,
            )
            self._trace_grad_update(tracer, profile, grad)
        return PhaseTimes(forward=fwd, backward=bwd, grad_update=grad)

    def _as_profile(
        self,
        graph_or_profile: ComputeGraph | CostProfile,
        inference_mode: bool = False,
    ) -> CostProfile:
        if isinstance(graph_or_profile, CostProfile):
            return graph_or_profile
        if inference_mode:
            from repro.graph.passes import default_inference_pipeline

            return profile_graph(
                graph_or_profile, default_inference_pipeline()
            )
        return profile_graph(graph_or_profile)
