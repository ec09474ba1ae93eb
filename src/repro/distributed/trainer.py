"""Distributed training-step timeline simulator.

Reproduces the synchronous data-parallel training step of the paper's
Figure 1 on a simulated cluster: each device computes a forward and backward
pass on its mini-batch; gradient tensors become available layer-by-layer as
the backward sweep proceeds (in reverse topological order); Horovod-style
fusion buckets are all-reduced over the ring fabric *concurrently* with the
remaining backward computation; the weight update runs once the last bucket
has been reduced.

The phase times reported mirror what the paper measures: the gradient-update
phase is the part of communication + optimizer work *not hidden* behind the
backward pass, which is why the paper fits backward and gradient update
jointly (Section 3.3).

Execution is backend-pluggable: the trainer accepts an
:class:`~repro.hardware.backend.ExecutionBackend` and applies it across the
cluster, and a :class:`ClusterSpec` with ``node_devices`` simulates a
*heterogeneous* cluster.  Synchronous data parallelism makes every phase a
barrier, so mixed device types follow straggler semantics: each compute
phase (and each backward layer, whose gradient cannot be all-reduced before
every rank has produced it) completes when the slowest node type finishes.
For a homogeneous cluster the straggler maximum ranges over one device type
and the timeline is bit-identical to the pre-backend code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.distributed.allreduce import (
    hierarchical_all_reduce_time,
    ring_all_reduce_time,
)
from repro.distributed.cluster import ClusterSpec
from repro.distributed.fusion import (
    DEFAULT_FUSION_THRESHOLD,
    BucketLayout,
    FusionBucket,
    fusion_layout,
)
from repro.hardware.backend import ExecutionBackend, RooflineBackend
from repro.hardware.executor import (
    PhaseTimes,
    SimulatedExecutor,
    _BWD_BYTES_FACTOR,
    _OPT_BYTES_PER_PARAM,
    _OPT_FLOPS_PER_PARAM,
)
from repro.hardware.noise import lognormal_factor, lognormal_vector, point_seed
from repro.hardware.roofline import CostProfile

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.trace.tracer import Tracer


#: Fixed per-bucket Horovod negotiation overhead, seconds.
_COORDINATION_BASE = 1.0e-5
#: Additional negotiation cost per participating rank, seconds.
_COORDINATION_PER_RANK = 2.0e-6


@dataclass(frozen=True, eq=False)
class BackendStep:
    """Noise-free step components of one node device type at one batch."""

    #: Clean forward time, base overhead included.
    forward: float
    #: Clean per-layer backward times in sweep (reverse topological) order.
    backward_layers: np.ndarray
    #: Clean optimizer (Adam) step time.
    optimizer: float


@dataclass(frozen=True, eq=False)
class StepPlan:
    """The noise-free part of one training step at one per-device batch.

    It depends on the model, the batch, the trainer's node device types,
    backend and fusion threshold, but not on the node count, so one plan
    serves a whole node sweep.  :meth:`DistributedTrainer.run_step` adds
    what varies per step: the seeded noise, the backward cumsum, and the
    all-reduce schedule of the cluster's rank count.
    """

    batch: int
    #: One entry per distinct node device type, primary first.
    backends: tuple[BackendStep, ...]
    #: Sweep positions of the layers that produce a gradient tensor.
    grad_positions: np.ndarray
    #: Fusion buckets over those gradients, in submission order.
    buckets: tuple[BucketLayout, ...]
    #: The trainer configuration the plan was built under.
    config: tuple


@dataclass(frozen=True)
class BucketTrace:
    """Timeline of one fused all-reduce."""

    bucket: FusionBucket
    start: float
    end: float


@dataclass(frozen=True)
class TrainingStepTrace:
    """Full timeline of one simulated distributed training step."""

    phases: PhaseTimes
    #: Per-bucket communication timeline (empty for a single device).
    buckets: tuple[BucketTrace, ...]
    #: Wall time at which the backward compute sweep finished.
    backward_end: float
    #: Wall time at which the last all-reduce finished.
    comm_end: float
    #: Local optimizer (Adam) step time.
    optimizer_time: float

    @property
    def hidden_comm(self) -> float:
        """Communication time overlapped with (hidden behind) backward."""
        total_comm = sum(b.end - b.start for b in self.buckets)
        exposed = max(0.0, self.comm_end - self.backward_end)
        return max(0.0, total_comm - exposed)


class DistributedTrainer:
    """Simulates synchronous data-parallel training steps on a cluster."""

    def __init__(
        self,
        cluster: ClusterSpec,
        seed: int = 0,
        fusion_threshold: float = DEFAULT_FUSION_THRESHOLD,
        algorithm: str = "ring",
        backend: ExecutionBackend | None = None,
    ) -> None:
        if algorithm not in ("ring", "hierarchical"):
            raise ValueError(f"unknown all-reduce algorithm {algorithm!r}")
        if backend is not None and backend.device != cluster.device:
            raise ValueError(
                f"backend device {backend.device.name!r} disagrees with "
                f"cluster device {cluster.device.name!r}"
            )
        self.cluster = cluster
        self.seed = seed
        self.fusion_threshold = fusion_threshold
        self.algorithm = algorithm
        self.backend = (
            backend if backend is not None else RooflineBackend(cluster.device)
        )
        # One backend per distinct node device type, the primary first —
        # the same backend policy bound to each node's silicon.
        self._node_backends: tuple[ExecutionBackend, ...] = tuple(
            self.backend if dev == cluster.device
            else self.backend.for_device(dev)
            for dev in cluster.distinct_devices()
        )
        self.executor = SimulatedExecutor(seed=seed, backend=self.backend)
        self._base_overhead = max(
            b.device.base_overhead for b in self._node_backends
        )
        # Everything besides the profile and batch a StepPlan depends on.
        self._plan_config = (
            tuple(b.noise_tag for b in self._node_backends),
            self.backend.float_bytes,
            fusion_threshold,
        )

    def _all_reduce_time(self, nbytes: float) -> float:
        """Noise-free collective time for one fused bucket."""
        if self.algorithm == "hierarchical":
            return hierarchical_all_reduce_time(
                nbytes,
                self.cluster.nodes,
                self.cluster.gpus_per_node,
                self.cluster.intra_node,
                self.cluster.inter_node,
                node_intra=self.cluster.node_intra,
            )
        return ring_all_reduce_time(
            nbytes, self.cluster.total_devices, self.cluster.ring_link
        )

    # -- noise helpers -------------------------------------------------------

    def _sync_sigma(self, base: float) -> float:
        """Noise grows with scale: desynchronised phase starts across devices
        add variance the paper observes in Figure 7."""
        n = self.cluster.total_devices
        return base * (1.0 + 0.35 * np.log2(max(1, n)))

    def _noise(self, sigma: float, *identity: object, tag: str = "") -> float:
        seed = point_seed(
            self.seed,
            tag or self.backend.noise_tag,
            self.cluster.nodes,
            self.cluster.gpus_per_node,
            *identity,
        )
        return lognormal_factor(sigma, seed)

    # -- timeline ------------------------------------------------------------

    def plan_steps(
        self, profile: CostProfile, batches: "tuple[int, ...] | list[int]"
    ) -> dict[int, StepPlan]:
        """Noise-free step plans for a whole batch sweep, in one shot.

        One batched forward and one batched backward :meth:`layer_times`
        evaluation per node backend cover every batch (each row is
        bit-identical to the scalar call, see
        :meth:`~repro.hardware.backend.ExecutionBackend.clean_time_grids`).
        """
        b = np.asarray(batches)
        grad_mask = profile.has_params[::-1]
        grad_positions = np.flatnonzero(grad_mask)
        grad_sizes = (
            profile.param_counts[::-1][grad_mask] * self.backend.float_bytes
        ).tolist()
        buckets = tuple(fusion_layout(grad_sizes, self.fusion_threshold))
        grids = [
            (
                nb.clean_time_grids(profile, batches),
                nb.backward_layer_times(profile, b)[:, ::-1],
                nb.grad_update_time_clean(profile),
            )
            for nb in self._node_backends
        ]
        return {
            int(n): StepPlan(
                batch=int(n),
                backends=tuple(
                    BackendStep(fwd[int(n)][0], bwd[i], opt)
                    for fwd, bwd, opt in grids
                ),
                grad_positions=grad_positions,
                buckets=buckets,
                config=self._plan_config,
            )
            for i, n in enumerate(batches)
        }

    def run_step(
        self,
        profile: CostProfile,
        per_device_batch: int,
        rep: int = 0,
        enforce_memory: bool = True,
        tracer: "Tracer | None" = None,
        plan: StepPlan | None = None,
    ) -> TrainingStepTrace:
        """Simulate one training step with mini-batch ``per_device_batch``.

        ``plan`` supplies the step's noise-free components (from
        :meth:`plan_steps` of a trainer with the same node devices, backend
        and fusion threshold — its node count may differ); without one, the
        plan for this batch is built here.  Either way the timeline below is
        the same code, so a planned step is bit-identical to an unplanned
        one.

        With a ``tracer``, emits the step's timeline as spans for one
        representative rank (synchronous data parallelism makes the ranks
        symmetric up to straggler barriers): ``forward`` / ``backward`` /
        ``grad_update`` compute phases with per-layer children, plus one
        ``comm``-track span per fused all-reduce placed at its true offset,
        overlapping the backward sweep exactly as the simulated schedule
        does.
        """
        backends = self._node_backends
        if enforce_memory:
            for b in backends:
                b.check_fits(profile, per_device_batch, training=True)
        if plan is None:
            plan = self.plan_steps(profile, (per_device_batch,))[
                per_device_batch
            ]
        elif plan.batch != per_device_batch or plan.config != self._plan_config:
            raise ValueError(
                f"step plan for batch {plan.batch} under {plan.config} does "
                f"not match batch {per_device_batch} under {self._plan_config}"
            )
        steps = tuple(zip(backends, plan.backends))
        n_ranks = self.cluster.total_devices
        name = profile.graph_name
        tracing = tracer is not None and tracer.enabled
        # Offset of this step within the enclosing span — comm spans are
        # placed at explicit offsets and must not assume they start at 0.
        origin = tracer.elapsed() if tracing else 0.0

        # Forward barrier: every rank must deliver its mini-batch before
        # gradients exist, so the slowest node type sets the phase time.
        fwd = 0.0
        fwd_noise = 1.0
        for b, step in steps:
            b_noise = self._noise(
                self._sync_sigma(b.noise_sigma),
                name, per_device_batch, "fwd", rep,
                tag=b.noise_tag,
            )
            b_fwd = step.forward * b_noise
            if b_fwd >= fwd:
                fwd, fwd_noise = b_fwd, b_noise
        if tracing:
            self.executor._trace_phase(
                tracer, "forward", profile, per_device_batch, fwd_noise, fwd
            )

        # Per-layer backward times, swept in reverse topological order.
        # Each layer's gradient is cluster-complete only when the slowest
        # node type finishes that layer, so mixed clusters take the
        # element-wise maximum of the per-device noisy sweeps.
        bwd_layer_times = None
        for b, step in steps:
            layer_noisy = step.backward_layers * lognormal_vector(
                self._sync_sigma(b.noise_sigma),
                profile.n_layers,
                point_seed(
                    self.seed, b.noise_tag, n_ranks, name, per_device_batch,
                    "bwd-layers", rep,
                ),
            )
            bwd_layer_times = (
                layer_noisy if bwd_layer_times is None
                else np.maximum(bwd_layer_times, layer_noisy)
            )
        completion = np.cumsum(bwd_layer_times)
        bwd_end = float(completion[-1]) + self._base_overhead
        if tracing:
            from repro.trace.tracer import record_layer_phase

            flops_factor = self.backend.backward_flops_factor(profile)
            record_layer_phase(
                tracer,
                "backward",
                profile.span_names()[::-1],
                bwd_layer_times,
                (profile.flops * (per_device_batch * flops_factor))[::-1],
                (
                    profile.act_bytes
                    * (per_device_batch * _BWD_BYTES_FACTOR)
                    + profile.weight_bytes
                )[::-1],
                bwd_end,
            )

        buckets: list[BucketTrace] = []
        comm_end = bwd_end
        optimizer_time = max(step.optimizer for step in plan.backends)

        if n_ranks > 1 and plan.buckets:
            link = self.cluster.ring_link
            # Horovod negotiates each fused all-reduce through its
            # coordinator, a cost that grows with the number of ranks — the
            # physical origin of the paper's c3·N gradient-update term.
            coordination = _COORDINATION_BASE + _COORDINATION_PER_RANK * n_ranks
            # Gradient tensors become ready as their layer's backward
            # completes.  Every layer time is positive, so the cumsum never
            # decreases and a bucket is ready exactly when its last member
            # is: bit for bit the running maximum over its members that
            # fuse_tensors takes.
            grad_ready = completion[plan.grad_positions].tolist()
            comm_cursor = 0.0
            for i, layout in enumerate(plan.buckets):
                ready = grad_ready[layout.last]
                bucket = FusionBucket(
                    layout.tensor_indices, layout.nbytes, ready
                )
                start = max(ready, comm_cursor)
                duration = (
                    self._all_reduce_time(bucket.nbytes) + coordination
                ) * self._noise(
                    link.noise_sigma, name, per_device_batch, "comm", i, rep
                )
                end = start + duration
                buckets.append(BucketTrace(bucket, start, end))
                comm_cursor = end
            comm_end = max(bwd_end, comm_cursor)

        exposed_comm = max(0.0, comm_end - bwd_end)
        # Optimizer barrier: the step ends when the slowest node type has
        # applied its update.
        opt_noisy = max(
            step.optimizer
            * self._noise(
                b.noise_sigma, name, per_device_batch, "opt", rep,
                tag=b.noise_tag,
            )
            for b, step in steps
        )
        grad_phase = exposed_comm + opt_noisy

        if tracing:
            # All-reduces overlap the backward sweep; place them on the comm
            # track at their simulated offsets within this step.
            for i, b in enumerate(buckets):
                tracer.add_at(
                    f"allreduce[{i}]",
                    origin + fwd + b.start,
                    b.end - b.start,
                    category="comm",
                    track="comm",
                    attrs={"bytes": b.bucket.nbytes, "ranks": n_ranks},
                )
                tracer.count("allreduce_bytes", b.bucket.nbytes)
            params = float(profile.param_counts.sum())
            opt_flops = _OPT_FLOPS_PER_PARAM * params
            opt_bytes = _OPT_BYTES_PER_PARAM * params
            tracer.begin("grad_update", category="phase")
            if exposed_comm > 0.0:
                tracer.add("exposed_comm", exposed_comm, category="comm")
            tracer.add(
                "optimizer",
                opt_noisy,
                category="optimizer",
                attrs={"flops": opt_flops, "bytes": opt_bytes},
            )
            tracer.count("flops", opt_flops)
            tracer.count("bytes", opt_bytes)
            tracer.end(grad_phase)

        phases = PhaseTimes(
            forward=fwd, backward=bwd_end, grad_update=grad_phase
        )
        return TrainingStepTrace(
            phases=phases,
            buckets=tuple(buckets),
            backward_end=bwd_end,
            comm_end=comm_end,
            optimizer_time=optimizer_time,
        )

    def measure_step(
        self,
        profile: CostProfile,
        per_device_batch: int,
        rep: int = 0,
        enforce_memory: bool = True,
        tracer: "Tracer | None" = None,
        plan: StepPlan | None = None,
    ) -> PhaseTimes:
        """Phase times only — the record the campaign stores."""
        return self.run_step(
            profile, per_device_batch, rep, enforce_memory, tracer=tracer,
            plan=plan,
        ).phases
