"""Horovod-style tensor fusion.

Horovod coalesces gradient tensors into a fusion buffer and launches one
all-reduce per filled buffer instead of one per tensor, letting
communication start *during* the backward pass (the paper's Section 3.2
"tensor fusion" optimisation).  ``fusion_layout`` reproduces the greedy
behaviour: tensors are appended in backward completion order and a bucket is
flushed once it reaches the threshold.  The layout depends on tensor sizes
only, so a trainer computes it once per model; ``fuse_tensors`` attaches
each bucket's ready time for one particular backward sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Horovod's default fusion-buffer size (HOROVOD_FUSION_THRESHOLD), bytes.
DEFAULT_FUSION_THRESHOLD = 64 * 1024 * 1024


@dataclass(frozen=True)
class FusionBucket:
    """One fused all-reduce launch."""

    #: Indices (into the submission order) of the tensors in this bucket.
    tensor_indices: tuple[int, ...]
    #: Total payload, bytes.
    nbytes: float
    #: Time at which the last member tensor became available, seconds.
    ready_time: float


@dataclass(frozen=True)
class BucketLayout:
    """Which tensors one fused all-reduce carries — the size-only part of a
    :class:`FusionBucket`, fixed for a given model and threshold."""

    #: Indices (into the submission order) of the tensors in this bucket.
    tensor_indices: tuple[int, ...]
    #: Total payload, bytes.
    nbytes: float

    @property
    def last(self) -> int:
        """Index of the last member, the one submitted latest."""
        return self.tensor_indices[-1]


def fusion_layout(
    sizes_bytes: list[float], threshold: float = DEFAULT_FUSION_THRESHOLD
) -> list[BucketLayout]:
    """Greedily pack tensors (in submission order) into fusion buckets.

    ``sizes_bytes[i]`` is the payload of the i-th gradient tensor in
    backward completion order.  A bucket is flushed when adding the next
    tensor would leave it at or above the threshold; a final partial bucket
    is flushed at the end.  A single tensor larger than the threshold gets
    its own bucket (Horovod behaviour).  A threshold ``<= 0`` disables
    fusion: one bucket per tensor.
    """
    if threshold <= 0:
        return [BucketLayout((i,), float(s)) for i, s in enumerate(sizes_bytes)]

    buckets: list[BucketLayout] = []
    current: list[int] = []
    current_bytes = 0.0
    for i, size in enumerate(sizes_bytes):
        current.append(i)
        current_bytes += float(size)
        if current_bytes >= threshold:
            buckets.append(BucketLayout(tuple(current), current_bytes))
            current, current_bytes = [], 0.0
    if current:
        buckets.append(BucketLayout(tuple(current), current_bytes))
    return buckets


def fuse_tensors(
    sizes_bytes: list[float],
    ready_times: list[float],
    threshold: float = DEFAULT_FUSION_THRESHOLD,
) -> list[FusionBucket]:
    """:func:`fusion_layout` with each bucket's ready time attached.

    ``ready_times[i]`` is when the i-th tensor became available; a bucket
    is ready when its latest member is (with fusion on, never before 0).
    """
    if len(sizes_bytes) != len(ready_times):
        raise ValueError("sizes and ready_times must have equal length")
    floor = (0.0,) if threshold > 0 else ()
    return [
        FusionBucket(
            b.tensor_indices,
            b.nbytes,
            max((*floor, *(float(ready_times[i]) for i in b.tensor_indices))),
        )
        for b in fusion_layout(sizes_bytes, threshold)
    ]
