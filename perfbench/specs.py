"""The workloads' fixed parameters, and the campaign specs they imply.

The CLI arguments below are what the program is given; the matching
:class:`~repro.benchdata.engine.CampaignSpec` is built from public
constants so the benchmark can compute its own reference records for a
seed through the library, a different path from the CLI it checks.
"""

from __future__ import annotations

#: ``zoo-grid``: the paper's default inference grid (all 14 default
#: models x 7 image sizes x 12 batch sizes; 96 valid graphs).
ZOO_GRID_ARGS = ("campaign", "--scenario", "inference")

#: ``zoo-grid``'s leaderboard step runs at a fixed seed, not the workload
#: seed: its learned predictors stop early after a seed-dependent number
#: of epochs, so its cost would change with the seed, not with the program.
LEADERBOARD_SEED = 0
LEADERBOARD_ARGS = ("leaderboard", "--seed", str(LEADERBOARD_SEED))

#: ``node-sweep-store``: 4 models on the distributed grid, 1..64 nodes.
NODE_SWEEP_MODELS = ("resnet50", "mobilenet_v2", "vgg11", "efficientnet_b0")
NODE_SWEEP_NODES = tuple(range(1, 65))
NODE_SWEEP_ARGS = (
    "campaign", "--scenario", "distributed",
    "--models", *NODE_SWEEP_MODELS,
    "--nodes", *map(str, NODE_SWEEP_NODES),
)
#: The distributed scenario's batch and image sweep (``repro campaign``
#: uses these for ``--scenario distributed``).
DISTRIBUTED_BATCHES = (16, 32, 64, 128, 256)
DISTRIBUTED_IMAGES = (64, 128, 192)


def zoo_grid_spec(seed: int):
    from repro.benchdata import CampaignSpec
    from repro.benchdata.campaign import (
        DEFAULT_BATCH_SIZES,
        DEFAULT_IMAGE_SIZES,
        DEFAULT_MODELS,
    )
    from repro.hardware.device import get_device

    return CampaignSpec(
        scenario="inference",
        models=DEFAULT_MODELS,
        device=get_device("a100-80gb"),
        batch_sizes=DEFAULT_BATCH_SIZES,
        image_sizes=DEFAULT_IMAGE_SIZES,
        seed=seed,
    )


def node_sweep_spec(seed: int):
    from repro.benchdata import CampaignSpec
    from repro.hardware.device import get_device

    return CampaignSpec(
        scenario="distributed",
        models=NODE_SWEEP_MODELS,
        device=get_device("a100-80gb"),
        batch_sizes=DISTRIBUTED_BATCHES,
        image_sizes=DISTRIBUTED_IMAGES,
        seed=seed,
        node_counts=NODE_SWEEP_NODES,
    )
