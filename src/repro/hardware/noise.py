"""Deterministic measurement noise.

Real benchmark campaigns see run-to-run jitter (clock scaling, cache state,
scheduler interference) that is roughly multiplicative and heavier-tailed
for network operations.  We model it as log-normal with a per-source sigma,
seeded from a stable hash of the measurement identity so repeated campaigns
— and therefore tests — are exactly reproducible.

The seeding contract matters for the parallel campaign engine: every noise
draw is keyed by :func:`point_seed` over the *identity* of the measurement
(campaign seed, device, model, batch, phase, rep) — never by executor call
order, wall clock, or process id.  Running the same sweep serially, across
any number of worker processes, or resumed from a partial record store
therefore yields byte-identical timings.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stable_seed(*parts: object) -> int:
    """64-bit seed derived from a stable hash of the given identity parts."""
    key = "\x1f".join(map(repr, parts)).encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def point_seed(campaign_seed: int, *identity: object) -> int:
    """RNG seed of one measurement point.

    Derived purely from the campaign seed and the point's identity (device,
    model, batch size, image size, phase, rep) — independent of the order in
    which the campaign engine happens to execute points.
    """
    return stable_seed(campaign_seed, *identity)


def lognormal_factor(sigma: float, seed: int) -> float:
    """One centred log-normal factor (E[factor] = 1) from an explicit seed."""
    if sigma <= 0:
        return 1.0
    rng = np.random.default_rng(seed)
    # mean of lognormal(mu, sigma) is exp(mu + sigma^2/2); centre it at 1.
    return float(rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma))


def lognormal_vector(sigma: float, n: int, seed: int) -> np.ndarray:
    """A vector of independent centred log-normal factors from one seed."""
    if sigma <= 0:
        return np.ones(n)
    rng = np.random.default_rng(seed)
    return rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma, size=n)


def multiplicative_noise(sigma: float, *identity: object) -> float:
    """One log-normal noise factor keyed by a measurement identity."""
    return lognormal_factor(sigma, stable_seed(*identity))


def noise_vector(sigma: float, n: int, *identity: object) -> np.ndarray:
    """A vector of independent factors keyed by a measurement identity."""
    return lognormal_vector(sigma, n, stable_seed(*identity))
