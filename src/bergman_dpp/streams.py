"""Reproducible random streams.

Counter-based Philox generators keyed by (seed, replica, phase).  Distinct
keys give statistically independent streams, so parallel replicas never
share state and any single replica can be replayed in isolation.  The key
layout below is part of the reproducibility contract: changing it changes
every sampled byte.
"""

from __future__ import annotations

import numpy as np

from .errors import _as_int

__all__ = ["PHASE_SAMPLE", "PHASE_BERNOULLI", "PHASE_MODULI", "make_rng"]

# phase tags (low 8 bits of the second key word)
PHASE_SAMPLE = 0      # joint Bernoulli + position stream used by sample()
PHASE_BERNOULLI = 1   # count-only Monte Carlo replicas
PHASE_MODULI = 2      # radial-law draws
# tag 3 stays unused, so the retired moduli experiment's keys are never reassigned

# the key words have room for seeds below 2**64 and replicas below 2**56
_SEED_END = 1 << 64
_REPLICA_END = 1 << 56


def make_rng(seed: int, replica: int = 0, phase: int = PHASE_SAMPLE) -> np.random.Generator:
    """Return the Philox generator for one (seed, replica, phase) cell.

    The 128-bit Philox key is [seed, replica << 8 | phase], so seeds below
    2**64, up to 2**56 replicas and 256 phases per seed are collision-free;
    anything outside those ranges is rejected rather than wrapped onto
    another cell's key.
    """
    seed = _as_int(seed, "seed", 0, _SEED_END)
    replica = _as_int(replica, "replica", 0, _REPLICA_END)
    phase = _as_int(phase, "phase tag", 0, 1 << 8)
    key = np.array([seed, (replica << 8) | phase], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
