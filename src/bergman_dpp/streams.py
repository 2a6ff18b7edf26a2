"""Reproducible random streams.

Counter-based Philox generators keyed by (seed, replica, phase).  Distinct
keys give statistically independent streams, so parallel replicas never
share state and any single replica can be replayed in isolation.  The key
layout below is part of the reproducibility contract: changing it changes
every sampled byte.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["PHASE_SAMPLE", "PHASE_BERNOULLI", "PHASE_MODULI", "PHASE_CONJECTURE", "make_rng"]

# phase tags (low 8 bits of the second key word)
PHASE_SAMPLE = 0      # joint Bernoulli + position stream used by sample()
PHASE_BERNOULLI = 1   # count-only Monte Carlo replicas
PHASE_MODULI = 2      # radial-law draws
PHASE_CONJECTURE = 3  # reserved; retired moduli experiment

_MASK64 = (1 << 64) - 1


def make_rng(seed: int, replica: int = 0, phase: int = PHASE_SAMPLE) -> np.random.Generator:
    """Return the Philox generator for one (seed, replica, phase) cell.

    The 128-bit Philox key is [seed, replica << 8 | phase], so up to 2**56
    replicas and 256 phases per seed are collision-free.
    """
    seed = int(seed)
    replica = int(replica)
    phase = int(phase)
    if seed < 0:
        raise DomainError("seed must be a non-negative integer")
    if replica < 0 or replica >= 1 << 56:
        raise DomainError("replica index out of range [0, 2**56)")
    if phase < 0 or phase >= 1 << 8:
        raise DomainError("phase tag out of range [0, 256)")
    key = np.array([seed & _MASK64, ((replica << 8) | phase) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
