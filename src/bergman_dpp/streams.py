"""Reproducible random streams.

Counter-based Philox generators keyed by (seed, replica, phase).  Distinct
keys give statistically independent streams, so parallel replicas never
share state and any single replica can be replayed in isolation.  The key
layout below is part of the reproducibility contract: changing it changes
every sampled byte.

A loop over many replicas of one (seed, phase) re-keys a single Philox per
replica instead of building a new generator for each: setting the whole
bit-generator state gives the same bytes as a fresh `make_rng` cell and
skips the OS entropy that a new Philox draws for a key it then overrides.
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


def _replica_rngs(seed: int, replicas, phase: int):
    """Yield the generator of cell (seed, r, phase) for each r in replicas.

    One generator is built by make_rng and re-keyed for every replica: its
    whole state is reset to that of a fresh cell (counter 0, key
    [seed, r << 8 | phase], zeroed buffer, buffer_pos 4, no cached 32-bit
    half), so each yield draws the same bytes as make_rng(seed, r, phase).
    A yielded generator is valid only until the next one is yielded, which
    re-keys it in place; keep none across iterations.
    """
    rng = make_rng(seed, 0, phase)
    bit_gen = rng.bit_generator
    state = bit_gen.state  # a copy of the fresh cell (seed, 0, phase)
    key = state["state"]["key"]
    tag = int(key[1])
    for r in replicas:
        key[1] = (_as_int(r, "replica", 0, _REPLICA_END) << 8) | tag
        bit_gen.state = state
        yield rng
