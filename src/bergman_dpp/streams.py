"""Reproducible random streams.

Counter-based Philox generators keyed by (seed, replica, phase).  Distinct
keys give statistically independent streams, so parallel replicas never
share state and any single replica can be replayed in isolation.  The key
layout below is part of the reproducibility contract: changing it changes
every sampled byte.

Many replicas of one (seed, phase) draw their first n uniforms together:
a Philox4x64-10 block (Salmon et al., SC 2011) is a pure function of (key,
counter), so `_replica_uniforms` runs its rounds in uint64 numpy over every
(replica, block) pair, the bits of each replica's own `make_rng` cell.
"""

from __future__ import annotations

import numpy as np

from .errors import _as_int, _as_ints

__all__ = ["PHASE_SAMPLE", "PHASE_BERNOULLI", "PHASE_MODULI", "make_rng"]

# phase tags (low 8 bits of the second key word)
PHASE_SAMPLE = 0      # joint Bernoulli + position stream used by sample()
PHASE_BERNOULLI = 1   # count-only Monte Carlo replicas
PHASE_MODULI = 2      # radial-law draws
# tag 3 stays unused, so the retired moduli experiment's keys are never reassigned

# the key words have room for seeds below 2**64 and replicas below 2**56
_SEED_END = 1 << 64
_REPLICA_END = 1 << 56

# Philox4x64-10 multipliers (shaped for the two products of a round), their
# 32-bit halves, and key bumps, as numpy's Philox uses them
_MUL = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64).reshape(2, 1, 1)
_LO, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_MUL_LO, _MUL_HI, _BUMP = _MUL & _LO, _MUL >> _32, (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
# rows of up to _VECTOR_ROW uniforms are vectorized (the crossover with the
# re-keyed loop is about 48), about _PASS_BLOCKS Philox blocks in one pass
_VECTOR_ROW, _PASS_BLOCKS = 32, 1 << 12


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


def _philox_rows(seed: int, replicas: np.ndarray, phase: int, n: int) -> np.ndarray:
    """make_rng(seed, r, phase).random(n) for each r in replicas, as rows."""
    # numpy's Philox bumps its counter before each block: block c is [c, 0, 0, 0]
    blocks = -(-n // 4)
    x0 = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), (replicas.size, 1))
    x1 = x2 = x3 = np.zeros_like(x0)
    # the seed word bumps as a masked int: a uint64 scalar would warn on wrapping
    k0, k1 = seed, (replicas.astype(np.uint64) << np.uint64(8) | np.uint64(phase))[:, None]
    for _ in range(10):
        # the 128-bit products _MUL * [x0, x2], high and low words, by 32-bit halves
        b = np.stack((x0, x2))
        b_lo, b_hi = b & _LO, b >> _32
        lh, hl = _MUL_LO * b_hi, _MUL_HI * b_lo
        mid = (_MUL_LO * b_lo >> _32) + (lh & _LO) + (hl & _LO)
        hi, lo = _MUL_HI * b_hi + (lh >> _32) + (hl >> _32) + (mid >> _32), _MUL * b
        x0, x1, x2, x3 = hi[1] ^ x1 ^ np.uint64(k0), lo[1], hi[0] ^ x3 ^ k1, lo[0]
        k0, k1 = (k0 + _BUMP[0]) & 0xFFFFFFFFFFFFFFFF, k1 + np.uint64(_BUMP[1])
    words = np.stack((x0, x1, x2, x3), axis=-1).reshape(replicas.size, 4 * blocks)[:, :n]
    return (words >> np.uint64(11)) * 2.0**-53


def _replica_uniforms(seed: int, replicas, phase: int, n: int):
    """Yield make_rng(seed, r, phase).random(n) for r in replicas, the same
    bits, as (k, n) blocks in replica order (one (0, n) block for none);
    every argument is checked first.  Rows longer than _VECTOR_ROW come from
    one generator reset to each replica's fresh cell: no OS entropy per row."""
    seed = _as_int(seed, "seed", 0, _SEED_END)
    replicas = _as_ints(replicas, "replica", 0, _REPLICA_END)
    phase, n = _as_int(phase, "phase tag", 0, 1 << 8), _as_int(n, "row length", 1)
    step = max(1, _PASS_BLOCKS // -(-n // 4))
    parts = np.split(replicas, range(step, replicas.size, step))
    if n <= _VECTOR_ROW:
        yield from (_philox_rows(seed, part, phase, n) for part in parts)
        return
    rng = make_rng(seed, 0, phase)
    state = rng.bit_generator.state  # a copy of the fresh cell (seed, 0, phase)
    for part in parts:
        rows = np.empty((part.size, n))
        for row, r in zip(rows, part.tolist()):
            state["state"]["key"][1] = r << 8 | phase
            rng.bit_generator.state = state
            rng.random(out=row)
        yield rows
