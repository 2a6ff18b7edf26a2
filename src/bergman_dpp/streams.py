"""Reproducible random streams.

Counter-based Philox generators keyed by (seed, replica, phase).  Distinct
keys give statistically independent streams, so parallel replicas never
share state and any single replica can be replayed in isolation.  The key
layout below is part of the reproducibility contract: changing it changes
every sampled byte.

A Philox4x64-10 block (Salmon et al., SC 2011) is a pure function of (key,
counter).  Every sequential draw of `sampler` and `verify` reads `_cell`,
which loads a key into each thread's one kept generator: the bits of the
public `make_rng` without its OS-entropy SeedSequence.  A user resets the
cell after any user code it runs and holds no draw across a `yield`.
`_replica_uniforms` runs the rounds in uint64 numpy, in place, over every
(replica, block) pair of many replicas.  Block c enters the first round as
the counter [c, 0, 0, 0], whose products need no key word, so that round's
output is written in closed form from M0 c, taken once per block in ints,
and only the other nine rounds run over the arrays.
"""

from __future__ import annotations

import threading

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

# Philox4x64-10 multipliers and key bumps, as numpy's Philox uses them; the
# multipliers in the order of the words they take after an even number of
# rounds (row 0) and an odd one (row 1), whole and as 32-bit halves
_M0, _M1, _MASK = 0xD2E7470EE14C6C93, 0xCA5A826395121157, (1 << 64) - 1
_LO, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_MUL = np.array([_M0, _M1], dtype=np.uint64)[[[0, 1], [1, 0]]]
_MULS = np.stack((_MUL, _MUL >> _32, _MUL & _LO))[..., None, None]
_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
# rows of up to _VECTOR_ROW uniforms are vectorized (the widest row at which
# they beat the re-keyed loop in every interleaved timing pair, 5000
# replicas; at 72 the loop won some), about _PASS_BLOCKS Philox blocks a pass
_VECTOR_ROW, _PASS_BLOCKS = 64, 1 << 12


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


_local = threading.local()


def _cell(seed: int, replica: int, phase: int) -> np.random.Generator:
    """This thread's kept generator reset to the fresh make_rng(seed, replica,
    phase) cell (arguments checked by the caller): counter 0, buffers empty."""
    if not hasattr(_local, "cell"):
        rng = make_rng(0)
        _local.cell = rng, rng.bit_generator.state
    rng, state = _local.cell
    key = state["state"]["key"]
    key[0], key[1] = seed, replica << 8 | phase
    rng.bit_generator.state = state
    return rng


def _philox_rows(seed: int, replicas: np.ndarray, phase: int, n: int) -> np.ndarray:
    """make_rng(seed, r, phase).random(n) for each r in replicas, as rows."""
    blocks = -(-n // 4)
    # b and c hold the words [x0, x2] and [x1, x3] after an even number of
    # rounds, [x2, x0] and [x3, x1] after an odd one; the rounds run in place
    b, c, hi, mid, t, u = np.empty((6, 2, replicas.size, blocks), dtype=np.uint64)
    # full-size multipliers and key words: numpy multiplies and xors two
    # contiguous uint64 arrays faster than an array and a broadcast one
    mul, mul_hi, mul_lo = np.broadcast_to(_MULS, (3, 2, *b.shape)).copy()
    k1 = np.repeat((replicas.astype(np.uint64) << np.uint64(8) | np.uint64(phase))[:, None], blocks, 1)
    # numpy's Philox bumps its counter before each block: block c enters as
    # [c, 0, 0, 0], so round 1 leaves x0 = k0, x1 = 0, x2 = hi(M0 c) ^ k1
    # and x3 = lo(M0 c), with the product M0 c taken once per block in ints
    m0c = [_M0 * i for i in range(1, blocks + 1)]
    np.bitwise_xor(k1, np.array([m >> 64 for m in m0c], dtype=np.uint64), out=b[0])
    b[1] = seed
    c[0] = np.array([m & _MASK for m in m0c], dtype=np.uint64)
    c[1] = 0
    k0 = (seed + _BUMP[0]) & _MASK  # bumps as a masked int: a uint64 scalar would warn on wrapping
    k1 += np.uint64(_BUMP[1])
    for p in (1, 0) * 4 + (1,):
        # the 128-bit products mul[p] * b: low words in b, high words in hi,
        # from 32-bit halves as in Hacker's Delight's mulhu
        np.right_shift(b, _32, out=hi)
        np.bitwise_and(b, _LO, out=mid)
        b *= mul[p]
        np.multiply(mid, mul_lo[p], out=t)
        t >>= _32
        mid *= mul_hi[p]
        mid += t
        np.bitwise_and(mid, _LO, out=t)
        mid >>= _32
        t += np.multiply(hi, mul_lo[p], out=u)
        t >>= _32
        hi *= mul_hi[p]
        hi += mid
        hi += t
        # x0 = hi(x2) ^ x1 ^ k0 and x2 = hi(x0) ^ x3 ^ k1, in swapped order
        hi[0] ^= c[1]
        hi[1] ^= c[0]
        hi[1 - p] ^= np.uint64(k0)
        hi[p] ^= k1
        b, c, hi = hi, b, c
        k0 = (k0 + _BUMP[0]) & _MASK
        k1 += np.uint64(_BUMP[1])
    words = np.stack((b[0], c[0], b[1], c[1]), axis=-1).reshape(replicas.size, 4 * blocks)
    return np.right_shift(words, np.uint64(11), out=words)[:, :n] * 2.0**-53


def _replica_uniforms(seed: int, replicas, phase: int, n: int):
    """Yield make_rng(seed, r, phase).random(n) for r in replicas, the same
    bits, as (k, n) blocks in replica order (one (0, n) block for none);
    every argument is checked first.  Rows longer than _VECTOR_ROW come from
    the cell, reset to each replica's: no OS entropy per row."""
    seed = _as_int(seed, "seed", 0, _SEED_END)
    replicas = _as_ints(replicas, "replica", 0, _REPLICA_END)
    phase, n = _as_int(phase, "phase tag", 0, 1 << 8), _as_int(n, "row length", 1)
    step = max(1, _PASS_BLOCKS // -(-n // 4))
    parts = np.split(replicas, range(step, replicas.size, step))
    if n <= _VECTOR_ROW:
        yield from (_philox_rows(seed, part, phase, n) for part in parts)
        return
    for part in parts:
        rows = np.empty((part.size, n))
        for row, r in zip(rows, part.tolist()):
            _cell(seed, r, phase).random(out=row)
        yield rows
