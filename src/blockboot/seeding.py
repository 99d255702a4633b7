"""Deterministic seed derivation for reproducible parallel simulation.

All randomness in this package flows from 64-bit master seeds through
:func:`substream`, which mixes the master seed with a tuple of integer keys.
Streams derived from distinct key tuples are statistically independent, and
the derivation depends only on the key values, never on execution order or
worker count.  Normal variates are produced by PCG64 generators through
numpy's ziggurat sampler; identical seeds give bit-identical sequences on the
same build.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def _entropy(master_seed: int, keys: tuple) -> tuple[int, ...]:
    # SeedSequence zero-pads its entropy, which would make (s,) and (s, 0)
    # collide; a trailing nonzero length tag keeps distinct key tuples apart.
    words = tuple(int(k) & _MASK64 for k in (master_seed, *keys))
    return words + (len(keys) + 1,)


def substream(master_seed: int, *keys: int) -> np.random.Generator:
    """Generator keyed by ``(master_seed, *keys)``.

    Parameters
    ----------
    master_seed : int
        Top-level seed (negative values are mapped onto 64 bits).
    *keys : int
        Integer keys identifying the substream, e.g. a replication index.

    Returns
    -------
    numpy.random.Generator
        PCG64-backed generator, independent of generators derived with any
        other key tuple.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_entropy(master_seed, keys))))


def subseed(master_seed: int, *keys: int) -> int:
    """Derive a 64-bit sub-seed by the same fixed mixing as :func:`substream`."""
    ss = np.random.SeedSequence(_entropy(master_seed, keys))
    return int(ss.generate_state(1, np.uint64)[0])
