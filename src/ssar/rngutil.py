"""Seeding helpers: counter-based generators with hash-derived per-trial streams."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

__all__ = ["make_rng", "derive_seed"]


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for a single run.

    This is the one check of a seed: every seeded entry point makes its
    generator here, so a negative seed raises :class:`InvalidInputError`.
    """
    seed = int(seed)
    if seed < 0:
        raise InvalidInputError(f"seed must be a nonnegative integer, got {seed}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def derive_seed(base_seed: int, *keys: int) -> int:
    """Mix ``base_seed`` with integer keys into an independent 64-bit stream seed.

    Deterministic, collision-resistant across distinct key tuples; used to give
    each trial (and each retry attempt) its own reproducible stream.
    """
    seq = np.random.SeedSequence(entropy=int(base_seed), spawn_key=tuple(int(k) for k in keys))
    words = seq.generate_state(2, dtype=np.uint32)
    return int(words[0]) | (int(words[1]) << 32)
