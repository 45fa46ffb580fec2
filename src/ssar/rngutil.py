"""Seeding helpers: counter-based generators with hash-derived per-trial streams."""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

__all__ = ["make_rng", "derive_seed"]


def _sequence(seed: int, *keys: int) -> np.random.SeedSequence:
    """The one check of a seed and its keys: a negative one raises :class:`InvalidInputError`."""
    for name, value in (("seed", seed), *(("key", k) for k in keys)):
        if int(value) < 0:
            raise InvalidInputError(f"{name} must be a nonnegative integer, got {int(value)}")
    return np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in keys))


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for a single run.

    Every seeded entry point makes its generator here, so a negative seed
    raises :class:`InvalidInputError`.
    """
    return np.random.Generator(np.random.Philox(_sequence(seed)))


def derive_seed(base_seed: int, *keys: int) -> int:
    """Mix ``base_seed`` with integer keys into an independent 64-bit stream seed.

    Deterministic, collision-resistant across distinct key tuples; used to give
    each trial (and each retry attempt) its own reproducible stream.  A
    negative seed or key raises :class:`InvalidInputError`, as in :func:`make_rng`.
    """
    words = _sequence(base_seed, *keys).generate_state(2, dtype=np.uint32)
    return int(words[0]) | (int(words[1]) << 32)
