"""Deterministic random-number helpers.

Every stochastic choice in the package (interleaving jitter, random
page sets for ``move_pages`` microbenchmarks, workload generators) pulls
from a named stream derived from a single root seed, so whole
experiments replay bit-identically.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = ["make_rng", "DEFAULT_SEED"]

#: Root seed used when callers do not supply one.
DEFAULT_SEED: int = 0x5EED_CAFE


def make_rng(seed: Union[int, None] = None, *streams: Union[str, int]) -> np.random.Generator:
    """Create a generator for a named sub-stream of ``seed``.

    ``make_rng(seed, "fig7", thread_id)`` always yields the same
    sequence for the same arguments, and independent sequences for
    different stream names.
    """
    if seed is None:
        seed = DEFAULT_SEED
    keys = [seed] + [
        s if isinstance(s, int) else int.from_bytes(str(s).encode(), "little") % (2**63)
        for s in streams
    ]
    return np.random.default_rng(np.random.SeedSequence(keys))
