"""Deterministic per-purpose random streams.

Every randomized stage draws from a PCG64 generator whose seed is derived
by hashing (master_seed, purpose tags).  Streams for independent work units
(trees, folds, rows) are therefore independent of scheduling and worker
count: adding parallelism never changes results.
"""

from __future__ import annotations

import numpy as np


def derive_seed(master_seed: int, *tags: object) -> int:
    """Hash (master_seed, *tags) into a 64-bit stream seed."""
    import hashlib  # maps OpenSSL, about 3.6 MB that scoring a saved model never needs

    h = hashlib.sha256()
    h.update(str(int(master_seed)).encode())
    for tag in tags:
        h.update(b"\x1f")
        h.update(str(tag).encode())
    return int.from_bytes(h.digest()[:8], "little")


def derive_rng(master_seed: int, *tags: object) -> np.random.Generator:
    """PCG64 generator for the stream named by (master_seed, *tags)."""
    return np.random.Generator(np.random.PCG64(derive_seed(master_seed, *tags)))
