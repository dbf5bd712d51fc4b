"""Seeded input generators shared by the DIS benchmarks.

Every generator takes an explicit ``numpy.random.Generator`` so the same
seed always produces the same input image — simulations are bit-for-bit
reproducible (DESIGN.md "Determinism").
"""

from __future__ import annotations

import numpy as np


def permutation_chain(rng: np.random.Generator, n: int) -> np.ndarray:
    """A pointer field forming one full cycle over ``0..n-1``.

    ``field[i]`` is the successor of ``i``; following the field from any
    start visits all *n* slots before repeating.  This is the worst case
    for caches (no reuse until the whole field has been traversed) and the
    canonical pointer-chasing input.
    """
    order = rng.permutation(n)
    field = np.empty(n, dtype=np.int64)
    field[order] = np.roll(order, -1)
    return field


def segmented_chain(rng: np.random.Generator, n: int, hot: int) -> np.ndarray:
    """A pointer field split into a *hot* and a *cold* segment.

    Slots ``0..hot-1`` form one cycle among themselves and ``hot..n-1``
    another, so a chase that starts hot stays hot (a cache-resident working
    set) while cold chases roam the large remainder (memory misses).  This
    mirrors the skewed reuse of real data-intensive applications: a hot
    index plus a long cold tail.
    """
    if not 0 < hot < n:
        raise ValueError("hot segment must be a strict, non-empty prefix")
    field = np.empty(n, dtype=np.int64)
    field[:hot] = permutation_chain(rng, hot)
    field[hot:] = permutation_chain(rng, n - hot) + hot
    return field


def mixed_starts(rng: np.random.Generator, count: int, n: int, hot: int,
                 hot_fraction: float) -> np.ndarray:
    """Chase start points: *hot_fraction* of them inside the hot segment."""
    hot_starts = rng.integers(0, hot, size=count, dtype=np.int64)
    cold_starts = rng.integers(hot, n, size=count, dtype=np.int64)
    take_hot = rng.random(count) < hot_fraction
    return np.where(take_hot, hot_starts, cold_starts).astype(np.int64)


def random_bytes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform random byte field (Field stressmark input)."""
    return rng.integers(0, 256, size=n, dtype=np.uint8)


def random_image(rng: np.random.Generator, rows: int, cols: int,
                 levels: int) -> np.ndarray:
    """Random image with pixel values in ``[0, levels)`` (Neighborhood)."""
    return rng.integers(0, levels, size=(rows, cols), dtype=np.int64)


def random_distance_matrix(rng: np.random.Generator, n: int,
                           density: float = 0.25) -> np.ndarray:
    """Weighted adjacency matrix for Transitive Closure / shortest paths.

    Missing edges get the large-but-addable sentinel ``1 << 20``
    (additions never overflow 64 bits).  Diagonal is zero.
    """
    weights = rng.integers(1, 100, size=(n, n), dtype=np.int64)
    mask = rng.random((n, n)) < density
    mat = np.where(mask, weights, np.int64(1 << 20))
    np.fill_diagonal(mat, 0)
    return mat


def random_records(rng: np.random.Generator, n: int,
                   key_space: int) -> tuple[np.ndarray, np.ndarray]:
    """(keys, values) arrays for the DM benchmark."""
    keys = rng.integers(0, key_space, size=n, dtype=np.int64)
    values = rng.integers(1, 1000, size=n, dtype=np.int64)
    return keys, values


def build_hash_chains(keys: np.ndarray, buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """Chained hash index over *keys*: (head[buckets], next[n]).

    ``head[h]`` is the index of the first record in bucket *h* (-1 if
    empty); ``next[i]`` links records within a bucket (-1 terminates).
    Records are inserted in order, newest first — the classic layout whose
    traversal order is uncorrelated with memory order.
    """
    n = len(keys)
    head = np.full(buckets, -1, dtype=np.int64)
    nxt = np.full(n, -1, dtype=np.int64)
    mask = buckets - 1
    for i in range(n):
        h = int(keys[i]) & mask
        nxt[i] = head[h]
        head[h] = i
    return head, nxt


def random_spheres(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    """Structure-of-arrays sphere set for the RayTrace benchmark, centred
    within 100 units of the axis and 50-200 units in front."""
    extent = 100.0
    return {
        "cx": rng.uniform(-extent, extent, size=n),
        "cy": rng.uniform(-extent, extent, size=n),
        "cz": rng.uniform(extent * 0.5, extent * 2.0, size=n),  # in front
        "r": rng.uniform(0.5, 4.0, size=n),
    }


def random_rays(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    """Normalised ray directions, mostly towards +z."""
    dx = rng.uniform(-0.4, 0.4, size=n)
    dy = rng.uniform(-0.4, 0.4, size=n)
    dz = np.ones(n)
    norm = np.sqrt(dx * dx + dy * dy + dz * dz)
    return {"dx": dx / norm, "dy": dy / norm, "dz": dz / norm}
