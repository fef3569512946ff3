"""Splittable counter-based random streams built on the splitmix64 mixer.

Every randomized routine in this package draws from a :class:`Stream`, a value object: a 64-bit key and a draw
counter.  The i-th draw of a stream is ``mix64(key + i*GAMMA)``, drawn in numpy blocks by :func:`mix64_array`, the
one array mixer; seed and child keys take its scalar form :func:`_mix64`.  :func:`shuffle_runs` is the one
Fisher-Yates pass (the C trial block mirrors both).  Child streams are derived from the parent key and an integer
path, never from the draw position, so any tree of substreams reproduces whatever the evaluation order or threads.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64_array(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a uint64 array, in place: ``z`` is overwritten and returned.

    Every caller passes a temporary of its own, so the mix holds one shifted copy at a time.
    """
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _mix64(z: int) -> int:
    """The finalizer of :func:`mix64_array` on one Python int below 2^64, for the key of one stream."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


class Stream:
    """A seedable, splittable source of 64-bit uniforms."""

    __slots__ = ("key", "_ctr")

    def __init__(self, key: int, counter: int = 0):
        self.key = key & _MASK
        self._ctr = counter

    @classmethod
    def from_seed(cls, seed: int) -> "Stream":
        return cls(_mix64((int(seed) ^ _MIX2) & _MASK))

    def child(self, *path: int) -> "Stream":
        """Derive an independent substream keyed by an integer path.

        Children depend only on the parent key and the path, not on how many draws the parent has produced."""
        key = self.key
        for element in map(int, path):
            if element < 0:
                raise ValueError("stream path elements must be nonnegative integers")
            key = _mix64(key ^ _mix64((element + _GAMMA) & _MASK))
        return Stream(key)

    def child_keys(self, count: int) -> np.ndarray:
        """Keys of ``child(0) .. child(count-1)`` as a uint64 array."""
        return child_key_grid(np.array([self.key], dtype=np.uint64), np.arange(count))[0]

    def permutation(self, n: int) -> tuple[int, ...]:
        """Uniformly random permutation of range(n): :func:`permutation_rows` of this stream's next n-1 draws."""
        perm = permutation_rows(np.array([self.key], dtype=np.uint64), n, self._ctr)[0]
        self._ctr += max(n - 1, 0)
        return tuple(perm.tolist())

    def __repr__(self) -> str:  # pragma: no cover
        return f"Stream(key={self.key:#018x}, counter={self._ctr})"


def child_key_grid(keys: np.ndarray, elements) -> np.ndarray:
    """Keys of ``Stream(k).child(e)`` for every key k in ``keys`` and element e, shape (len(keys), len(elements))."""
    elements = np.asarray(elements, dtype=np.int64)
    if (elements < 0).any():
        raise ValueError("stream path elements must be nonnegative integers")
    return mix64_array(keys[:, None] ^ mix64_array(elements.astype(np.uint64) + np.uint64(_GAMMA)))


def draw_matrix(keys: np.ndarray, count: int, start=0) -> np.ndarray:
    """Draws ``start+1 .. start+count`` for every key in ``keys``, shape (len(keys), count).

    Row ``i`` equals the ``count`` outputs of ``Stream(keys[i], start)``;
    ``start`` is one counter or one per key.
    """
    z = np.empty((len(keys), count), dtype=np.uint64)
    z[:] = np.arange(1, count + 1, dtype=np.uint64)
    z += np.asarray(start, dtype=np.uint64)[..., None]
    z *= np.uint64(_GAMMA)
    z += keys[:, None]
    return mix64_array(z)


def _below_array(u: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Uniform integers in [0, bound) from uint64 draws: the high 64 bits of ``u * bound``, for bounds below 2^32.

    The product is formed from the 32-bit limbs of u, so no partial product
    overflows 64 bits.
    """
    lo32, shift = np.uint64(0xFFFFFFFF), np.uint64(32)
    return (((u >> shift) * bound + (((u & lo32) * bound) >> shift)) >> shift).astype(np.intp)


def shuffle_runs(flat: np.ndarray, head: np.ndarray, size: np.ndarray, draws: np.ndarray) -> None:
    """Fisher-Yates shuffle every run ``flat[head:head+size]`` in place; the runs are disjoint, of 1 to 2^32-1 items.

    Step k swaps the run's position size-1-k with ``below(size-k)`` of ``draws[:, k]``, the run's row of draws; a
    run whose own steps are finished swaps its head with itself.  The swap indices are built once, in (steps, runs)
    order, so each step is one contiguous gather and one scatter.
    """
    left = np.maximum(size - np.arange(draws.shape[1])[:, None], 1)  # step k's bound, per run
    i, j = head + left - 1, head + _below_array(draws.T, left.astype(np.uint64))
    for put, take in zip(np.concatenate((i, j), axis=1), np.concatenate((j, i), axis=1)):
        flat[put] = flat[take]


def permutation_rows(keys: np.ndarray, n: int, start=0) -> np.ndarray:
    """Uniformly random permutations of range(n), one row per stream ``Stream(keys[i], start)``, for n < 2^32.

    One :func:`shuffle_runs` over whole rows: step ``i`` (n-1 down to 1) swaps position i with a uniform index in
    [0, i] from the row's next draw.
    """
    perm = np.tile(np.arange(n, dtype=np.int64), (len(keys), 1))
    shuffle_runs(perm.ravel(), np.arange(len(keys)) * n, np.full(len(keys), n), draw_matrix(keys, max(n - 1, 0), start))
    return perm
