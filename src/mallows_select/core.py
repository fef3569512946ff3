"""Ranking types, CSR row kernels, Kendall tau distances, restriction, and the Mallows normalizer.

Alternatives are 0-based integers and positions are 0-based throughout;
every external text format uses the same convention.  All types here are
immutable after construction and safe to share across threads.  Sets and
rankings are held as CSR arrays (row offsets plus flat items), and every
module counts their pairs by the row kernels here, :func:`_pair_counts`
and :func:`_discordances`, at a cost that grows with the sum of m^2 over
the rows, in buffers bounded by the one working budget, ``_BLOCK_BYTES``
(4 MiB), which the sampler's chunks and the experiment kernel's trial
blocks also read.  Tuple and ``Ranking`` views are lazy.

The pair count, the discordance count, the sampler's insertion pass
(``sampling._sample_rows``) and its restricted centers also have C forms, in ``_rows.c``, as have the
experiment kernel's block of trials (``experiments._cell_block``), drawn,
sampled, counted and estimated in one call, the windowed DP (``mle._dp_window_max``), the parser's byte pass
(``fileio._byte_pass``) and the writer's row formatter
(``fileio._format_rows``).  The first process that needs them builds
the file with the system ``cc`` into the package's ``__pycache__``,
removing the builds of other sources there, and every
process loads it through ``ctypes``.  Where there is no compiler, no
writable directory or no loadable library, the numpy forms run; both give
the same results, bit for bit.  The byte pass has no numpy form: without
it, the parser reads every file by its per-line checks.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import itertools
import math
import operator
import os
import shutil
import subprocess
from functools import cache, lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

# a larger n is refused before any n x n table is made; one int64 table at this n takes 512 MiB
_MAX_N = 8192

# the one working budget: trial blocks, sampler chunks and pair blocks hold about this many bytes, read at call time
_BLOCK_BYTES = 4 << 20

_ROWS_SOURCE = Path(__file__).with_name("_rows.c")
# no contraction of a multiply and an add into one rounding, so the C thresholds are the numpy ones; every routine
# starts a 64-byte line, so a kernel's speed does not shift with the code placed before it
_ROWS_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-falign-functions=64")


def _rows_library(directory: Path) -> ctypes.CDLL | None:
    """The C row kernels of ``_rows.c``, built into ``directory`` on first use; None where they cannot be loaded.

    The library is named by a hash of the source and the flags, so an unchanged source loads the file built before.
    A build is written under a name of its own process and moved into place, so processes that build at once each
    load a whole file.  Without a ``cc`` on the path, a writable ``directory`` or a loadable result, the numpy
    forms of the kernels run instead, with the same results.
    """
    try:
        source = _ROWS_SOURCE.read_bytes()
        tag = hashlib.sha256(source + " ".join(_ROWS_FLAGS).encode()).hexdigest()[:16]
        path = directory / f"_rows.{tag}.so"
        if not path.exists():
            compiler = shutil.which("cc")
            if compiler is None:
                return None
            directory.mkdir(exist_ok=True)
            partial = directory / f"_rows.{tag}.{os.getpid()}.tmp"
            try:
                command = [compiler, *_ROWS_FLAGS, "-o", partial, _ROWS_SOURCE]
                subprocess.run(command, capture_output=True, check=True, timeout=120)
                os.replace(partial, path)
            finally:
                partial.unlink(missing_ok=True)
            for stale in directory.glob("_rows.*.so"):  # the builds of other sources or flags
                if stale != path:
                    with contextlib.suppress(OSError):
                        stale.unlink()
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError):
        return None
    pointer, int64, uint64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64
    lib.center_rows.argtypes = [int64, int64, pointer, pointer, pointer, pointer, pointer, pointer]
    lib.center_rows.restype = ctypes.c_int
    lib.sample_rows.argtypes = [int64, pointer, pointer, pointer, pointer, pointer, uint64, pointer]
    lib.sample_rows.restype = None
    lib.pair_counts.argtypes = [int64, int64, int64, int64, pointer, pointer, pointer]
    lib.pair_counts.restype = ctypes.c_int
    lib.cell_block.argtypes = [int64, int64, int64, uint64, uint64, pointer, pointer, uint64, pointer, pointer,
                               pointer, pointer, pointer, pointer]
    lib.cell_block.restype = ctypes.c_int
    lib.bernoulli_rows.argtypes = [int64, int64, uint64, uint64, uint64, pointer, pointer, pointer]
    lib.bernoulli_rows.restype = uint64
    lib.window_dp.argtypes = [int64, int64, pointer, pointer, pointer, pointer, pointer, pointer, pointer]
    lib.window_dp.restype = int64
    lib.scan_rows.argtypes = [ctypes.c_char_p, int64, int64, int64, ctypes.c_int, int64, int64, pointer, pointer,
                              pointer, pointer]
    lib.scan_rows.restype = ctypes.c_int
    lib.row_inversions.argtypes = [int64, pointer, pointer, pointer, int64, pointer, pointer]
    lib.row_inversions.restype = ctypes.c_int
    lib.format_rows.argtypes = [int64, int64, pointer, pointer, pointer, pointer, pointer]
    lib.format_rows.restype = int64
    return lib


@cache
def _row_kernels() -> ctypes.CDLL | None:
    """The compiled row kernels, loaded by a process's first call; None when the numpy forms of the kernels run."""
    return _rows_library(Path(__file__).with_name("__pycache__"))


def _checked_csr(offsets: np.ndarray, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``offsets`` and ``items`` as contiguous int64 arrays, once each row lies within ``items``: what the C kernels read."""
    offsets, items = np.ascontiguousarray(offsets, np.int64), np.ascontiguousarray(items, np.int64)
    if len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != len(items) or (offsets[1:] < offsets[:-1]).any():
        raise ValueError("CSR offsets must run from 0 to the item count without falling")
    return offsets, items


class Ranking:
    """A total order over a set of distinct alternatives.

    ``items`` lists alternatives from first (top) to last; ``position_of``
    is the inverse map.  A complete ranking over n alternatives is a
    permutation of {0, ..., n-1}.
    """

    __slots__ = ("items", "_pos")

    def __init__(self, items: Iterable[int], *, validate: bool = True):
        if validate:
            try:
                items = tuple(operator.index(x) for x in items)
            except TypeError:
                raise ValueError("alternatives must be integers") from None
            seen = set()
            for x in items:
                if x < 0:
                    raise ValueError(f"alternatives must be nonnegative integers, got {x!r}")
                if x in seen:
                    raise ValueError(f"duplicate alternative {x} in ranking")
                seen.add(x)
        else:
            items = tuple(items)
        self.items = items
        self._pos: dict[int, int] | None = None

    @classmethod
    def identity(cls, n: int) -> "Ranking":
        return cls(range(n), validate=False)

    @property
    def positions(self) -> dict[int, int]:
        if self._pos is None:
            self._pos = {x: t for t, x in enumerate(self.items)}
        return self._pos

    def position_of(self, item: int) -> int:
        try:
            return self.positions[item]
        except KeyError:
            raise KeyError(f"alternative {item} not in ranking") from None

    def is_complete(self, n: int) -> bool:
        return len(self.items) == n and set(self.items) == set(range(n))

    def item_set(self) -> frozenset[int]:
        return frozenset(self.items)

    def to_line(self) -> str:
        return ",".join(str(x) for x in self.items)

    @classmethod
    def from_line(cls, line: str) -> "Ranking":
        text = line.strip()
        parts = text.split(",") if text else []
        if "" in parts:
            raise ValueError(f"empty alternative in ranking {text!r}")
        return cls(int(p) for p in parts)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[int]:
        return iter(self.items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Ranking) and self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)

    def __repr__(self) -> str:
        return f"Ranking({list(self.items)})"


def check_beta(beta: float) -> float:
    """``beta`` as a float, once it is a finite positive spread parameter."""
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"spread parameter beta must be positive and finite, got {beta}")
    return float(beta)


class MallowsParams:
    """Central ranking plus spread parameter of a Mallows distribution."""

    __slots__ = ("center", "beta")

    def __init__(self, center: Ranking, beta: float):
        beta = check_beta(beta)
        if not center.is_complete(len(center)):
            raise ValueError("central ranking must be a complete ranking over {0,...,n-1}")
        self.center = center
        self.beta = beta

    @property
    def n(self) -> int:
        return len(self.center)

    def __repr__(self) -> str:
        return f"MallowsParams(n={self.n}, beta={self.beta})"


class SelectionSequence:
    """An ordered list of alternative subsets on which samples are drawn.

    Every set must contain at least two alternatives; smaller sets carry
    no pairwise information and are rejected.  Held as read-only CSR
    arrays: set l is ``items[offsets[l]:offsets[l+1]]``, ascending.
    ``sets`` and iteration read a view of tuples built on first read.
    """

    __slots__ = ("n", "offsets", "items", "_sets")

    def __init__(self, sets: Iterable[Iterable[int]], n: int):
        if n > _MAX_N:
            raise ValueError(f"n={n} is over the limit of {_MAX_N} alternatives")
        canon = []
        for idx, s in enumerate(sets):
            try:
                s = tuple(sorted(map(operator.index, s)))
            except TypeError:
                raise ValueError(f"selection set {idx} holds a non-integer; alternatives must be integers") from None
            if len(s) < 2:
                raise ValueError(f"selection set {idx} has fewer than 2 alternatives")
            if len(set(s)) != len(s):
                raise ValueError(f"selection set {idx} contains duplicates")
            if s[0] < 0 or s[-1] >= n:
                raise ValueError(f"selection set {idx} contains an alternative outside [0, {n})")
            canon.append(s)
        self._set_arrays(n, *_csr_arrays(canon), tuple(canon))

    @classmethod
    def _from_arrays(cls, n: int, offsets: np.ndarray, items: np.ndarray) -> "SelectionSequence":
        """A selection over checked CSR arrays, each row ascending, with no per-set tuple: the unchecked path."""
        selection = cls.__new__(cls)
        selection._set_arrays(n, offsets, items, None)
        return selection

    def _set_arrays(self, n: int, offsets: np.ndarray, items: np.ndarray, sets: tuple | None) -> None:
        offsets.setflags(write=False)
        items.setflags(write=False)
        self.n, self.offsets, self.items, self._sets = n, offsets, items, sets

    @property
    def sets(self) -> tuple[tuple[int, ...], ...]:
        if self._sets is None:
            self._sets = tuple(_csr_rows(self.offsets, self.items))
        return self._sets

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.sets)

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, SelectionSequence) and self.n == other.n
        return same and np.array_equal(self.offsets, other.offsets) and np.array_equal(self.items, other.items)

    def __repr__(self) -> str:
        return f"SelectionSequence(r={len(self)}, n={self.n})"


def _csr_rows(offsets: np.ndarray, items: np.ndarray) -> list[tuple[int, ...]]:
    """The rows ``items[offsets[l]:offsets[l+1]]`` as tuples of Python ints."""
    flat, bounds = items.tolist(), offsets.tolist()
    return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


def _csr_arrays(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """``(offsets, items)`` with row l at ``items[offsets[l]:offsets[l+1]]``: the inverse of :func:`_csr_rows`."""
    sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    items = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=int(sizes.sum()))
    return np.concatenate(([0], np.cumsum(sizes))), items


def _triu_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``triu_indices(m, 1)`` as read-only arrays: the positions a < b of an m-set's pairs, in row-major order.

    They are held once built for m <= 64, about 0.7 MB for all such m, and built per call for larger sets.
    """
    return _held_triu_pairs(m) if m <= 64 else _held_triu_pairs.__wrapped__(m)


@lru_cache(maxsize=65)
def _held_triu_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    pairs = np.triu_indices(m, 1)
    for half in pairs:
        half.setflags(write=False)
    return pairs


def _pair_blocks(offsets: np.ndarray, items: np.ndarray, relabel: np.ndarray | None = None):
    """Yield ``(rows, first, second)`` for blocks of CSR rows of one size m >= 2.

    Row l holds ``items[offsets[l]:offsets[l+1]]``, or their ``relabel``
    entries.  ``first[k, q]`` and ``second[k, q]`` are row ``rows[k]``'s
    entries at positions a < b, pair q of ``triu(m)``: the work grows with
    the sum of m^2 over the rows, never with rows times n^2.  All blocks
    share two pair buffers of about ``_BLOCK_BYTES`` together (more only
    when one row needs more): a block is valid until the next one is
    drawn, and the caller may overwrite it.
    """
    sizes = np.diff(offsets)
    pairs = sizes * (sizes - 1) // 2
    cells = min(int(pairs.sum()), max(_BLOCK_BYTES // (2 * items.itemsize), int(pairs.max(initial=0))))
    buf = np.empty((2, cells), dtype=items.dtype if relabel is None else relabel.dtype)
    present = np.flatnonzero(np.bincount(sizes))
    for m in present[present >= 2].tolist():
        rows, (a, b) = np.flatnonzero(sizes == m), _triu_pairs(m)
        step = cells // len(a)
        for lo in range(0, len(rows), step):
            block = items[offsets[rows[lo : lo + step], None] + np.arange(m)]
            if relabel is not None:
                block = relabel[block]
            first, second = buf[:, : len(block) * len(a)].reshape(2, len(block), len(a))
            # mode="clip" writes straight into the buffers; the indices are in range
            yield rows[lo : lo + step], np.take(block, a, 1, first, "clip"), np.take(block, b, 1, second, "clip")


def _pair_counts(n: int, offsets: np.ndarray, items: np.ndarray, groups: int = 1) -> np.ndarray:
    """``counts[g, i, j]``: the rows of group g in which item i of [0, n) stands ahead of item j.

    The rows fall into ``groups`` runs of equal length, in row order: the
    trials of a kernel block, or one group for a single profile.  The C
    kernel counts row by row when it loaded; the numpy form counts the pairs
    of the blocks of :func:`_pair_blocks`.
    """
    counts = np.zeros(groups * n * n, dtype=np.int64)
    per = (len(offsets) - 1) // groups
    kernels = _row_kernels()
    if kernels is not None:
        offsets, items = _checked_csr(offsets, items)
        failed = kernels.pair_counts(
            n, len(offsets) - 1, groups, max(per, 1), offsets.ctypes.data, items.ctypes.data, counts.ctypes.data
        )
        if failed:
            raise IndexError(f"a row holds an item outside [0, {n}) or falls past group {groups - 1}")
        return counts.reshape(groups, n, n)
    for rows, first, second in _pair_blocks(offsets, items):
        if groups > 1:  # one pass over the pairs, which a single group does not need
            first += (rows // per * n)[:, None]
        first *= n
        first += second
        np.add.at(counts, first.ravel(), 1)  # unlike a bincount, no n * n array per block
    return counts.reshape(groups, n, n)


def _discordances(offsets: np.ndarray, items: np.ndarray, relabel: np.ndarray | None = None) -> np.ndarray:
    """Per CSR row, the pairs whose items (or ``relabel`` entries) stand in descending order: the row's inversions.

    The C kernel counts row by row, four items a pass, on a row's ``relabel`` entries copied once, when it loaded, and
    refuses an item outside ``relabel``; the numpy form counts the pairs of the blocks of :func:`_pair_blocks`.
    """
    out = np.zeros(len(offsets) - 1, dtype=np.int64)
    kernels = _row_kernels()
    if kernels is not None:
        offsets, items = _checked_csr(offsets, items)
        at = None if relabel is None else np.ascontiguousarray(relabel, np.int64)
        table, size = (None, 0) if at is None else (at.ctypes.data, len(at))
        longest = 0 if at is None else int(np.subtract(offsets[1:], offsets[:-1], out=out).max(initial=0))  # out as scratch
        work = np.empty(longest, np.int64)  # one relabeled row
        if kernels.row_inversions(len(out), offsets.ctypes.data, items.ctypes.data, table, size, work.ctypes.data, out.ctypes.data):
            raise IndexError(f"a row holds an item outside [0, {size}) of relabel")
        return out
    for rows, first, second in _pair_blocks(offsets, items, relabel):
        out[rows] = np.count_nonzero(first > second, axis=1)
    return out


class SampleProfile:
    """Incomplete rankings paired one-to-one with their selection sets.

    Held as a ``selection`` plus ``rank_items``, each row's ranking, top
    first: sample l is row ``offsets[l]:offsets[l+1]`` of ``set_items``
    and of ``rank_items``, where ``n``, ``offsets`` and ``set_items`` are
    the selection's own.  The parser and the sampler build the arrays
    directly, and the counting kernels read them.  ``rankings`` is a view
    that builds ``Ranking`` objects on first read only; a race between two
    threads on that first read builds two equal views.
    """

    __slots__ = ("selection", "n", "offsets", "set_items", "rank_items", "_rankings")

    def __init__(self, rankings: Sequence[Ranking], selection: SelectionSequence):
        rankings = tuple(rankings)
        if len(rankings) != len(selection):
            raise ValueError("profile length does not match selection length")
        for idx, (rk, s) in enumerate(zip(rankings, selection)):
            if tuple(sorted(rk.items)) != s:
                raise ValueError(f"ranking {idx} is not a permutation of its selection set")
        self._set_arrays(selection, _csr_arrays([rk.items for rk in rankings])[1], rankings)

    @classmethod
    def _from_arrays(cls, selection: SelectionSequence, rank_items: np.ndarray) -> "SampleProfile":
        """A profile over a selection and checked ranking rows on its offsets, with no per-sample object: the unchecked path."""
        profile = cls.__new__(cls)
        profile._set_arrays(selection, rank_items, None)
        return profile

    def _set_arrays(self, selection: SelectionSequence, rank_items: np.ndarray, rankings: tuple | None) -> None:
        rank_items.setflags(write=False)
        self.selection, self.rank_items, self._rankings = selection, rank_items, rankings
        self.n, self.offsets, self.set_items = selection.n, selection.offsets, selection.items

    @property
    def rankings(self) -> tuple[Ranking, ...]:
        if self._rankings is None:
            self._rankings = tuple(Ranking(row, validate=False) for row in _csr_rows(self.offsets, self.rank_items))
        return self._rankings

    def __len__(self) -> int:
        return len(self.selection)

    def __iter__(self) -> Iterator[Ranking]:
        return iter(self.rankings)


def _count_inversions(seq: list[int]) -> int:
    """Inversions of an integer sequence by merge sort, O(m log m)."""
    m = len(seq)
    if m < 2:
        return 0
    buf = list(seq)
    tmp = [0] * m
    count = 0
    width = 1
    while width < m:
        for lo in range(0, m, 2 * width):
            mid = min(lo + width, m)
            hi = min(lo + 2 * width, m)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if buf[i] <= buf[j]:
                    tmp[k] = buf[i]
                    i += 1
                else:
                    tmp[k] = buf[j]
                    count += mid - i
                    j += 1
                k += 1
            tmp[k:hi] = buf[i:mid] if i < mid else buf[j:hi]
            buf[lo:hi] = tmp[lo:hi]
        width *= 2
    return count


def kendall_tau(a: Ranking, b: Ranking) -> int:
    """Number of unordered pairs ranked oppositely by ``a`` and ``b``.

    Both rankings must cover exactly the same item set.  The distance
    depends only on relative order, so it applies unchanged to rankings
    over non-contiguous item sets.
    """
    if len(a) != len(b) or a.item_set() != b.item_set():
        raise ValueError("kendall_tau requires rankings over the same item set")
    pos = a.positions
    return _count_inversions([pos[x] for x in b.items])


def restrict(pi: Ranking, s: Iterable[int]) -> Ranking:
    """Ranking over ``s`` preserving the relative order induced by ``pi``."""
    keep = set(s)
    if not keep:
        raise ValueError("cannot restrict to an empty set")
    missing = keep - set(pi.items)
    if missing:
        raise ValueError(f"restriction set contains alternatives not in the ranking: {sorted(missing)}")
    return Ranking((x for x in pi.items if x in keep), validate=False)


def kendall_tau_incomplete(center: Ranking, sample: Ranking) -> int:
    """Pairs of the sample's item set ranked reversely by center and sample."""
    return kendall_tau(restrict(center, sample.items), sample)


@lru_cache(maxsize=4096)
def log_partition_function(m: int, beta: float) -> float:
    """log of the Mallows normalizer on m alternatives at spread beta."""
    if m < 1:
        raise ValueError("partition function requires at least one alternative")
    if not (beta > 0 and math.exp(-beta) < 1.0):  # e^{-beta} rounds to 1 for a tiny positive beta
        raise ValueError(f"spread parameter beta must be positive with e^-beta < 1, got {beta}")
    # product form: prod_{t=1..m} (1 - e^{-t beta}) / (1 - e^{-beta})
    log_denom = math.log1p(-math.exp(-beta))
    total = 0.0
    for t in range(1, m + 1):
        total += math.log1p(-math.exp(-t * beta)) - log_denom
    return total


def partition_function(m: int, beta: float) -> float:
    """Mallows normalizer Z(m, beta): sum over all m! permutations of e^{-beta d}.

    Computed in log space internally; equal to the closed product form
    prod_{t=1..m} (1 - e^{-t beta}) / (1 - e^{-beta}).
    """
    return math.exp(log_partition_function(m, float(beta)))


def pointwise_distance(a: Ranking, b: Ranking) -> int:
    """Max over alternatives of the absolute difference of their positions."""
    if len(a) != len(b) or a.item_set() != b.item_set():
        raise ValueError("pointwise_distance requires complete rankings over the same alternatives")
    pos_b = b.positions
    return max(abs(t - pos_b[x]) for t, x in enumerate(a.items)) if len(a) else 0
