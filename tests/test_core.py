import itertools
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import below, needs_cc, pair_scan_kendall, row_kernel_paths
from mallows_select import core, sampling
from mallows_select.core import (
    MallowsParams,
    Ranking,
    SampleProfile,
    SelectionSequence,
    kendall_tau,
    kendall_tau_incomplete,
    partition_function,
    pointwise_distance,
    restrict,
)
from mallows_select.rng import Stream
from mallows_select.sampling import sample_mallows


def R(*items):
    return Ranking(items)


class TestRanking:
    def test_positions_invert_items(self):
        rk = R(4, 2, 0, 3, 1)
        for t, x in enumerate(rk.items):
            assert rk.position_of(x) == t

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Ranking([0, 1, 1])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Ranking([0, -1])

    def test_line_round_trip(self):
        rk = R(4, 2, 0, 3, 1)
        assert Ranking.from_line(rk.to_line()) == rk
        assert rk.to_line() == "4,2,0,3,1"

    def test_completeness(self):
        assert R(2, 0, 1).is_complete(3)
        assert not R(2, 0, 3).is_complete(3)
        assert not R(2, 0, 3).is_complete(4)

    def test_unknown_item_lookup(self):
        with pytest.raises(KeyError):
            R(0, 1).position_of(5)


class TestKendallTau:
    def test_identity(self):
        assert kendall_tau(R(0, 1, 2), R(0, 1, 2)) == 0

    def test_full_reversal_is_max(self):
        assert kendall_tau(R(0, 1, 2), R(2, 1, 0)) == 3

    def test_two_disjoint_swaps(self):
        # pairs {0,1} and {2,3} are inverted, the other four agree
        assert kendall_tau(R(0, 1, 2, 3), R(1, 0, 3, 2)) == 2

    def test_item_set_mismatch(self):
        with pytest.raises(ValueError):
            kendall_tau(R(0, 1), R(0, 2))

    @settings(max_examples=200, deadline=None)
    @given(st.permutations(list(range(7))), st.permutations(list(range(7))))
    def test_matches_pair_scan(self, a, b):
        ra, rb = Ranking(a), Ranking(b)
        assert kendall_tau(ra, rb) == pair_scan_kendall(ra, rb)

    def test_non_contiguous_items_use_relative_order(self):
        a = Ranking([10, 3, 7])
        b = Ranking([7, 3, 10])
        assert kendall_tau(a, b) == 3

    def test_metric_properties_random_triples(self):
        stream = Stream.from_seed(2024)
        for _ in range(200):
            m = 2 + below(stream, 6)
            a = Ranking(stream.permutation(m))
            b = Ranking(stream.permutation(m))
            c = Ranking(stream.permutation(m))
            dab, dba = kendall_tau(a, b), kendall_tau(b, a)
            assert dab == dba >= 0
            assert (dab == 0) == (a == b)
            assert dab <= kendall_tau(a, c) + kendall_tau(c, b)
            assert dab <= m * (m - 1) // 2

    def test_max_distance_iff_reversal(self):
        a = R(0, 1, 2, 3)
        for perm in itertools.permutations(range(4)):
            d = kendall_tau(a, Ranking(perm))
            assert (d == 6) == (perm == (3, 2, 1, 0))


class TestRestrict:
    def test_drop_one_item(self):
        assert restrict(R(3, 1, 0, 2), {0, 1, 2}) == R(1, 0, 2)

    def test_full_set_is_identity(self):
        pi = R(0, 1, 2)
        assert restrict(pi, {0, 1, 2}) == pi

    def test_manual_order_extraction(self):
        assert restrict(R(4, 2, 0, 3, 1), {1, 3}) == R(3, 1)

    def test_unknown_item(self):
        with pytest.raises(ValueError):
            restrict(R(0, 1), {0, 5})

    def test_restriction_to_own_items_random(self):
        stream = Stream.from_seed(5)
        for _ in range(20):
            pi = Ranking(stream.permutation(8))
            assert restrict(pi, pi.items) == pi


class TestKendallTauIncomplete:
    def test_single_inverted_pair(self):
        assert kendall_tau_incomplete(R(0, 1, 2, 3), R(3, 0)) == 1

    def test_concordant_pair(self):
        assert kendall_tau_incomplete(R(0, 1, 2, 3), R(1, 3)) == 0

    def test_three_item_reversal(self):
        assert kendall_tau_incomplete(R(0, 1, 2, 3, 4), R(4, 2, 0)) == 3

    def test_unknown_item(self):
        with pytest.raises(ValueError):
            kendall_tau_incomplete(R(0, 1, 2), R(5, 0))

    def test_zero_on_restrictions(self):
        stream = Stream.from_seed(77)
        center = Ranking(stream.permutation(9))
        for _ in range(25):
            size = 2 + below(stream, 8)
            s = set(stream.permutation(9)[:size])
            assert kendall_tau_incomplete(center, restrict(center, s)) == 0


class TestPartitionFunction:
    def test_single_item(self):
        assert partition_function(1, 0.7) == pytest.approx(1.0, abs=0)

    def test_two_items_log_two(self):
        assert partition_function(2, math.log(2)) == pytest.approx(1.5, rel=1e-15)

    def test_matches_brute_force_sum(self):
        for m in range(1, 8):
            for beta in (0.3, 1.0, 2.0, 5.0):
                ident = Ranking(range(m))
                brute = sum(
                    math.exp(-beta * kendall_tau(ident, Ranking(p)))
                    for p in itertools.permutations(range(m))
                )
                assert partition_function(m, beta) == pytest.approx(brute, rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            partition_function(0, 1.0)
        with pytest.raises(ValueError):
            partition_function(3, 0.0)


class TestPointwiseDistance:
    def test_identity(self):
        assert pointwise_distance(R(2, 0, 1), R(2, 0, 1)) == 0

    def test_adjacent_swaps(self):
        assert pointwise_distance(R(0, 1, 2, 3), R(1, 0, 3, 2)) == 1

    def test_rotation_moves_last_item_far(self):
        assert pointwise_distance(R(0, 1, 2, 3), R(3, 0, 1, 2)) == 3

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            pointwise_distance(R(0, 1), R(0, 1, 2))


class TestContainers:
    def test_mallows_params_validation(self):
        with pytest.raises(ValueError):
            MallowsParams(R(0, 1, 2), 0.0)
        with pytest.raises(ValueError):
            MallowsParams(R(0, 2), 1.0)  # not complete over {0,1}

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_beta_refused(self, beta):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            MallowsParams(R(0, 1, 2), beta)
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            sample_mallows(R(0, 1, 2), beta, Stream.from_seed(0))

    # the messages word for word, each at a set index other than 0
    SELECTION_ERRORS = [
        ([(0, 1), (2,)], 3, "selection set 1 has fewer than 2 alternatives"),
        ([(0, 1), (1, 2), (0, 2, 0)], 3, "selection set 2 contains duplicates"),
        ([(0, 1), (0, 5)], 3, "selection set 1 contains an alternative outside [0, 3)"),
        ([(0, 1), (1, 2), (-1, 2)], 3, "selection set 2 contains an alternative outside [0, 3)"),
        ([(0, 1), (0, 2**70)], 3, "selection set 1 contains an alternative outside [0, 3)"),
        # items are coerced as Ranking coerces them: a float is never truncated into a duplicate or a wrong item
        ([(0, 1), (0, 0.5, 1)], 3, "selection set 1 holds a non-integer; alternatives must be integers"),
        ([(0, 2), (1, 2), (0, 1.5)], 3, "selection set 2 holds a non-integer; alternatives must be integers"),
        ([(0, 1), ("a", "b")], 3, "selection set 1 holds a non-integer; alternatives must be integers"),
        # n is bounded as in SelectionSpec and the file header, even with no set to hold it: counts take n x n
        ([], 10**6, "n=1000000 is over the limit of 8192 alternatives"),
        ([(0, 1)], 8193, "n=8193 is over the limit of 8192 alternatives"),
    ]

    def test_selection_rejects_small_sets(self):
        for sets, n, message in self.SELECTION_ERRORS:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                SelectionSequence(sets, n=n)
        assert SelectionSequence([(0, 8191)], 8192).n == 8192

    def test_selection_canonicalizes_order(self):
        sel = SelectionSequence([(2, 0), (1, 2)], n=3)
        assert sel.sets == ((0, 2), (1, 2))

    PROFILE_ERRORS = [
        ([], "profile length does not match selection length"),
        ([(1, 0), (2, 1), (0, 2)], "profile length does not match selection length"),
        ([(1, 0), (2, 0)], "ranking 1 is not a permutation of its selection set"),
        ([(1, 0), (2, 1, 0)], "ranking 1 is not a permutation of its selection set"),  # the wrong length
        ([(1, 0), (2,)], "ranking 1 is not a permutation of its selection set"),
    ]

    def test_profile_validates_membership(self):
        sel = SelectionSequence([(0, 1), (1, 2)], n=3)
        assert SampleProfile([R(1, 0), R(2, 1)], sel).rankings == (R(1, 0), R(2, 1))
        for rankings, message in self.PROFILE_ERRORS:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                SampleProfile([Ranking(rk) for rk in rankings], sel)


class TestTriuPairs:
    @pytest.mark.parametrize("m", [0, 1, 2, 5, 64, 65, 300])
    def test_read_only_upper_triangle(self, m):
        pairs = core._triu_pairs(m)
        assert all(np.array_equal(got, want) for got, want in zip(pairs, np.triu_indices(m, 1)))
        for half in pairs:
            with pytest.raises(ValueError, match="read-only"):
                half[:1] = 0

    def test_only_small_sets_are_held(self):
        # a held pair array of the n limit, 8192, would take about 537 MB
        assert core._triu_pairs(64)[0] is core._triu_pairs(64)[0]
        assert core._triu_pairs(65)[0] is not core._triu_pairs(65)[0]


UBSAN_SCRIPT = """
import sys
from pathlib import Path

import numpy as np

from mallows_select import core, experiments as xp, fileio
from mallows_select.core import MallowsParams, Ranking
from mallows_select.estimators import accumulate_counts, log_likelihood
from mallows_select.mle import _dp_window_max
from mallows_select.rng import Stream
from mallows_select.sampling import SelectionSpec, generate_selection, sample_profile

core._ROWS_FLAGS = (*core._ROWS_FLAGS, "-fsanitize=undefined", "-fno-sanitize-recover=all")
sanitized = core._rows_library(Path(sys.argv[1]))
assert sanitized is not None
cells = [
    dict(n=20, beta=2.0, p=1 / 6, r=49, selection_kind="mixed_pfrequent"),
    dict(n=20, beta=2.0, p=1 / 6, r=64, selection_kind="bernoulli_random"),
    dict(n=3, beta=1.0, p=0.04, r=20, selection_kind="bernoulli_random"),
    dict(n=8, beta=1.0, p=0.5, r=5, selection_kind="adversarial_matching", center=Ranking.identity(8)),
    dict(n=6, beta=2.0, p=0.5, r=6, selection_kind="mixed_pfrequent", estimator="ltn"),
    dict(n=20, beta=2.0, p=1.0, r=2, selection_kind="complete", center=Ranking.identity(20)),
    dict(n=2, beta=1.0, p=1.0, r=2, selection_kind="complete"),
    # both ends of the insertion search: draws spread over every threshold of 64 items, and all below the first
    dict(n=64, beta=0.05, p=1.0, r=3, selection_kind="complete"),
    dict(n=20, beta=40.0, p=1 / 6, r=64, selection_kind="bernoulli_random"),
]
selection = generate_selection(SelectionSpec("bernoulli_random", 30, 0.25), 200, Stream.from_seed(5))
params = MallowsParams(Ranking(Stream.from_seed(6).permutation(30)), 0.7)
rng = np.random.default_rng(8)
# every radius below n, on wins of few values (many ties) and on all-zero wins
windows = [(wins, radius) for n in (1, 2, 9, 14) for wins in (rng.integers(0, 3, size=(n, n)), np.zeros((n, n), int))
           for radius in range(n)]
# a files_io-sized profile file (n=100, r=2000, sets of about 50), and a body for each way the byte pass declines
big = sample_profile(MallowsParams(Ranking.identity(100), 1.0),
                     generate_selection(SelectionSpec("bernoulli_random", 100, 0.25), 2000, Stream.from_seed(9)),
                     Stream.from_seed(10))
# the two bodies without a final newline, which _byte_pass declines before any pass, are also read by scan_rows itself
unended = [b"S:0,1|R:1,0", b"S:0,1|R:1,0\\n12,3"]
bodies = [(fileio.format_profile(big).partition("\\n")[2].encode(), 100)] + [(body.encode(), 4) for body in (
    "S:0000000001,2|R:2,0000000001\\n", "S:000000001,3|R:3,000000001\\n", "S:0,4|R:4,0\\n", "S:1,1|R:1,1\\n",
    "S:3,0,2|R:2,3,0\\n", "S:0,1,2|R:1,0\\n", "S:0,1|R:1,0,2\\n", "S:0,1|R:1,\u00e90\\n", "S:0,1|R:1,0\\nS:2,3\\n",
    "S:2,3\\nS:0,1|R:1,0\\n", "S:0,1,3\\nS:3,2\\n", "", "S:,0,1\\n", "S:0,1|R:1,0,\\n", "S:0\\n",
)] + [(body, 4) for body in unended]
one_row = generate_selection(SelectionSpec("bernoulli_random", 101, 0.25), 1, Stream.from_seed(12))
bernoulli = [(30, 0.25, 200, 0), (3, 0.04, 60, 2**40 + 7), (2, 1.0, 3, 0)]


def outputs():
    rows = [xp._cell(Stream.from_seed(3).child(case["r"]), range(40), **case) for case in cells]
    rows.append(xp._cell(Stream.from_seed(3), range(17, 40), **cells[1]))  # trials 17.., the kernel's first + t
    # Bernoulli selections, from a used stream and into the rejection tail of n = 3, q = 0.2
    drawn = []
    for n, p, r, start in bernoulli:
        stream = Stream(13, start)
        sets = generate_selection(SelectionSpec("bernoulli_random", n, p), r, stream)
        drawn += [sets.offsets, sets.items, np.array([stream._ctr])]
    profile = sample_profile(params, selection, Stream.from_seed(7))
    # restricted centers over two bitmap words: n = 100, the second word partly used
    wide = sample_profile(MallowsParams(Ranking(Stream.from_seed(14).permutation(100)), 1.0), big.selection, Stream.from_seed(15))
    dp = [np.array([*seq, total]) for seq, total in (_dp_window_max(wins, radius) for wins, radius in windows)]
    likelihood = np.array([log_likelihood(Ranking(Stream.from_seed(11).permutation(100)), big, 0.7)])
    written = [np.frombuffer(text.encode(), np.uint8) for text in (fileio.format_profile(big, beta=1.0), fileio.format_selection(one_row))]
    return [a for cell in rows for a in cell] + drawn + [profile.rank_items, accumulate_counts(profile).wins, wide.rank_items] + dp + [likelihood] + written


core._row_kernels = lambda: sanitized
compiled = outputs()
reads = [fileio._byte_pass(body, n) for body, n in bodies]
# scan_rows' own checks of the end: a text left unread, as no line was counted, and a last byte that is not a newline
stamp, out = np.zeros(4, np.int64), np.empty(6, np.int64)
for body in unended:
    args = (4, 1, 2, 2, stamp.ctypes.data, out.ctypes.data, out[2:].ctypes.data, out[4:].ctypes.data)
    assert sanitized.scan_rows(body, len(body), body.count(b"\\n"), *args) == 1
core._row_kernels = lambda: None
assert all(np.array_equal(a, b) for a, b in zip(compiled, outputs(), strict=True))
# the written file and the valid bodies are read, each as the per-line checks read it behind a header; the rest declined
assert [i for i, read in enumerate(reads) if read is not None] == [0, 2, 5, 11, 12]
for (body, n), read in zip(bodies, reads):
    if read is not None:
        _, selection, rank_items, selection_only = fileio._scan(f"{n},{len(read[0]) - 1}\\n{body.decode()}")
        assert (read[2] is None) == selection_only
        assert all(np.array_equal(a, b) for a, b in zip(read, (selection.offsets, selection.items, rank_items)) if a is not None)
print("equal")
"""


@st.composite
def grouped_rows(draw):
    """``(n, groups, offsets, restricted)``: CSR rows of restricted centers over n items, in equal runs per group."""
    n, groups = draw(st.integers(2, 60)), draw(st.integers(2, 6))
    sizes = draw(st.lists(st.integers(1, n), min_size=1, max_size=40)) * groups
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    rng.shuffle(sizes)
    restricted = np.concatenate([rng.permutation(n)[:m] for m in sizes])
    return n, groups, np.concatenate(([0], np.cumsum(sizes))), restricted


@st.composite
def ragged_rows(draw):
    """``(offsets, items, relabel)``: CSR rows of 0 to 40 items below n, none at all among them, and a relabel table
    of distinct or tied entries, or None."""
    n = draw(st.integers(1, 60))
    sizes = draw(st.lists(st.integers(0, 40), max_size=30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    relabel = draw(st.sampled_from([None, "permutation", "ties"]))
    if relabel is not None:
        relabel = rng.permutation(n) if relabel == "permutation" else rng.integers(-3, 3, size=n)
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))), rng.integers(0, n, size=sum(sizes)), relabel


class TestCompiledRowKernels:
    """The C row kernels of ``_rows.c`` against their numpy forms, and how ``core`` builds and loads them."""

    def test_they_load_where_a_compiler_is_found(self):
        assert (core._row_kernels() is not None) == (shutil.which("cc") is not None)

    @needs_cc
    @settings(max_examples=300, deadline=None)
    @given(
        rows=grouped_rows(),
        beta=st.floats(0.05, 40.0),
        seed=st.integers(0, 2**32),
        start=st.integers(0, 10**6),
    )
    def test_samples_and_counts_equal_the_numpy_forms(self, rows, beta, seed, start):
        n, groups, offsets, restricted = rows
        keys = Stream.from_seed(seed).child_keys(len(offsets) - 1)
        outputs = []
        with pytest.MonkeyPatch.context() as patch:
            for _ in row_kernel_paths(patch):
                samples = sampling._sample_rows(keys, offsets, restricted, beta, start)
                outputs.append((samples, core._pair_counts(n, offsets, samples, groups)))
        (native, native_counts), (numpy, numpy_counts) = outputs
        assert native.dtype == numpy.dtype and np.array_equal(native, numpy)
        assert native_counts.dtype == numpy_counts.dtype and np.array_equal(native_counts, numpy_counts)

    @needs_cc
    def test_rows_outside_the_counts_are_refused(self):
        # the compiled kernel checks each row before it counts it, where a write past the counts would corrupt memory
        offsets = np.array([0, 2, 4, 6])
        for items, groups in (([0, 1, 1, 3, 2, 0], 1), ([0, 1, -1, 2, 2, 0], 1), ([0, 1, 1, 2, 2, 0], 2)):
            with pytest.raises(IndexError, match="outside"):
                core._pair_counts(3, offsets, np.array(items), groups)

    @settings(max_examples=300, deadline=None)
    @given(ragged_rows())
    def test_discordances_equal_the_numpy_form(self, rows):
        offsets, items, relabel = rows
        with pytest.MonkeyPatch.context() as patch:
            native, *numpy = (core._discordances(offsets, items, relabel) for _ in row_kernel_paths(patch, split=True))
        for other in numpy:
            assert native.dtype == other.dtype == np.int64 and np.array_equal(native, other)

    @needs_cc
    def test_discordances_refuse_an_item_outside_relabel(self):
        offsets, relabel = np.array([0, 2, 4]), np.arange(3)[::-1]
        assert core._discordances(offsets, np.array([0, 1, 2, 0]), relabel).tolist() == [1, 0]
        for items in ([0, 1, 3, 0], [0, 1, -1, 0]):
            with pytest.raises(IndexError, match="outside"):
                core._discordances(offsets, np.array(items), relabel)

    @needs_cc
    def test_compiled_discordances_hold_nothing_beyond_their_output(self):
        rng = np.random.default_rng(4)
        offsets, items = np.arange(2001, dtype=np.int64) * 50, rng.integers(0, 100, size=100_000)
        relabel = rng.permutation(100)
        core._discordances(offsets, items, relabel)  # ctypes' own first-call objects are made before the measure
        tracemalloc.start()
        try:
            out = core._discordances(offsets, items, relabel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beyond the output, the offsets check's one byte a row
        assert peak <= out.nbytes + len(out) + 4096, peak

    def test_without_a_compiler_the_numpy_forms_run(self, monkeypatch, tmp_path):
        monkeypatch.setattr(core.shutil, "which", lambda name: None)
        assert core._rows_library(tmp_path / "cache") is None
        assert list(tmp_path.iterdir()) == []

    @needs_cc
    def test_an_unchanged_source_loads_the_file_built_before(self, monkeypatch, tmp_path):
        builds = []
        run = subprocess.run
        monkeypatch.setattr(core.subprocess, "run", lambda command, **kw: builds.append(command) or run(command, **kw))
        (tmp_path / "_rows.0123456789abcdef.so").write_bytes(b"the build of an earlier source")
        assert core._rows_library(tmp_path) is not None and core._rows_library(tmp_path) is not None
        assert len(builds) == 1
        # the stale build is gone and no partial build is left behind
        (library,) = tmp_path.iterdir()
        assert library.suffix == ".so" and library.name != "_rows.0123456789abcdef.so"

    @needs_cc
    def test_a_stale_build_that_cannot_be_removed_is_left(self, tmp_path):
        (tmp_path / "_rows.0123456789abcdef.so").mkdir()  # unlink fails on a directory
        assert core._rows_library(tmp_path) is not None
        assert len(list(tmp_path.iterdir())) == 2

    @needs_cc
    def test_the_kernels_run_clean_under_the_undefined_behaviour_sanitizer(self, tmp_path):
        # a build that aborts at the first undefined operation runs figure cells (an ltn cell, a planted cell whose two
        # complete sets leave many scores tied, an n = 2 cell, and cells at beta = 0.05 and 40, the two ends of the
        # insertion search, among them), a sampled profile and its count, a profile sampled at n = 100, whose
        # restricted centers take two bitmap words, the windowed DP at every radius below
        # n = 1, 2, 9 and 14, a likelihood, and the writer on a files_io-sized profile and on a one-row selection, each
        # equal to the numpy forms' result; the byte pass of that profile's file and of a body for each way it declines,
        # each read equal to the per-line reading of its text; and scan_rows itself on the two bodies without a final
        # newline.  One cell runs trials 17 to 39, so the kernel derives keys from a first trial index above 0, and
        # generate_selection draws Bernoulli sets from a used stream and in the rejection tail of n = 3, p = 0.04
        src = str(Path(core.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-c", UBSAN_SCRIPT, str(tmp_path)], capture_output=True, text=True, env=env, timeout=300
        )
        assert (result.returncode, result.stdout) == (0, "equal\n"), result.stderr
        assert [path.suffix for path in tmp_path.iterdir()] == [".so"]

    @needs_cc
    def test_a_directory_that_cannot_be_made_or_a_bad_library_leaves_the_numpy_forms(self, tmp_path):
        (tmp_path / "taken").write_text("")
        assert core._rows_library(tmp_path / "taken") is None
        assert core._rows_library(tmp_path / "built") is not None
        (library,) = (tmp_path / "built").iterdir()
        (tmp_path / "bad").mkdir()  # a loaded library is never written over: its pages are mapped
        (tmp_path / "bad" / library.name).write_bytes(b"not a shared object")
        assert core._rows_library(tmp_path / "bad") is None

    @needs_cc
    def test_the_source_compiles_without_warnings(self, tmp_path):
        command = ["cc", *core._ROWS_FLAGS, "-Wall", "-Wextra", "-Werror", "-o", tmp_path / "r.so", core._ROWS_SOURCE]
        result = subprocess.run(command, capture_output=True, text=True, timeout=120)
        assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
