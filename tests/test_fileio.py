"""Profile text format: round trips, itemized errors, and validator/parser agreement."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import legacy_scan, needs_cc, row_kernel_paths
from mallows_select import cli, core, fileio
from mallows_select.cli import dispatch
from mallows_select.core import MallowsParams, Ranking, SampleProfile, SelectionSequence, _csr_rows
from mallows_select.fileio import (
    FileFormatError,
    collect_profile_errors,
    format_profile,
    format_selection,
    parse_profile,
    parse_selection,
)
from mallows_select.rng import Stream
from mallows_select.sampling import PFrequencyReport, SelectionSpec, generate_selection, sample_profile, verify_p_frequent


@st.composite
def profiles(draw):
    n = draw(st.integers(2, 7))
    sets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=2), max_size=6))
    center = Ranking(draw(st.permutations(range(n))))
    beta = draw(st.sampled_from([0.25, 1.0, 1.5, 3.0]))
    profile = sample_profile(MallowsParams(center, beta), SelectionSequence(sets, n), Stream.from_seed(draw(st.integers(0, 99))))
    return profile, draw(st.sampled_from([None, beta]))


@st.composite
def ranked_texts(draw):
    """Header plus sample lines that all carry '|R:'; some valid, most subtly not."""
    n = draw(st.integers(1, 5))
    items = st.one_of(
        st.lists(st.integers(0, 4), min_size=2, max_size=5, unique=True),
        st.lists(st.integers(-1, 5), max_size=5),
    )
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        s = draw(items)
        r = draw(st.permutations(s)) if draw(st.integers(0, 3)) else draw(items)
        s_text, r_text = ",".join(map(str, s)), ",".join(map(str, r))
        empty = st.sampled_from(["", "", "", "", ","])
        s_text = draw(empty) + s_text + draw(empty)
        r_text = draw(empty) + r_text + draw(empty)
        lines.append(f"S:{s_text}|R:{r_text}")
    declared = draw(st.integers(0, 4)) if draw(st.integers(0, 4)) == 0 else len(lines)
    return f"{n},{declared}\n" + "\n".join(lines) + "\n"


garbage = st.one_of(
    st.text(),
    st.text(alphabet="0123456789,|RS:-. \n"),
    st.builds(lambda head, body: head + "\n" + body, st.sampled_from(["3,2", "4,1,2", "2,0", "n,r"]),
              st.text(alphabet="0123,|RS: \n")),
)


@settings(max_examples=200, deadline=None)
@given(profiles())
def test_format_then_parse_round_trips(case):
    profile, beta = case
    parsed, parsed_beta = parse_profile(format_profile(profile, beta=beta))
    assert parsed_beta == beta
    assert parsed.selection == profile.selection
    assert [rk.items for rk in parsed.rankings] == [rk.items for rk in profile.rankings]


@settings(max_examples=500, deadline=None)
@given(garbage)
def test_arbitrary_text_raises_only_file_format_error(text):
    try:
        parse_profile(text)
    except FileFormatError:
        pass


@settings(max_examples=500, deadline=None)
@given(ranked_texts())
def test_validator_accepts_exactly_what_the_parser_accepts(text):
    errors = collect_profile_errors(text)
    try:
        parse_profile(text)
    except FileFormatError as exc:
        assert errors and exc.errors == errors
    else:
        assert errors == []


@pytest.mark.parametrize(
    "line, message",
    [
        ("S:0,,1|R:1,0", "unparseable selection set '0,,1'"),
        ("S:0,1,|R:1,0", "unparseable selection set '0,1,'"),
        ("S:0,1|R:1,0,", "unparseable ranking '1,0,'"),
        ("S:0,1|R:,1,0", "unparseable ranking ',1,0'"),
    ],
)
def test_empty_tokens_are_line_two_errors(tmp_path, capsys, line, message):
    text = f"3,1\n{line}\n"
    assert collect_profile_errors(text) == [{"line": 2, "message": message}]
    with pytest.raises(FileFormatError) as excinfo:
        parse_profile(text)
    assert excinfo.value.errors == [{"line": 2, "message": message}]
    path = tmp_path / "prof.txt"
    path.write_text(text)
    assert dispatch(["verify", str(path)]) == 2
    assert dispatch(["posest", "--in", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_selection_only_lines_need_parse_selection():
    text = "3,2\nS:0,1|R:1,0\nS:2,1\n"
    assert collect_profile_errors(text) == []
    with pytest.raises(FileFormatError, match="selection-only"):
        parse_profile(text)
    assert parse_selection(text).sets == ((0, 1), (1, 2))


def test_header_n_over_the_limit_is_refused_before_any_table(tmp_path, capsys):
    # an n x n int64 table at n = 1e9 would take 8e18 bytes
    text = "1000000000,1\nS:0,1|R:1,0\n"
    error = {"line": 1, "message": "header n=1000000000 is over the limit of 8192 alternatives"}
    assert collect_profile_errors(text, p=0.5) == [error]
    with pytest.raises(FileFormatError) as excinfo:
        parse_profile(text)
    assert excinfo.value.errors == [error]
    path = tmp_path / "huge.txt"
    path.write_text(text)
    for argv in (["posest", "--in", str(path)], ["mle", "--in", str(path), "--p", "0.5", "--beta", "1"]):
        assert dispatch(argv) == 2
        assert error["message"] in capsys.readouterr().err
    assert dispatch(["verify", str(path), "--p", "0.5"]) == 2
    assert json.loads(capsys.readouterr().out)[0]["errors"] == [error]
    assert collect_profile_errors("8192,1\nS:0,1|R:1,0\n") == []


@pytest.mark.parametrize(
    "text",
    [
        "4,2\nS:0,1\nS:0,1\n",  # (0, 2), the first of five pairs never seen
        "4,3\nS:0,1,2,3\nS:0,1,2\nS:1,2,3\n",  # (0, 3) alone, inside the triangle
        "4,3\nS:0,1,2,3\nS:0,1,2\nS:0,1,3\n",  # (2, 3) alone, its last pair
        format_selection(generate_selection(SelectionSpec("bernoulli_random", 30, 0.25), 20, Stream.from_seed(4))),
    ],
)
def test_the_p_audit_names_the_first_minimal_pair_without_listing_them(text):
    # worst_pairs() builds a tuple for every minimal pair, 8.4 M of them on a pair-only file at n = 4096
    selection = parse_selection(text)
    report = verify_p_frequent(selection, 0.9)
    pair = report.worst_pairs()[0]
    count = int(report.counts[pair])
    message = f"sequence is not 0.9-frequent: pair {pair} co-appears in {count}/{len(selection)} sets"

    def refuse(self):
        raise AssertionError("the audit listed every minimal pair")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PFrequencyReport, "worst_pairs", refuse)
        assert collect_profile_errors(text, p=0.9) == [{"line": 1, "message": message, "pair": list(pair), "count": count}]


@pytest.mark.parametrize("beta", ["nan", "inf", "-inf", "0", "-1.5"])
def test_header_beta_must_be_positive_and_finite(tmp_path, capsys, beta):
    text = f"4,1,{beta}\nS:0,1|R:1,0\n"
    error = {"line": 1, "message": f"header beta must be positive and finite, got {beta}"}
    assert collect_profile_errors(text) == [error]
    with pytest.raises(FileFormatError) as excinfo:
        parse_profile(text)
    assert excinfo.value.errors == [error]
    path = tmp_path / "prof.txt"
    path.write_text(text)
    assert dispatch(["verify", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)[0]["errors"] == [error]
    assert dispatch(["mle", "--in", str(path), "--p", "1", "--radius-override", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert error["message"] in captured.err


# the per-line checks read these as well: spaces and tabs around tokens, a '+' sign, '_' digit separators,
# a non-ASCII digit, and the line breaks '\r' and '\x0c' that str.splitlines splits at
_NOISE = " +_\t\r\x0c\u0663"


@st.composite
def noisy_texts(draw, texts=ranked_texts()):
    """A text of ``texts`` with characters of ``_NOISE``, blank lines and empty lines put in at random places."""
    text = draw(texts)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([*_NOISE, "\n\n", "\n \t\n", "\r\n"])) + text[at:]
    return text


@st.composite
def profile_texts(draw):
    """A file that format_profile wrote, its samples drawn on sets of every size from pairs to complete."""
    n = draw(st.integers(2, 40))
    sets = draw(st.lists(st.one_of(st.sets(st.integers(0, n - 1), min_size=2, max_size=3),
                                   st.sets(st.integers(0, n - 1), min_size=2), st.just(set(range(n)))), max_size=12))
    center = Ranking(draw(st.permutations(range(n))))
    profile = sample_profile(MallowsParams(center, 1.0), SelectionSequence(sets, n), Stream.from_seed(draw(st.integers(0, 99))))
    return format_profile(profile, beta=draw(st.sampled_from([None, 1.0])))


@st.composite
def selection_texts(draw):
    """A file that format_selection wrote, of a selection of every kind."""
    kind = draw(st.sampled_from(SelectionSpec._KINDS))
    n = draw(st.integers(1, 15)) * 2 if kind == "adversarial_matching" else draw(st.integers(2, 30))
    spec = SelectionSpec(kind=kind, n=n, p=draw(st.sampled_from([1.0, 0.5, 0.1])))
    return format_selection(generate_selection(spec, draw(st.integers(1, 12)), Stream.from_seed(draw(st.integers(0, 99)))))


def _files_io_profile():
    """A profile of files_io size: n=100, r=2000 Bernoulli sets of about 50 items."""
    selection = generate_selection(SelectionSpec(kind="bernoulli_random", n=100, p=0.25), 2000, Stream.from_seed(1))
    return sample_profile(MallowsParams(Ranking.identity(100), 1.0), selection, Stream.from_seed(2))


def _scan_reading(text):
    """``fileio._scan`` of one text as (n, beta, sets, rankings, selection_only), or its errors."""
    try:
        beta, selection, rank_items, selection_only = fileio._scan(text)
    except FileFormatError as exc:
        return exc.errors
    offsets, set_items = selection.offsets, selection.items
    assert offsets.dtype == set_items.dtype == rank_items.dtype == np.int64
    return selection.n, beta, _csr_rows(offsets, set_items), _csr_rows(offsets, rank_items), selection_only


def _both_readings(text):
    """``fileio._scan`` and ``helpers.legacy_scan`` of one text, each as (n, beta, sets, rankings, selection_only) or errors.

    ``fileio._scan`` reads the text on each row-kernel path, and the two readings must be equal.
    """
    with pytest.MonkeyPatch.context() as patch:
        new, numpy = (_scan_reading(text) for _ in row_kernel_paths(patch))
    assert new == numpy
    try:
        n, beta, sets, rankings = legacy_scan(text)
    except FileFormatError as exc:
        old = exc.errors
    else:
        # a selection-only line keeps its set as its ranking row
        old = (n, beta, sets, [s if rk is None else rk for s, rk in zip(sets, rankings)], None in rankings)
    return new, old


def _byte_pass(body, n):
    """``fileio._byte_pass`` of one body, its text or its lines, each line ended by a newline.

    Where the pass reads the body, ``helpers.legacy_scan`` of the body behind an ``n,r`` header must read it too, to
    the same sets and rankings, and the arrays must be int64; returns the reading.
    """
    text = body if isinstance(body, str) else "".join(f"{line}\n" for line in body)
    read = fileio._byte_pass(text.encode(errors="surrogatepass"), n)
    if read is not None:
        offsets, set_items, rank_items = read
        assert all(a.dtype == np.int64 for a in read if a is not None)
        _, _, sets, rankings = legacy_scan(f"{n},{len(offsets) - 1}\n{text}")
        assert _csr_rows(offsets, set_items) == sets
        assert rankings == ([None] * len(sets) if rank_items is None else _csr_rows(offsets, rank_items))
    return read


# bytes a mutation puts in: the format's own, a space, a sign, a non-ASCII letter and digit, and a line break
_MUTATIONS = "0123456789,|RS: -\u00e9\u0663\n"


@st.composite
def mutated_bodies(draw):
    """``(body, n)``: the text after the header line of a written profile or selection file, as ``fileio._scan``
    passes it, with at most one character replaced, put in or taken out."""
    text = draw(st.one_of(profile_texts(), selection_texts()))
    header, _, rest = text.partition("\n")
    at, kind = draw(st.integers(0, len(rest))), draw(st.sampled_from(["none", "replace", "insert", "delete"]))
    put = draw(st.sampled_from(_MUTATIONS))
    rest = {"none": rest, "replace": rest[:at] + put + rest[at + 1 :], "insert": rest[:at] + put + rest[at:],
            "delete": rest[:at] + rest[at + 1 :]}[kind]
    return rest, int(header.split(",")[0])


# bytes that a file's reading must decode as Path.read_text does: line ends, a BOM, the breaks of str.splitlines
# outside "\n", invalid UTF-8, a non-ASCII digit, a blank line and a space
_FILE_NOISE = [b"\r\n", b"\r", b"\xef\xbb\xbf", b"\x0b", b"\x0c", b"\x1c", "\x85".encode(), "\u2028".encode(), b"\xff",
               b"\xc3", "\u0663".encode(), b"\n\n", b" "]


@st.composite
def file_bytes(draw):
    """A written profile file's bytes, as they are or with a few of ``_FILE_NOISE`` put in, the header included, and
    with or without its final newline."""
    data = draw(profile_texts()).encode()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(_FILE_NOISE)) + data[at:]
    return data if draw(st.booleans()) else data.rstrip(b"\n")


class _TextPath(type(Path())):
    """A path whose bytes are read as text first: the reading of the file commands before they took bytes."""

    def read_bytes(self):
        return self.read_text()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(file_bytes())
def test_file_commands_read_bytes_as_the_text_of_the_file(tmp_path, capsys, data):
    path = tmp_path / "profile.txt"
    path.write_bytes(data)
    commands = [["posest", "--in", str(path), "--emit-raw-scores"], ["verify", str(path), "--p", "0.2"],
                ["mle", "--in", str(path), "--mode", "ltn", "--beta", "1", "--p", "0.2"]]
    with pytest.MonkeyPatch.context() as patch:
        for _ in row_kernel_paths(patch):
            for argv in commands:
                readings = []
                for path_type in (Path, _TextPath):
                    patch.setattr(cli, "Path", path_type)
                    readings.append((dispatch(argv), *capsys.readouterr()))
                assert readings[0] == readings[1]


class TestCompiledBytePass:
    """The compiled ``fileio._byte_pass`` against ``helpers.legacy_scan``: what it reads, the per-line reading reads
    the same; and without the compiled kernels it declines every body."""

    @settings(max_examples=400, deadline=None)
    @given(mutated_bodies())
    def test_reads_written_and_mutated_files_as_the_per_line_reading(self, case):
        _byte_pass(*case)

    @settings(max_examples=50, deadline=None)
    @given(mutated_bodies())
    def test_declines_every_body_without_the_compiled_kernels(self, case):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_row_kernels", lambda: None)
            assert _byte_pass(*case) is None

    @pytest.mark.parametrize(
        "body, sets",
        [
            (["S:0000000001,2|R:2,0000000001"], None),  # a ten-digit token
            (["S:000000001,3|R:3,000000001"], [1, 3]),  # nine digits
            (["S:0,3|R:3,0"], [0, 3]),  # n - 1
            (["S:0,4|R:4,0"], None),  # n
            (["S:1,1|R:1,1"], None),  # a duplicate
            (["S:2,3", "S:1,1"], None),
            (["S:0,1|R:1,1"], None),
            (["S:3,0,2|R:2,3,0", "S:2,1|R:1,2"], [0, 2, 3, 1, 2]),  # unsorted sets
            (["S:0,1,2|R:1,0"], None),  # a ranking one item short
            (["S:0,1|R:1,0,2"], None),  # one item long
            (["S:0,1|R:1,\u00e90"], None),
            (["S:0,1|R:1,0\u0663"], None),
            (["S:0,1|R:1,0", "S:2,3"], None),  # mixed layouts
            (["S:2,3", "S:0,1|R:1,0"], None),
            (["S:2,3", "S:0,1,3"], [2, 3, 0, 1, 3]),
            ([], []),  # an empty body reads as a file of ranked lines
            (["S:,0,1"], None),
            (["S:0,1,"], None),
            (["S:0|R:0"], None),
            (["S:0,1|R:1,0|R:1,0"], None),
            (["S:0,1|R:1,0 "], None),
        ],
    )
    @needs_cc
    def test_each_rule_reads_or_declines(self, body, sets):
        read = _byte_pass(body, 4)
        assert (None if read is None else read[1].tolist()) == sets
        if body == []:
            assert read[0].tolist() == [0] and read[2].tolist() == []

    @needs_cc
    def test_a_files_io_sized_parse_peaks_under_the_working_budget(self, monkeypatch):
        # n=100, r=2000 Bernoulli sets of about 50 items: a 588 KB text
        profile = _files_io_profile()
        text = format_profile(profile)
        parse_profile(text)  # ctypes' own first-call objects are made before the measure
        tracemalloc.start()
        try:
            parsed = parse_profile(text)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed.selection == profile.selection
        assert peak < core._BLOCK_BYTES, peak


@st.composite
def csr_profiles(draw):
    """Profiles over n whose labels take one to four digits, of one row or many, built from CSR arrays: each set
    ascending, the first holding 0 and n - 1, each ranking shuffled, and every array a strided view where drawn so."""
    n = draw(st.sampled_from([2, 10, 11, 100, 101, 8192]))
    rows = draw(st.one_of(st.just(1), st.integers(2, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    sets = [np.sort(rng.choice(n, size=rng.integers(2, min(n, 12) + 1), replace=False)) for _ in range(rows)]
    sets[0] = np.union1d(sets[0], [0, n - 1])
    arrays = (
        np.concatenate(([0], np.cumsum([len(s) for s in sets]))),
        np.concatenate(sets),
        np.concatenate([rng.permutation(s) for s in sets]),
    )
    if draw(st.booleans()):
        arrays = [np.repeat(a, 2)[::2] for a in arrays]
    offsets, set_items, rank_items = arrays
    return SampleProfile._from_arrays(SelectionSequence._from_arrays(n, offsets, set_items), rank_items)


def one_width_profile(low: int, n: int, seed: int) -> SampleProfile:
    """Rows of 2 to 9 items, every remainder of four, labels drawn from [low, n) (of one width where low and n - 1
    have as many digits): each set ascending, each ranking shuffled."""
    rng = np.random.default_rng(seed)
    sets = [np.sort(rng.choice(np.arange(low, n), size=m, replace=False)) for m in range(2, 10)]
    offsets = np.concatenate(([0], np.cumsum([len(s) for s in sets])))
    rank_items = np.concatenate([rng.permutation(s) for s in sets])
    return SampleProfile._from_arrays(SelectionSequence._from_arrays(n, offsets, np.concatenate(sets)), rank_items)


class TestRowFormatter:
    """``format_profile`` and ``format_selection`` on each row-kernel path against the lines of ``_row_texts``."""

    @settings(max_examples=300, deadline=None)
    @given(csr_profiles(), st.sampled_from([None, 0.5, 2.0]))
    @example(one_width_profile(0, 10, 1), None)
    @example(one_width_profile(10, 100, 2), 0.5)
    @example(one_width_profile(100, 1000, 3), None)
    @example(one_width_profile(1000, 8192, 4), 2.0)
    def test_writes_the_row_texts_form_and_reads_back(self, profile, beta):
        n, offsets = profile.n, profile.offsets
        sets, ranks = (fileio._row_texts(n, offsets, items) for items in (profile.set_items, profile.rank_items))
        header = f"{n},{len(profile)}"
        ranked = "\n".join([header + ("" if beta is None else f",{beta:g}")] + [f"S:{s}|R:{rk}" for s, rk in zip(sets, ranks)])
        alone = "\n".join([header] + [f"S:{s}" for s in sets])
        with pytest.MonkeyPatch.context() as patch:
            for _ in row_kernel_paths(patch):
                text = format_profile(profile, beta=beta)
                assert (text, format_selection(profile.selection)) == (ranked + "\n", alone + "\n")
                parsed, parsed_beta = parse_profile(text)
                assert parsed_beta == beta and parse_selection(alone + "\n") == profile.selection
                for name in ("offsets", "set_items", "rank_items"):
                    assert np.array_equal(getattr(parsed, name), getattr(profile, name))

    @needs_cc
    @pytest.mark.parametrize("items", [[0, 3], [-1, 2]])
    def test_an_item_outside_the_labels_is_refused(self, items):
        # the buffer is sized by the digits of n - 1, so the compiled writer checks each row before it writes it
        with pytest.raises(IndexError, match="outside"):
            format_selection(SelectionSequence._from_arrays(3, np.array([0, 2]), np.array(items)))

    @needs_cc
    def test_a_files_io_sized_write_holds_its_buffer_and_its_text(self):
        # a 588,689-byte text: the _row_texts form, the writer before the compiled one, peaked at 2,011,335 bytes on
        # this profile; the compiled path holds the buffer and the decoded text, about 1.2 MB
        profile = _files_io_profile()
        format_profile(profile)  # ctypes' own first-call objects are made before the measure
        tracemalloc.start()
        try:
            text = format_profile(profile)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) == 588_689
        assert peak <= 2_011_335, peak


class TestByteParser:
    """``fileio._scan`` against ``helpers.legacy_scan``, the per-line reading that defines the format."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(garbage, ranked_texts(), noisy_texts(), profile_texts(), selection_texts(), noisy_texts(selection_texts())))
    def test_reads_every_text_as_the_per_line_checks_do(self, text):
        new, old = _both_readings(text)
        assert new == old
        if isinstance(new, tuple):
            assert all(type(x) is int for row in new[2] + new[3] for x in row)

    @needs_cc
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(profile_texts().map(lambda text: (text, False)), selection_texts().map(lambda text: (text, True))))
    def test_the_byte_pass_reads_every_written_file(self, case):
        text, selection_only = case
        header, *body = text.splitlines()
        read = _byte_pass(body, int(header.split(",")[0]))
        assert read is not None and (read[2] is None) == selection_only

    @pytest.mark.parametrize(
        "text, errors",
        [
            ("4,3\nS:0,1|R:1,0\nS:2,3\nS:1,3|R:3,1\n", None),
            ("4,4\nS:0,1|R:1,0\nS:2,2\nS:1,3\nS:1,3|R:3,3\n",
             [{"line": 3, "message": "duplicate alternative 2 in selection set", "item": 2},
              {"line": 5, "message": "duplicate alternative 3 in ranking", "item": 3}]),
            ("4,3\nS:0,1\nS:1,2\nS:2,3|R:3\n", [{"line": 4, "message": "ranking is not a permutation of its selection set"}]),
            ("4,3\nS:0,1\nS:2,2\nS:2,3\n", [{"line": 3, "message": "duplicate alternative 2 in selection set", "item": 2}]),
            ("4,3\nS:0,1\nS:1,2,4\nS:2,3\n", [{"line": 3, "message": "alternative 4 outside [0, 4)", "item": 4}]),
            ("4,3\nS:0,1\nS:3\nS:2,3\n", [{"line": 3, "message": "selection set needs at least two alternatives"}]),
            ("4,3\nS:0,1\nS1:2\nS:2,3\n", [{"line": 3, "message": "sample line must start with 'S:'"}]),
            ("4,3\nS:0,1|R:1,0\nS1:0|R:1,0\nS:2,3|R:3,2\n", [{"line": 3, "message": "sample line must start with 'S:'"}]),
            ("4,3\nS:0,1|R:1,0\nS:0,1|0R:1\nS:2,3|R:3,2\n", [{"line": 3, "message": "unparseable selection set '0,1|0R:1'"}]),
            ("4,3\nS:0,,1\nS:1,2\nS:2,3\n", [{"line": 2, "message": "unparseable selection set '0,,1'"}]),
        ],
    )
    def test_mixed_and_bad_files_are_read_line_by_line(self, text, errors):
        # a file mixing the two layouts, or holding one bad line, leaves the byte pass whole; a digit inside the
        # layout bytes, as in 'S1:' or '|0R:', fails only its layout check
        assert _byte_pass(text.splitlines()[1:], 4) is None
        new, old = _both_readings(text)
        assert new == old
        if errors is None:
            assert new[3] == [(1, 0), (2, 3), (3, 1)] and new[4] is True
        else:
            assert new == errors

    @pytest.mark.parametrize(
        "body",
        [
            "S:0, 1|R:1,0", "S: 0,1 |R:1,0", "S:+0,1|R:1,0", "S:0,1|R:0_1,0", "\tS:0,1|R:1,0", "S:0,3|R:\u0663,0",
            "S:0,1", "S:00,1|R:1,0", "S:0000000000001,2|R:2,1",
        ],
    )
    def test_lines_outside_the_canonical_form_read_as_before(self, body):
        text = f"4,3\nS:2,3|R:3,2\n\n{body}\r\nS:1,3|R:1,3\n"
        new, old = _both_readings(text)
        assert new == old and isinstance(new, tuple)

    def test_errors_keep_their_order_and_line_numbers(self):
        # blank lines take no line number; the declared count is checked first
        text = "4,4\nS:0,1|R:1,0\n\nS:0,4|R:4,0\nS:0, 0|R:0,0\n \nS:1,2|R:2,2\nS:1,2,3|R:1,2\nS:2,3|R:3,2\n"
        errors = [
            {"line": 1, "message": "header declares r=4 but file holds 6 sample lines"},
            {"line": 3, "message": "alternative 4 outside [0, 4)", "item": 4},
            {"line": 4, "message": "duplicate alternative 0 in selection set", "item": 0},
            {"line": 5, "message": "duplicate alternative 2 in ranking", "item": 2},
            {"line": 6, "message": "ranking is not a permutation of its selection set"},
        ]
        assert _both_readings(text) == (errors, errors)
        assert collect_profile_errors(text) == errors

    # the errors of a digit tail after the last newline, and of a text without a header line
    TAIL = [{"line": 1, "message": "header declares r=1 but file holds 2 sample lines"},
            {"line": 3, "message": "sample line must start with 'S:'"}]
    HEADLESS = [{"line": 1, "message": "missing header line"}]

    @pytest.mark.parametrize(
        "text, errors",
        [
            ("4,1\r\nS:0,1|R:1,0\r\n", None),  # CRLF throughout
            ("4,1\x85\nS:0,1|R:1,0\n", None),  # headers that str.splitlines ends before the first newline
            ("4,1\u2028\nS:0,1|R:1,0\n", None),
            ("4,1\x0c\nS:0,1|R:1,0\n", None),
            ("4,2\u2028S:0,1|R:1,0\nS:2,3|R:3,2\n", None),  # a sample line before the first newline
            ("4,1\nS:0,1|R:1,0", None),  # no final newline
            ("4,1\nS:0,1|R:1,0\n12,3", TAIL),  # digit tails: one of an odd count of tokens, one of an even count
            ("4,1\nS:0,1|R:1,0\n12", TAIL),
            ("4,1\nS:0,1|R:1,0\n\n \n", None),  # trailing blank lines, the second of a space
            ("4,2\r\n\r\nS:0,1|R:1,0\r\nS:2,3|R:2,3\r\n\r\n\r\n", None),  # CRLF with blank lines at both ends
            ("4,2\nS:0,1|R:1,0\n\nS:2,3|R:2,3\n", None),  # a blank line between sample lines
            ("4,2\nS:0,1|R:1,0\rS:2,3|R:2,3\n", None),  # a lone CR between sample lines
            ("4,1\nS:0,1|R:1,0\r\r\n", None),  # a CR before a CRLF
            ("4,1\r\r\nS:0,1|R:1,0\n", None),  # and one after the header
            ("4,0", None),
            ("4,0\n", None),
            ("", HEADLESS),
            ("\n4,0\n", HEADLESS),
        ],
    )
    def test_texts_at_the_branch_to_the_line_reader_read_as_the_per_line_checks_do(self, text, errors):
        new, old = _both_readings(text)
        assert new == old
        assert isinstance(new, tuple) if errors is None else new == errors

    @needs_cc
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(profile_texts(), selection_texts()), st.sampled_from(["\n", "\r\n"]),
           st.sampled_from(["", "\n", "\n\n"]), st.sampled_from(["", "\n", "\n\n"]), st.booleans())
    def test_written_files_never_reach_the_per_line_checks(self, text, newline, lead, trail, ended):
        # where the compiled kernels load, a written file is never split into lines, nor with CRLF line ends, blank
        # lines around its body or no final newline; without them, every file is read line by line
        class Unsplit(str):
            def splitlines(self, *args):
                raise AssertionError("a written file was split into lines")

        def refuse(*args):
            raise AssertionError("a written file was read line by line")

        header, _, body = text.partition("\n")
        body = body if ended else body.removesuffix("\n")
        text = f"{header}\n{lead}{body}{trail}".replace("\n", newline)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fileio, "_check_line", refuse)
            reading = _scan_reading(Unsplit(text))
        new, old = _both_readings(text)
        assert reading == new == old and isinstance(new, tuple)

    def test_lazy_views_equal_an_eager_profile(self):
        selection = generate_selection(SelectionSpec(kind="bernoulli_random", n=12, p=0.3), 40, Stream.from_seed(5))
        profile, _beta = parse_profile(format_profile(sample_profile(MallowsParams(Ranking.identity(12), 1.0), selection, Stream.from_seed(6))))
        eager = SampleProfile([Ranking(rk.items) for rk in profile.rankings], SelectionSequence(selection.sets, 12))
        for name in ("offsets", "set_items", "rank_items"):
            assert (getattr(profile, name) == getattr(eager, name)).all()
        assert profile.selection == eager.selection == selection
        assert profile.rankings == eager.rankings and profile.n == eager.n and len(profile) == len(eager)
        for row in [rk.items for rk in profile.rankings] + list(profile.selection.sets):
            assert all(type(x) is int for x in row)
        json.dumps([list(s) for s in profile.selection.sets])

