"""Profile text format: round trips, itemized errors, and validator/parser agreement."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mallows_select.cli import dispatch
from mallows_select.core import MallowsParams, Ranking, SelectionSequence
from mallows_select.fileio import FileFormatError, collect_profile_errors, format_profile, parse_profile, parse_selection
from mallows_select.rng import Stream
from mallows_select.sampling import sample_profile


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
