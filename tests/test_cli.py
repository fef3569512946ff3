import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mallows_select import cli, core, mle, rng
from mallows_select import experiments as xp
from mallows_select.cli import _build_parser, dispatch
from mallows_select.core import MallowsParams, Ranking
from mallows_select.estimators import positional_estimator
from mallows_select.fileio import (
    FileFormatError,
    collect_profile_errors,
    format_profile,
    format_selection,
    parse_profile,
    parse_selection,
)
from mallows_select.rng import Stream
from mallows_select.sampling import SelectionSpec, generate_selection, sample_profile


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFileFormats:
    def test_profile_round_trip(self):
        stream = Stream.from_seed(1)
        params = MallowsParams(Ranking(stream.permutation(6)), 1.5)
        sel = generate_selection(SelectionSpec(kind="mixed_pfrequent", n=6, p=0.5), 7)
        profile = sample_profile(params, sel, stream.child(1))
        text = format_profile(profile, beta=1.5)
        parsed, beta = parse_profile(text)
        assert beta == 1.5
        assert parsed.selection == profile.selection
        assert [rk.items for rk in parsed.rankings] == [rk.items for rk in profile.rankings]

    def test_selection_round_trip(self):
        sel = generate_selection(SelectionSpec(kind="pairwise", n=5), 6)
        assert parse_selection(format_selection(sel)) == sel

    def test_header_validation(self):
        with pytest.raises(FileFormatError):
            parse_profile("bogus\n")
        with pytest.raises(FileFormatError):
            parse_profile("3\n")

    def test_duplicate_item_error_names_line_and_item(self):
        text = "3,1\nS:0,1,2|R:0,1,1\n"
        with pytest.raises(FileFormatError) as excinfo:
            parse_profile(text)
        errors = excinfo.value.errors
        assert errors[0]["line"] == 2
        assert errors[0]["item"] == 1


class TestCliPipelines:
    def test_sample_writes_r_lines(self, tmp_path, capsys):
        out = tmp_path / "prof.txt"
        code, _, err = run(
            capsys, "sample", "--n", "20", "--beta", "2", "--p", "0.5",
            "--r", "50", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "20,50,2"
        assert len(lines) == 51
        assert "seed=7" in err

    def test_posest_output_is_a_complete_ranking_line(self, tmp_path, capsys):
        prof = tmp_path / "prof.txt"
        run(capsys, "sample", "--n", "20", "--beta", "2", "--r", "30", "--seed", "7", "--out", str(prof))
        code, out, _ = run(capsys, "posest", "--in", str(prof), "--seed", "7")
        assert code == 0
        items = [int(tok) for tok in out.strip().splitlines()[0].split(",")]
        assert sorted(items) == list(range(20))

    def test_cli_round_trip_matches_in_memory_pipeline(self, tmp_path, capsys):
        prof = tmp_path / "prof.txt"
        run(
            capsys, "sample", "--n", "9", "--beta", "1.2", "--p", "0.6", "--r", "12",
            "--seed", "5", "--center", "random", "--out", str(prof),
        )
        code, out, _ = run(capsys, "posest", "--in", str(prof), "--seed", "5")
        assert code == 0

        # rebuild in memory with the CLI's stream layout
        stream = Stream.from_seed(5)
        sel = generate_selection(SelectionSpec(kind="mixed_pfrequent", n=9, p=0.6), 12, stream.child(0))
        center = Ranking(stream.child(1).permutation(9))
        profile = sample_profile(MallowsParams(center, 1.2), sel, stream.child(2))
        assert format_profile(profile, beta=1.2) == prof.read_text()
        expected = positional_estimator(profile, Stream.from_seed(5).child(3)).ranking
        assert out.strip().splitlines()[0] == expected.to_line()

    def test_posest_diagnostics_blob(self, tmp_path, capsys):
        prof = tmp_path / "prof.txt"
        run(capsys, "sample", "--n", "5", "--beta", "1", "--r", "4", "--seed", "2", "--out", str(prof))
        code, out, _ = run(capsys, "posest", "--in", str(prof), "--seed", "2", "--emit-raw-scores")
        assert code == 0
        lines = out.strip().splitlines()
        blob = json.loads(lines[1])
        assert set(blob) == {"tie_groups", "zero_appearance_pairs", "never_observed", "raw_scores"}
        assert len(blob["raw_scores"]) == 5

    def test_mle_emits_report_and_ranking(self, tmp_path, capsys):
        prof = tmp_path / "prof.txt"
        run(capsys, "sample", "--n", "7", "--beta", "1", "--p", "0.5", "--r", "6", "--seed", "3", "--out", str(prof))
        code, out, err = run(capsys, "mle", "--in", str(prof), "--mode", "mle", "--p", "0.5", "--seed", "3")
        assert code == 0
        lines = out.strip().splitlines()
        report = json.loads(lines[0])
        assert report["mode"] == "maximum_likelihood"
        assert lines[1] == ",".join(str(x) for x in report["ranking"])
        assert "window_used=" in err

    def test_topk_prefix(self, tmp_path, capsys):
        prof = tmp_path / "prof.txt"
        run(capsys, "sample", "--n", "8", "--beta", "2", "--r", "20", "--seed", "4", "--out", str(prof))
        code, full_out, _ = run(capsys, "posest", "--in", str(prof), "--seed", "4")
        code2, top_out, _ = run(capsys, "topk", "--in", str(prof), "--k", "3", "--seed", "4")
        assert code == 0 and code2 == 0
        assert top_out.strip() == ",".join(full_out.strip().split(",")[:3])

    def test_select_then_verify(self, tmp_path, capsys):
        sel_path = tmp_path / "sel.txt"
        code, _, _ = run(
            capsys, "select", "--n", "10", "--r", "8", "--p", "0.5", "--out", str(sel_path)
        )
        assert code == 0
        code, out, _ = run(capsys, "verify", str(sel_path), "--p", "0.5")
        assert code == 0
        report = json.loads(out)
        assert report[0]["ok"] is True

    def test_commands_build_no_per_set_tuple(self, tmp_path, capsys, monkeypatch):
        def no_tuples(*args, **kwargs):
            raise AssertionError("a per-set tuple was built")

        # the tuple constructor and the lazy tuple views are what build per-set tuples
        monkeypatch.setattr(core, "_csr_rows", no_tuples)
        monkeypatch.setattr(core.SelectionSequence, "__init__", no_tuples)
        prof, sel = tmp_path / "prof.txt", tmp_path / "sel.txt"
        spec = ("--n", "30", "--r", "2000", "--kind", "bernoulli_random", "--p", "0.2", "--seed", "5")
        assert run(capsys, "sample", "--beta", "1", *spec, "--out", str(prof))[0] == 0
        assert run(capsys, "select", *spec, "--out", str(sel))[0] == 0
        code, out, _ = run(capsys, "verify", str(sel), str(prof), "--p", "0.15")
        assert code == 0
        assert [report["ok"] for report in json.loads(out)] == [True, True]
        assert run(capsys, "posest", "--in", str(prof))[0] == 0


class TestCliErrors:
    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            dispatch(["sample", "--n", "5"])  # missing required flags
        assert excinfo.value.code == 1

    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            dispatch(["frobnicate"])
        assert excinfo.value.code == 1

    def test_bad_threads_variable_exits_one_only_for_experiments(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MALLOWS_SELECT_THREADS", "abc")
        with pytest.raises(SystemExit) as excinfo:
            dispatch(["exp-adversarial", "--n", "4", "--trials", "2"])
        assert excinfo.value.code == 1
        assert "MALLOWS_SELECT_THREADS" in capsys.readouterr().err
        sel_path = tmp_path / "sel.txt"
        assert run(capsys, "select", "--n", "4", "--r", "2", "--out", str(sel_path))[0] == 0
        assert run(capsys, "verify", str(sel_path))[0] == 0

    @pytest.mark.parametrize("command", ["exp-complexity", "exp-adversarial"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_threads_flag_below_one_exits_one_before_any_work(self, tmp_path, capsys, command, value):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as excinfo:
            dispatch([command, "--n", "4", "--beta", "1", "--trials", "2", "--threads", value, "--out", str(out)])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert f"--threads must be at least 1, got {value}" in captured.err
        assert "command=" not in captured.err and captured.out == "" and not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_threads_variable_below_one_exits_one_before_any_work(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("MALLOWS_SELECT_THREADS", value)
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as excinfo:
            dispatch(["exp-distance", "--n", "4", "--beta", "1", "--trials", "2", "--r-grid", "2", "--out", str(out)])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert f"MALLOWS_SELECT_THREADS must be at least 1, got {value}" in captured.err
        assert "command=" not in captured.err and captured.out == "" and not out.exists()

    def test_runtime_error_exits_two(self, tmp_path, capsys):
        code, _, err = run(capsys, "posest", "--in", str(tmp_path / "missing.txt"), "--seed", "0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "error, reason",
        [
            (MemoryError("Unable to allocate 36.4 TiB for an array"), "Unable to allocate 36.4 TiB for an array"),
            (MemoryError(), "out of memory"),
            (ValueError(), ""),  # only a bare MemoryError is worded as out of memory
        ],
    )
    def test_a_memory_error_exits_two_without_a_traceback(self, capsys, monkeypatch, error, reason):
        # the error a setting too large for the host raises, here without the allocation that would raise it
        def no_room(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "generate_selection", no_room)
        code, out, err = run(capsys, "sample", "--n", "5", "--beta", "1", "--r", "1000000000000")
        assert (code, out, err) == (2, "", f"mallows-select: error: {reason}\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--n", "5", "--beta", "1", "--r"],
            ["select", "--n", "5", "--r"],
            ["exp-adversarial", "--r"],
            ["exp-distance", "--n", "6", "--beta", "1", "--r-grid"],
            ["exp-topk", "--n", "6", "--beta", "1", "--k", "2", "--r-grid"],
            ["exp-complexity", "--n", "6", "--beta", "1", "--trials"],
            ["exp-adversarial", "--trials"],
        ],
        ids=" ".join,
    )
    def test_an_integer_setting_past_int64_exits_two_without_a_traceback(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        threads = ["--threads", "1"] if argv[0].startswith("exp-") else []
        code, stdout, err = run(capsys, *argv, str(10**23), *threads, "--out", str(out))
        assert (code, stdout) == (2, "") and not out.exists()
        assert "Traceback" not in err and err.splitlines()[-1].startswith("mallows-select: error: ")

    def test_verify_invalid_profile_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3,1\nS:0,1,2|R:0,1,1\n")
        code, out, _ = run(capsys, "verify", str(bad))
        assert code == 2
        report = json.loads(out)
        assert report[0]["ok"] is False
        assert report[0]["errors"][0]["line"] == 2
        assert report[0]["errors"][0]["item"] == 1

    def test_verify_p_frequency_violation_names_pair(self, tmp_path, capsys):
        sel_path = tmp_path / "sel.txt"
        sel_path.write_text("4,2\nS:0,1\nS:0,1\n")
        code, out, _ = run(capsys, "verify", str(sel_path), "--p", "0.5")
        assert code == 2
        errors = json.loads(out)[0]["errors"]
        assert errors[0]["pair"] == [0, 2]
        assert errors[0]["count"] == 0

    @pytest.mark.parametrize("p", ["0", "-1", "nan", "1.5"])
    def test_verify_p_outside_the_unit_interval_exits_two(self, tmp_path, capsys, p):
        good, bad, missing = tmp_path / "good.txt", tmp_path / "bad.txt", tmp_path / "missing.txt"
        good.write_text("3,2\nS:0,1,2\nS:0,1,2\n")
        bad.write_text("3,1\nS:0,1,2|R:0,1,1\n")
        assert collect_profile_errors(good.read_text(), p=0.5) == []
        # p is checked before any file is opened, so neither a malformed nor a missing file is reported first
        for files in ([good], [bad], [bad, good], [missing], [good, missing]):
            if files[0].exists():
                with pytest.raises(ValueError, match="must lie in \\(0, 1\\]"):
                    collect_profile_errors(files[0].read_text(), p=float(p))
            code, out, err = run(capsys, "verify", *map(str, files), "--p", p)
            assert code == 2
            assert out == ""
            assert f"frequency parameter p must lie in (0, 1], got {float(p)}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("sample", "--beta", "1", "--r", "2", "--kind", "pairwise"),
            ("select", "--r", "2", "--kind", "pairwise"),
            ("exp-complexity", "--beta", "1", "--p-values", "1", "--searches", "1", "--trials", "2", "--threads", "1"),
            ("exp-adversarial", "--trials", "2", "--threads", "1"),
        ],
    )
    def test_n_over_the_file_limit_exits_two_before_any_draw(self, capsys, monkeypatch, argv):
        def no_draw(*args, **kwargs):
            raise AssertionError("a draw was made")

        # every draw of the numpy forms goes through the array mixer, so the compiled kernels, which draw in C, are off
        monkeypatch.setattr(core, "_row_kernels", lambda: None)
        monkeypatch.setattr(rng, "mix64_array", no_draw)
        monkeypatch.setattr(rng, "_mix64", no_draw)  # and every stream key through its scalar form
        code, out, err = run(capsys, argv[0], "--n", "8193", *argv[1:])
        assert code == 2
        assert out == ""
        assert "n=8193 is over the limit of 8192 alternatives" in err

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (("--p-values", "0.2,0"), "frequency parameter p must lie in (0, 1]"),
            (("--p-values", "0.2,1.5"), "frequency parameter p must lie in (0, 1]"),
            (("--kind", "borda"), "unknown selection kind 'borda'"),
        ],
    )
    def test_every_p_is_refused_before_the_first_search(self, capsys, monkeypatch, argv, message):
        searched = []
        monkeypatch.setattr(xp, "binary_search_complexity", lambda *args: searched.append(args) or 1)
        code, out, err = run(capsys, "exp-complexity", "--preset", "figure1", "--threads", "1", *argv)
        assert (code, out, searched) == (2, "", [])
        assert message in err

    def test_n_at_the_file_limit_still_selects(self, capsys):
        code, out, _ = run(capsys, "select", "--n", "8192", "--r", "1", "--kind", "pairwise")
        assert code == 0
        assert out == "8192,1\nS:0,1\n"

    def test_center_with_empty_tokens_exits_two(self, capsys):
        code, out, err = run(capsys, "sample", "--n", "3", "--beta", "1", "--r", "1", "--center", "0,,1,2,")
        assert code == 2
        assert out == ""
        assert "empty alternative in ranking '0,,1,2,'" in err

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (("--beta", "1e-200"), "radius is not finite for beta=1e-200"),
            (("--p", "1e-200"), "radius is not finite for beta=2.0, p=1e-200"),
            (("--alpha", "inf"), "alpha must be finite, got inf"),
            (("--beta", "nan"), "beta must be finite, got nan"),
            (("--beta", "inf"), "beta must be finite, got inf"),
            (("--alpha", "nan"), "alpha must be finite, got nan"),
            (("--alpha", "-3"), "alpha must exceed -2, got -3.0"),
            (("--radius-override", "-1"), "radius_override must be nonnegative, got -1"),
        ],
    )
    def test_out_of_range_window_inputs_exit_two(self, tmp_path, capsys, flags, message):
        prof = tmp_path / "prof.txt"
        assert run(capsys, "sample", "--n", "12", "--beta", "2", "--p", "0.5", "--r", "20", "--out", str(prof))[0] == 0
        args = {"--p": "0.5", **dict([flags])}
        argv = ["mle", "--in", str(prof)] + [tok for pair in args.items() for tok in pair]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        ("beta", "message"),
        [
            ("nan", "beta must be positive and finite, got nan"),
            ("inf", "beta must be positive and finite, got inf"),
            ("1e-300", "beta must be positive with e^-beta < 1, got 1e-300"),
        ],
    )
    def test_bad_beta_with_a_radius_override_exits_two(self, tmp_path, capsys, beta, message):
        # the override skips the window formulas: the pipeline checks beta itself
        prof = tmp_path / "prof.txt"
        assert run(capsys, "sample", "--n", "6", "--beta", "2", "--r", "10", "--out", str(prof))[0] == 0
        code, out, err = run(capsys, "mle", "--in", str(prof), "--p", "1", "--beta", beta, "--radius-override", "1")
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (("--budget", "-3"), "state budget must admit at least one window bit"),
            (("--budget", "1"), "state budget must admit at least one window bit"),
            (("--radius-override", "-1"), "radius_override must be nonnegative, got -1"),
        ],
    )
    def test_a_dp_setting_no_run_can_meet_exits_two_before_the_file_is_read(self, tmp_path, capsys, monkeypatch, flags, message):
        # radius 0 needs a window of 2 states, so a budget below 2 fails every run
        prof = tmp_path / "prof.txt"
        assert run(capsys, "sample", "--n", "12", "--beta", "2", "--p", "0.5", "--r", "20", "--out", str(prof))[0] == 0
        calls = []
        monkeypatch.setattr(cli, "parse_profile", lambda text: calls.append(text) or parse_profile(text))
        code, out, err = run(capsys, "mle", "--in", str(prof), "--p", "0.5", *flags)
        assert (code, out, calls) == (2, "", [])
        assert message in err and "Traceback" not in err
        # the smallest budget that can succeed reads the file, then finds the window over it
        code, out, err = run(capsys, "mle", "--in", str(prof), "--p", "0.5", "--budget", "2")
        assert (code, out, len(calls)) == (2, "", 1)
        assert "over the budget of 2" in err

    def test_nan_beta_exits_two_before_the_dp(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the DP ran on a bad beta")

        prof = tmp_path / "prof.txt"
        assert run(capsys, "sample", "--n", "20", "--beta", "1", "--p", "0.5", "--r", "40", "--out", str(prof))[0] == 0
        monkeypatch.setattr(mle, "_dp_window_max", unreachable)
        code, out, err = run(capsys, "mle", "--in", str(prof), "--p", "0.5", "--beta", "nan", "--radius-override", "19")
        assert code == 2
        assert out == ""
        assert "beta must be positive and finite, got nan" in err

    def test_infeasible_spec_exits_two(self, capsys):
        code, _, err = run(
            capsys, "sample", "--n", "5", "--beta", "1", "--r", "3",
            "--kind", "bernoulli_random", "--p", "0.5", "--q", "0.5",
        )
        assert code == 2
        assert "q^2 >= p" in err

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (("sample", "--n", "4", "--beta", "nan", "--r", "2"), "beta must be positive and finite, got nan"),
            (("sample", "--n", "4", "--beta", "inf", "--r", "2"), "beta must be positive and finite, got inf"),
            (("exp-complexity", "--n", "5", "--beta", "nan", "--p-values", "1", "--searches", "1", "--trials", "2"),
             "beta must be positive and finite, got nan"),
            (("exp-adversarial", "--n", "4", "--trials", "0", "--threads", "1"), "trials must be positive, got 0"),
            (("exp-adversarial", "--n", "4", "--trials", "-3", "--threads", "1"), "trials must be positive, got -3"),
        ],
    )
    def test_out_of_range_model_inputs_exit_two(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err
        assert "Traceback" not in err


class TestCliExperiments:
    def test_exp_complexity_reduced_preset(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        code, _, err = run(
            capsys, "exp-complexity", "--preset", "figure1", "--searches", "2",
            "--trials", "20", "--p-values", "1,0.5", "--threads", "1",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == "p,inv_p,mean_r_star,std_r_star,searches,trials"
        assert (tmp_path / "fig1.svg").exists()

    def test_exp_distance_stdout(self, capsys):
        code, out, _ = run(
            capsys, "exp-distance", "--n", "6", "--beta", "1", "--p-values", "1",
            "--trials", "5", "--r-grid", "2,4", "--threads", "1", "--seed", "1",
        )
        assert code == 0
        assert out.splitlines()[-1].startswith("1,4,")

    def test_exp_adversarial(self, tmp_path, capsys):
        out = tmp_path / "adv.csv"
        code, _, _ = run(
            capsys, "exp-adversarial", "--n", "8", "--beta", "1", "--p", "0.5",
            "--r", "2", "--trials", "20", "--threads", "1", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == "regime,r,failure_rate,trials"
        assert len(body) == 3

    def test_exp_adversarial_writes_no_svg(self, tmp_path, capsys):
        out = tmp_path / "adv.csv"
        code, _, err = run(
            capsys, "exp-adversarial", "--n", "6", "--r", "2", "--trials", "4", "--threads", "1", "--out", str(out),
        )
        assert code == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == ["adv.csv"]
        assert "svg=" not in err

    def test_exp_topk(self, capsys):
        code, out, _ = run(
            capsys, "exp-topk", "--n", "8", "--beta", "2", "--p-values", "0.5",
            "--k", "2", "--trials", "10", "--r-grid", "3,6", "--threads", "1", "--seed", "3",
        )
        assert code == 0
        assert "k,r,topk_success,full_success,trials" in out

    def test_threads_flag_does_not_change_csv(self, tmp_path, capsys):
        args = [
            "exp-distance", "--n", "7", "--beta", "0.5", "--p-values", "0.5,1",
            "--trials", "10", "--r-grid", "2,5", "--seed", "9",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert dispatch(args + ["--threads", "1", "--out", str(out1)]) == 0
        assert dispatch(args + ["--threads", "3", "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()


class TestCurveOptions:
    """Each exp-* command takes only the options its experiment reads."""

    @pytest.mark.parametrize(
        ("command", "flag", "value"),
        [
            ("exp-complexity", "--r-grid", "3,4"),
            ("exp-complexity", "--k", "2"),
            ("exp-distance", "--target", "0.5"),
            ("exp-distance", "--searches", "9"),
            ("exp-distance", "--k", "2"),
            ("exp-topk", "--target", "0.5"),
            ("exp-topk", "--searches", "9"),
        ],
    )
    def test_dropped_flag_is_a_usage_error(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as excinfo:
            dispatch([command, "--n", "5", "--beta", "1", "--trials", "2", "--threads", "1", flag, value])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {flag} {value}" in captured.err

    def test_exp_topk_refuses_several_p_values(self, capsys):
        code, out, err = run(
            capsys, "exp-topk", "--n", "6", "--beta", "1", "--p-values", "0.5,0.2", "--k", "2",
            "--trials", "2", "--r-grid", "3", "--threads", "1",
        )
        assert code == 2
        assert out == ""
        assert "top-k experiment takes one p value, got 2" in err

    def test_settable_option_count_is_pinned(self):
        # every action but help, over all subcommands: a new option must move this pin on purpose
        (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        actions = [a for p in commands.choices.values() for a in p._actions if not isinstance(a, argparse._HelpAction)]
        assert len(actions) == 76


def fresh_process(*argv) -> subprocess.CompletedProcess:
    """``python -m mallows_select argv`` in a new interpreter, on this checkout's source."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "mallows_select", *argv], capture_output=True, text=True, env=env, timeout=60
    )


class TestParserReuse:
    """dispatch builds its parser once per process, and no call leaves anything for the next."""

    def test_the_parser_is_built_once(self, tmp_path, capsys):
        _build_parser.cache_clear()
        for seed in range(3):
            assert run(capsys, "select", "--n", "5", "--r", "3", "--seed", str(seed), "--out", str(tmp_path / "s.txt"))[0] == 0
        assert (_build_parser.cache_info().misses, _build_parser.cache_info().hits) == (1, 2)

    def test_a_usage_error_leaves_the_next_call_as_in_a_fresh_process(self, capsys):
        with pytest.raises(SystemExit) as excinfo:  # sets --kind and --q before it fails
            dispatch(["select", "--n", "6", "--r", "4", "--kind", "bernoulli_random", "--q", "0.9", "--bogus"])
        assert excinfo.value.code == 1
        capsys.readouterr()
        argv = ["select", "--n", "6", "--r", "4", "--seed", "3"]
        code, out, err = run(capsys, *argv)
        fresh = fresh_process(*argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert "kind=mixed_pfrequent" in err

    def test_the_threads_variable_is_read_on_every_call(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)  # one worker, whatever the variable asks for
        argv = ["exp-adversarial", "--n", "4", "--trials", "1"]
        for value, logged in (("1", 1), ("5", 5), ("", 1), ("abc", None), ("3", 3)):  # "" reads the core count
            monkeypatch.setenv("MALLOWS_SELECT_THREADS", value)
            if logged is None:
                with pytest.raises(SystemExit) as excinfo:
                    dispatch(argv)
                assert excinfo.value.code == 1
                assert "MALLOWS_SELECT_THREADS must be an integer, got 'abc'" in capsys.readouterr().err
            else:
                code, _, err = run(capsys, *argv)
                assert code == 0
                assert f"threads={logged}\n" in err

    @pytest.mark.parametrize("argv", [["--help"], ["mle", "--help"], ["exp-complexity", "--help"]])
    def test_help_equals_an_uncached_build(self, capsys, argv):
        texts = []
        for parse in (dispatch, dispatch, _build_parser.__wrapped__().parse_args):
            with pytest.raises(SystemExit) as excinfo:
                parse(argv)
            assert excinfo.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] == texts[2]
        assert texts[0].startswith("usage: mallows-select")


class TestModuleEntryPoint:
    def test_python_dash_m_runs_a_subcommand(self, capsys):
        argv = ["select", "--n", "4", "--r", "2", "--kind", "pairwise"]
        proc = fresh_process(*argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run(capsys, *argv)[1]
        assert proc.stdout.startswith("4,2\n")


def test_file_commands_build_no_ranking_per_sample(tmp_path, capsys, monkeypatch):
    """posest, topk, mle and verify read a profile as arrays: the Rankings they build do not grow with r."""
    built = []
    init = Ranking.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Ranking, "__init__", counted)
    commands = {}
    for r in (200, 2000):
        path = tmp_path / f"r{r}.txt"
        base = ["sample", "--n", "100", "--beta", "1", "--r", str(r), "--p", "0.25", "--kind", "bernoulli_random"]
        assert dispatch([*base, "--seed", "3", "--out", str(path)]) == 0
        for name, argv in (
            ("posest", ["posest", "--in", str(path)]),
            ("topk", ["topk", "--in", str(path), "--k", "5"]),
            ("ltn", ["mle", "--in", str(path), "--mode", "ltn", "--p", "0.25"]),
            ("verify", ["verify", str(path), "--p", "0.25"]),
        ):
            built.clear()
            assert dispatch(argv) in (0, 2)
            commands.setdefault(name, []).append(len(built))
    capsys.readouterr()
    for name, counts in commands.items():
        assert counts[0] == counts[1] <= 5, (name, counts)
