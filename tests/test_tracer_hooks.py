"""The benchmark tracer's hooks against the package: a refactor that breaks a hooked name or signature fails here.

``perfbench/tracer.py`` wraps package functions by name and reads their arguments by position and keyword; a
hook whose function is gone is listed in ``Tracer.missing``, and one whose signature moved fails inside a call.
"""

from pathlib import Path

from mallows_select import cli, core, estimators, experiments, fileio, mle, plotting, rng, sampling

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = {
    "cli": cli, "core": core, "estimators": estimators, "experiments": experiments, "fileio": fileio,
    "mle": mle, "plotting": plotting, "rng": rng, "sampling": sampling,
}


def test_the_hooks_find_their_functions_and_read_their_calls(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    profile, curve = tmp_path / "profile.txt", tmp_path / "curve.csv"
    hooked = ((cli, "dispatch"), (mle, "_maximize_with_widening"))
    originals = {(owner, name): getattr(owner, name) for owner, name in hooked}
    with Tracer(MODULES) as tracer:
        # no function is left to run_trial's hook, and Stream.permutation draws without Stream.shuffle
        assert set(tracer.missing) == {"experiments.run_trial", "rng.Stream.shuffle"}
        sample = ["sample", "--n", "12", "--beta", "2", "--r", "30", "--p", "0.5", "--kind", "mixed_pfrequent",
                  "--center", "random", "--seed", "3", "--out", str(profile)]
        assert cli.dispatch(sample) == 0
        assert cli.dispatch(["mle", "--in", str(profile), "--mode", "mle", "--p", "0.5", "--seed", "1"]) == 0
        assert cli.dispatch(["exp-complexity", "--n", "6", "--beta", "2", "--p-values", "1,0.5", "--trials", "20",
                             "--searches", "1", "--threads", "1", "--seed", "4", "--out", str(curve)]) == 0
    assert all(getattr(owner, name) is fn for (owner, name), fn in originals.items())
    metrics = tracer.metrics()
    assert len(tracer.dp_calls) == 1 and tracer.dp_calls[0][0] == 12
    assert metrics["mle.dp_runs"][0] == 1 + tracer.dp_calls[0][2]
    assert metrics["rng.permutations"][0] == 1 and metrics["rng.shuffles"][0] == 0
    assert metrics["experiments.searches"][0] == 2 and metrics["experiments.probes"][0] >= 2
    assert metrics["sampling.rankings_drawn"][0] == 30 and metrics["estimators.loglik_calls"][0] == 1
    assert metrics["fileio.parse_bytes"][0] == len(profile.read_text())
    assert tracer.counts["cli.exit_nonzero"] == 0
