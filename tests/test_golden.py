"""Golden bytes: sha256 digests of small CLI runs, pinned so refactors keep every output.

Each case runs through ``cli.dispatch`` in-process and hashes the files it
writes (CSV, SVG, sampled profile) or its stdout.  stderr carries paths and
is not hashed.  A digest changes only when an output byte changes.  The
digests hold on the compiled row kernels and, in a process that finds no C
compiler, on their numpy forms.
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mallows_select
from mallows_select.cli import dispatch

EXPERIMENTS = {
    "complexity_mixed": [
        "exp-complexity", "--n", "6", "--beta", "1.5", "--p-values", "1,0.5",
        "--trials", "10", "--searches", "3", "--seed", "3",
    ],
    "complexity_bernoulli": [
        "exp-complexity", "--n", "6", "--beta", "1.5", "--p-values", "1,0.25",
        "--trials", "10", "--searches", "3", "--kind", "bernoulli_random", "--seed", "4",
    ],
    "distance_figure2": ["exp-distance", "--preset", "figure2", "--trials", "3", "--seed", "5"],
    "topk": [
        "exp-topk", "--n", "8", "--beta", "1", "--p-values", "0.5", "--k", "3",
        "--trials", "10", "--r-grid", "5,10,20", "--seed", "6",
    ],
    "adversarial": ["exp-adversarial", "--n", "8", "--beta", "1", "--p", "0.5", "--r", "4", "--trials", "50", "--seed", "7"],
    # figure scale: p=1/6 cells are mostly pairs, and a pair-only cell at n=60
    "complexity_figure1": [
        "exp-complexity", "--preset", "figure1", "--searches", "1", "--p-values", "0.1666666667",
        "--trials", "20", "--seed", "12",
    ],
    "complexity_figure3": [
        "exp-complexity", "--preset", "figure3", "--searches", "1", "--p-values", "0.1666666667",
        "--trials", "20", "--seed", "12",
    ],
    "distance_pairwise": [
        "exp-distance", "--n", "60", "--beta", "1", "--p-values", "1", "--kind", "pairwise",
        "--r-grid", "400", "--trials", "5", "--seed", "13",
    ],
}

SAMPLE = [
    "sample", "--n", "8", "--beta", "1.5", "--r", "30", "--p", "0.5",
    "--kind", "bernoulli_random", "--center", "random", "--seed", "8",
]

# one sample per deterministic selection kind, each around a random center
SAMPLE_KINDS = {
    f"sample_{kind}.txt": [
        "sample", "--n", str(n), "--beta", "1.2", "--r", "40", "--kind", kind, "--p", p,
        "--center", "random", "--seed", "11",
    ]
    for kind, n, p in [
        ("complete", 7, "1"), ("pairwise", 7, "1"), ("mixed_pfrequent", 7, "0.25"), ("adversarial_matching", 8, "0.25"),
    ]
}

# one selection file per kind, each through the selection writer
SELECT_KINDS = {
    f"select_{kind}.txt": [
        "select", "--n", "8", "--r", "40", "--kind", kind, "--p", "0.25", "--seed", "11",
    ]
    for kind in ("complete", "pairwise", "mixed_pfrequent", "bernoulli_random", "adversarial_matching")
}

# the p-frequency audit of one selection file: its JSON report pins the worst pair and its count
VERIFY = ("verify_bernoulli_random", "select_bernoulli_random.txt", ["verify", "--p", "0.25"])

READERS = {
    "posest": ["posest", "--emit-raw-scores", "--seed", "9"],
    "mle": ["mle", "--mode", "mle", "--p", "0.5", "--seed", "9"],
    "ltn": ["mle", "--mode", "ltn", "--p", "0.5", "--seed", "9"],
}

# a tie-heavy profile, so the readers' outputs pin the tie shuffle: at --seed 9
# the positional estimate's tie groups are [[2, 5, 6], [1, 3, 4, 7, 8, 9, 10, 11]]
TIES = ["sample", "--n", "12", "--beta", "1", "--r", "6", "--kind", "pairwise", "--center", "random", "--seed", "10"]

TIE_READERS = {
    "posest_ties": READERS["posest"],
    "ltn_ties": READERS["ltn"],
    "topk_ties": ["topk", "--k", "5", "--seed", "9"],
}

GOLDEN = {
    "complexity_mixed.csv": "d1e898efd017ef50c8ef983fb3b3abbeb07834c2f0bad67f5f3bdf52fe547a41",
    "complexity_mixed.svg": "f2a31fb7c722d3b4a45aac0b5c259a03e695fcc811e47194c4eca3c318282dd9",
    "complexity_bernoulli.csv": "354fce2d12a77f4010b6c9f04d1884dabccff189586884813b67c8311555a002",
    "complexity_bernoulli.svg": "80fb7d395606f9a1a1dd1901b29b7868def1919bc1a770ac4098c48501ed3ed8",
    "distance_figure2.csv": "b8b3aefc1b427399ec6f79dd8a3220d59f06461e7c94083c89f99d93a2d7d7f7",
    "distance_figure2.svg": "1083aa6407bd854480601365a158493f9f4f70416d0222cdcb948e51e03f1211",
    "topk.csv": "d36a1a365b73108b2d9d6010602da813dfd200ba8619993ebe2364fe9dc7a529",
    "topk.svg": "aca5f7bf2c22983924352ff2309ef41c99121329627794ba018246ba858fd0e1",
    "adversarial.csv": "835ec6e730965a859247f1362dd23a11a75e5fcba2ff17bd7a2e67adee34f7cc",
    "complexity_figure1.csv": "8aba37ef786a0740a7ae8a3b4b33b0062b23d132c4792e549fb181b332cc0aa4",
    "complexity_figure1.svg": "aa9b71e66e2fa8fc509ee7c8dc401480c3da92d84e61e749127d4f67f4f3a1c5",
    "complexity_figure3.csv": "20bc74e51f5f2983eddee4c8ca7f9757a26d9a365d9d87d0936dbdb83f636924",
    "complexity_figure3.svg": "b0c09fa0edba229baea791e266a645b54b8afc6d56925df954e45a1d9e54dfcb",
    "distance_pairwise.csv": "08d5db84ed954baeb0c80015a1a674e8195cbc77067abefdd9abcedda8d1436e",
    "distance_pairwise.svg": "11db62a8850528786781d532efce6745169a767e5044c5e056624c59127dffcb",
    "sample.txt": "8930d9ba0ff8ae081f669fdac22fccf6c1ecc7540f02af1488e64243a5ef4a31",
    "sample_complete.txt": "6df7a22f37e05f491c6c63c8847d2b4a9aeee09903c2c764793ca7289145d5f3",
    "sample_pairwise.txt": "03fb65066d5b1bef3810fd9570c7e0dea4cfe64410c16f03fd6799e04c4c233a",
    "sample_mixed_pfrequent.txt": "e455410e4cbee34c3a287e5a8d625497292a0cd9e1e215cf4d9cc74dc90d50ae",
    "sample_adversarial_matching.txt": "96100c47a89ec113b8ff7145cb9114f10674d215160d3b0d1c3d6c447a8df2df",
    "posest": "a84d274cb78344aa15083d58fe40554d4bf60b37c4404935f69ee1cb99b2b892",
    "mle": "eec01e30f7ba0286b54f1a23c0f92b1d1b7725b5da631b11f866318a94dd7d5b",
    "ltn": "a38c179d3e868e60bf399ee9222405d27c602b8d6a8c4b87e2dcf216e7790ee2",
    "select_complete.txt": "0940dbf8c8d501d64a0c1418f2571e13dc35b6e697d5fb4dccb4645f22719943",
    "select_pairwise.txt": "6d1575f665cd6efe5cb884a569d1ffaa63ab2e37ad7ee38d43e3f8eee193841f",
    "select_mixed_pfrequent.txt": "ccebe614f3a535d578e5aa82f769d58fd2b24e4ead6e155f4058c1207bcee83a",
    "select_bernoulli_random.txt": "54056f0181cb69231e0d1005b23e558f7b02480880491300aebd6aed37c42386",
    "select_adversarial_matching.txt": "50b0329bcb0121a23ff81030a7040f0290b124af1206bf5638cc579b51b1eebc",
    "verify_bernoulli_random": "9031e88b73b2da4ee30639bcc46bf8aea39f041aff30e7a2285396f59ef6d716",
    "sample_ties.txt": "5316d62ac71362c884250fb20fcc10cb321a4ba81bc1647c37f01b1056a7cbae",
    "posest_ties": "4af5e81f2b033211885e17ce4a895894b3059c3ce8ef1d0c10dab419493d63a5",
    "ltn_ties": "3c6d369f9846e91293b3f55176a2c357023d136a40f45ec6803dd8b9da3ce325",
    "topk_ties": "4789e5789b686c931ff084fe5592778b94a62c013c1b7534ef74452c2e22e013",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compute_digests(tmp: Path) -> dict[str, str]:
    """The digest of every pinned output, written into the directory ``tmp``."""
    out = {}
    for name, argv in EXPERIMENTS.items():
        csv = tmp / f"{name}.csv"
        assert dispatch(argv + ["--threads", "1", "--out", str(csv)]) == 0
        out[csv.name] = _sha(csv.read_bytes())
        svg = csv.with_suffix(".svg")
        if svg.exists():
            out[svg.name] = _sha(svg.read_bytes())
    profile = tmp / "sample.txt"
    assert dispatch(SAMPLE + ["--out", str(profile)]) == 0
    out[profile.name] = _sha(profile.read_bytes())
    for name, argv in SAMPLE_KINDS.items():
        path = tmp / name
        assert dispatch(argv + ["--out", str(path)]) == 0
        out[name] = _sha(path.read_bytes())
    for name, argv in SELECT_KINDS.items():
        path = tmp / name
        assert dispatch(argv + ["--out", str(path)]) == 0
        out[name] = _sha(path.read_bytes())
    name, source, argv = VERIFY
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)  # the report names each file as given, so give it relative
        assert dispatch(argv + [source, "--out", f"{name}.json"]) == 2
    out[name] = _sha((tmp / f"{name}.json").read_bytes())
    ties = tmp / "sample_ties.txt"
    assert dispatch(TIES + ["--out", str(ties)]) == 0
    out[ties.name] = _sha(ties.read_bytes())
    for readers, source in ((READERS, profile), (TIE_READERS, ties)):
        for name, argv in readers.items():
            result = tmp / f"{name}.out"
            assert dispatch(argv + ["--in", str(source), "--out", str(result)]) == 0
            out[name] = _sha(result.read_bytes())
    return out


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return compute_digests(tmp_path_factory.mktemp("golden"))


def test_outputs_cover_every_pinned_file(digests):
    assert sorted(digests) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_unchanged(digests, name):
    assert digests[name] == GOLDEN[name]


def test_numpy_row_kernels_give_the_same_bytes(tmp_path):
    # a copy of the package with no built library, run where no C compiler is on the path
    package = tmp_path / "package" / "mallows_select"
    shutil.copytree(Path(mallows_select.__file__).parent, package, ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "bin").mkdir()
    (tmp_path / "out").mkdir()
    script = """if True:
        import contextlib, io, json, sys
        from pathlib import Path
        import test_golden
        from mallows_select import core
        with contextlib.redirect_stderr(io.StringIO()) as log:
            digests = test_golden.compute_digests(Path(sys.argv[1]))
        kernels = repr(core._row_kernels())
        print(json.dumps({"core": core.__file__, "kernels": kernels, "digests": digests, "log": log.getvalue()}))
    """
    path = os.pathsep.join([str(package.parent), str(Path(__file__).parent)])
    env = {**os.environ, "PATH": str(tmp_path / "bin"), "PYTHONPATH": path}
    command = [sys.executable, "-c", script, str(tmp_path / "out")]
    run = subprocess.run(command, env=env, cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert (run.returncode, run.stderr) == (0, "")
    report = json.loads(run.stdout)
    assert Path(report["core"]).parent == package and report["kernels"] == "None"
    assert not list(package.glob("__pycache__/_rows*"))
    assert report["digests"] == GOLDEN
    # the commands' own stderr: the resolved settings, one key=value per line, and nothing else
    assert all(re.fullmatch(r"[\w-]+=.*", line) for line in report["log"].splitlines())
