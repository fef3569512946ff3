#!/usr/bin/env python3
"""Closed-loop benchmark of the mallows-select library and CLI.

Run from the repository root:

    python3 perfbench/run.py --workload search_mixed --seed 1 --seconds 25 --trace 0

One client drives the package in-process through ``cli.dispatch``; each
operation starts when the previous one has finished (closed loop), and
experiments run with ``--threads 1``.  The inputs come from ``--seed``.

Workloads:
  search_mixed      one figure-1 binary search (mixed p-frequent sets) per operation
  search_bernoulli  one figure-3 binary search (fresh Bernoulli sets every trial)
  files_mle         mle --mode mle on small profile files written in set-up (the windowed DP)
  files_io          sample / posest / topk / mle --mode ltn on large profile files (writer and parser)

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds,
ending on a whole round of the workload's operations.  A fixed reference
loop (reference.py) is timed between operations, and each operation's wall
time is reported as a multiple of it, so that a host that slows down for a
while slows both and the ratio holds.
``--trace 1`` replays a fixed list of operations untraced, then traced
(see tracer.py), checks that both give the same bytes, and reports the
per-layer metrics.  Every output is checked; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
DIGESTS = BENCH_DIR / "digests.json"

WORKLOADS = ("search_mixed", "search_bernoulli", "files_mle", "files_io")
DEFAULT_SEED = 0
PINNED_SEEDS = range(0, 11)  # seeds whose outputs are pinned in digests.json; other seeds get the structural checks only

P_VALUES = (1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6)  # figure 1 and figure 3
SEARCHES_PER_P = 10  # a seed's search pool; operation i runs pool entry i mod 60, p cycling fastest
PRESET_TRIALS = 100  # trials per probe in both presets
WARMUP_SEARCH_SEED = 10**6  # its pool lies outside every seed's pool that a run uses
SEARCH_PRESET = {"search_mixed": ("figure1", "mixed_pfrequent"), "search_bernoulli": ("figure3", "bernoulli_random")}

SMALL_FILES = [(n, r, kind) for n in (20, 24, 30) for r in (20, 40, 80) for kind in ("mixed_pfrequent", "bernoulli_random")]
LARGE_FILES = [(100, 2000)] * 2  # two files of one size (different seeds), so their operations cost alike
TOPK_K = 5

# operations replayed by --trace 1 (untraced, then traced), per second of --seconds
TRACE_OPS_PER_S = {"search_mixed": 0.6, "search_bernoulli": 0.3, "files_mle": 5.0, "files_io": 1.5}
REFERENCE_WARMUP = 3  # untimed runs of the reference loop before the measurement
SETUP_RUNS = 5  # set-ups per run: this process plus SETUP_RUNS - 1 fresh processes started during the run
TRACE_TOLERANCE = 0.01  # share of the dispatch time that may lie outside the root spans
PERCENTILES = (50, 75, 90, 95, 99, 99.9)

# -- loading the package ----------------------------------------------------


def load_package():
    """Import mallows_select from the checkout's src/ and nowhere else.

    numpy is imported here, through the package, and never at module level,
    so its import time counts in setup_s.
    """
    init = SRC / "mallows_select" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: package source not found at {init}")
    sys.path.insert(0, str(SRC))
    from mallows_select import cli, core, estimators, experiments, fileio, mle, plotting, rng, sampling

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: mallows_select imported from {cli.__file__}, not from {SRC}")
    return {
        "cli": cli, "core": core, "estimators": estimators, "experiments": experiments, "fileio": fileio,
        "mle": mle, "plotting": plotting, "rng": rng, "sampling": sampling,
    }


# -- operations ---------------------------------------------------------------


@dataclass
class Op:
    key: str  # stable name of the operation within a seed; digests.json is keyed by it
    cls: str  # search | mle | ltn | read_large | write
    argv: list
    outputs: tuple  # files the command writes; empty when it writes to stdout
    check: object  # check(output bytes) -> (error or None, probe sizes of a search or ())


@dataclass
class Record:
    op: Op
    seconds: float
    error: object
    probes: tuple  # profile sizes r probed by a search, in order; () for other operations
    digest: str
    ref: float = 0.0  # mean time of the reference loop run just before and just after the operation

    @property
    def cost(self) -> float:
        """Wall time as a multiple of the reference loop's time around it."""
        return self.seconds / self.ref

    @property
    def trials(self) -> int:
        return PRESET_TRIALS * len(self.probes)

    @property
    def sets(self) -> int:
        """Rankings sampled by a search: r for every trial of every probe."""
        return PRESET_TRIALS * sum(self.probes)


def execute(cli, op: Op) -> Record:
    """Run one operation through cli.dispatch; only the dispatch call is timed."""
    for path in op.outputs:
        Path(path).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.dispatch(op.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a raising operation is a failed operation, never a crashed run
        rc = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if op.outputs:
        blob = b"\0".join(Path(p).read_bytes() if Path(p).is_file() else b"" for p in op.outputs)
    else:
        blob = out.getvalue().encode()
    digest = hashlib.sha256(blob).hexdigest()
    if rc != 0:
        last = err.getvalue().strip().splitlines()[-1:] or [""]
        return Record(op, seconds, f"exit {rc}: {last[0]}", (), digest)
    try:
        error, probes = op.check(blob)
    except Exception as exc:  # malformed output
        error, probes = f"unreadable output: {type(exc).__name__}: {exc}", ()
    return Record(op, seconds, error, probes, digest)


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_loop(cli, ops, pinned, *, count, seconds=0.0, first=0, rounds_of=1, reference=None):
    """Closed loop over ``ops`` (cycled from index ``first``): at least ``count`` operations, and more until ``seconds`` have passed.

    The loop stops only when ``first`` plus the operations run is a
    multiple of ``rounds_of``, so a run can end on a whole round.

    With ``reference``, that function is timed before the first operation
    and after each one, and each record keeps the mean of the two timings
    around it.
    """
    records = []
    deadline = time.perf_counter() + seconds
    ref_before = timed(reference) if reference else 0.0
    while len(records) < count or time.perf_counter() < deadline or (first + len(records)) % rounds_of:
        rec = execute(cli, ops[(first + len(records)) % len(ops)])
        if reference:
            ref_after = timed(reference)
            rec.ref = (ref_before + ref_after) / 2
            ref_before = ref_after
        if rec.error is None and pinned is not None:
            want = pinned.get(rec.op.key)
            if want is None:
                rec.error = "no pinned digest for this operation"
            elif want != rec.digest:
                rec.error = "output differs from the pinned digest"
        records.append(rec)
    return records


# -- search workloads ---------------------------------------------------------


def search_probes(r_star: int) -> tuple:
    """Profile sizes probed by binary_search_complexity to return r_star, in order.

    Doubling probes r = 1, 2, ..., 2^k (2^(k-1) < r_star <= 2^k), then k - 1
    bisection probes halve the bracket (2^(k-1), 2^k] down to one point.  A
    probe at mid succeeds exactly when r_star <= mid, so r_star fixes the path.
    """
    k = (r_star - 1).bit_length()
    probes = [2**i for i in range(k + 1)]
    lo, hi = 2 ** (k - 1) if k else 0, 2**k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        probes.append(mid)
        lo, hi = (lo, mid) if r_star <= mid else (mid, hi)
    return tuple(probes)


def check_search(blob: bytes, *, p: float, kind: str, seed: int):
    csv, _, svg = blob.partition(b"\0")
    lines = csv.decode().splitlines()
    meta = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
    rows = [line for line in lines if not line.startswith("# ")]
    if rows[0] != "p,inv_p,mean_r_star,std_r_star,searches,trials" or len(rows) != 2:
        return "unexpected CSV layout", ()
    expected_meta = {"n": "20", "beta": "2", "selection_kind": kind, "seed": str(seed), "searches": "1",
                     "trials_per_point": str(PRESET_TRIALS), "estimator": "posest", "target_success": "0.95"}
    for key, value in expected_meta.items():
        if meta.get(key) != value:
            return f"metadata {key}={meta.get(key)!r}, expected {value!r}", ()
    p_txt, inv_txt, mean_txt, std_txt, searches, trials = rows[1].split(",")
    if (p_txt, std_txt, searches, trials) != (f"{p:.6g}", "0", "1", str(PRESET_TRIALS)):
        return f"unexpected row {rows[1]!r}", ()
    r_star = float(mean_txt)
    if r_star != int(r_star) or not 1 <= r_star <= 4096:
        return f"r* = {mean_txt} is not a profile size", ()
    if not (svg.startswith(b"<svg") and svg.rstrip().endswith(b"</svg>")):
        return "missing or truncated SVG", ()
    return None, search_probes(int(r_star))


def search_ops(workload: str, seed: int, work: Path) -> list:
    preset, kind = SEARCH_PRESET[workload]
    pool = len(P_VALUES) * SEARCHES_PER_P
    ops = []
    for i in range(pool):
        p = P_VALUES[i % len(P_VALUES)]
        search_seed = seed * pool + i
        out = work / f"search{i}.csv"
        argv = ["exp-complexity", "--preset", preset, "--threads", "1", "--p-values", repr(p),
                "--searches", "1", "--seed", str(search_seed), "--out", str(out)]
        ops.append(Op(f"search{i}", "search", argv, (out, out.with_suffix(".svg")),
                      partial(check_search, p=p, kind=kind, seed=search_seed)))
    return ops


def setup_search(cli, workload: str, seed: int, work: Path) -> list:
    ops = search_ops(workload, seed, work)
    warm = search_ops(workload, WARMUP_SEARCH_SEED, work / "warmup")[0]  # the same p = 1 search for every seed
    (work / "warmup").mkdir(parents=True, exist_ok=True)
    if execute(cli, warm).error is not None:
        raise SystemExit("perfbench: warm-up search failed")
    return ops


# -- file workload --------------------------------------------------------------


@dataclass
class ProfileFile:
    name: str
    path: Path
    n: int
    r: int
    beta: str
    p: str
    kind: str
    seed: int

    def sample_argv(self, out: Path) -> list:
        return ["sample", "--n", str(self.n), "--beta", self.beta, "--r", str(self.r), "--p", self.p,
                "--kind", self.kind, "--center", "random", "--seed", str(self.seed), "--out", str(out)]


def profile_files(workload: str, seed: int, work: Path) -> list:
    """The workload's input files; file i is sampled with seed 100 * seed + i."""
    if workload == "files_mle":
        specs = [(f"s{n}_r{r}_{kind[0]}", n, r, "2", "0.5", kind) for n, r, kind in SMALL_FILES]
        first = 0
    else:
        specs = [(f"l{n}_r{r}_{i}", n, r, "1", "0.25", "bernoulli_random") for i, (n, r) in enumerate(LARGE_FILES)]
        first = len(SMALL_FILES)
    return [ProfileFile(name, work / f"{name}.txt", n, r, beta, p, kind, seed * 100 + first + idx)
            for idx, (name, n, r, beta, p, kind) in enumerate(specs)]


def _ranking(line: str) -> list:
    return [int(tok) for tok in line.split(",")]


PROFILE_LINE = re.compile(r"S:(\d+(?:,\d+)+)\|R:(\d+(?:,\d+)+)")


def profile_format_error(text: str, f: ProfileFile):
    """Why ``text`` is not a well-formed profile with the file's n, r and beta, or None."""
    lines = text.split("\n")
    if lines[-1] != "":
        return "profile does not end with a newline"
    header, body = lines[0], lines[1:-1]
    if header != f"{f.n},{f.r},{f.beta}":
        return f"header {header!r}, expected {f.n},{f.r},{f.beta}"
    if len(body) != f.r:
        return f"{len(body)} sample lines, expected {f.r}"
    for number, line in enumerate(body, start=2):
        match = PROFILE_LINE.fullmatch(line)
        if match is None:
            return f"line {number} is not S:<set>|R:<ranking>"
        items = _ranking(match[1])
        if items != sorted(set(items)) or items[-1] >= f.n or sorted(_ranking(match[2])) != items:
            return f"line {number}: the set is not sorted and in range, or the ranking does not permute it"
    return None


class FileReference:
    """The benchmark's own reading of a profile file: format check and pair-scan tallies, no library code."""

    def __init__(self, f: ProfileFile):
        import numpy as np

        self.text = f.path.read_bytes()
        self.error = profile_format_error(self.text.decode(), f)
        self.anchor = None  # posest output, set by the posest check
        if self.error:
            return
        self.n, self.beta = f.n, float(f.beta)
        wins = np.zeros((self.n, self.n), dtype=np.int64)
        by_len: dict = {}
        for line in self.text.decode().splitlines()[1:]:
            ranking = _ranking(PROFILE_LINE.fullmatch(line)[2])
            by_len.setdefault(len(ranking), []).append(ranking)
        pairs = 0
        log_z = 0.0
        for m, rows in by_len.items():
            arr = np.array(rows, dtype=np.int64)
            first, second = np.triu_indices(m, 1)
            np.add.at(wins, (arr[:, first].ravel(), arr[:, second].ravel()), 1)
            pairs += len(rows) * m * (m - 1) // 2
            log_z += len(rows) * sum(math.log((1 - math.exp(-t * self.beta)) / (1 - math.exp(-self.beta)))
                                     for t in range(1, m + 1))
        self.wins = wins
        self.pairs = pairs
        self.log_z = log_z
        beaten = 2 * wins.T >= wins + wins.T  # [i, j]: j precedes i in at least half their co-appearances
        np.fill_diagonal(beaten, False)
        self.beaten = beaten.sum(axis=1)

    def score(self, ranking) -> int:
        import numpy as np

        its = np.array(ranking, dtype=np.int64)
        first, second = np.triu_indices(len(its), 1)
        return int(self.wins[its[first], its[second]].sum())

    def is_permutation(self, ranking) -> bool:
        return sorted(ranking) == list(range(self.n))


def check_posest(blob: bytes, *, ref: dict, name: str):
    f = ref[name]
    if f.error:
        return f.error, ()
    ranking = _ranking(blob.decode().strip())
    if not f.is_permutation(ranking):
        return "posest output is not a complete ranking", ()
    scores = [int(f.beaten[x]) for x in ranking]
    if scores != sorted(scores):
        return "posest output is not ordered by positional score", ()
    f.anchor = ranking
    return None, ()


def check_topk(blob: bytes, *, ref: dict, name: str):
    f = ref[name]
    if f.error:
        return f.error, ()
    prefix = _ranking(blob.decode().strip())
    if f.anchor is None or prefix != f.anchor[:TOPK_K]:
        return "topk output is not the prefix of the positional estimate", ()
    return None, ()


def check_mle(blob: bytes, *, ref: dict, name: str, mode: str):
    f = ref[name]
    if f.error:
        return f.error, ()
    head, line, *rest = blob.decode().splitlines()
    report = json.loads(head)
    ranking = _ranking(line)
    if rest or report["ranking"] != ranking or not f.is_permutation(ranking):
        return "mle output is not one report and its complete ranking", ()
    if report["mode"] != mode or report["window_used"] < 1:
        return f"unexpected mode or window in {head!r}", ()
    score = f.score(ranking)
    if report["score"] != score:
        return f"reported score {report['score']} != pair-scan score {score}", ()
    if f.anchor is None or score < f.score(f.anchor):
        return "recovered ranking scores below the positional anchor", ()
    loglik = -f.beta * (f.pairs - score) - f.log_z
    if abs(report["log_likelihood"] - loglik) > 1e-9 * max(1.0, abs(loglik)):
        return f"log_likelihood {report['log_likelihood']} != {loglik}", ()
    return None, ()


def check_write(blob: bytes, *, ref: dict, name: str):
    if ref[name].error:
        return ref[name].error, ()
    if blob != ref[name].text:
        return "sample output differs from the set-up file with the same arguments", ()
    return None, ()


def posest_op(f: ProfileFile, ref: dict) -> Op:
    return Op(f"{f.name}/posest", "read_large", ["posest", "--in", str(f.path), "--seed", str(f.seed)], (),
              partial(check_posest, ref=ref, name=f.name))


def recover_op(f: ProfileFile, ref: dict, mode: str) -> Op:
    label = {"mle": "maximum_likelihood", "ltn": "likelier_than_nature"}[mode]
    return Op(f"{f.name}/{mode}", mode, ["mle", "--in", str(f.path), "--mode", mode, "--p", f.p, "--seed", str(f.seed)],
              (), partial(check_mle, ref=ref, name=f.name, mode=label))


def file_ops(workload: str, files: list, ref: dict, work: Path) -> list:
    """files_mle: mle on every file.  files_io: sample, posest, topk and ltn on every file."""
    if workload == "files_mle":
        return [recover_op(f, ref, "mle") for f in files]
    ops = []
    for f in files:
        out = work / "out" / f"{f.name}.txt"
        ops.append(Op(f"{f.name}/sample", "write", f.sample_argv(out), (out,),
                      partial(check_write, ref=ref, name=f.name)))
        ops.append(posest_op(f, ref))
        ops.append(Op(f"{f.name}/topk", "read_large",
                      ["topk", "--in", str(f.path), "--k", str(TOPK_K), "--seed", str(f.seed)], (),
                      partial(check_topk, ref=ref, name=f.name)))
        ops.append(recover_op(f, ref, "ltn"))
    return ops


def _unchecked(blob: bytes):
    return None, ()


def setup_files(cli, workload: str, seed: int, work: Path):
    files = profile_files(workload, seed, work)
    (work / "out").mkdir(parents=True, exist_ok=True)
    for f in files:
        if execute(cli, Op(f.name, "write", f.sample_argv(f.path), (f.path,), _unchecked)).error:
            raise SystemExit(f"perfbench: could not write the set-up file {f.name}")
    ref: dict = {}
    ops = file_ops(workload, files, ref, work)
    # the recovery on the first file parses, counts, estimates and scores; writing the files warmed sample
    warm = next(op for op in ops if op.cls in ("mle", "ltn"))
    if execute(cli, replace(warm, check=_unchecked)).error:
        raise SystemExit(f"perfbench: warm-up {warm.key} failed")

    def prepare_checks():
        """Reference tallies of every file, and its posest anchor (run untimed) for the mle and topk checks."""
        ref.update((f.name, FileReference(f)) for f in files)
        for f in files:
            execute(cli, posest_op(f, ref))

    return ops, prepare_checks


# -- set-up ---------------------------------------------------------------------


def setup(mods, workload: str, seed: int, work: Path):
    """Write the inputs and warm the caches.

    Returns the operations and a function, called after set-up is timed,
    that builds the benchmark's own reference data for the output checks.
    """
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cli = mods["cli"]
    if workload.startswith("files_"):
        return setup_files(cli, workload, seed, work)
    return setup_search(cli, workload, seed, work), lambda: None


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of a fresh process: imports, inputs and warm-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up in a fresh process failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


# -- statistics -------------------------------------------------------------------


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail(values) -> tuple:
    """Highest listed percentile with at least ten samples beyond it: (pct, value)."""
    best = None
    for pct in PERCENTILES:
        if len(values) - math.ceil(pct / 100 * len(values)) >= 10:
            best = (pct, nearest_rank(values, pct))
    return best or (50, nearest_rank(values, 50))


def noise_record() -> dict:
    import numpy

    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu_model": model,
        "python": platform.python_version(), "numpy": numpy.__version__, "loadavg": os.getloadavg(),
    }


def steal_ticks() -> int:
    """Cumulative steal ticks of all CPUs from /proc/stat (read-only), or -1."""
    with contextlib.suppress(OSError, IndexError, ValueError):
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8])
    return -1


def unit_cost(workload: str, records) -> float:
    """Operation time per unit of work, in reference-loop times (see reference.py).

    The unit is 1000 sampled rankings on the search workloads, whose searches
    differ in size with their r*, and one command on the file workloads (and
    on a search workload none of whose searches gave a result).
    """
    units = sum(r.sets for r in records) / 1000 if workload in SEARCH_PRESET else 0
    return sum(r.cost for r in records) / (units or len(records))


def per_class(records, cls) -> list:
    return [r.seconds for r in records if r.op.cls == cls]


def detail_metrics(workload: str, records, setup_s: float, rss_mb: float) -> dict:
    """The named end-to-end figures of the workload, with their units."""
    out = {"setup_s": (setup_s, "s")}
    failed = sum(r.error is not None for r in records)
    busy = sum(r.seconds for r in records)
    if workload == "files_mle":
        mle = per_class(records, "mle")
        pct, value = tail(mle)
        out.update({
            "mle_ms_p50": (1000 * statistics.median(mle), "ms"),
            "mle_ms_tail": (1000 * value, "ms", {"percentile": pct, "samples": len(mle)}),
        })
    elif workload == "files_io":
        out.update({
            "read_large_ms_p50": (1000 * statistics.median(per_class(records, "read_large")), "ms"),
            "ltn_ms_p50": (1000 * statistics.median(per_class(records, "ltn")), "ms"),
            "write_ms_p50": (1000 * statistics.median(per_class(records, "write")), "ms"),
        })
    else:
        searches = per_class(records, "search")
        pct, value = tail(searches)
        out.update({
            "trials_per_s": (sum(r.trials for r in records) / busy, "1/s"),
            "sets_per_s": (sum(r.sets for r in records) / busy, "1/s"),
            "search_ms_p50": (1000 * statistics.median(searches), "ms"),
            "search_ms_tail": (1000 * value, "ms", {"percentile": pct, "samples": len(searches)}),
        })
    times = [r.seconds for r in records]
    out["op_ms_p50"] = (1000 * statistics.median(times), "ms")
    out["ops_per_s"] = (len(records) / busy, "1/s")
    out["ref_ms_p50"] = (1000 * statistics.median(r.ref for r in records), "ms")
    out["op_cost_p50"] = (statistics.median(r.cost for r in records), "ref")
    out["fail_frac"] = (failed / len(records), "ratio", {"failed": failed, "attempted": len(records)})
    out["peak_rss_mb"] = (rss_mb, "MB")
    return out


# -- runs ---------------------------------------------------------------------------


def first_errors(records, limit=5) -> list:
    return [f"{r.op.key}: {r.error}" for r in records if r.error is not None][:limit]


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))


def measured_run(mods, workload, seed, seconds, ops, prepare_checks, setup_main) -> None:
    from reference import reference_loop

    prepare_checks()
    pinned = load_pinned(workload, seed)
    for _ in range(REFERENCE_WARMUP):
        reference_loop()
    setups, records = [setup_main], []
    steal0, wall0 = steal_ticks(), time.perf_counter()
    # the measurement is cut into SETUP_RUNS parts with a fresh set-up between two parts, so the
    # set-ups sample the whole run rather than one moment of the host
    for part in range(SETUP_RUNS):
        if part:
            setups.append(fresh_setup_seconds(workload, seed))
        last = part == SETUP_RUNS - 1  # the last part ends on a whole round, so every op class weighs alike
        records += run_loop(mods["cli"], ops, pinned, count=0, seconds=seconds / SETUP_RUNS, first=len(records),
                            rounds_of=cycle_length(workload, ops) if last else 1, reference=reference_loop)
    steal1, wall = steal_ticks(), time.perf_counter() - wall0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = sum(r.error is not None for r in records)
    setup_s = statistics.median(setups)
    metrics = {
        "setup_s": (setup_s, "s"),
        "unit_cost": (unit_cost(workload, records), "ref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    details = detail_metrics(workload, records, setup_s, rss_mb)
    for name, (value, unit, *extra) in details.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  {extra[0]}" if extra else ""))
    print(json.dumps({
        "workload": workload, "seed": seed, "wall_s": wall, "setup_runs_s": setups,
        "pinned_digests_checked": pinned is not None, "steal_ticks": steal1 - steal0 if steal0 >= 0 else None,
        "machine": noise_record(), "errors": first_errors(records),
        "named": {name: {"value": v[0], "unit": v[1], **(v[2] if len(v) > 2 else {})} for name, v in details.items()},
    }))
    emit(failed == 0, len(records), failed, metrics)


def traced_run(mods, workload, seed, seconds, ops, prepare_checks) -> None:
    from tracer import Tracer

    prepare_checks()
    pinned = load_pinned(workload, seed)
    count = trace_op_count(workload, seconds, ops)
    cli, xp = mods["cli"], mods["experiments"]
    wall0 = time.perf_counter()
    plain = run_loop(cli, ops, pinned, count=count)
    plain_wall = time.perf_counter() - wall0
    cache = getattr(xp, "_cached_selection", None)
    info0 = cache.cache_info() if cache is not None else None
    steal0 = steal_ticks()
    with Tracer(mods) as tracer:
        wall0 = time.perf_counter()
        traced = run_loop(cli, ops, pinned, count=count)
        traced_wall = time.perf_counter() - wall0
    steal1 = steal_ticks()
    for a, b in zip(plain, traced):
        if b.error is None and a.digest != b.digest:
            b.error = "traced output differs from the untraced output"
    metrics = tracer.metrics()
    _, roots = tracer.self_times()
    problems = []
    lookups = hits = 0
    if info0 is not None:
        info1 = cache.cache_info()
        hits = info1.hits - info0.hits
        lookups = hits + info1.misses - info0.misses
    metrics["sampling.selection_cache_lookups"] = (lookups, "count")
    metrics["sampling.selection_cache_hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.unattributed_s"] = (traced_wall - roots, "s")
    # the self times add up to the root spans by construction; check those against the clock
    # that execute() keeps around each cli.dispatch call
    dispatched = sum(r.seconds for r in traced)
    if not 0 <= dispatched - roots <= TRACE_TOLERANCE * dispatched:
        problems.append(f"root spans cover {roots:.6f} s of the {dispatched:.6f} s timed around cli.dispatch")
    probes = sum(r.trials for r in traced) // PRESET_TRIALS  # only searches report trials
    if "experiments.estimate_success_rate" not in tracer.missing and probes != tracer.counts["experiments.probes"]:
        problems.append(f"traced probes {tracer.counts['experiments.probes']} != {probes} implied by the results")
    sets = sum(r.sets for r in traced)  # the unit of work of unit_cost on the search workloads
    if "experiments.run_trial" not in tracer.missing and sets != tracer.counts["experiments.sets_sampled"]:
        problems.append(f"traced sets {tracer.counts['experiments.sets_sampled']} != {sets} implied by the results")
    spans_path = WORK / f"trace-{workload}-{seed}.jsonl"
    tracer.write_spans(spans_path)
    records = plain + traced
    failed = sum(r.error is not None for r in records)
    print(json.dumps({
        "workload": workload, "seed": seed, "operations": count, "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall, "spans": len(tracer.spans), "spans_file": str(spans_path.relative_to(ROOT)),
        "missing_hooks": tracer.missing, "problems": problems, "steal_ticks": steal1 - steal0 if steal0 >= 0 else None,
        "machine": noise_record(), "errors": first_errors(records),
    }))
    emit(failed == 0 and not problems, len(records), failed, metrics)


def cycle_length(workload: str, ops) -> int:
    """Operations in one round of every op class: one search per p, or every command on every file."""
    return len(P_VALUES) if workload in SEARCH_PRESET else len(ops)


def trace_op_count(workload: str, seconds: int, ops) -> int:
    """Fixed operation count of a traced run, in whole rounds."""
    unit = cycle_length(workload, ops)
    return unit * max(1, round(seconds * TRACE_OPS_PER_S[workload] / unit))


def load_pinned(workload: str, seed: int):
    if seed not in PINNED_SEEDS:
        return None
    if not DIGESTS.is_file():
        raise SystemExit(f"perfbench: {DIGESTS.name} is missing")
    pinned = json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))
    if pinned is None:
        raise SystemExit(f"perfbench: {DIGESTS.name} has no digests for {workload} seed {seed}")
    return pinned


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit; measured runs call this for setup_s")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    start = time.perf_counter()
    try:
        mods = load_package()
        ops, prepare_checks = setup(mods, args.workload, args.seed, work)
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(setup_s)
        elif args.trace:
            traced_run(mods, args.workload, args.seed, args.seconds, ops, prepare_checks)
        else:
            measured_run(mods, args.workload, args.seed, args.seconds, ops, prepare_checks, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
