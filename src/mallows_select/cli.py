"""Command-line entry point: sampling, estimation, recovery, experiments, file audit.

Exit codes: 0 success, 1 usage error, 2 runtime error (budget exhaustion,
infeasible spec, malformed file).  Every run logs its resolved
configuration, seed included, to stderr as one key=value pair per line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from functools import cache
from pathlib import Path

from . import experiments as xp
from .core import MallowsParams, Ranking
from .estimators import positional_estimator, top_k
from .fileio import collect_profile_errors, format_profile, format_selection, parse_profile
from .mle import BudgetExceededError, _check_dp_settings, recover_likelier_than_nature, recover_mle
from .rng import Stream
from .sampling import InfeasibleSpecError, SelectionSpec, _check_frequency, generate_selection, sample_profile


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _log(**pairs) -> None:
    for key, value in pairs.items():
        print(f"{key}={value}", file=sys.stderr)


def _write_out(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_report(out: str, report: xp.Report) -> int:
    """The report's CSV at ``out`` and, where it has a plot and ``out`` is a file, its SVG beside it."""
    _write_out(out, report.to_csv())
    if report.plot is not None and out != "-":
        svg_path = str(Path(out).with_suffix(".svg"))
        Path(svg_path).write_text(report.to_svg())
        _log(svg=svg_path)
    return 0


def _threads(parser: _Parser, flag: int | None) -> int:
    """--threads, else MALLOWS_SELECT_THREADS, else the core count; a value below 1 or not an integer is a usage error."""
    name, threads = "--threads", flag
    if flag is None:
        name, env = "MALLOWS_SELECT_THREADS", os.environ.get("MALLOWS_SELECT_THREADS")
        if not env:
            return os.cpu_count() or 1
        try:
            threads = int(env)
        except ValueError:
            parser.error(f"{name} must be an integer, got {env!r}")
    if threads < 1:
        parser.error(f"{name} must be at least 1, got {threads}")
    return threads


@cache  # built once per process: parse_args gives every call a fresh Namespace
def _build_parser() -> _Parser:
    parser = _Parser(prog="mallows-select", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")

    def add_out(p):
        p.add_argument("--out", default="-", help="output path, '-' for stdout (default)")

    p = sub.add_parser("sample", help="draw a selective Mallows sample profile")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--kind", default="mixed_pfrequent", help="selection kind (default mixed_pfrequent)")
    p.add_argument("--q", type=float, default=None, help="bernoulli inclusion probability (default sqrt(p))")
    p.add_argument("--center", default="identity", help="'identity', 'random', or a comma-separated ranking")
    add_seed(p)
    add_out(p)

    p = sub.add_parser("select", help="generate a selection sequence only")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--kind", default="mixed_pfrequent")
    p.add_argument("--q", type=float, default=None)
    add_seed(p)
    add_out(p)

    p = sub.add_parser("posest", help="positional estimator over a profile file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--emit-raw-scores", action="store_true", help="append a JSON diagnostics blob")
    add_seed(p)
    add_out(p)

    p = sub.add_parser("mle", help="windowed maximum-likelihood recovery over a profile file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--mode", choices=("ltn", "mle"), default="mle")
    p.add_argument("--beta", type=float, default=None, help="spread parameter (default: profile header)")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--radius-override", type=int, default=None)
    p.add_argument("--budget", type=int, default=1 << 22, help="max window masks 2^min(2R+1,n) per position")
    add_seed(p)
    add_out(p)

    p = sub.add_parser("topk", help="top-k prefix of the positional estimate")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    add_seed(p)
    add_out(p)

    # each curve command takes only the options its experiment reads, unabbreviated (--k is not --kind)
    target, searches = ("--target", dict(type=float)), ("--searches", dict(type=int))
    r_grid, k = ("--r-grid", dict(help="comma-separated profile sizes")), ("--k", dict(type=int))
    for name, extra, reads in (
        ("exp-complexity", "sample-complexity curve over 1/p (binary searches)", (target, searches)),
        ("exp-distance", "mean distance to the center over the profile size", (r_grid,)),
        ("exp-topk", "top-k vs full recovery over the profile size", (r_grid, k)),
    ):
        p = sub.add_parser(name, help=extra, allow_abbrev=False)
        p.set_defaults(target=None, searches=None, r_grid=None, k=None)  # an option it lacks reads as unset
        p.add_argument("--preset", choices=("figure1", "figure2", "figure3"), default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--p-values", default=None, help="comma-separated frequency parameters")
        p.add_argument("--trials", type=int, default=None)
        for flag, kwargs in reads:
            p.add_argument(flag, **kwargs)
        p.add_argument("--kind", default=None)
        p.add_argument("--threads", type=int, default=None)
        add_seed(p)
        add_out(p)

    p = sub.add_parser("exp-adversarial", help="failure rate on the starved matching sequence")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--threads", type=int, default=None)
    add_seed(p)
    add_out(p)

    p = sub.add_parser("verify", help="validate profile/selection files")
    p.add_argument("files", nargs="+")
    p.add_argument("--p", type=float, default=None, help="also audit p-frequency")
    add_out(p)

    return parser


def _resolve_center(spec: str, n: int, stream: Stream) -> Ranking:
    if spec == "identity":
        return Ranking.identity(n)
    if spec == "random":
        return Ranking(stream.permutation(n), validate=False)
    ranking = Ranking.from_line(spec)
    if not ranking.is_complete(n):
        raise InfeasibleSpecError(f"--center must be a complete ranking over 0..{n - 1}")
    return ranking


def _experiment_config(args) -> xp.ExperimentConfig:
    if args.preset:
        config = xp.preset(args.preset)
    else:
        if args.n is None or args.beta is None:
            raise InfeasibleSpecError("--n and --beta are required without --preset")
        config = xp.ExperimentConfig(n=args.n, beta=args.beta)
    flags = {
        "n": args.n, "beta": args.beta, "target_success": args.target, "trials_per_point": args.trials,
        "searches": args.searches, "k": args.k, "selection_kind": args.kind, "seed": args.seed,
    }
    updates = {name: value for name, value in flags.items() if value is not None}
    if args.p_values is not None:
        updates["p_values"] = tuple(float(tok) for tok in args.p_values.split(","))
    if args.r_grid is not None:
        updates["r_grid"] = tuple(int(tok) for tok in args.r_grid.split(","))
    return dataclasses.replace(config, **updates)


def _cmd_sample(args) -> int:
    spec = SelectionSpec(kind=args.kind, n=args.n, p=args.p, q=args.q)
    stream = Stream.from_seed(args.seed)
    selection = generate_selection(spec, args.r, stream.child(0))
    center = _resolve_center(args.center, args.n, stream.child(1))
    params = MallowsParams(center, args.beta)
    profile = sample_profile(params, selection, stream.child(2))
    _log(command="sample", n=args.n, beta=args.beta, p=args.p, r=args.r, kind=args.kind, seed=args.seed, center=center.to_line())
    _write_out(args.out, format_profile(profile, beta=args.beta))
    return 0


def _cmd_select(args) -> int:
    spec = SelectionSpec(kind=args.kind, n=args.n, p=args.p, q=args.q)
    stream = Stream.from_seed(args.seed)
    selection = generate_selection(spec, args.r, stream.child(0))
    _log(command="select", n=args.n, p=args.p, r=args.r, kind=args.kind, seed=args.seed)
    _write_out(args.out, format_selection(selection))
    return 0


def _cmd_posest(args) -> int:
    profile, _beta = parse_profile(Path(args.infile).read_bytes())
    result = positional_estimator(profile, Stream.from_seed(args.seed).child(3))
    _log(command="posest", infile=args.infile, n=profile.n, r=len(profile), seed=args.seed)
    text = result.ranking.to_line() + "\n"
    if args.emit_raw_scores:
        blob = dict(result.diagnostics(), raw_scores=list(result.raw_scores))
        text += json.dumps(blob, sort_keys=True) + "\n"
    _write_out(args.out, text)
    return 0


def _cmd_mle(args) -> int:
    _check_dp_settings(args.budget, args.radius_override)
    profile, header_beta = parse_profile(Path(args.infile).read_bytes())
    beta = args.beta if args.beta is not None else header_beta
    if beta is None:
        raise InfeasibleSpecError("--beta required: profile header carries no spread parameter")
    recover = recover_likelier_than_nature if args.mode == "ltn" else recover_mle
    report = recover(
        profile,
        beta,
        args.p,
        alpha=args.alpha,
        stream=Stream.from_seed(args.seed).child(3),
        budget=args.budget,
        radius_override=args.radius_override,
    )
    _log(
        command="mle", infile=args.infile, mode=args.mode, beta=beta, p=args.p, alpha=args.alpha,
        budget=args.budget, seed=args.seed, window_used=report.window_used, widenings=report.widenings,
    )
    _write_out(args.out, json.dumps(report.as_dict(), sort_keys=True) + "\n" + report.result.to_line() + "\n")
    return 0


def _cmd_topk(args) -> int:
    profile, _beta = parse_profile(Path(args.infile).read_bytes())
    result = positional_estimator(profile, Stream.from_seed(args.seed).child(3))
    prefix = top_k(result.ranking, args.k)
    _log(command="topk", infile=args.infile, k=args.k, seed=args.seed)
    _write_out(args.out, prefix.to_line() + "\n")
    return 0


# curve command: (experiment runner, default profile-size grid)
_CURVES = {
    "exp-complexity": (xp.run_complexity_experiment, None),
    "exp-distance": (xp.run_distance_experiment, tuple(range(10, 101, 10))),
    "exp-topk": (xp.run_topk_experiment, tuple(range(5, 51, 5))),
}


def _cmd_exp_curve(args) -> int:
    run, default_grid = _CURVES[args.command]
    config = _experiment_config(args)
    config = dataclasses.replace(config, r_grid=config.r_grid or default_grid)
    _log(command=args.command, threads=args.threads, **config.metadata())
    return _write_report(args.out, run(config, threads=args.threads))


def _cmd_exp_adversarial(args) -> int:
    _log(command="exp-adversarial", n=args.n, beta=args.beta, p=args.p, r=args.r, trials=args.trials, seed=args.seed, threads=args.threads)
    report = xp.run_adversarial_demo(args.n, args.beta, args.p, args.r, args.trials, seed=args.seed, threads=args.threads)
    return _write_report(args.out, report)


def _cmd_verify(args) -> int:
    if args.p is not None:  # before any file is opened, so a bad p is reported whatever the files hold
        _check_frequency(args.p)
    reports = []
    for path in args.files:
        errors = collect_profile_errors(Path(path).read_bytes(), p=args.p)
        reports.append({"file": path, "ok": not errors, "errors": errors})
    _write_out(args.out, json.dumps(reports, sort_keys=True, indent=2) + "\n")
    return 0 if all(report["ok"] for report in reports) else 2


_COMMANDS = {
    "sample": _cmd_sample,
    "select": _cmd_select,
    "posest": _cmd_posest,
    "mle": _cmd_mle,
    "topk": _cmd_topk,
    "verify": _cmd_verify,
    "exp-complexity": _cmd_exp_curve,
    "exp-distance": _cmd_exp_curve,
    "exp-topk": _cmd_exp_curve,
    "exp-adversarial": _cmd_exp_adversarial,
}


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command.startswith("exp-"):
            args.threads = _threads(parser, args.threads)
        return _COMMANDS[args.command](args)
    # ValueError covers FileFormatError and InfeasibleSpecError; MemoryError and OverflowError, a setting too large
    except (BudgetExceededError, xp.SearchCapError, ValueError, OSError, MemoryError, OverflowError) as exc:
        reason = "out of memory" if isinstance(exc, MemoryError) and not str(exc) else exc
        print(f"mallows-select: error: {reason}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
