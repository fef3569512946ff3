"""Out-of-library tracer for the benchmark's traced runs.

Wraps the public functions of each ``mallows_select`` module where they
are imported (``cli.parse_profile``, ``experiments.sample_profile``,
``mle.log_likelihood``, ``Stream.permutation`` and so on), records one
span per call in memory with its parent span, counts work at the same
boundaries, and restores every original on exit.  Nothing is patched
unless a ``Tracer`` is entered, so untraced runs execute the library as is.

A layer's self time is the total duration of its spans minus the time
covered by their traced children.  Calls nest strictly (one thread), so
the self times of all layers add up to the time covered by root spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from collections import Counter, defaultdict
from math import comb

from dpcount import dp_counts, widening_radii

# span bucket -> per-layer self-time metric
SELF_TIME_METRICS = {
    "cli": "cli.self_s",
    "experiments": "experiments.self_s",
    "rng.permutation": "rng.permutation_s",
    "sampling.selection": "sampling.selection_s",
    "sampling.sample": "sampling.sample_s",
    "estimators.count": "estimators.count_s",
    "estimators.posest": "estimators.posest_s",
    "estimators.loglik": "estimators.loglik_s",
    "mle": "mle.self_s",
    "fileio.parse": "fileio.parse_s",
    "fileio.format": "fileio.format_s",
    "plotting.svg": "plotting.svg_s",
}

COUNT_METRICS = (
    "experiments.searches",
    "experiments.probes",
    "experiments.trials",
    "experiments.sets_sampled",
    "rng.permutations",
    "rng.shuffles",
    "sampling.selection_calls",
    "sampling.rankings_drawn",
    "sampling.insertions",
    "core.rankings_built",
    "estimators.pair_observations",
    "estimators.tie_groups",
    "estimators.loglik_calls",
    "mle.widenings",
    "mle.budget_errors",
    "cli.exit_nonzero",
)

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Context manager that installs the wrappers on enter and restores them on exit."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple[int, int, str, float, float]] = []  # (id, parent, bucket, start, end)
        self.counts: Counter = Counter()
        self.dp_calls: list[tuple[int, int, int]] = []  # (n, first radius, widenings)
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._stack = [0]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, bucket, fn, after=None, on_error=None):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans.append((sid, parent, bucket, start, clock()))
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            spans.append((sid, parent, bucket, start, clock()))
            stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    @staticmethod
    def _count(fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, name, sites, make):
        """Wrap the function found at the first site and install it at every site holding it."""
        owner, attr = sites[0]
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        wrapper = make(original)
        for owner, attr in sites:
            if getattr(owner, attr, None) is original:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    # -- hooks ----------------------------------------------------------------

    def __enter__(self):
        m = self.modules
        cli, xp, rng, sampling = m["cli"], m["experiments"], m["rng"], m["sampling"]
        core, est, mle, fileio, plotting = m["core"], m["estimators"], m["mle"], m["fileio"], m["plotting"]
        c = self.counts

        def bump(key, amount=1):
            def after(args, kwargs, result):
                c[key] += amount
            return after

        def dispatch_done(args, kwargs, rc):
            c["cli.exit_nonzero"] += rc != 0

        def dispatch_error(exc):
            if isinstance(exc, SystemExit) and exc.code not in (0, None):
                c["cli.exit_nonzero"] += 1

        def probe_done(args, kwargs, result):
            c["experiments.probes"] += 1
            c["experiments.trials"] += _arg(args, kwargs, 4, "trials")

        def trial_done(args, kwargs, result):
            c["experiments.sets_sampled"] += _arg(args, kwargs, 3, "r")

        def sampled(args, kwargs, profile):
            selection = _arg(args, kwargs, 1, "selection")
            c["sampling.rankings_drawn"] += len(profile)
            c["sampling.insertions"] += sum(len(s) for s in selection) - len(selection)

        def counted(args, kwargs, result):
            c["estimators.pair_observations"] += sum(comb(len(rk), 2) for rk in _arg(args, kwargs, 0, "profile"))

        def posest_done(args, kwargs, result):
            c["estimators.tie_groups"] += len(result.tie_groups)

        def recovered(args, kwargs, report):
            c["mle.widenings"] += report.widenings

        def recover_error(exc):
            if isinstance(exc, mle.BudgetExceededError):
                c["mle.budget_errors"] += 1

        def widened(args, kwargs, result):
            n = _arg(args, kwargs, 0, "counts").n
            self.dp_calls.append((n, _arg(args, kwargs, 2, "radius"), result[3]))

        def parsed(args, kwargs, result):
            c["fileio.parse_bytes"] += len(_arg(args, kwargs, 0, "text"))

        def formatted(args, kwargs, text):
            c["fileio.format_bytes"] += len(text)

        span, count = self._span, self._count
        hooks = [
            ("cli.dispatch", [(cli, "dispatch")], lambda f: span("cli", f, dispatch_done, dispatch_error)),
            ("experiments.run_complexity_experiment", [(xp, "run_complexity_experiment")], lambda f: span("experiments", f)),
            ("experiments.binary_search_complexity", [(xp, "binary_search_complexity")],
             lambda f: span("experiments", f, bump("experiments.searches"))),
            ("experiments.estimate_success_rate", [(xp, "estimate_success_rate")], lambda f: span("experiments", f, probe_done)),
            ("experiments.run_trial", [(xp, "run_trial")], lambda f: count(f, trial_done)),
            ("rng.Stream.permutation", [(rng.Stream, "permutation")],
             lambda f: span("rng.permutation", f, bump("rng.permutations"))),
            ("rng.Stream.shuffle", [(rng.Stream, "shuffle")], lambda f: count(f, bump("rng.shuffles"))),
            ("sampling.generate_selection", [(sampling, "generate_selection"), (xp, "generate_selection"), (cli, "generate_selection")],
             lambda f: span("sampling.selection", f, bump("sampling.selection_calls"))),
            ("sampling.sample_profile", [(sampling, "sample_profile"), (xp, "sample_profile"), (cli, "sample_profile")],
             lambda f: span("sampling.sample", f, sampled)),
            ("core.Ranking.__init__", [(core.Ranking, "__init__")], lambda f: count(f, bump("core.rankings_built"))),
            ("estimators.accumulate_counts", [(est, "accumulate_counts"), (mle, "accumulate_counts")],
             lambda f: span("estimators.count", f, counted)),
            ("estimators.positional_estimator", [(est, "positional_estimator"), (xp, "positional_estimator"), (cli, "positional_estimator")],
             lambda f: span("estimators.posest", f)),
            ("estimators.positional_estimator_from_counts", [(est, "positional_estimator_from_counts"), (mle, "positional_estimator_from_counts")],
             lambda f: span("estimators.posest", f, posest_done)),
            ("estimators.log_likelihood", [(est, "log_likelihood"), (mle, "log_likelihood")],
             lambda f: span("estimators.loglik", f, bump("estimators.loglik_calls"))),
            ("mle.recover_mle", [(mle, "recover_mle"), (xp, "recover_mle"), (cli, "recover_mle")],
             lambda f: span("mle", f, recovered, recover_error)),
            ("mle.recover_likelier_than_nature",
             [(mle, "recover_likelier_than_nature"), (xp, "recover_likelier_than_nature"), (cli, "recover_likelier_than_nature")],
             lambda f: span("mle", f, recovered, recover_error)),
            ("mle._maximize_with_widening", [(mle, "_maximize_with_widening")], lambda f: count(f, widened)),
            ("fileio.parse_profile", [(fileio, "parse_profile"), (cli, "parse_profile")], lambda f: span("fileio.parse", f, parsed)),
            ("fileio.format_profile", [(fileio, "format_profile"), (cli, "format_profile")], lambda f: span("fileio.format", f, formatted)),
            ("plotting.line_plot_svg", [(plotting, "line_plot_svg")], lambda f: span("plotting.svg", f)),
        ]
        for name, sites, make in hooks:
            self._patch(name, sites, make)
        return self

    def __exit__(self, *exc_info):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- results --------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self time per bucket and the total duration of root spans."""
        children: defaultdict[int, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        roots = 0.0
        for sid, parent, bucket, start, end in self.spans:  # children end, and are appended, before parents
            duration = end - start
            own[bucket] += duration - children.pop(sid, 0.0)
            children[parent] += duration
            if parent == 0:
                roots += duration
        return dict(own), roots

    def metrics(self) -> dict[str, tuple[float, str]]:
        own, _ = self.self_times()
        out = {metric: (own.get(bucket, 0.0), "s") for bucket, metric in SELF_TIME_METRICS.items()}
        out.update({name: (self.counts[name], "count") for name in COUNT_METRICS})
        masks = reachable = candidates = table_bytes = radius_max = runs = 0
        for n, first, widenings in self.dp_calls:
            for radius in widening_radii(n, first, widenings):
                dp = dp_counts(n, radius)
                masks += dp["masks"]
                reachable += dp["reachable"]
                candidates += dp["candidates"]
                table_bytes = max(table_bytes, dp["table_bytes"])
                radius_max = max(radius_max, radius)
                runs += 1
        out["mle.dp_runs"] = (runs, "count")
        out["mle.radius_max"] = (radius_max, "count")
        out["mle.dp_masks"] = (masks, "count")
        out["mle.dp_reachable"] = (reachable, "count")
        out["mle.dp_candidates"] = (candidates, "count")
        out["mle.dp_table_bytes"] = (table_bytes, "bytes")
        out["fileio.parse_bytes"] = (self.counts["fileio.parse_bytes"], "bytes")
        out["fileio.format_bytes"] = (self.counts["fileio.format_bytes"], "bytes")
        parse_s = own.get("fileio.parse", 0.0)
        out["fileio.parse_mb_per_s"] = (self.counts["fileio.parse_bytes"] / parse_s / 1e6 if parse_s else 0.0, "MB/s")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, bucket, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "layer": bucket, "start": start, "end": end}) + "\n")
