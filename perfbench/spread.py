#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median and spread.

The spread is the distance between the first and third quartiles of the
runs (statistics.quantiles, n=4) as a share of their median.  Run from the
repository root, one benchmark process at a time:

    python3 perfbench/spread.py [--workload search_bernoulli] --seeds 1-5 [--out results.json]

Without --workload it runs every workload, so one command prints every
end-to-end figure of the benchmark by name, with its unit.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="repeatable (default: every workload in BENCHMARK.json)")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", default=None, help="also write every run's result here as JSON")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    report = {}
    for workload in args.workload or [w["name"] for w in BENCHMARK["workloads"]]:
        runs = []
        for seed in args.seeds:
            cmd = BENCHMARK["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
            *_, record, last = proc.stdout.strip().splitlines()
            result = json.loads(last)
            record = json.loads(record)
            result["named"] = record["named"]
            result["setup_runs_s"] = record["setup_runs_s"]
            runs.append(result)
            figures = " ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["named"].items())
            print(f"{workload} seed={seed} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} {figures}", flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": median, "spread": (q3 - q1) / median, "bound": bound}
            print(f"  {name:12s} median={median:10.4f} spread={(q3 - q1) / median:.4f} bound/3={bound / 3:.4f}")
        named = {}
        for name in runs[0]["named"]:
            values = [r["named"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            named[name] = {"median": median, "unit": runs[0]["named"][name]["unit"],
                           "spread": (q3 - q1) / median if median else None}
        report[workload] = {"seeds": args.seeds, "runs": runs, "summary": summary, "named": named}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
