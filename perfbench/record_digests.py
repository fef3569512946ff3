#!/usr/bin/env python3
"""Pin the outputs of the checked seeds in digests.json.

Runs every distinct operation of the chosen workloads once per seed, checks
it, and stores the sha256 of its output under digests.json[workload][seed].
Entries of other workloads and seeds are kept.  Run from the repository
root after a change that is meant to alter outputs (none should):

    python3 perfbench/record_digests.py [--workload files_mle] [--seeds 0-10]
"""

import argparse
import json
import shutil

import run


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS, help="repeatable (default: all)")
    parser.add_argument("--seeds", type=seed_range, default=list(run.PINNED_SEEDS))
    args = parser.parse_args()
    mods = run.load_package()
    pinned = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    for workload in args.workload or run.WORKLOADS:
        for seed in args.seeds:
            work = run.WORK / f"record-{workload}-{seed}"
            try:
                ops, prepare_checks = run.setup(mods, workload, seed, work)
                prepare_checks()
                records = run.run_loop(mods["cli"], ops, None, count=len(ops))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            errors = run.first_errors(records)
            if errors:
                raise SystemExit(f"{workload} seed {seed}: {errors}")
            pinned.setdefault(workload, {})[str(seed)] = {rec.op.key: rec.digest for rec in records}
            run.DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
            print(f"{workload} seed {seed}: {len(records)} operations pinned", flush=True)


if __name__ == "__main__":
    main()
