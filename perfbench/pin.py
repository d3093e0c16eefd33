"""Pin each workload's virtual-time outputs and count proxies per seed.

    python3 perfbench/pin.py

Runs one traced trial per workload and seed 0-31, as many at a time as
this process may use CPUs, and overwrites ``pins.json`` with what each
must reproduce exactly: the virtual outputs and the count proxies.
``run.py`` then refuses any run at a pinned seed that differs.  Re-pin
only for a change that is meant to alter the model or the work done,
and say so where that change is recorded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from run import OUT_DIR, PINS, WORKLOAD_NAMES, counts_of, run_trial

SEEDS = range(32)


def pin_one(job: tuple[str, int]) -> tuple[str, int, dict]:
    workload, seed = job
    trial = run_trial(workload, seed, traced=True, index=0, timeout=600)
    if trial["check_failures"]:
        raise RuntimeError(f"{workload} seed {seed}: {trial['check_failures']}")
    return workload, seed, {"virtual": trial["virtual"], "counts": counts_of(trial)}


def main() -> int:
    os.makedirs(OUT_DIR, exist_ok=True)
    pins: dict = {}
    jobs = [(w, s) for w in WORKLOAD_NAMES for s in SEEDS]
    # Each job is its own interpreter; threads only wait on them.
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        for workload, seed, pinned in pool.map(pin_one, jobs):
            pins.setdefault(workload, {})[str(seed)] = pinned
            print(f"pinned {workload} seed {seed}", flush=True)
    with open(PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"pin: {exc}", file=sys.stderr)
        sys.exit(1)
