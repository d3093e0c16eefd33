"""The repository benchmark: host time and virtual time, per workload.

    python3 perfbench/run.py --workload chain-steady --seed 1 --seconds 25 --trace 0

Runs trials of one workload (see ``workloads.py``), each in a fresh
interpreter, one after another, until ``--seconds`` of wall time have
passed and at least ``MIN_TRIALS`` have run.  With ``--trace 0`` it
reports the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
it alternates untraced and traced trials and reports the per-layer
metrics, ``trace.overhead_pct`` included.  End-to-end host times are
CPU time of the thread that runs the program (``tracing.HOST_CLOCK``)
divided by the machine speed each trial measures (``calibration.py``).

Every trial's outputs are checked (see ``Outcome.check_failures``),
its virtual-time outputs must equal every other trial's and the values
pinned in ``pins.json`` for the same seed, and traced trials must
repeat the count proxies exactly.  If a check fails the last line
reports ``"correct": false`` with no metrics and the exit code is 1; if
a trial crashes, no result line is printed and the exit code is 1.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time

from tracing import COUNT_PROXIES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
PINS = os.path.join(HERE, "pins.json")

WORKLOAD_NAMES = ("fleet-cold", "chain-steady", "vm-enclaves")
MIN_TRIALS = 2
MIN_TRACED_TRIALS = 2
#: setup_s is short; top up with setup-only interpreters to this many.
MIN_SETUP_SAMPLES = 5
#: Start no trial that could end past this many seconds into the run.
HARD_LIMIT_S = 150.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "migrations_per_s": "1/s",
    "mig_host_ms_p50": "ms",
    "mig_host_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "downtime_virt_ms_p50": "ms",
    "total_virt_ms_p50": "ms",
    "transferred_virt_mb": "MB",
    "makespan_virt_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".virt_ms") or name.endswith(".virt_ms_p50"):
        return "ms"
    if name.endswith(".us_per_event"):
        return "us"
    if name.endswith(".reuse_ratio"):
        return "1"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(".bytes") or name.endswith(".bytes.per_mig"):
        return "B"
    return "count"


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def run_trial(
    workload: str, seed: int, traced: bool, index: int, timeout: float, setup_only: bool = False
) -> dict:
    spans_out = os.path.join(OUT_DIR, f"spans-{workload}-s{seed}-t{index}.jsonl")
    cmd = [
        sys.executable,
        os.path.join(HERE, "trial.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--traced", "1" if traced else "0",
        "--spans-out", spans_out,
    ]
    if setup_only:
        cmd.append("--setup-only")
    spawn_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    cmd += ["--spawn-ns", str(spawn_ns)]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(timeout, 1.0)
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"trial {index} ({'traced' if traced else 'untraced'}) exited "
            f"{proc.returncode}:\n{proc.stderr.strip()}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    return result


def run_trials(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Fresh-interpreter trials, one at a time, until the budget is spent."""
    trials: list[dict] = []
    started = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - started
        untraced = [t for t in trials if not t["traced"]]
        traced = [t for t in trials if t["traced"]]
        enough = len(untraced) >= MIN_TRIALS if not trace else (
            len(untraced) >= MIN_TRACED_TRIALS and len(traced) >= MIN_TRACED_TRIALS
        )
        if enough and elapsed >= seconds:
            break
        if enough and elapsed + longest > HARD_LIMIT_S:
            break
        # Traced runs alternate untraced and traced trials.
        want_traced = trace and len(traced) < len(untraced)
        t0 = time.monotonic()
        trials.append(
            run_trial(workload, seed, want_traced, len(trials), HARD_LIMIT_S + 25 - elapsed)
        )
        longest = max(longest, time.monotonic() - t0)
    return trials


def check_trials(workload: str, seed: int, trials: list[dict]) -> list[str]:
    """Cross-trial and pinned checks; returns the failures."""
    failures = [f"trial {i}: {msg}" for i, t in enumerate(trials) for msg in t["check_failures"]]
    first = trials[0]
    for i, trial in enumerate(trials[1:], start=1):
        if trial["virtual"] != first["virtual"]:
            failures.append(f"trial {i}: virtual outputs differ from trial 0")
        if trial["env"] != first["env"]:
            failures.append(f"trial {i}: environment differs from trial 0")
    traced = [t for t in trials if t["traced"]]
    for trial in traced[1:]:
        if counts_of(trial) != counts_of(traced[0]):
            failures.append("count proxies differ between traced trials")
    pinned = load_pins().get(workload, {}).get(str(seed))
    if pinned is not None:
        if first["virtual"] != pinned["virtual"]:
            failures.append(
                f"virtual outputs {first['virtual']} differ from pinned {pinned['virtual']}"
            )
        if traced and counts_of(traced[0]) != pinned["counts"]:
            failures.append(
                f"count proxies {counts_of(traced[0])} differ from pinned {pinned['counts']}"
            )
    return failures


def counts_of(trial: dict) -> dict:
    from_trial = trial.get("layers", {})
    return {name: from_trial.get(name) for name in COUNT_PROXIES}


def load_pins() -> dict:
    with open(PINS, "r", encoding="utf-8") as fh:
        return json.load(fh)


def setup_samples(workload: str, seed: int, trials: list[dict]) -> list[float]:
    """Every untraced trial's setup_s, topped up by setup-only trials.

    Each sample is in seconds of the reference machine (see
    ``calibration.py``), like every host time ``end_to_end`` reports.
    """
    samples = [t["setup_s"] / t["speed"] for t in trials if not t["traced"]]
    while len(samples) < MIN_SETUP_SAMPLES:
        index = len(trials) + len(samples)
        trial = run_trial(workload, seed, False, index, 60, setup_only=True)
        samples.append(trial["setup_s"] / trial["speed"])
    return samples


def end_to_end(trials: list[dict], setups: list[float]) -> dict[str, float]:
    """Host times are divided by each trial's measured machine speed."""
    untraced = [t for t in trials if not t["traced"]]
    latencies = sorted(ns / t["speed"] / 1e6 for t in untraced for ns in t["latency_ns"])
    virtual = untraced[0]["virtual"]
    return {
        "setup_s": statistics.median(setups),
        "migrations_per_s": statistics.median(
            t["migrations"] * t["speed"] / t["run_s"] for t in untraced
        ),
        "mig_host_ms_p50": percentile(latencies, 0.5),
        "mig_host_ms_p90": percentile(latencies, 0.9),
        "peak_rss_mb": statistics.median(t["peak_rss_mb"] for t in untraced),
        "downtime_virt_ms_p50": virtual["downtime_ns_p50"] / 1e6,
        "total_virt_ms_p50": virtual["total_ns_p50"] / 1e6,
        "transferred_virt_mb": virtual["transferred_bytes"] / 2**20,
        "makespan_virt_s": virtual["makespan_ns"] / 1e9,
    }


def per_layer(trials: list[dict]) -> dict[str, float]:
    traced = [t for t in trials if t["traced"]]
    untraced = [t for t in trials if not t["traced"]]
    names = sorted(traced[0]["layers"])
    out = {name: statistics.median(t["layers"][name] for t in traced) for name in names}
    plain = statistics.median(t["run_s"] for t in untraced)
    out["trace.overhead_pct"] = (statistics.median(t["run_s"] for t in traced) / plain - 1) * 100
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    if os.environ.get("REPRO_CRYPTO_BACKEND", "fast") != "fast":
        print("perfbench: refusing to measure: REPRO_CRYPTO_BACKEND is not 'fast'",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    # Byte-compile first (the build step), so every trial imports the
    # same way whether or not the environment lets Python write bytecode.
    if not all(compileall.compile_dir(d, quiet=1) for d in (os.path.join(ROOT, "src"), HERE)):
        print("perfbench: byte-compiling failed", file=sys.stderr)
        return 2
    try:
        trials = run_trials(args.workload, args.seed, args.seconds, bool(args.trace))
        setups = [] if args.trace else setup_samples(args.workload, args.seed, trials)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failures = check_trials(args.workload, args.seed, trials)
    measured = [t for t in trials if t["traced"] == bool(args.trace)]
    attempted = sum(t["attempted"] for t in measured)
    failed = sum(t["failed"] for t in measured)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": trials[0]["env"],
        "pinned": str(args.seed) in load_pins().get(args.workload, {}),
        "failures": failures,
        "trials": [{k: v for k, v in t.items() if k != "latency_ns"} for t in trials],
        "setup_samples_s": setups,
    }
    if failures:
        metrics = {}
    else:
        values = per_layer(trials) if args.trace else end_to_end(trials, setups)
        metrics = {
            name: {
                "value": value,
                "unit": layer_unit(name) if args.trace else END_TO_END_UNITS[name],
            }
            for name, value in values.items()
        }
    record["metrics"] = metrics
    with open(
        os.path.join(OUT_DIR, f"result-{args.workload}-s{args.seed}-trace{args.trace}.json"),
        "w",
        encoding="utf-8",
    ) as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"env: {json.dumps(record['env'], sort_keys=True)}")
    print("machine speed per trial (1 = reference): "
          + " ".join(f"{t['speed']:.3f}" for t in trials))
    print(
        f"workload {args.workload} seed {args.seed}: {len(trials)} trials, "
        f"{attempted} migrations attempted, {failed} failed "
        f"(failed_ratio {failed / attempted if attempted else 0:.4f}), "
        f"pinned seed: {record['pinned']}"
    )
    for message in failures:
        print(f"CHECK FAILED: {message}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
