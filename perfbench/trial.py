"""One timed trial of one workload, in a fresh interpreter.

``run.py`` starts this file once per trial, so the keygen memo, the
cipher cache and every other process-wide cache start empty.  It prints
one JSON object on its last line: host times (``tracing.HOST_CLOCK``,
with wall times beside them for the record) and the machine's speed
measured beside them (``calibration.py``), peak RSS, per-migration
latencies, the virtual-time outputs, failed output checks and, with
``--traced 1``, the per-layer rollup of its spans.

    python3 perfbench/trial.py --workload chain-steady --seed 1 --traced 1 \
        --spawn-ns <CLOCK_MONOTONIC ns before exec> --spans-out spans.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from calibration import AFTER_SETUP, Calibrator  # noqa: E402
from tracing import HOST_CLOCK  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.crypto.backend import get_backend  # noqa: E402
from repro.errors import InvariantViolation  # noqa: E402
from repro.invariants.monitor import active_monitors  # noqa: E402


def environment() -> dict:
    try:
        from cryptography import __version__ as cryptography_version
    except ImportError:
        cryptography_version = None
    return {
        "python": platform.python_version(),
        "cryptography": cryptography_version,
        "backend": get_backend().name,
        "nproc": len(os.sched_getaffinity(0)),
    }


#: The rolled-up spans may miss at most this share of the phase time
#: measured around them (the phase spans' own entry and exit), or 2 ms.
PHASE_SLACK = 0.01
PHASE_SLACK_NS = 2_000_000


def span_checks(layers: dict, phases_ns: int, loads: tuple[str, ...]) -> list[str]:
    """Checks of one traced trial's spans that a broken trace fails."""
    failures = []
    traced_ns = sum(entry["self_ns"] for entry in layers.values())
    if not 0 <= phases_ns - traced_ns <= max(PHASE_SLACK_NS, phases_ns * PHASE_SLACK):
        failures.append(
            f"span rollup: self times add up to {traced_ns} ns, the setup and run "
            f"phases took {phases_ns} ns"
        )
    for layer in loads:
        if layers.get(layer, {}).get("calls", 0) == 0:
            failures.append(f"span rollup: layer {layer} is loaded but was never called")
    return failures


def layer_metrics(
    recorder: tracing.SpanRecorder, layers: dict, extra: dict, migrations: int
) -> dict:
    """Per-layer metrics of one traced trial, from its spans."""
    out: dict[str, float] = {}
    for layer in tracing.ALL_LAYERS + (tracing.UNTRACED,):
        entry = layers.get(layer, {"calls": 0, "self_ns": 0, "incl_ns": 0})
        if layer != tracing.UNTRACED:
            out[f"{layer}.calls"] = entry["calls"]
        out[f"{layer}.self_s"] = entry["self_ns"] / 1e9
    counters = recorder.counters
    requests = out["crypto.rsa.keygen.calls"]
    out["crypto.rsa.keygen.reuse_ratio"] = (
        1 - counters.get("crypto.rsa.keygen.misses", 0) / requests if requests else 0.0
    )
    for name in ("crypto.backend.bytes", "sgx.epc.objects", "sgx.epc.alloc.calls",
                 "net.network.bytes"):
        out[name] = counters.get(name, 0)
    emit = layers.get("sim.trace.emit")
    out["sim.trace.emit.us_per_event"] = (
        emit["incl_ns"] / emit["calls"] / 1e3 if emit and emit["calls"] else 0.0
    )
    # Virtual time per protocol step, read from the program's own spans
    # on every testbed the benchmark can reach.
    tracers = [m.tb.telemetry.tracer for m in active_monitors()]
    for method, step in tracing.STEPS.items():
        virt_ns = sum(s.duration_ns for t in tracers for s in t.find(f"migration.step.{step}"))
        out[f"migration.orchestrator.step.{method}.virt_ms"] = virt_ns / 1e6 / migrations
    for kind in ("admission", "epc", "bandwidth"):
        out[f"fleet.queued.{kind}.virt_ms_p50"] = extra.get(
            f"fleet.queued.{kind}.virt_ms_p50", 0.0
        )
    out["migration.precopy_rounds"] = extra.get("migration.precopy_rounds", 0)
    for name in tracing.COUNT_PROXIES:
        out[f"{name}.per_mig"] = out[name] / migrations
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-ns", type=int, required=True,
                        help="CLOCK_MONOTONIC ns taken just before this process started")
    parser.add_argument("--spans-out", required=True,
                        help="write a traced trial's spans here (JSON lines)")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the setup phase and report setup_s alone")
    args = parser.parse_args(argv)

    env = environment()
    if env["backend"] != "fast":
        print(f"refusing to measure: crypto backend is {env['backend']!r}, not 'fast'",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    recorder = None
    if args.traced:
        recorder = tracing.SpanRecorder(f"{args.workload}/seed{args.seed}/pid{os.getpid()}")
        recorder.install()
    probe = workload.probe()
    phase = recorder.phase if recorder is not None else lambda name: nullcontext()

    t0 = HOST_CLOCK()
    with phase("setup"):
        workload.setup()
    t1 = HOST_CLOCK()
    # HOST_CLOCK counts from the start of this process, interpreter
    # start and imports included.  Wall times are kept for the record.
    setup_s = t1 / 1e9
    setup_wall_s = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.spawn_ns) / 1e9
    calibrator = Calibrator()
    calibrator.run(AFTER_SETUP)
    if args.setup_only:
        print(json.dumps({"env": env, "setup_s": setup_s, "setup_wall_s": setup_wall_s,
                          "speed": calibrator.speed}, sort_keys=True))
        return 0

    if recorder is None:
        # Slices between migrations follow the machine's speed through
        # the run; traced trials keep them out of their spans.
        probe.between = calibrator.due
    t2, wall2, sliced = HOST_CLOCK(), time.perf_counter_ns(), calibrator.spent_ns
    with phase("run"):
        workload.run()
    t3, wall3 = HOST_CLOCK(), time.perf_counter_ns()
    run_s = (t3 - t2 - (calibrator.spent_ns - sliced)) / 1e9
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    probe.remove()
    if recorder is not None:
        recorder.uninstall()
    outcome = workload.outcome()
    failures = list(outcome.check_failures)
    for monitor in active_monitors():
        try:
            monitor.assert_clean()
        except InvariantViolation as exc:
            failures.append(f"invariant monitor: {exc}")

    result = {
        "env": env,
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "run_s": run_s,
        # Wall time of the run phase, calibration slices included.
        "run_wall_s": (wall3 - wall2) / 1e9,
        "speed": calibrator.speed,
        "peak_rss_mb": peak_rss_mb,
        "migrations": workload.migrations,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "check_failures": failures,
        "latency_ns": probe.samples_ns,
        "virtual": outcome.virtual,
    }
    if recorder is not None:
        layers = tracing.rollup(recorder.spans)
        failures += span_checks(layers, (t1 - t0) + (t3 - t2), workload.LOADS)
        result["layers"] = layer_metrics(recorder, layers, outcome.extra, workload.migrations)
        recorder.dump(args.spans_out)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
