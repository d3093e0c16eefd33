"""The benchmark's three workloads, driven through the public API only.

Each workload has a ``setup`` phase (paid once per trial, reported as
``setup_s``) and a ``run`` phase (the migrations, reported as
``migrations_per_s`` and per-migration host latency).  The seed picks
the workload's inputs; the program receives only those inputs.

Load model for all three: one process, one thread, closed loop — the
next migration starts only when the previous one has finished.  The
fleet's ``max_inflight`` is virtual concurrency, not host threads.

Which layers each workload loads and which it bypasses is written next
to each class below; README.md maps every layer to the end-to-end
metric it should move, on which workload.  Each class's ``LOADS`` names
the traced layers (``tracing.ALL_LAYERS``) it loads: a traced trial in
which one of them has no calls fails its checks, because a wrapper that
stops catching calls would otherwise read as a layer that costs nothing.
"""

from __future__ import annotations

import random
import statistics
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.fleet.runner import FleetConfig, FleetRunner
from repro.invariants.monitor import active_monitors
from repro.migration import testbed as testbed_module
from repro.migration.chain import run_chain
from repro.migration.orchestrator import MigrationOrchestrator
from repro.migration.vm import VmMigrationManager
from repro.sdk import AtomicEntry, EnclaveProgram, HostApplication, WorkerSpec, control
from repro.workloads.apps import build_app_image
from tracing import HOST_CLOCK

#: The single-enclave protocol steps every migrate_enclave call runs
#: when the enclave holds no sealed storage.
_HOP_STEPS = tuple(
    f"migration.orchestrator.step.{step}"
    for step in (
        "checkpoint_enclave",
        "build_virgin_target",
        "establish_channel",
        "transfer_checkpoint",
        "handoff_key",
        "restore",
    )
)
#: Layers every workload loads: a testbed, an image, a launch and the
#: migration handshake.
_COMMON_LOADS = (
    "crypto.rsa.keygen",
    "crypto.rsa.sign",
    "crypto.rsa.verify",
    "crypto.dh",
    "crypto.backend",
    "sgx.attestation.quote",
    "sgx.attestation.verify",
    "migration.testbed.build",
    "sgx.epc.init",
    "sdk.builder.build",
    "sdk.host.launch",
    "net.network.transfer",
    "durability.journal.append",
    "sim.engine.step_round",
    "sim.trace.emit",
)

# Imported so the tracer finds every layer module loaded (tracing.LAYERS).
import repro.crypto.dh  # noqa: F401
import repro.migration.agent  # noqa: F401


@dataclass
class Outcome:
    """What one trial's run phase produced, for checks and metrics."""

    attempted: int
    failed: int
    #: One message per failed output check; empty means every check held.
    check_failures: list[str] = field(default_factory=list)
    #: Deterministic virtual-time outputs (pinned per seed).
    virtual: dict[str, float] = field(default_factory=dict)
    #: Workload-specific per-layer metrics, reported by traced trials.
    extra: dict[str, float] = field(default_factory=dict)


class LatencyProbe:
    """Host latency of each migration, timed around public calls.

    ``start``/``end`` name orchestrator methods: a sample runs from a
    call of ``start`` to the return of the next call of ``end``.  The
    probe costs two reads of ``HOST_CLOCK`` per call, with tracing on or off.
    ``between``, if set, runs after each call of ``end``, outside every
    sample.
    """

    def __init__(self, start: str, end: str) -> None:
        self.samples_ns: list[int] = []
        self.between: Callable[[], None] | None = None
        self._open: int | None = None
        self._patched = {name: getattr(MigrationOrchestrator, name) for name in (start, end)}
        for name, original in self._patched.items():
            setattr(
                MigrationOrchestrator,
                name,
                self._wrap(original, is_start=name == start, is_end=name == end),
            )

    def _wrap(self, fn, is_start: bool, is_end: bool):
        def timed(*args, **kwargs):
            if is_start:
                self._open = HOST_CLOCK()
            result = fn(*args, **kwargs)
            if is_end and self._open is not None:
                self.samples_ns.append(HOST_CLOCK() - self._open)
                self._open = None
            if is_end and self.between is not None:
                self.between()
            return result

        return timed

    def remove(self) -> None:
        for name, original in self._patched.items():
            setattr(MigrationOrchestrator, name, original)


def _seed_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _name_suffix(rng: random.Random) -> str:
    """1-32 lowercase letters: names ride in protocol messages."""
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(1, 32)))


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class FleetCold:
    """``fleet-cold``: a contended fleet where every member sets up cold.

    Loads: ``crypto.rsa.keygen`` (five fresh keys per member, so about
    three quarters of the run), ``sgx.epc.init`` (two EPCs per member),
    ``migration.testbed.build``, ``sdk.builder.build``/``sdk.host.launch``
    once per member, one single-hop protocol run per member, and the
    only load on ``fleet.hosts.admit`` and ``telemetry.slo.ingest``.
    Bypasses: ``migration.vm.migrate`` and hypervisor pre-copy; the
    keygen memo (member seeds are all distinct); ``handoff_storage`` (the
    members hold no sealed storage) and ``invariants.monitor.check``.
    """

    name = "fleet-cold"
    LOADS = _COMMON_LOADS + _HOP_STEPS + ("fleet.hosts.admit", "telemetry.slo.ingest")
    MEMBERS = 24

    def __init__(self, seed: int) -> None:
        self.config = FleetConfig(
            n=self.MEMBERS,
            hosts=4,
            epc_per_host=32,
            bw_per_host=1_048_576,
            max_inflight=8,
            seeds=(seed,),
        )

    def probe(self) -> LatencyProbe:
        return LatencyProbe("migrate_enclave", "migrate_enclave")

    def setup(self) -> None:
        self.runner = FleetRunner(self.config)

    def run(self) -> None:
        self.report = self.runner.run()

    @property
    def migrations(self) -> int:
        return self.config.n

    def outcome(self) -> Outcome:
        report = self.report
        failures = []
        if report.completed != self.config.n:
            failures.append(f"completed {report.completed} of {self.config.n}")
        if report.failed != 0:
            failures.append(f"{report.failed} members failed")
        testbeds = [monitor.tb for monitor in active_monitors()]
        records = report.records
        waits: dict[str, list[int]] = {}
        for record in records:
            for kind, wait_ns, _ in record.waits:
                waits.setdefault(kind, []).append(wait_ns)
        return Outcome(
            attempted=len(records),
            failed=report.failed,
            check_failures=failures,
            virtual={
                "downtime_ns_p50": median_or_zero(
                    r.downtime_ns for r in records if r.downtime_ns is not None
                ),
                "total_ns_p50": median_or_zero(
                    r.total_ns for r in records if r.total_ns is not None
                ),
                "makespan_ns": report.makespan_ns,
                "transferred_bytes": sum(
                    int(tb.trace.metrics.value("migration.transferred_bytes", default=0))
                    for tb in testbeds
                ),
                **{
                    f"queued_{kind}_ns_p50": median_or_zero(values)
                    for kind, values in sorted(waits.items())
                },
            },
            extra={
                f"fleet.queued.{kind}.virt_ms_p50": median_or_zero(values) / 1e6
                for kind, values in waits.items()
            },
        )


def _counter_program(code_id: str) -> EnclaveProgram:
    program = EnclaveProgram(code_id)
    program.add_entry(
        "add",
        AtomicEntry(
            lambda rt, args: rt.store_global("n", rt.load_global("n") + int(args))
            or rt.load_global("n")
        ),
    )
    program.add_entry("read", AtomicEntry(lambda rt, args: rt.load_global("n")))
    return program


class ChainSteady:
    """``chain-steady``: one small enclave ping-ponged for many hops.

    Setup (one testbed, one image, one launch) is paid once, so each hop
    is the protocol alone, all seven public steps included (the enclave
    holds one sealed-storage entry, so ``handoff_storage`` runs): the
    handshake's modexps (``crypto.dh``, ``crypto.rsa.sign``/``verify``,
    ``sgx.attestation.*``), the journal, scheduler rounds and the
    telemetry fan-out behind ``sim.trace.emit``.
    Loads the setup layers only in ``setup_s``.  Bypasses: the fleet
    admission and SLO layers, hypervisor pre-copy, and bulk cipher work
    (the enclave is a few pages).  The seed picks the image name, whose
    length moves every hop's wire bytes and virtual time a little, and
    the counter's starting value.
    """

    name = "chain-steady"
    LOADS = (
        _COMMON_LOADS
        + _HOP_STEPS
        + ("migration.orchestrator.step.handoff_storage", "invariants.monitor.check")
    )
    HOPS = 120

    def __init__(self, seed: int) -> None:
        rng = _seed_rng(self.name, seed)
        self.seed = seed
        self.image_name = f"counter-{_name_suffix(rng)}"
        self.start_value = rng.randint(1, 1_000_000)

    def probe(self) -> LatencyProbe:
        return LatencyProbe("migrate_enclave", "migrate_enclave")

    def setup(self) -> None:
        tb = testbed_module.build_testbed(seed=f"{self.name}/{self.seed}")
        built = tb.builder.build(
            self.image_name,
            _counter_program(f"perfbench/{self.image_name}-v1"),
            n_workers=1,
            global_names=("n",),
        )
        tb.owner.register_image(built)
        app = HostApplication(tb.source, tb.source_os, built.image, [], owner=tb.owner)
        app.launch()
        app.ecall_once(0, "add", self.start_value)
        app.library.control_call(control.storage_put, "origin", self.image_name)
        self.tb, self.app = tb, app

    def run(self) -> None:
        tb = self.tb
        self.t0_ns, self.bytes0 = tb.clock.now_ns, tb.network.bytes_transferred
        self.report = run_chain(tb, self.app, self.HOPS)
        self.t1_ns, self.bytes1 = tb.clock.now_ns, tb.network.bytes_transferred

    @property
    def migrations(self) -> int:
        return self.HOPS

    def outcome(self) -> Outcome:
        hops = self.report.hops
        failures = []
        outcomes = {hop.outcome for hop in hops}
        if len(hops) != self.HOPS or outcomes != {"migrated"}:
            failures.append(f"hop outcomes {sorted(outcomes)} over {len(hops)} hops")
        final = self.report.final_app
        value = final.ecall_once(0, "read")
        if value != self.start_value:
            failures.append(f"counter {value} after {len(hops)} hops, expected {self.start_value}")
        stored = final.library.control_call(control.storage_get, "origin")
        if stored != self.image_name:
            failures.append(f"sealed storage holds {stored!r} after {len(hops)} hops")
        deltas = [d for hop in hops for d in hop.run_metrics.values()]
        return Outcome(
            attempted=self.HOPS,
            failed=sum(1 for hop in hops if hop.outcome != "migrated"),
            check_failures=failures,
            virtual={
                "downtime_ns_p50": median_or_zero(d["migration.downtime_ns"] for d in deltas),
                "total_ns_p50": median_or_zero(d["migration.total_ns"] for d in deltas),
                "makespan_ns": self.t1_ns - self.t0_ns,
                "transferred_bytes": self.bytes1 - self.bytes0,
            },
        )


class VmEnclaves:
    """``vm-enclaves``: a 2 GB VM carrying 32 enclaves with live workers.

    The Figure 10 shape (``epc_pages=32768``).  Loads the same
    checkpoint, crypto and EPC layers differently from the other two:
    32 enclaves at once, bulk sealing through ``crypto.backend``, SGX
    instruction emulation to rebuild every enclave, and the only load on
    ``migration.vm.migrate`` with pre-copy over memory the workers keep
    dirtying.  Bypasses: ``checkpoint_enclave``, ``transfer_checkpoint``
    (checkpoints ride inside guest RAM) and ``handoff_storage``, the
    fleet admission and SLO layers, and ``invariants.monitor.check``.
    The seed picks the workers' think
    time, which moves the two-phase checkpoint window, and the image
    flavor name, which rides in every carried enclave's messages.
    """

    name = "vm-enclaves"
    LOADS = _COMMON_LOADS + (
        "migration.orchestrator.step.build_virgin_target",
        "migration.orchestrator.step.establish_channel",
        "migration.orchestrator.step.handoff_key",
        "migration.orchestrator.step.restore",
        "migration.vm.migrate",
    )
    ENCLAVES = 32
    WARMUP_ROUNDS = 30

    def __init__(self, seed: int) -> None:
        rng = _seed_rng(self.name, seed)
        self.seed = seed
        self.think_time_ns = rng.randrange(350_000, 450_001, 1_000)
        self.flavor = _name_suffix(rng)

    def probe(self) -> LatencyProbe:
        # Per carried enclave: its restore path on the target, from
        # rebuilding the virgin enclave to the restored state.
        return LatencyProbe("build_virgin_target", "restore")

    def setup(self) -> None:
        tb = testbed_module.build_testbed(
            seed=f"{self.name}/{self.seed}", vepc_pages=16384, epc_pages=32768
        )
        built = build_app_image(tb.builder, "cr4", flavor=self.flavor)
        tb.owner.register_image(built)
        worker = WorkerSpec(
            "process", args=1, repeat=None, think_time_ns=self.think_time_ns
        )
        self.apps = [
            HostApplication(
                tb.source,
                tb.source_os,
                built.image,
                workers=[worker],
                owner=tb.owner,
                name=f"{built.image.name}-{i}",
            ).launch()
            for i in range(self.ENCLAVES)
        ]
        for _ in range(self.WARMUP_ROUNDS):
            tb.source_os.engine.step_round()
        self.tb = tb

    def run(self) -> None:
        self.result = VmMigrationManager(self.tb, self.apps).migrate()

    @property
    def migrations(self) -> int:
        return self.ENCLAVES

    def outcome(self) -> Outcome:
        tb, result = self.tb, self.result
        failures = []
        if len(result.enclave_results) != self.ENCLAVES:
            failures.append(f"{len(result.enclave_results)} enclaves carried")
        # Every carried enclave must answer an ecall on the target; the
        # calls run side by side on the target's scheduler.
        threads = [
            r.target_app.guest_os.spawn_thread(
                r.target_app.process,
                "perfbench-check",
                r.target_app.library.ecall_body(1, "process", i + 2),
            )
            for i, r in enumerate(result.enclave_results)
        ]
        tb.target_os.run_until(lambda: all(t.finished for t in threads))
        answers = [t.result for t in threads]
        wrong = sum(1 for a in answers if a != 8192)
        if wrong:
            failures.append(f"{wrong} carried enclaves gave a wrong ecall answer")
        report = result.report
        return Outcome(
            attempted=self.ENCLAVES,
            failed=self.ENCLAVES - len(result.enclave_results),
            check_failures=failures,
            virtual={
                "downtime_ns_p50": report.downtime_ns,
                "total_ns_p50": report.total_ns,
                "makespan_ns": report.total_ns,
                "transferred_bytes": report.transferred_bytes,
                "precopy_rounds": report.precopy_rounds,
            },
            extra={"migration.precopy_rounds": report.precopy_rounds},
        )


WORKLOADS = {w.name: w for w in (FleetCold, ChainSteady, VmEnclaves)}
