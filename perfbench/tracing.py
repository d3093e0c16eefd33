"""Host-time spans around each layer's public entry points, from outside.

Nothing in ``src/`` knows about these spans.  :func:`install` replaces a
fixed list of public functions and methods with thin wrappers that
record ``[name, start_ns, end_ns, parent]`` into one in-memory list.
Spans are only recorded while a phase span (``setup`` or ``run``) is
open, so the output checks that run afterwards stay out of the trace.

Self time is a span's duration minus the durations of its direct
children; a phase span's self time is reported as ``untraced``.  Work
counts (EPC objects built, keys generated afresh) are taken by wrapping
the code that does the work, not worked out from its arguments.
"""

from __future__ import annotations

import builtins
import functools
import json
import sys
import time
from contextlib import contextmanager

#: The benchmark's host clock: CPU time of the thread that runs the
#: program, counted from the start of the process.  The program is one
#: CPU-bound thread that never blocks (its I/O and fsync are modelled on
#: the virtual clock), so on an idle machine this reads the same as wall
#: time.  Unlike wall time it leaves out the time the thread sits
#: descheduled while other tenants or the hypervisor hold the CPU, and
#: unlike process CPU time it leaves out the helper threads that
#: imported libraries start.
HOST_CLOCK = time.thread_time_ns

# Layer name -> (module, attribute path) of the public entry point.
# Wrapped wherever the function object is bound by name (see _patch).
LAYERS: dict[str, tuple[str, str]] = {
    "crypto.rsa.keygen": ("repro.crypto.rsa", "generate_rsa_keypair"),
    "crypto.rsa.sign": ("repro.crypto.rsa", "RsaPrivateKey.sign"),
    "crypto.rsa.verify": ("repro.crypto.rsa", "RsaPublicKey.verify"),
    "sgx.attestation.quote": ("repro.sgx.attestation", "QuotingEnclave.quote"),
    "sgx.attestation.verify": ("repro.sgx.attestation", "AttestationService.verify_quote"),
    "migration.testbed.build": ("repro.migration.testbed", "build_testbed"),
    "sgx.epc.init": ("repro.sgx.epc", "Epc.__init__"),
    "sdk.builder.build": ("repro.sdk.builder", "SdkBuilder.build"),
    "sdk.host.launch": ("repro.sdk.host", "HostApplication.launch"),
    "migration.vm.migrate": ("repro.migration.vm", "VmMigrationManager.migrate"),
    "net.network.transfer": ("repro.net.network", "Network.transfer"),
    "durability.journal.append": ("repro.durability.journal", "Journal.append"),
    "sim.engine.step_round": ("repro.sim.engine", "Engine.step_round"),
    "sim.trace.emit": ("repro.sim.trace", "EventTrace.emit"),
    "invariants.monitor.check": ("repro.invariants.monitor", "InvariantMonitor.check_now"),
    "fleet.hosts.admit": ("repro.fleet.hosts", "HostModel.admit"),
    "telemetry.slo.ingest": ("repro.telemetry.slo", "SloEngine.ingest_run"),
}

#: The orchestrator's public protocol steps, by method, with the name of
#: the program's own ``migration.step.*`` span for the same step.
STEPS: dict[str, str] = {
    "checkpoint_enclave": "checkpoint",
    "build_virgin_target": "build-target",
    "establish_channel": "establish-channel",
    "transfer_checkpoint": "transfer-checkpoint",
    "handoff_storage": "handoff-storage",
    "handoff_key": "handoff-key",
    "restore": "restore",
}
for _method in STEPS:
    LAYERS[f"migration.orchestrator.step.{_method}"] = (
        "repro.migration.orchestrator",
        f"MigrationOrchestrator.{_method}",
    )

#: Bulk cipher calls of the active crypto backend, with the position of
#: their ``data`` argument (``self`` is position 0).
BACKEND_METHODS = {
    "rc4": 2,
    "des_ctr": 3,
    "aes_ctr": 3,
    "aes_cbc_encrypt": 3,
    "aes_cbc_decrypt": 3,
}
#: Modules whose Diffie-Hellman modexps are inline ``pow`` calls.
DH_MODULES = (
    "repro.crypto.dh",
    "repro.sdk.control",
    "repro.sdk.owner",
    "repro.migration.agent",
)

ALL_LAYERS = tuple(LAYERS) + ("crypto.dh", "crypto.backend")
#: Deterministic work counts that predict host time; they must repeat
#: exactly at a fixed seed and are also reported per migration.
COUNT_PROXIES = (
    "crypto.rsa.keygen.calls",
    "crypto.rsa.sign.calls",
    "crypto.rsa.verify.calls",
    "crypto.dh.calls",
    "sgx.epc.objects",
    "sim.trace.emit.calls",
    "durability.journal.append.calls",
    "net.network.bytes",
)
UNTRACED = "untraced"
_ABSENT = object()


class SpanRecorder:
    """In-memory spans plus the per-layer counters measured beside them."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: ``[name, start_ns, end_ns, parent_index]``; parent -1 = root.
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: Work counts recorded at the same boundaries as the spans.
        self.counters: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans
    @contextmanager
    def phase(self, name: str):
        """A root span; layer spans are recorded only inside one."""
        record = [name, HOST_CLOCK(), 0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = HOST_CLOCK()
            self._stack.pop()

    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn, measure=None):
        """``fn`` with a span named ``name``; ``measure`` adds counters."""
        spans, stack, clock = self.spans, self._stack, HOST_CLOCK

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            if measure is not None:
                measure(self, args, kwargs)
            index = len(spans)
            record = [name, clock(), 0, stack[-1]]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def counted(self, name: str, fn):
        """``fn`` adding one to counter ``name`` per call inside a phase."""
        stack, counters = self._stack, self.counters

        def counting(*args, **kwargs):
            if stack:
                counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counting

    # -------------------------------------------------------------- patching
    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, replacement)

    def _patch_function(self, module, attr: str, replacement) -> None:
        # Callers bind module functions by name at import time; patch
        # every loaded repro module that holds the same object.
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if name.startswith("repro") and getattr(mod, attr, None) is original:
                self._patch(mod, attr, replacement)

    def install(self) -> None:
        """Wrap every layer entry point; call after importing the workload."""
        from repro.crypto import rsa
        from repro.crypto.backend import get_backend
        from repro.crypto.dh import MODP_2048_P
        from repro.sgx import epc

        measures = {
            "net.network.transfer": _bytes_measure("net.network.bytes", 2, "payload"),
        }
        for layer, (module_name, path) in LAYERS.items():
            module = sys.modules[module_name]
            if "." in path:
                cls_name, method = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, self.wrap(layer, original, measures.get(layer)))
                continue
            traced = self.wrap(layer, getattr(module, path), measures.get(layer))
            self._patch_function(module, path, traced)

        # A memo miss is a call of the uncached generator.
        self._patch_function(
            rsa,
            "_generate_rsa_keypair_uncached",
            self.counted("crypto.rsa.keygen.misses", rsa._generate_rsa_keypair_uncached),
        )
        for cls in (epc.EpcPage, epc.EpcmEntry):
            self._patch(cls, "__init__", self.counted("sgx.epc.objects", cls.__init__))
        self._patch(epc.Epc, "alloc", self.counted("sgx.epc.alloc.calls", epc.Epc.alloc))

        backend_cls = type(get_backend())
        for method, data_position in BACKEND_METHODS.items():
            original = getattr(backend_cls, method)
            measure = _bytes_measure("crypto.backend.bytes", data_position, "data")
            self._patch(backend_cls, method, self.wrap("crypto.backend", original, measure))

        # DH modexps are inline three-argument pow() calls; shadow the
        # builtin in those modules and span only the DH-modulus ones.
        native_pow = builtins.pow
        dh_pow = self.wrap("crypto.dh", native_pow)

        def pow_probe(base, exp, mod=None):
            if mod is MODP_2048_P or (mod is not None and mod == MODP_2048_P):
                return dh_pow(base, exp, mod)
            return native_pow(base, exp, mod)

        for module_name in DH_MODULES:
            module = sys.modules[module_name]
            if "pow" in vars(module):
                raise RuntimeError(f"{module_name} already defines pow")
            self._patch(module, "pow", pow_probe)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------- write out
    def dump(self, path: str) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": None if parent < 0 else parent,
                            "run_id": self.run_id,
                        },
                        separators=(",", ":"),
                    )
                )
                fh.write("\n")


def _bytes_measure(counter: str, position: int, keyword: str):
    def measure(recorder: SpanRecorder, args, kwargs) -> None:
        data = args[position] if len(args) > position else kwargs[keyword]
        recorder.count(counter, len(data))

    return measure


def rollup(spans: list[list]) -> dict[str, dict[str, int]]:
    """Per-layer calls, self and inclusive time from a span list.

    The phases' own self time is reported under ``UNTRACED``, so the self
    times add up to the phase durations.
    """
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    layers: dict[str, dict[str, int]] = {}
    # Inclusive time counts only the outermost span of a layer, so a
    # layer re-entered below itself is not counted twice.
    for index, (name, start, end, parent) in enumerate(spans):
        key = UNTRACED if parent < 0 else name
        entry = layers.setdefault(key, {"calls": 0, "self_ns": 0, "incl_ns": 0})
        entry["calls"] += parent >= 0
        entry["self_ns"] += end - start - child_ns[index]
        outer = parent
        while outer >= 0 and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer < 0:
            entry["incl_ns"] += end - start
    assert sum(e["self_ns"] for e in layers.values()) == sum(
        end - start for _, start, end, parent in spans if parent < 0
    )
    return layers
