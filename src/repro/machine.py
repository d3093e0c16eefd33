"""Physical machine composition.

A :class:`Machine` is one of the paper's two laptops: an SGX-capable CPU,
a hypervisor, and a QEMU monitor, all sharing the scenario's virtual
clock, cost model and trace.  Test scenarios build two of these plus the
attestation service and wire them over :mod:`repro.net`.
"""

from __future__ import annotations

from repro.hypervisor.kvm import Hypervisor
from repro.hypervisor.qemu import QemuMonitor
from repro.sgx.attestation import AttestationService, QuotingEnclave, provision_platform
from repro.sgx.cpu import SgxCpu
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel, DEFAULT_COSTS
from repro.sim.rng import DeterministicRng
from repro.sim.trace import EventTrace


class Machine:
    """One SGX-capable host."""

    def __init__(
        self,
        name: str,
        clock: VirtualClock,
        trace: EventTrace,
        rng: DeterministicRng,
        costs: CostModel = DEFAULT_COSTS,
        epc_pages: int = 8192,
        key_rng: DeterministicRng | None = None,
    ) -> None:
        self.name = name
        self.clock = clock
        self.costs = costs
        self.trace = trace
        self.rng = rng.fork(name)
        self.cpu = SgxCpu(name, clock, costs, trace, self.rng.fork("cpu"), epc_pages=epc_pages)
        self.hypervisor = Hypervisor(clock, costs, trace, self.cpu)
        self.qemu = QemuMonitor(self.hypervisor)
        self.quoting_enclave: QuotingEnclave | None = None
        #: Where the platform attestation key derives from (None: the
        #: CPU's RNG, i.e. from this machine's seed).
        self.key_rng = key_rng
        #: Stable storage shared by the testbed (set by ``build_testbed``);
        #: when present, enclave libraries on this machine keep write-ahead
        #: journals on it.  None for machines built outside a testbed.
        self.durable = None
        #: The testbed's invariant monitor, if one is attached.
        self.monitor = None

    def provision(self, ias: AttestationService) -> None:
        """Manufacture-time step: install a QE and register with IAS."""
        self.quoting_enclave = provision_platform(self.cpu, ias, self.key_rng)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Machine {self.name}>"
