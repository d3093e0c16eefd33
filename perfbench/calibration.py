"""Calibration slices: a fixed piece of CPU work that tracks machine speed.

On a shared host the CPU itself runs faster or slower from one half
minute to the next, by up to a quarter, as other tenants load the same
cores and memory.  ``HOST_CLOCK`` leaves out time the thread spends
descheduled but not that drift.  An untraced trial therefore runs short
slices of fixed modular exponentiation, the operation behind most of the
program's host time, between its migrations; ``run.py`` divides the
trial's host times by :attr:`Calibrator.speed`, the slices' measured
cost over :data:`REFERENCE_NS`.  Host-time metrics are thus reported in
milliseconds of the reference machine.  The slices use only Python's
own integers, so no change to the program moves them, and their time is
taken out of every host time they fall into.
"""

from __future__ import annotations

from tracing import HOST_CLOCK

_P2048 = 2**2048 - 1942289
_P512 = 2**512 - 569
_MASK256 = (1 << 256) - 1

#: Median ``HOST_CLOCK`` cost of one slice on the reference machine
#: (2-vCPU Intel Xeon virtual machine, Python 3.11.7).
REFERENCE_NS = 20_000_000
#: Run a slice once this much host time has passed since the last one.
EVERY_NS = 200_000_000
#: Slices run right after set-up, outside every timed span.
AFTER_SETUP = 4


def _work() -> int:
    # Shaped like the program's modexps: 256-bit exponents over a
    # 2048-bit modulus (the DH handshake), 512-bit ones over a 512-bit
    # modulus (RSA with CRT and the keygen prime tests).
    x = 3
    for _ in range(4):
        x = pow(5, (x & _MASK256) | (1 << 255), _P2048)
    y = x % _P512
    for _ in range(6):
        y = pow(y | 2, y | (1 << 511), _P512)
    return y


class Calibrator:
    def __init__(self) -> None:
        self.slices = 0
        self.spent_ns = 0
        self._last_ns = HOST_CLOCK()

    def run(self, slices: int = 1) -> None:
        for _ in range(slices):
            start = HOST_CLOCK()
            _work()
            self._last_ns = HOST_CLOCK()
            self.spent_ns += self._last_ns - start
            self.slices += 1

    def due(self) -> None:
        """Run a slice if ``EVERY_NS`` of host time passed since the last."""
        if HOST_CLOCK() - self._last_ns >= EVERY_NS:
            self.run()

    @property
    def speed(self) -> float:
        """Cost of a slice relative to the reference machine (>1: slower)."""
        return self.spent_ns / (self.slices * REFERENCE_NS)
