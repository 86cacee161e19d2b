"""Machine-speed probe: scales operation times to a nominal machine speed.

On a shared host the same code runs up to twice as fast or slow from one
minute to the next, as other tenants load the core. Timing a fixed kernel
right before and right after each operation measures the speed the machine
had while that operation ran; dividing by it leaves the program's own cost.
The kernel is a pure-Python bit-unpacking loop, shaped like the program's
decoders, because interpreter-bound code is what the contention slows most.
"""

from __future__ import annotations

import time

#: Time of one kernel run at nominal speed: its median on a 2-vCPU
#: Intel Xeon virtual machine under Python 3.11. Only a scale; ratios do not depend on it.
NOMINAL_S = 0.0005
#: Share of each operation's time spent probing after it (at least one kernel run).
SHARE = 0.05

_DATA = bytes(range(256)) * 4
_CODES = {i: (i * 7) & 255 for i in range(32)}


def kernel() -> int:
    acc = bits = n = 0
    out = []
    for b in _DATA:
        acc = (acc << 1 ^ b) & 0xFFFF
        bits = (bits << 8) | b
        n += 8
        while n >= 5:
            n -= 5
            out.append(_CODES[(bits >> n) & 31])
            bits &= (1 << n) - 1
    return acc + len(out)


class Probe:
    """Scales each operation's seconds by the kernel times around it."""

    def __init__(self):
        self.factors: list[float] = []  # kernel time / nominal, per scaled operation
        self.last = self.sample(0.0)

    def sample(self, budget: float) -> float:
        """Mean seconds per kernel run, running it for at least ``budget`` seconds."""
        runs = 0
        t0 = time.perf_counter()
        while True:
            kernel()
            runs += 1
            spent = time.perf_counter() - t0
            if spent >= budget:
                return spent / runs

    def restart(self) -> None:
        """Take a fresh "before" sample, e.g. after work that was not probed."""
        self.last = self.sample(0.0)

    def scale(self, seconds: float) -> float:
        """``seconds`` of the operation just finished, at nominal speed."""
        before, self.last = self.last, self.sample(SHARE * seconds)
        factor = (before + self.last) / 2 / NOMINAL_S
        self.factors.append(factor)
        return seconds / factor
