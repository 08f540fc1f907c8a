"""Machine-speed calibration for the end-to-end timings.

On the shared 2-vCPU VM where this benchmark was defined, the speed of a
vCPU switches between two levels about 1.3-1.45x apart, in stretches of a
few seconds to half a minute; the kernel reports no steal time.  The same
operation then spread 25-40% (quartile distance over median) between passes,
and whole 25-second runs 10-24%.

A fixed block of numpy and interpreter work that uses no puredeck code runs
between consecutive operations.  Each operation's wall time is scaled by
``REFERENCE_S / (mean of the blocks just before and after it)``: a slow
stretch slows the operation and its neighbouring blocks alike, so the scaled
time keeps the operation's cost and loses most of the machine's drift.
"""

from __future__ import annotations

import time

import numpy as np

# Wall time of one block on the machine where the benchmark was defined
# (x86_64, 2 vCPUs, OpenBLAS 0.3.31 on one thread); scaled times read as
# times on that machine at its faster speed level.
REFERENCE_S = 0.011


class Calibrator:
    """Times a fixed block of LAPACK calls and interpreter loops.

    Call `scale` right after each timed operation; the first call of a
    sequence uses the block timed when the calibrator was made.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        sym = rng.standard_normal((96, 96))
        self._sym = sym + sym.T
        self._rect = rng.standard_normal((200, 60))
        self.blocks: list[float] = []
        self._before = self.block()

    def scale(self, seconds: float) -> float:
        """`seconds` of an operation that just ended, at reference speed."""
        after = self.block()
        local = (self._before + after) / 2
        self._before = after
        self.blocks.append(local)
        return seconds * REFERENCE_S / local

    def block(self) -> float:
        started = time.perf_counter()
        for _ in range(2):
            for _ in range(6):
                np.linalg.eigvalsh(self._sym)
            np.linalg.svd(self._rect)
            acc = 0
            for i in range(20000):
                acc += i * i
        return time.perf_counter() - started
