"""The clock and the machine-speed reference of the benchmark's timings.

The benchmark runs on shared virtual CPUs, and other tenants of the host
disturb its timings in two ways.  The hypervisor takes the CPU away for
5-30 ms at a time (steal time), which lengthens wall time but not the
process's CPU time; so every timing is taken with ``CLOCK``, the CPU time of
the process.  The program is single-threaded and waits only for page-cache
file reads and writes, which count as system CPU time, so on an idle machine
its CPU time equals its wall time.  And the CPU itself runs 1.1x to 1.9x
slower for seconds to minutes at a time, which inflates CPU time as much as
wall time.  A fixed pure-Python kernel, timed just before every operation,
slows with the machine as the program does.  Each operation's CPU time is
multiplied by ``REFERENCE_S`` over the median kernel time of the nearest
``HALF_WINDOW`` operations on either side, which gives its time at the
reference speed, the speed at which the kernel takes ``REFERENCE_S``.

The kernel runs what the program spends its time on, in two halves of
about equal time: small ``Fraction`` arithmetic, comparisons and dict
updates (game analysis, ledger and contracts), and the Jacobian
point-doubling formulas on 256-bit integers (the secp256k1 backend).  Timed
together, the two track the speed of both kinds of workload better than
either alone.  The kernel uses only the standard library, so no change to
the program changes it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

CLOCK = time.process_time

#: Kernel time at the reference speed: about its median on the 2-vCPU VM
#: the first baseline was taken on (see README.md).
REFERENCE_S = 0.0020
HALF_WINDOW = 5
FRACTION_ROUNDS = 90
DOUBLINGS = 190

_P = 2**256 - 2**32 - 977


def kernel() -> float:
    """CPU seconds one run of the fixed kernel takes."""
    t0 = CLOCK()
    best = Fraction(0)
    tally: dict[int, int] = {}
    for i in range(1, FRACTION_ROUNDS):
        value = Fraction(i, i + 7) * Fraction(3, i + 1) - Fraction(i % 5, 9)
        if value > best:
            best = value
        tally[i % 37] = tally.get(i % 37, 0) + i
    x, y, z = 0x9E3779B97F4A7C15F39CC0605CEDC834, 0x1234567890ABCDEF1234567890ABCDEF, 1
    for _ in range(DOUBLINGS):
        y2 = y * y % _P
        s = 4 * x * y2 % _P
        m = 3 * x * x % _P
        x3 = (m * m - 2 * s) % _P
        y, z, x = (m * (s - x3) - 8 * y2 * y2) % _P, 2 * y * z % _P, x3
    return CLOCK() - t0


def scale_factors(kernel_s: list[float]) -> list[float]:
    """``REFERENCE_S`` over the rolling median of ``kernel_s``: the factor
    that takes each operation's CPU time to the reference speed, for the
    operations the kernel timings were taken before, in order."""
    n = len(kernel_s)
    return [REFERENCE_S / statistics.median(kernel_s[max(0, k - HALF_WINDOW):k + HALF_WINDOW + 1])
            for k in range(n)]
