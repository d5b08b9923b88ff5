"""The CPU's current speed, read from fixed pure-Python loops.

On a shared host a CPU can run Python up to 2.7 times slower for seconds or
minutes at a time, while another tenant loads its core.  The library slows
down with it, and so do these loops, whose own work never changes.  The
benchmark scales its timings to a CPU whose probe reads REF_PROBE_NS, about
the fastest that a 2-CPU shared host (Python 3.11.7) was seen to read.

Contention slows integer arithmetic, float and complex arithmetic, and
object allocation by different factors, and zetakit does all three.  The
probe therefore times one loop of each kind and takes their geometric mean.
The loops touch nothing of zetakit, so no change to the library can move
the probe.
"""

from __future__ import annotations

import math
import statistics
import time

REF_PROBE_NS = 1_000_000


def _integers() -> None:
    acc = 0
    for i in range(20_000):
        acc += i * i % 7


def _complex_sum() -> None:
    """A compensated sum of z^k (k+1)^-s, the shape of a direct Lerch sum."""
    z, s = -0.999 + 0.01j, 1.5
    total = comp = 0j
    zk = 1 + 0j
    for k in range(2500):
        term = zk * math.exp(-s * math.log(k + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        zk *= z


def _objects() -> None:
    out = []
    for k in range(2500):
        d = {"k": k, "v": complex(k, 1.0)}
        out.append((d["v"] * 0.5, str(k)[:1]))


KERNELS = (_integers, _complex_sum, _objects)


def probe_ns() -> float:
    """Geometric mean over the loops of each one's fastest of three timings, in ns."""
    log_sum = 0.0
    for kernel in KERNELS:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter_ns()
            kernel()
            best = min(best, time.perf_counter_ns() - t0)
        log_sum += math.log(best)
    return math.exp(log_sum / len(KERNELS))


def scale(probes: list[float]) -> float:
    """Factor that turns times taken at the probed speed into reference times."""
    return REF_PROBE_NS / statistics.median(probes)
