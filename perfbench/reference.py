"""Reference loop: a fixed piece of work that the runner times beside every
operation, to take the host's speed out of the latencies.

The host's speed swings by 20% and more, for seconds or minutes at a time,
and that shows in CPU time too.  The runner therefore runs ``work()`` right
before each operation and reports the operation's CPU time divided by the
reference's, times ``NOMINAL_MS``: the operation's latency in milliseconds
on a host where the reference takes ``NOMINAL_MS``.  ``work`` mixes what
the package spends its time on (Fraction arithmetic, dicts keyed by
tuples, sorting, small numpy arrays) and does not call the package, so a
change to the package moves the operations and not the reference.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# CPU milliseconds of work() on the host the benchmark was sized on
# (2 vCPUs of an Intel Xeon, Python 3.11, numpy 2.4), rounded.
NOMINAL_MS = 3.5


def work():
    """A few milliseconds of deterministic work; returns a checksum."""
    total = Fraction(0)
    for k in range(1, 120):
        total += Fraction(k, 4) * Fraction(3, k + 1) - Fraction(1, 2 * k + 1)
    d = {(i, j): (i * 7 + j) % 31 for i in range(48) for j in range(i)}
    best = sorted(d.items(), key=lambda kv: (kv[1], kv[0]))[:64]
    acc = 0
    for (i, j), v in d.items():
        if v > 15 and (j, i) not in d:
            acc += v
    a = np.arange(256.0).reshape(16, 16)
    for _ in range(40):
        a = a - a.min(axis=0) + 1.0
    return total, acc, best[0], float(a.sum())


def timed():
    """CPU seconds of one run of ``work`` by the calling thread."""
    start = time.thread_time()
    work()
    return time.thread_time() - start
