"""Host pace sampler: CPU speed and CPU steal, over time.

:class:`pb_common.Pacer` starts this beside a run.  Every ``INTERVAL``
seconds it runs one reference job (a pure-Python loop and a NumPy sort,
the two kinds of work the program does) and writes one line to stdout,
until it is terminated::

    <monotonic seconds> <CPU seconds of the job> <busy ticks> <steal ticks>

The job's CPU time excludes time-slicing and waits, so it moves only
with the speed of the CPU itself.  The tick counters are the machine's
cumulative busy (user, nice, system, irq, softirq) and steal time from
``/proc/stat``: steal is time a virtual CPU wanted to run and the
hypervisor ran something else.
"""

from __future__ import annotations

import sys
import time

import numpy as np

LOOP = 20_000
SORTED = np.random.default_rng(0).random(10_000)
INTERVAL = 0.1


def job() -> float:
    """CPU seconds of one reference job."""
    start = time.thread_time()
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    np.sort(SORTED)
    return time.thread_time() - start


def ticks() -> tuple:
    """Cumulative (busy, steal) ticks of all CPUs; zeros without /proc."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(f) for f in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def main() -> None:
    out = sys.stdout
    while True:
        cost = job()
        busy, steal = ticks()
        # perf_counter is CLOCK_MONOTONIC on Linux, the clock every
        # process of a run stamps its intervals with
        out.write(f"{time.perf_counter():.6f} {cost:.9f} {busy} {steal}\n")
        out.flush()
        time.sleep(INTERVAL)


if __name__ == "__main__":
    main()
