"""Host-speed calibration: fixed work timed next to the benchmark's items.

The shared host this benchmark was written on runs the same Python code up
to twice as slow for stretches of seconds to minutes, on every core at once
(CPU time and wall time rise together, so it is not preemption).  A fixed
kernel that does not touch ``msdiagram``, timed between the items of a
pass, slows down with it: over a minute of alternating runs the ratio of an
msdiagram pipeline's time to the kernel's time varied by 5 % (coefficient
of variation of 3-second medians) while each of the two varied by 20 %.

The start of a fresh Python process does not follow the kernel (the ratio
of an ``msd`` process's time to the kernel's varied by 11 % between
4-second medians), but it follows the start of another fixed process: this
file run as a script, which starts the interpreter, imports ``statistics``
and runs the kernel (the ratio varied by 3 %).  So items that are ``msd``
processes are scaled by that process's time instead.

Every time the benchmark reports is therefore given in *reference
seconds*: the measured time scaled by ``reference / calibration time``,
i.e. the time the work would take on a host where the kernel takes
``REFERENCE_S`` and the calibration process ``REFERENCE_PROCESS_S``, about
the fast state of a 2-vCPU x86-64 virtual machine running CPython 3.11.
The raw, unscaled times are printed beside them.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time

REFERENCE_S = 1e-3
REFERENCE_PROCESS_S = 70e-3


def _kernel() -> int:
    d: dict = {}
    for i in range(1200):
        k = ((i * 7919) % 211, i & 7)
        d[k] = d.get(k, 0) + i
    s = 0
    for (a, b), v in sorted(d.items(), key=lambda kv: (kv[1] % 97, kv[0])):
        s += a * b - v % 13
    return s


def calibrate() -> float:
    """Seconds of one kernel call: the faster of two, with the collector off.

    The collector is off so that a program that tunes or fills the heap
    does not change the kernel's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t)
        return best
    finally:
        if enabled:
            gc.enable()


def calibrate_process(env: dict) -> float:
    """Seconds of one fresh process running this file, started like an ``msd`` process."""
    t = time.perf_counter()
    subprocess.run([sys.executable, __file__], env=env, capture_output=True, check=True)
    return time.perf_counter() - t


def scale(before: float, after: float) -> float:
    """Factor from measured to reference seconds for work between two kernel calibrations."""
    return REFERENCE_S / ((before + after) / 2)


def window_scale(marks: list[tuple[int, float]], i: int, count: int, reference: float) -> float:
    """Factor for the i-th item of a pass, from the calibrations nearest to it.

    ``marks`` holds (position, seconds): a calibration at position ``p`` ran
    after ``p`` items.  Item ``i`` ran between positions ``i`` and ``i + 1``;
    the factor uses the median of the ``count`` calibrations nearest to it,
    which on the host above was steadier than the two next to the item.
    """
    near = sorted(marks, key=lambda m: abs(m[0] - (i + 0.5)))[:count]
    return reference / statistics.median(s for _, s in near)


if __name__ == "__main__":
    calibrate()
