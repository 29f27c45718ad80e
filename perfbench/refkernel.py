"""Reference kernel used to correct host timings for machine-speed drift.

The kernel is fixed work that touches no ``repro`` code.  It has three
parts: a plain pure-Python multiply-add loop, the same loop reading a fixed
65,536-entry integer table at a data-dependent index (a working set of
about 2.5 MB), and a short loop of small complex NumPy matrix products.
The machine's slow and fast states move the three parts differently and
move the workloads somewhere in between; no single part tracked every
workload, and their sum tracked all four best (see ``NOTES.md``).

It is timed between measurement segments, while no operation is in
flight, and each segment's host times are scaled by
``NOMINAL_REF_S / measured reference time``: a machine that runs the
kernel slower than nominal also ran the segment slower, and the scaled
figure removes that.
"""

import os
import statistics
import time

import numpy as np

#: loop lengths of the three parts of one reference call
PLAIN_LOOPS = 3000
TABLE_LOOPS = 1500
MATMUL_LOOPS = 45

#: the table the second part walks: fixed pseudo-random 16-bit integers
TABLE = [(i * 2654435761) & 0xFFFF for i in range(1 << 16)]

#: the operands of the third part: a 16x16 by 16x8 complex product
_GRID = np.arange(256).reshape(16, 16)
MATRIX = (_GRID % 7 - 3) + 1j * (_GRID % 5 - 2)
COLUMNS = MATRIX[:, :8] * 0.5

#: fixed nominal duration of one reference call; corrected figures read as
#: if the machine ran the reference in exactly this time
NOMINAL_REF_S = 1.0e-3


def reference_kernel() -> float:
    """The reference work: plain loop, table walk, small matrix products."""
    acc = 0
    for i in range(PLAIN_LOOPS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    table = TABLE
    for i in range(TABLE_LOOPS):
        acc = (acc * 31 + table[(acc ^ i) & 0xFFFF]) & 0xFFFFFFFF
    total = float(acc)
    for _ in range(MATMUL_LOOPS):
        total += abs((MATRIX @ COLUMNS)[0, 0])
    return total


def time_reference(repeats: int = 1, all_cpus: bool = False) -> float:
    """Median wall time [s] of ``repeats`` reference calls.

    With ``all_cpus``, the calling thread runs the reference once pinned to
    each CPU it may use and returns the mean over the CPUs.  A workload
    that keeps several processes busy runs on all of them, and the CPUs of
    a shared VM drift apart: on the 2-vCPU tuning machine their speed
    ratio wandered between 0.95 and 1.27 from one 2 s window to the next.
    """
    if not all_cpus:
        samples = []
        for _ in range(repeats):
            started = time.perf_counter()
            reference_kernel()
            samples.append(time.perf_counter() - started)
        return statistics.median(samples)
    cpus = os.sched_getaffinity(0)
    try:
        per_cpu = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(time_reference(repeats))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(per_cpu)


def correction(ref_before_s: float, ref_after_s: float) -> float:
    """Scale factor for host times measured between two reference timings."""
    return NOMINAL_REF_S / (0.5 * (ref_before_s + ref_after_s))
