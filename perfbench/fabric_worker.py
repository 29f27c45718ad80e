"""Engine factory for the fabric worker process of the ``serve_fabric`` workload.

The worker builds a plain ``ideal-digital`` :class:`~repro.serving.GemmEngine`
bound to the workload's default model.  With ``trace_path`` set, the factory
also wraps the engine's ``run_batch`` and records one span per call (start,
duration, columns) in memory; the spans are written to ``trace_path`` when
the worker process exits, and the benchmark reads them after joining it.
Span timestamps use ``time.perf_counter``, the system-wide monotonic clock
on Linux, so they line up with the gateway process's segment windows.
"""

import atexit
import time
from array import array

import numpy as np

from repro.serving.fabric.engines import make_gemm_engine


def make_engine(weights, trace_path=None):
    """Build the worker's engine; traced when ``trace_path`` is given."""
    engine = make_gemm_engine(backend="ideal-digital", weights=weights, name="fabric")
    if trace_path is None:
        return engine
    start, duration, columns = array("d"), array("d"), array("d")
    run_batch = engine.run_batch
    clock = time.perf_counter

    def traced_run_batch(weights, inputs, key=None):
        started = clock()
        try:
            return run_batch(weights, inputs, key=key)
        finally:
            start.append(started)
            duration.append(clock() - started)
            columns.append(np.shape(inputs)[1])

    def write_spans():
        np.savez(
            trace_path,
            start=np.frombuffer(start, dtype=float),
            duration=np.frombuffer(duration, dtype=float),
            columns=np.frombuffer(columns, dtype=float),
        )

    engine.run_batch = traced_run_batch
    atexit.register(write_spans)
    return engine
