"""Suite-wide setup, loaded by pytest before any test module imports numpy.

BLAS and OpenMP pools are pinned to one thread, the values
``perfbench/run.py`` gives its children.  Under OpenBLAS's default
threading a 32x32 by 32x256 complex matmul takes about 16 ms instead of
0.06 ms on a 2-vCPU machine, which swamps the in-run speedup floors of the
benchmark tests.  The pool size is read once, when numpy first loads, so
this must run first; an explicit setting in the environment wins.
"""

import os

for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")
