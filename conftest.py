"""Test-session setup shared by ``tests/`` and ``perfbench/``.

One BLAS/OpenMP thread, fixed before numpy loads (this file is imported
before any test module).  The suite's matrices are small, and threads only
add overhead to them: on a 2-vCPU machine with OpenBLAS's default thread
count the suite took 8.9 s and 16 s of user CPU, against 5.2 s and 5.0 s
with one thread.  A thread count set in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
