"""Suite-wide test setup: BLAS runs on one thread, as `bench/run.py` measures it.

pytest loads this file before any test module imports numpy, so the thread
counts reach the BLAS library when it loads. A count already set in the
environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
