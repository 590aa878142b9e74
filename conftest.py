"""Test-session settings for the whole checkout: BLAS runs on one thread,
as ``bench/run.py`` and ``bench/reference.json`` do, unless the environment
already names a thread count.  OpenBLAS reads these variables once, when
numpy loads it, so they are set here, before any test module imports
numpy."""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
