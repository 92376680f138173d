"""Multi-scale multiple-instance whole-slide classification, desk scale.

Importing the package sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 where the environment does not set them: the encoder's
conv stages already run their spans on two threads, and BLAS threads on top
of them oversubscribe the cores. A value set in the environment is kept. It
has no effect when numpy was imported before msmil, since BLAS reads these
variables when it loads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
