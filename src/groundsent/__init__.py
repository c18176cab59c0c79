"""Visually grounded self-attentive sentence representations.

A bidirectional LSTM encoder with multi-head self-attention produces a
fixed-width sentence vector that is trained to predict a target caption,
an associated image-feature vector, or both.

Threads have one owner, `parallel`'s pool. When this package is imported
before numpy, as the `groundsent` command and `python -m groundsent` import
it, it sets BLAS and OpenMP to one thread each through THREAD_VARS, over any
value already set, before numpy loads: their sums then do not depend on the
machine's core count, so a run is a pure function of (config, seed, corpus).
When numpy is already loaded, BLAS has read its thread count, and this
import leaves it alone.
"""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

if "numpy" not in sys.modules:
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

__version__ = "0.1.0"

from .autodiff import Matrix, Tape, ShapeError, grad_check  # numpy loads here

__all__ = ["Matrix", "Tape", "ShapeError", "grad_check", "__version__"]
