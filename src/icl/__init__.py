"""Dual-feature contrastive recognition for ship-radiated noise.

Mel and CQT spectrograms feed two residual convolutional encoders whose
embeddings are tied together by a cosine-similarity contrastive term and
summed for a shared linear classifier; class activation maps explain
what each encoder attends to.

Importing this package pins BLAS to one thread per process. A training
step runs its two encoders on two threads instead, and BLAS sums in an
order that depends on its thread count, so the pin also makes a run's
bytes independent of the environment. It takes effect only when ``icl``
is imported before numpy, which loads BLAS.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

__version__ = "0.1.0"
