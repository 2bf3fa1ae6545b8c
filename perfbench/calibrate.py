"""Fixed reference kernels that measure how fast the host runs right now.

On a shared host the same code runs at speeds that drift by up to 2x over
tens of seconds, far more than the changes the benchmark has to resolve.
Each workload names a kernel that does the same kind of work it does.
Timing that kernel right before and after a measured interval and scaling
the interval by ``reference / kernel`` reports it in reference seconds:
the time it would have taken while the kernel ran in its reference time.
The raw times are kept in the result file.

The kernels are frozen: changing one, or its reference time, changes
every normalised number of the workloads that use it and needs a new
baseline.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(0)
_A = _RNG.random((10, 10))
_BLOCKS = [_RNG.random(10) for _ in range(64)]


def _interpreter(iterations: int) -> None:
    # Python loops over small numpy arrays, like the multi-block solver
    for _ in range(iterations):
        out = [_A @ u for u in _BLOCKS]
        total = sum(float(v[0]) for v in out)
        tuple(np.asarray(v) * total for v in out)


def _lapack_mix() -> None:
    # the operator search's mix: about 60% SVD, 15% least squares and 25%
    # interpreter work on small arrays
    rng = np.random.default_rng(1)
    H = rng.random((231, 1000))
    A = rng.random((400, 200))
    y = rng.random(400)
    for _ in range(2):
        np.linalg.svd(H, full_matrices=False)
        np.linalg.lstsq(A, y, rcond=None)
    _interpreter(240)


#: kernel name -> (work, reference seconds); the reference times are
#: typical on a 2-core x86-64 virtual machine with Python 3.11 and numpy 2.4
KERNELS = {
    "interpreter": (lambda: _interpreter(720), 0.090),
    "lapack-mix": (_lapack_mix, 0.120),
}


def kernel_seconds(kind: str) -> float:
    """Run the named kernel once and return its wall time."""
    work = KERNELS[kind][0]
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def normalised(kind: str, seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` in reference seconds, from the kernel times around it."""
    return seconds * KERNELS[kind][1] / (0.5 * (kernel_before + kernel_after))
