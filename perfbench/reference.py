"""Reference kernel that tracks the speed the machine gives this process.

On a shared machine the same work can take 20-30 % longer in one run than in
the next. Every time metric is therefore divided by the slowdown, the median
time of this fixed kernel (timed several times in the same run) over its
nominal time. The kernel uses no magiclab code, so a change to the program
cannot move it.
"""

import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.0146      # median kernel time on a quiet 2-vCPU x86-64 VM
REPS = 3                # kernel timings per sample point


def kernel():
    """Small eigvalsh calls in a Python loop, a bulk sort and dot product,
    and float formatting, like the mix of the workloads."""
    rng = np.random.default_rng(0)
    mats = rng.standard_normal((64, 3, 3))
    mats = mats + mats.transpose(0, 2, 1)
    total = sum(float(np.linalg.eigvalsh(mats[k % 64])[0]) for k in range(150))
    vec = rng.standard_normal(200_000)
    total += float(np.sort(vec)[100]) + float(vec @ vec)
    return total + len(",".join(format(x, ".17g") for x in vec[:3000]))


def sample(times):
    """Times the kernel REPS times, appending to `times`."""
    for _ in range(REPS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)


def slowdown(times):
    return statistics.median(times) / NOMINAL_S
