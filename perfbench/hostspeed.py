"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of a core can change by a factor of ~1.5-2 for
seconds or minutes at a time, and steal time does not show it. A timed call
is therefore bracketed by two runs of a fixed kernel on the same core, and
its normalised time is

    call_s * KERNEL_REF_S / mean(kernel before, kernel after)

which is the call's time on a host where the kernel takes ``KERNEL_REF_S``.
A host that slows both by the same factor leaves it unchanged. The kernel
never changes with the package, so a faster package still shows as a smaller
normalised time.

The kernel makes many small-array numpy calls from a Python loop (a seeded
PCG64 draw, ``log1p``, a 2-column least-squares fit, a cumulative sum), as
the package does per replication and per k. Code of another kind slows by
another factor: a pure-Python integer loop slows less than the workloads
when the host slows, and did not track them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_DESIGN = np.column_stack((np.ones(100), np.arange(100.0)))

#: The kernel's time on the 2-vCPU KVM guest where the benchmark was defined,
#: in that host's fast state (Python 3.11, numpy 2.4). A scale only:
#: normalised times are in "seconds on that host when fast".
KERNEL_REF_S = 0.019


def kernel() -> float:
    acc = 0.0
    for i in range(500):
        z = -np.log1p(-np.random.Generator(np.random.PCG64(i)).random(100))
        coef = np.linalg.lstsq(_DESIGN, z, rcond=None)[0]
        acc += coef[0] + z.mean() + np.cumsum(z)[-1]
    return acc


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
