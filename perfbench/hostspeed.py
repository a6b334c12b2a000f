"""The host's speed, sampled between the selects it times.

On a shared virtual machine the speed of one core moves by 15-60% within
a minute, most likely as other tenants take the package's frequency
budget, and CPU time moves with wall time, so neither measures the
program alone. The
in-process workloads therefore run a fixed reference kernel after every
``BLOCK_SECONDS`` of selects, on the same core and in the same process,
and scale each select's latency by how long the kernels around its block
took against ``REFERENCE_SECONDS``: a figure then reads as it would on a
host where the kernel always takes exactly that long. The kernel is pure
interpreter work on small integers; it allocates no container, so its
time does not depend on the size of the program's heap. It does not see
a slowdown that spares the interpreter, such as other tenants' memory
traffic (README.md, "Host speed").
"""

from __future__ import annotations

import gc
import statistics
import time
from collections.abc import Sequence

#: Select time between two samples of the kernel.
BLOCK_SECONDS = 0.1
#: Loop length of the kernel: about 3 ms on a 2.1 GHz Xeon core.
KERNEL_LOOPS = 30000
#: The kernel time that normalized figures are scaled to.
REFERENCE_SECONDS = 0.003
#: Kernel samples on each side of a block that its speed is taken from.
NEIGHBOURS = 1


def kernel() -> int:
    total = 0
    for i in range(KERNEL_LOOPS):
        total += i * i % 7
    return total


def measure() -> float:
    """Seconds one kernel run takes, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        begin = time.perf_counter()
        kernel()
        return time.perf_counter() - begin
    finally:
        if enabled:
            gc.enable()


def smoothed(kernels: Sequence[float]) -> list[float]:
    """Each sample replaced by the median of itself and its neighbours,
    so one interrupted kernel run does not rescale a whole block."""
    return [
        statistics.median(kernels[max(0, i - NEIGHBOURS):i + NEIGHBOURS + 1])
        for i in range(len(kernels))
    ]


def normalize(
    latencies: Sequence[float], blocks: Sequence[int], kernels: Sequence[float]
) -> list[float]:
    """Latencies scaled to the reference speed.

    ``blocks[j]`` is the block of latency ``j``: the index of the kernel
    sample taken right after it. A block where the kernel ran at twice its
    reference time counts its selects at half their measured time.
    """
    if len(blocks) != len(latencies):
        raise ValueError("one block index per latency")
    local = smoothed(kernels)
    return [t * REFERENCE_SECONDS / local[b] for t, b in zip(latencies, blocks)]
