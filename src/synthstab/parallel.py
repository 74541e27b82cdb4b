"""Order-preserving map over the usable CPUs.

Flow, fitting and sampling run in numpy calls that release the GIL
while they work on arrays, so independent frame pairs can overlap on
plain threads.  The gain depends on the share of each pair spent
outside the GIL.  On 2 vCPUs, 2 threads against serial:
``compute_flow`` over the 24 pairs of one 128x128 clip ran 0.9-1.3x,
the level-0 SAD call (16 px blocks, radius 4) 1.4-2.0x, and
``robust_fit_flow`` on those flows 0.4-0.6x, slower than serial.  A
pool lives for one call: starting it costs about half a millisecond,
against 50-140 ms of flow work per clip in the calls that use it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def usable_cpus() -> int:
    """CPUs this process may run on; the machine's count where unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pmap(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    """``[fn(x) for x in items]`` on up to one thread per usable CPU.

    Results keep the order of ``items``; the first item (in order)
    whose call raised re-raises its exception here.
    """
    items = list(items)
    workers = min(len(items), usable_cpus())
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
