"""A frame's independent blocks of work, run on a thread per CPU.

The per-pixel kernels (demodulation, backprojection, fusion and the range
renderer's buckets) work through a frame in blocks of about ``BLOCK``
pixels, each block writing its own slice of preallocated outputs. The
blocks are cut into at most one contiguous run of whole blocks per CPU the
process may run on: the calling thread works through the first run and a
pool of worker threads, made when first needed, through the others. numpy
releases the GIL inside its loops, so the runs overlap. Every operation
stays elementwise on the same floats, so the outputs are the same bytes at
any worker count. A frame of one block, and a call made from a worker,
runs inline on the calling thread.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # imported when the pool is made: a one-block program never pays for it
    from concurrent.futures import ThreadPoolExecutor

BLOCK = 16384  # pixels per block of work

try:
    _workers = len(os.sched_getaffinity(0)) - 1  # threads besides the caller's
except AttributeError:  # no affinity on this platform
    _workers = (os.cpu_count() or 1) - 1
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_local = threading.local()  # ``in_worker`` is set in the pool's threads


def _mark_worker() -> None:
    _local.in_worker = True


def _forget_pool() -> None:
    """A forked child has none of the pool's threads: it makes its own."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max(_workers, 1), thread_name_prefix="tofir-blocks",
                                       initializer=_mark_worker)
        return _pool


def run_blocks(n: int, work: Callable[[int, int], None], unit_pixels: int = 1) -> None:
    """Call ``work(start, stop)`` once for every block of ``range(n)``.

    A unit of work (a point, or an image row) covers ``unit_pixels`` pixels,
    and a block holds ``max(1, BLOCK // unit_pixels)`` units. The blocks
    must be independent of each other. Returns only once every run has
    finished; the first exception, in run order, is raised then.
    """
    block = max(1, BLOCK // unit_pixels)
    n_blocks = -(-n // block)
    runs = min(n_blocks, _workers + 1)
    if runs <= 1 or getattr(_local, "in_worker", False):
        _run(work, 0, n, block)
        return
    edges = [min(n, n_blocks * k // runs * block) for k in range(runs + 1)]
    pool = _executor()
    futures = [pool.submit(_run, work, edges[k], edges[k + 1], block) for k in range(1, runs)]
    try:
        _run(work, edges[0], edges[1], block)
    finally:
        for future in futures:  # every run finishes before anything is raised
            future.exception()
    for future in futures:
        future.result()


def _run(work, start: int, stop: int, block: int) -> None:
    for first in range(start, stop, block):
        work(first, min(first + block, stop))
