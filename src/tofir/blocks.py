"""A frame's independent blocks of work, run on a thread per CPU.

The per-pixel kernels (demodulation, backprojection, fusion, and the
renderer's trace, direct return, scattering stencil and buckets) work
through a frame in blocks of about ``BLOCK`` pixels, each block writing its
own slice of preallocated outputs. A call's blocks are handed out one at a
time, in ascending order, from a shared cursor: the calling thread takes
block 0 first, and a pool of worker threads, made when first needed, takes
the others as they come. numpy releases the GIL inside its loops, so the
blocks overlap. Every operation stays elementwise on the same floats, so the
outputs are the same bytes at any worker count. A frame of one block, and a
call made from a worker, runs inline on the calling thread.
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

    A unit of work (a point, an image row, or a noise band of rows) covers
    ``unit_pixels`` pixels, and a block holds ``max(1, BLOCK // unit_pixels)``
    units. The blocks must be independent of each other.

    Returns only once every block handed out has finished, raising the
    failure of the lowest failing block; on the pool a failing block does
    not stop the others, inline the first failure ends the call.
    """
    block = max(1, BLOCK // unit_pixels)
    if n <= block or _workers < 1 or getattr(_local, "in_worker", False):
        for first in range(0, n, block):
            work(first, min(first + block, n))
        return
    _Handout(n, block, work).run()


class _Handout:
    """One call's blocks, handed out in ascending order from a shared cursor
    to the calling thread and to up to ``_workers`` loops on the pool."""

    def __init__(self, n, block, work):
        self.n, self.block, self.work = n, block, work
        self.n_blocks = -(-n // block)
        self.cursor = 1  # the next block to hand out; block 0 is the caller's
        self.failures = {}  # block -> exception of its work
        self.lock = threading.Lock()

    def run(self) -> None:
        pool = _executor()
        loops = [pool.submit(self._serve) for _ in range(min(_workers, self.n_blocks - 1))]
        try:
            self._work(0)
            self._serve()
        finally:
            for loop in loops:  # a loop that never started is dropped, not waited for
                loop.cancel()
            for loop in loops:
                if not loop.cancelled():
                    loop.exception()
            # a cancelled loop stays queued, holding this hand-out: it must not
            # keep the call's closure, and the arrays it holds, alive
            self.work = None
        if self.failures:
            raise self.failures[min(self.failures)]

    def _serve(self) -> None:
        """Work through blocks from the cursor until none is left."""
        while True:
            with self.lock:
                if self.cursor >= self.n_blocks:
                    return
                k = self.cursor
                self.cursor += 1
            self._work(k)

    def _work(self, k: int) -> None:
        first = k * self.block
        try:
            self.work(first, min(first + self.block, self.n))
        except BaseException as exc:  # kept; the other blocks still run
            with self.lock:
                self.failures[k] = exc
