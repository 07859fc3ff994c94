"""A frame's independent blocks of work, run on a thread per CPU.

The per-pixel kernels (demodulation, backprojection, fusion and the range
renderer's buckets) work through a frame in blocks of about ``BLOCK``
pixels, each block writing its own slice of preallocated outputs. A call's
blocks are handed out one at a time, in ascending order, from a shared
cursor: the calling thread takes block 0 first, and a pool of worker
threads, made when first needed, takes the others as they come. numpy
releases the GIL inside its loops, so the blocks overlap. Every operation
stays elementwise on the same floats, so the outputs are the same bytes at
any worker count. A frame of one block, and a call made from a worker,
runs inline on the calling thread.

A call may also pass a ``draw``: a serial step per block, such as drawing
the block's random numbers from one stream, that must run in block order
on the calling thread. A block is handed out only once its draw has
returned, so the workers work through the drawn blocks while the caller
draws the next ones; the caller works once every block is drawn.
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


def run_blocks(n: int, work: Callable[[int, int], None], unit_pixels: int = 1,
               draw: Callable[[int, int], None] | None = None) -> None:
    """Call ``work(start, stop)`` once for every block of ``range(n)``.

    A unit of work (a point, or an image row) covers ``unit_pixels`` pixels,
    and a block holds ``max(1, BLOCK // unit_pixels)`` units. The blocks
    must be independent of each other. ``draw(start, stop)``, when given,
    runs on the calling thread for every block in ascending order, and a
    block's work starts only after its draw has returned.

    Returns only once every block handed out has finished, raising the
    failure of the lowest failing block; on the pool a failing block does
    not stop the others, inline the first failure ends the call. A failing
    draw stops the hand-out: no block after it is worked on, and the draw's
    exception is raised.
    """
    block = max(1, BLOCK // unit_pixels)
    if n <= block or _workers < 1 or getattr(_local, "in_worker", False):
        for first in range(0, n, block):
            stop = min(first + block, n)
            if draw is not None:
                draw(first, stop)
            work(first, stop)
        return
    _Handout(n, block, work, draw).run()


class _Handout:
    """One call's blocks, handed out in ascending order from a shared cursor
    to the calling thread and to up to ``_workers`` loops on the pool."""

    def __init__(self, n, block, work, draw):
        self.n, self.block, self.work, self.draw = n, block, work, draw
        self.n_blocks = -(-n // block)
        self.drawn = 0 if draw is not None else self.n_blocks  # blocks ready to hand out
        self.cursor = 1  # the next block to hand out; block 0 is the caller's
        self.stopped = False  # a draw failed: nothing more is handed out
        self.failures = {}  # block -> exception of its work
        self.changed = threading.Condition()

    def run(self) -> None:
        pool = _executor()
        loops = [pool.submit(self._serve) for _ in range(min(_workers, self.n_blocks - 1))]
        try:
            if self.draw is not None:
                for k in range(self.n_blocks):
                    self.draw(*self._span(k))
                    with self.changed:
                        self.drawn = k + 1
                        self.changed.notify_all()
            self._work(0)
            self._serve()
        except BaseException:  # a draw failed: the loops stop after their blocks
            with self.changed:
                self.stopped = True
                self.changed.notify_all()
            raise
        finally:
            for loop in loops:  # a loop that never started is dropped, not waited for
                loop.cancel()
            for loop in loops:
                if not loop.cancelled():
                    loop.exception()
        if self.failures:
            raise self.failures[min(self.failures)]

    def _serve(self) -> None:
        """Work through blocks from the cursor until none is left."""
        while True:
            with self.changed:
                # wait while the next block is still to be drawn
                while self.drawn <= self.cursor < self.n_blocks and not self.stopped:
                    self.changed.wait()
                if self.stopped or self.cursor >= self.n_blocks:
                    return
                k = self.cursor
                self.cursor += 1
            self._work(k)

    def _work(self, k: int) -> None:
        try:
            self.work(*self._span(k))
        except BaseException as exc:  # kept; the other blocks still run
            with self.changed:
                self.failures[k] = exc

    def _span(self, k: int) -> tuple[int, int]:
        first = k * self.block
        return first, min(first + self.block, self.n)
