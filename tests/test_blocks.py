"""The block runner of ``tofir.blocks`` and the kernels that use it: every
kernel writes the same bytes on the calling thread alone as with worker
threads, and every call returns only once all of its blocks have finished."""

import hashlib
import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from tofir import blocks, fusion, simulator, tof
from tofir import Extrinsics, FuseReason, RangeFrame, RawTofFrame, TofIntrinsics
from tofir.simulator import MultipathConfig, NoiseConfig, ScatteringConfig, render_ir, render_tof

B = blocks.BLOCK
# 100 columns: 163 rows a block, so 400 rows are two whole blocks and one of 74
WIDE = TofIntrinsics(focal_length=4e-3, width=100, height=400, pixel_pitch=6e-6)


@pytest.fixture
def workers(monkeypatch):
    """Sets the worker count for one test, on a pool of that size made for
    the test; inline runs use 0. The process's own pool is left alone."""
    monkeypatch.setattr(blocks, "_pool", None)

    def use(count):
        monkeypatch.setattr(blocks, "_workers", count)
        if blocks._pool is not None:
            blocks._pool.shutdown()
        monkeypatch.setattr(blocks, "_pool", None)

    yield use
    if blocks._pool is not None:
        blocks._pool.shutdown()


def _inline_and_pooled(workers, run, counts=(1, 2)):
    workers(0)
    inline = run()
    assert blocks._pool is None
    for count in counts:
        workers(count)
        pooled = run()
        assert blocks._pool is not None
        for expected, got in zip(inline, pooled):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
    return inline


def _raw_frame(intr, seed=0):
    """Random buckets with NaN, inf and zero-amplitude pixels in the last,
    partial block of rows."""
    rng = np.random.default_rng(seed)
    samples = rng.uniform(0.0, 200.0, (intr.height, intr.width, 4))
    samples[-1, 0, 1] = np.nan
    samples[-2, 3, 0] = np.inf
    samples[-3, 5] = (7.0, 9.0, 7.0, 9.0)  # A1 == A3, A2 == A4
    samples[-4, 6] = 0.0
    return RawTofFrame(samples)


class TestRunBlocks:
    def test_every_block_once_in_at_most_one_run_per_thread(self, workers):
        workers(2)
        calls = []
        lock = threading.Lock()

        def work(start, stop):
            with lock:
                calls.append((start, stop, threading.current_thread().name))

        n = 7 * B + 5
        blocks.run_blocks(n, work)
        assert sorted((start, stop) for start, stop, _ in calls) == [
            (k * B, min((k + 1) * B, n)) for k in range(8)]
        by_thread = {}
        for start, stop, name in sorted(calls):
            by_thread.setdefault(name, []).append((start, stop))
        assert len(by_thread) <= 3
        for name in by_thread:  # each thread takes its blocks in ascending order
            starts = [start for start, _, thread in calls if thread == name]
            assert starts == sorted(starts)
        assert by_thread[threading.current_thread().name][0][0] == 0

    def test_rows_per_block_follow_the_row_width(self, workers):
        workers(0)
        calls = []
        blocks.run_blocks(400, lambda start, stop: calls.append((start, stop)), 100)
        assert calls == [(0, 163), (163, 326), (326, 400)]

    def test_a_one_block_call_never_makes_the_pool(self, workers):
        workers(1)
        calls = []
        blocks.run_blocks(B, lambda start, stop: calls.append(threading.current_thread()))
        assert calls == [threading.current_thread()]
        blocks.run_blocks(50, lambda start, stop: calls.append(None), 64)
        assert blocks._pool is None

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_draws_run_on_the_caller_in_order_before_their_blocks(self, workers, count):
        workers(count)
        events = []
        lock = threading.Lock()

        def record(*event):
            with lock:
                events.append(event + (threading.current_thread(),))

        def draw(start, stop):
            record("draw", start)
            time.sleep(0.002)
            record("drawn", start)

        def work(start, stop):
            record("work", start)
            time.sleep(0.003)

        n = 7 * B + 5
        blocks.run_blocks(n, work, draw=draw)
        caller = threading.current_thread()
        draws = [(kind, start) for kind, start, thread in events
                 if kind in ("draw", "drawn") and thread is caller]
        assert draws == [(kind, k * B) for k in range(8) for kind in ("draw", "drawn")]
        assert len(draws) == sum(kind != "work" for kind, _, _ in events)
        drawn_at = {start: i for i, (kind, start, _) in enumerate(events) if kind == "drawn"}
        worked_at = {start: i for i, (kind, start, _) in enumerate(events) if kind == "work"}
        assert sorted(worked_at) == [k * B for k in range(8)]
        assert all(worked_at[start] > drawn_at[start] for start in worked_at)

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_a_failing_draw_stops_the_hand_out(self, workers, count):
        workers(count)
        started, finished = [], []
        drawn = []

        def draw(start, stop):
            time.sleep(0.005)  # the loops would outrun the draws
            if start == 4 * B:
                raise RuntimeError("draw 4")
            drawn.append(start)

        def work(start, stop):
            started.append(start)
            time.sleep(0.001)
            finished.append(start)

        with pytest.raises(RuntimeError, match="draw 4"):
            blocks.run_blocks(8 * B, work, draw=draw)
        assert drawn == [k * B for k in range(4)]
        assert set(started) <= set(drawn)
        assert sorted(finished) == sorted(started)

    def test_a_one_block_call_with_a_draw_runs_inline(self, workers):
        workers(1)
        calls = []

        def draw(start, stop):
            calls.append(("draw", start, stop, threading.current_thread()))

        def work(start, stop):
            calls.append(("work", start, stop, threading.current_thread()))

        blocks.run_blocks(50, work, 64, draw)
        blocks.run_blocks(B, work, draw=draw)
        caller = threading.current_thread()
        assert calls == [("draw", 0, 50, caller), ("work", 0, 50, caller),
                         ("draw", 0, B, caller), ("work", 0, B, caller)]
        assert blocks._pool is None

    def test_a_caller_does_not_wait_for_loops_that_never_started(self, workers):
        workers(1)
        gate = threading.Event()
        busy = blocks._executor().submit(gate.wait, 30)  # holds the one worker
        threads = []

        def work(start, stop):
            threads.append(threading.current_thread())

        caller = threading.Thread(target=blocks.run_blocks, args=(3 * B, work), daemon=True)
        try:
            caller.start()
            caller.join(timeout=10)
            assert not caller.is_alive()
        finally:
            gate.set()
        assert threads == [caller] * 3
        assert busy.result(timeout=30)

    def test_one_block_frames_never_make_the_pool(self, workers, tof_intr, ir_intr,
                                                  blob_scene):
        workers(1)
        raw, _ = render_tof(blob_scene, tof_intr, noise=NoiseConfig(seed=1,
                                                                    bucket_noise_sigma=0.2))
        frame = tof.demodulate(raw, tof_intr)
        fusion.fuse(frame, render_ir(blob_scene, ir_intr), tof_intr, ir_intr,
                    Extrinsics.identity())
        assert blocks._pool is None

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_a_failing_run_raises_after_every_run_has_finished(self, workers, failing):
        workers(3)
        finished = []
        fail_at = 0 if failing == "caller" else 2 * B

        def work(start, stop):
            if start == fail_at:
                raise RuntimeError(f"block {start}")
            time.sleep(0.05)
            finished.append(start)

        with pytest.raises(RuntimeError, match=f"block {fail_at}"):
            blocks.run_blocks(4 * B, work)
        assert sorted(finished) == [k * B for k in range(4) if k * B != fail_at]

    def test_the_first_failing_run_is_raised(self, workers):
        workers(3)

        def work(start, stop):
            if start >= 2 * B:
                raise RuntimeError(f"block {start}")

        with pytest.raises(RuntimeError, match=f"block {2 * B}"):
            blocks.run_blocks(4 * B, work)

    def test_a_call_from_a_worker_runs_inline(self, workers):
        workers(1)  # a nested call queued on the one worker would never start
        inner = []

        def nested(start, stop):
            inner.append(threading.current_thread())

        def work(start, stop):
            if threading.current_thread() is not caller:
                blocks.run_blocks(3 * B, nested)

        caller = threading.Thread(target=blocks.run_blocks, args=(2 * B, work), daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive()
        assert len(inner) == 3 and len(set(inner)) == 1 and inner[0] is not caller


def test_concurrent_callers_share_one_pool_and_get_their_bytes(workers):
    # four callers race to make the pool and then queue their runs on its
    # three workers, with thread switches forced every 10 us
    raws = [_raw_frame(WIDE, seed) for seed in range(4)]
    workers(0)
    expected = [tof.demodulate(raw, WIDE).distance.tobytes() for raw in raws]
    workers(3)
    got = [None] * len(raws)
    made = []

    def call(k):
        for _ in range(5):
            got[k] = tof.demodulate(raws[k], WIDE).distance.tobytes()
            made.append(blocks._pool)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(k,), daemon=True) for k in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(caller.is_alive() for caller in callers)
    assert got == expected
    assert len(made) == 20 and len(set(map(id, made))) == 1


def test_concurrent_renders_draw_their_own_streams(workers, blob_scene):
    # four callers draw their phase noise a block at a time while their
    # loops, queued behind each other's on three workers, form buckets, with
    # thread switches forced every 10 us
    noises = [NoiseConfig(seed=k, saturation_fraction=0.01) for k in range(4)]

    def render(k):
        raw, truth = render_tof(blob_scene, WIDE, noise=noises[k], frame_index=k)
        return raw.samples.tobytes() + truth.outlier_mask.tobytes()

    workers(0)
    expected = [render(k) for k in range(4)]
    workers(3)
    got = [None] * 4

    def call(k):
        for _ in range(5):
            got[k] = render(k)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        callers = [threading.Thread(target=call, args=(k,), daemon=True) for k in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(caller.is_alive() for caller in callers)
    assert got == expected


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_a_forked_child_makes_its_own_pool(workers):
    workers(1)
    raw = _raw_frame(WIDE)
    expected = tof.demodulate(raw, WIDE).distance.tobytes()  # the parent's pool exists now
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: demodulate on worker threads, send the bytes, exit
        try:
            os.write(write_end, hashlib.sha256(
                tof.demodulate(raw, WIDE).distance.tobytes()).digest())
        finally:
            os._exit(0)
    os.close(write_end)
    deadline = time.monotonic() + 30
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child hung")
        time.sleep(0.01)
    got = os.read(read_end, 64)
    os.close(read_end)
    assert got == hashlib.sha256(expected).digest()


class TestKernelsAtAnyWorkerCount:
    def test_demodulate(self, workers):
        raw = _raw_frame(WIDE)

        def run():
            frame = tof.demodulate(raw, WIDE, a_min=1.0, a_max=150.0, b_max=180.0)
            return frame.distance, frame.amplitude, frame.offset, frame.valid

        distance, amplitude, offset, valid = _inline_and_pooled(workers, run)
        assert not valid[-4:, :7].all() and valid[:-4].any()

    def test_backproject(self, workers):
        frame = tof.demodulate(_raw_frame(WIDE, seed=1), WIDE)

        def run():
            cloud = tof.backproject(frame, WIDE)
            return cloud.points, cloud.valid, cloud.pixel_indices

        points, valid, _ = _inline_and_pooled(workers, run)
        assert not valid.all() and not points[~valid].any()

    def test_fuse_with_every_reason_code(self, workers, ir_intr, blob_scene):
        # near points in the first and last rows end up behind the IR camera
        ext = Extrinsics(
            np.array([[math.cos(0.1), 0.0, math.sin(0.1)], [0.0, 1.0, 0.0],
                      [-math.sin(0.1), 0.0, math.cos(0.1)]]),
            np.array([0.3, 0.02, -0.1]),
        )
        thermal = render_ir(blob_scene, ir_intr, ext.inverse())
        rng = np.random.default_rng(6)
        shape = (WIDE.height, WIDE.width)
        distance = rng.uniform(0.05, 5.0, shape)
        distance[:5] = rng.uniform(0.0, 0.2, (5, WIDE.width))
        distance[-5:] = rng.uniform(0.0, 0.2, (5, WIDE.width))
        frame = RangeFrame(distance, np.ones(shape), np.ones(shape), rng.random(shape) > 0.1)

        def run():
            tg = fusion.fuse(frame, thermal, WIDE, ir_intr, ext)
            return tg.points, tg.temperature, tg.reason

        _, _, reason = _inline_and_pooled(workers, run, counts=(1, 2, 3))
        every_code = {int(r) for r in FuseReason}
        assert set(np.unique(reason)) == every_code
        assert set(np.unique(reason.ravel()[2 * B:])) == every_code  # the partial block

    def test_render_with_every_error_source(self, workers, blob_scene):
        noise = NoiseConfig(seed=5, bucket_noise_sigma=0.3, saturation_fraction=0.02,
                            multipath=MultipathConfig(True, 0.7, 0.3),
                            scattering=ScatteringConfig(True, 4, 0.15))

        def run():
            raw, truth = render_tof(blob_scene, WIDE, noise=noise, frame_index=2)
            return raw.samples, truth.outlier_mask

        samples, outliers = _inline_and_pooled(workers, run)
        assert outliers[-8:].any()  # saturation reaches the last, partial block
        assert (samples[outliers] == simulator.SATURATION_LEVEL).all()

    def test_render_with_phase_noise_and_saturation(self, workers, blob_scene):
        # the phase normals are each block's draw, and the saturated pixels
        # are chosen from the stream after the last of them: the bytes of
        # one whole-frame draw
        noise = NoiseConfig(seed=5, saturation_fraction=0.02)

        def run():
            raw, truth = render_tof(blob_scene, WIDE, noise=noise, frame_index=2)
            return raw.samples, truth.outlier_mask

        samples, outliers = _inline_and_pooled(workers, run, counts=(1, 2, 3))
        assert outliers[-8:].any()
        base = simulator._frame_base(blob_scene, WIDE, None, noise.multipath, noise.scattering,
                                      "inverse_square")
        rng = np.random.Generator(np.random.Philox(5).jumped(2))
        sigma = noise.phase_noise_scale / np.maximum(base.amplitude, 1e-12)
        phase = base.phase + sigma * rng.standard_normal(base.phase.shape)
        expected = tof.synthesize_buckets(phase, base.amplitude, base.offset)
        chosen = rng.choice(outliers.size, size=outliers.sum(), replace=False)
        expected.reshape(-1, 4)[chosen] = simulator.SATURATION_LEVEL
        assert samples.tobytes() == expected.tobytes()
        assert np.flatnonzero(outliers).tolist() == sorted(chosen)
