"""The block runner of ``tofir.blocks`` and the kernels that use it: every
kernel writes the same bytes on the calling thread alone as with worker
threads, and every call returns only once all of its blocks have finished."""

import dataclasses
import hashlib
import math
import os
import signal
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from tofir import blocks, fusion, simulator, tof
from tofir import Extrinsics, FuseReason, IrIntrinsics, RangeFrame, RawTofFrame, TofIntrinsics
from tofir.simulator import (MultipathConfig, NoiseConfig, Plane, ScatteringConfig, Scene, Sphere,
                             render_ir, render_tof)

B = blocks.BLOCK
# 100 columns: 163 rows a block, so 405 rows are two whole blocks and one of 79
WIDE = TofIntrinsics(focal_length=4e-3, width=100, height=405, pixel_pitch=6e-6)
WIDE_IR = IrIntrinsics(focal_length=4e-3, width=100, height=405, pixel_pitch=6e-6)
# on WIDE: ten rows a block with a last one of five, 163 rows a block with a
# last one of 79, and the whole frame in one block
BLOCK_SIZES = (1000, B, 1 << 20)
# a wall and a sphere of different reflectivities, so a return formed from
# another block's rows shows
MIXED = Scene((Plane("z", 3.0, 0.6, 300.0), Sphere((0.0, 0.0, 1.0), 0.2, 0.9, 310.0)))


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


def _at_every_block_size(workers, monkeypatch, run):
    """Checks that ``run()`` gives the bytes of an inline run at the default
    block size at every size of ``BLOCK_SIZES`` and every worker count, and
    that a frame of more than one block makes the pool."""
    workers(0)
    expected = run()
    for block in BLOCK_SIZES:
        monkeypatch.setattr(blocks, "BLOCK", block)
        for count in range(3):
            workers(count)
            for want, got in zip(expected, run()):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (block, count)
            assert (blocks._pool is not None) == (count > 0 and block < 1 << 20)
    return expected


def _stream(seed, *key):
    """The renderer's noise stream of ``seed`` under ``key``, built here in
    plain numpy."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


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

    def test_a_finished_call_keeps_no_work_alive(self, workers):
        """With the one worker busy, the caller works every block itself and
        cancels its loop, which stays queued: that loop must not keep the
        call's work, nor the arrays the work holds, alive."""
        workers(1)
        gate = threading.Event()
        busy = blocks._executor().submit(gate.wait, 30)  # holds the one worker
        payload = np.zeros(8)
        alive = weakref.ref(payload)
        try:
            blocks.run_blocks(2 * B, lambda start, stop, held=payload: None)
            del payload
            assert alive() is None
        finally:
            gate.set()
        assert busy.result(timeout=30)

    def test_one_block_frames_never_make_the_pool(self, workers, tof_intr, ir_intr,
                                                  blob_scene):
        workers(0)
        thermal = render_ir(blob_scene, ir_intr)  # 160x120 is two blocks
        workers(1)
        raw, _ = render_tof(blob_scene, tof_intr, noise=NoiseConfig(seed=1,
                                                                    bucket_noise_sigma=0.2))
        frame = tof.demodulate(raw, tof_intr)
        fusion.fuse(frame, thermal, tof_intr, ir_intr, Extrinsics.identity())
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
    # four callers' blocks, queued behind each other's on three workers, each
    # draw their bands' phase noise from their own keyed streams and form
    # buckets, with thread switches forced every 10 us
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

    def test_render_with_every_error_source(self, workers, monkeypatch):
        # each render traces, returns and scatters afresh, not from a kept base
        for radius in (1, 4, 6):
            noise = NoiseConfig(seed=5, bucket_noise_sigma=0.3, saturation_fraction=0.02,
                                multipath=MultipathConfig(True, 0.7, 0.3),
                                scattering=ScatteringConfig(True, radius, 0.15))

            def run():
                simulator._frame_base.cache_clear()
                raw, truth = render_tof(MIXED, WIDE, noise=noise, frame_index=2)
                return (raw.samples, truth.range, truth.points, truth.temperature,
                        truth.outlier_mask)

            samples, *_, outliers = _at_every_block_size(workers, monkeypatch, run)
            assert outliers[-5:].any()  # saturation reaches the last, partial block
            assert (samples[outliers] == simulator.SATURATION_LEVEL).all()

    def test_render_with_phase_noise_and_saturation(self, workers, blob_scene):
        # each band of _NOISE_ROWS rows draws its phase normals from the stream
        # keyed by (seed, frame, band), and the saturated pixels are chosen
        # from the stream keyed by (seed, frame)
        noise = NoiseConfig(seed=5, saturation_fraction=0.02)

        def run():
            simulator._frame_base.cache_clear()
            raw, truth = render_tof(blob_scene, WIDE, noise=noise, frame_index=2)
            return raw.samples, truth.outlier_mask

        samples, outliers = _inline_and_pooled(workers, run, counts=(1, 2, 3))
        assert outliers[-8:].any()
        base = simulator._frame_base(blob_scene, WIDE, None, noise.multipath, noise.scattering,
                                      "inverse_square")
        tops = range(0, WIDE.height, simulator._NOISE_ROWS)
        assert len(tops) > 1 and WIDE.height % simulator._NOISE_ROWS  # a partial last band
        normals = np.concatenate([
            _stream(5, 2, band).standard_normal(
                (min(simulator._NOISE_ROWS, WIDE.height - top), WIDE.width))
            for band, top in enumerate(tops)])
        sigma = noise.phase_noise_scale / np.maximum(base.amplitude, 1e-12)
        expected = tof.synthesize_buckets(base.phase + sigma * normals, base.amplitude,
                                          base.offset)
        chosen = _stream(5, 2).choice(outliers.size, size=outliers.sum(), replace=False)
        expected.reshape(-1, 4)[chosen] = simulator.SATURATION_LEVEL
        assert samples.tobytes() == expected.tobytes()
        assert np.flatnonzero(outliers).tolist() == sorted(chosen)

    @pytest.mark.parametrize("blur_sigma", [0.0, 1.3])
    def test_render_ir(self, workers, monkeypatch, blur_sigma):
        pose = Extrinsics(np.eye(3), np.array([0.1, -0.05, 0.2]))

        def run():
            return (render_ir(MIXED, WIDE_IR, pose, blur_sigma=blur_sigma).temperatures,)

        (temperatures,) = _at_every_block_size(workers, monkeypatch, run)
        assert np.ptp(temperatures[-5:]) > 5.0  # the sphere's edge reaches the last block


# every error source on WIDE, whose 405 rows are twelve whole noise bands and
# a partial one of 21
EVERY_ERROR = NoiseConfig(seed=7, bucket_noise_sigma=0.3, saturation_fraction=0.02,
                          multipath=MultipathConfig(True, 0.7, 0.3),
                          scattering=ScatteringConfig(True, 4, 0.15))


class TestKeyedNoise:
    def test_same_bytes_at_any_block_size_and_worker_count(self, workers, monkeypatch,
                                                           blob_scene):
        assert WIDE.height // simulator._NOISE_ROWS > 1
        assert WIDE.height % simulator._NOISE_ROWS

        def run():
            simulator._frame_base.cache_clear()
            raw, truth = render_tof(blob_scene, WIDE, noise=EVERY_ERROR, frame_index=3)
            return raw.samples.tobytes() + truth.outlier_mask.tobytes()

        workers(0)
        expected = run()
        # a band a block, five bands a block, and the whole frame in one block
        for block in (1000, B, 1 << 20):
            monkeypatch.setattr(blocks, "BLOCK", block)
            for count in range(4):
                workers(count)
                assert run() == expected, (block, count)

    def test_saturated_pixels_do_not_depend_on_the_other_noise(self, blob_scene):
        masks = set()
        for phase_noise_scale in (0.0, 0.264, 1.0):
            for bucket_noise_sigma in (0.0, 0.3, 2.0):
                noise = dataclasses.replace(EVERY_ERROR, phase_noise_scale=phase_noise_scale,
                                            bucket_noise_sigma=bucket_noise_sigma)
                _, truth = render_tof(blob_scene, WIDE, noise=noise, frame_index=3)
                assert truth.outlier_mask.sum() == round(0.02 * truth.outlier_mask.size)
                masks.add(truth.outlier_mask.tobytes())
        assert len(masks) == 1
