"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured figure next to its threshold.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear; without ``-s`` pytest shows them for failing tests only.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from conftest import geodesic_degrees

from tofir import (
    CalibrationTarget,
    Extrinsics,
    IrIntrinsics,
    MultipathConfig,
    NoiseConfig,
    Plane,
    RawTofFrame,
    ScatteringConfig,
    Scene,
    Sphere,
    ThermalFrame,
    TofIntrinsics,
    build_background,
    demodulate,
    estimate_rotation,
    foreground_mask,
    fuse,
    make_calibration_set,
    render_ir,
    render_tof,
    render_tof_sequence,
    synthesize_buckets,
    unambiguous_range,
    undistort_pixel,
)
from tofir.calibration import rotation_angle_between
from tofir.cli import main
from tofir.thermal import sample_temperature_grid
from tofir.tof import SPEED_OF_LIGHT

TOF = TofIntrinsics(focal_length=4e-3, width=64, height=50, pixel_pitch=45e-6, f_mod=21e6)
IR = IrIntrinsics(focal_length=4.8e-3, width=160, height=120, pixel_pitch=25e-6)
WALL = Scene((Plane("z", 3.0, 1.0, 300.0),))


def _report(criterion: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion} ({name}): {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


def test_criterion_1_demodulation_round_trip():
    """1e6 random (amplitude, offset, phase) triples recover to 1e-9."""
    n = 1_000_000
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    phase = rng.uniform(0.0, 2.0 * math.pi, size=n)
    amplitude = 10.0 ** rng.uniform(-3, 3, size=n)
    # offset/amplitude ratio capped at 1e4: beyond ~4e6 the bucket differences
    # cancel past float64 precision and 1e-9 recovery is unrepresentable
    offset = amplitude * (1.0 + 10.0 ** rng.uniform(0, 4, size=n))
    buckets = synthesize_buckets(phase, amplitude, offset).reshape(1000, 1000, 4)
    frame = demodulate(RawTofFrame(buckets), TofIntrinsics(4e-3, 1000, 1000, 45e-6, f_mod=21e6))
    rel_a = np.abs(frame.amplitude.ravel() - amplitude) / amplitude
    rel_b = np.abs(frame.offset.ravel() - offset) / offset
    recovered = frame.distance.ravel() * (4 * math.pi * 21e6 / SPEED_OF_LIGHT)
    dphi = np.abs(recovered - phase)
    rel_phi = np.minimum(dphi, 2 * math.pi - dphi) / (2 * math.pi)  # circular, per revolution
    elapsed = time.perf_counter() - start
    worst = max(rel_a.max(), rel_b.max(), rel_phi.max())
    _report(1, "demodulation round-trip",
            worst <= 1e-9 and elapsed <= 5.0,
            f"max relative error {worst:.3e} (limit 1e-9), {elapsed:.2f}s (limit 5s)")


def test_criterion_2_oracle_identity():
    """Noise-free wall scene demodulates to the exact ground-truth range."""
    start = time.perf_counter()
    raw, truth = render_tof(WALL, TOF, noise=NoiseConfig.quiet())
    frame = demodulate(raw, TOF)
    rel = np.abs(frame.distance - truth.range) / truth.range
    elapsed = time.perf_counter() - start
    ok = bool(frame.valid.all()) and rel.max() <= 1e-9 and elapsed <= 1.0
    _report(2, "simulator oracle identity",
            ok, f"max relative error {rel.max():.3e} at 64x50 (limit 1e-9), "
                f"{elapsed:.2f}s (limit 1s)")


def test_criterion_3_unambiguous_range_wrap():
    """Scenes one full wrap apart produce bit-identical buckets."""
    period = unambiguous_range(21e6)
    derived = period == pytest.approx(7.1379, abs=5e-5)
    # a distance whose sum with the period is exactly representable, so the
    # pair differs by exactly one wrap in float arithmetic
    candidates = 3.0 + np.arange(256) * 2.0**-20
    exact = np.fmod(candidates + period, period) == candidates
    d = float(candidates[np.argmax(exact)])
    near = Scene((Sphere((0.0, 0.0, 0.0), d, 1.0, 300.0),))
    far = Scene((Sphere((0.0, 0.0, 0.0), d + period, 1.0, 300.0),))
    raw_near, truth_near = render_tof(near, TOF, noise=NoiseConfig.quiet(),
                                      amplitude_law="constant")
    raw_far, truth_far = render_tof(far, TOF, noise=NoiseConfig.quiet(),
                                    amplitude_law="constant")
    buckets_equal = np.array_equal(raw_near.samples, raw_far.samples)
    ranges_equal = np.array_equal(
        demodulate(raw_near, TOF).distance, demodulate(raw_far, TOF).distance
    )
    truly_apart = np.allclose(truth_far.range - truth_near.range, period, rtol=1e-12)
    _report(3, "unambiguous-range wrap-around",
            bool(exact.any() and derived and buckets_equal and ranges_equal and truly_apart),
            f"period {period:.4f} m, scenes at {d} and {d} + period: "
            f"buckets bitwise equal = {buckets_equal}")


def _calibration_observations(rng, rotation, noise_sigma, seed, count=20):
    ext = Extrinsics(rotation, np.array([0.05, 0.0, 0.0]))
    observations = []
    attempt = 0
    while len(observations) < count:
        targets = [
            CalibrationTarget((rng.uniform(-0.7, 0.7), rng.uniform(-0.5, 0.5),
                               rng.uniform(1.5, 5.0)))
            for _ in range(count)
        ]
        observations += make_calibration_set(
            targets, ext, TOF, IR, noise_sigma, seed=seed + attempt
        )
        attempt += 1
    return observations[:count]


def test_criterion_4_calibration_recovery():
    """Noise-free: 1e-6 rad recovery; sigma = 0.1 px: median error <= 0.5 deg."""
    start = time.perf_counter()
    rng = np.random.default_rng(99)

    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    true_rotation = Rotation.from_rotvec(axis * np.deg2rad(10.0)).as_matrix()
    clean = _calibration_observations(rng, true_rotation, 0.0, seed=1000)
    result = estimate_rotation(clean, [0.05, 0.0, 0.0], TOF, IR)
    clean_error = rotation_angle_between(result.rotation, true_rotation)

    errors_deg = []
    rms_values = []
    for seed in range(50):
        seed_rng = np.random.default_rng(seed)
        axis = seed_rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rotation = Rotation.from_rotvec(axis * np.deg2rad(seed_rng.uniform(1.0, 10.0))).as_matrix()
        observations = _calibration_observations(seed_rng, rotation, 0.1, seed=2000 + 37 * seed)
        estimate = estimate_rotation(observations, [0.05, 0.0, 0.0], TOF, IR)
        errors_deg.append(geodesic_degrees(estimate.rotation, rotation))
        rms_values.append(float(np.sqrt(np.mean(estimate.residuals**2))))
    elapsed = time.perf_counter() - start

    median_error = float(np.median(errors_deg))
    median_rms = float(np.median(rms_values))
    ok = (clean_error <= 1e-6 and median_error <= 0.5
          and 0.05 <= median_rms <= 0.2 and elapsed <= 10.0)
    _report(4, "calibration recovery", ok,
            f"noise-free {clean_error:.2e} rad (limit 1e-6); over 50 seeds: "
            f"median error {median_error:.4f} deg (limit 0.5), median residual RMS "
            f"{median_rms:.3f} px (range [0.05, 0.2]); {elapsed:.1f}s (limit 10s)")


def test_criterion_5_noise_statistic_reproduction():
    """1000 default-noise frames: per-pixel sigma recovered within 10%."""
    start = time.perf_counter()
    noise = NoiseConfig(seed=7)
    rendered = render_tof_sequence(WALL, TOF, None, noise, 1000)
    frames = [demodulate(raw, TOF) for raw, _ in rendered]
    model = build_background(frames)
    truth = rendered[0][1]

    amplitude = 1.0 * 90.0 / truth.range**2  # wall reflectivity 1, default reference
    injected = (SPEED_OF_LIGHT / (4 * math.pi * 21e6)) * noise.phase_noise_scale / amplitude
    boresight = injected[25, 32]
    tuned = abs(boresight / (0.01 * 3.0) - 1.0) < 0.05  # ~1% of 3 m at the wall
    fraction = float(np.mean(np.abs(model.std / injected - 1.0) <= 0.10))
    elapsed = time.perf_counter() - start
    ok = tuned and fraction >= 0.95 and elapsed <= 30.0
    _report(5, "noise statistic reproduction", ok,
            f"sigma at boresight {boresight * 1000:.1f} mm (~1% of 3 m), "
            f"{fraction:.1%} of pixels within 10% of injected sigma (limit 95%), "
            f"{elapsed:.1f}s (limit 30s)")


def test_criterion_6_segmentation_quality():
    """Person blob segments at F1 >= 0.9; error phenomena add false positives."""
    blob_scene = Scene((Plane("z", 3.0, 1.0, 300.0), Sphere((0.0, 0.0, 1.0), 0.2, 1.0, 310.0)))
    noise = NoiseConfig(seed=5)
    background = [
        demodulate(raw, TOF) for raw, _ in render_tof_sequence(WALL, TOF, None, noise, 300)
    ]
    model = build_background(background)

    raw_fg, truth_fg = render_tof(blob_scene, TOF, noise=NoiseConfig(seed=999))
    mask = foreground_mask(demodulate(raw_fg, TOF), model, k=3.0)
    _, truth_bg = render_tof(WALL, TOF, noise=NoiseConfig.quiet())
    truth_mask = truth_fg.range < truth_bg.range - 1e-9
    tp = int(np.count_nonzero(mask.foreground & truth_mask))
    fp = int(np.count_nonzero(mask.foreground & ~truth_mask))
    fn = int(np.count_nonzero(~mask.foreground & truth_mask))
    f1 = 2 * tp / (2 * tp + fp + fn)

    degraded_noise = NoiseConfig(
        seed=999,
        multipath=MultipathConfig(enabled=True),
        scattering=ScatteringConfig(enabled=True),
    )
    raw_bad, _ = render_tof(blob_scene, TOF, noise=degraded_noise)
    mask_bad = foreground_mask(demodulate(raw_bad, TOF), model, k=3.0)
    fp_bad = int(np.count_nonzero(mask_bad.foreground & ~truth_mask))

    ok = f1 >= 0.9 and fp_bad > fp
    _report(6, "segmentation quality", ok,
            f"F1 {f1:.3f} (limit 0.9); background false positives {fp} -> {fp_bad} "
            f"with multipath+scattering (must strictly increase)")


def test_criterion_7_fusion_correctness():
    """Fused temperatures match ground truth within the interpolation bound."""
    scene = Scene((Plane("z", 3.0, 1.0, 300.0), Sphere((0.0, 0.0, 1.5), 0.25, 1.0, 310.0)))
    ext = Extrinsics(Rotation.from_rotvec([0.0, np.deg2rad(3.0), 0.0]).as_matrix(),
                     np.array([0.05, 0.0, 0.0]))
    raw, truth = render_tof(scene, TOF, noise=NoiseConfig.quiet(), extrinsics=ext)
    thermal = render_ir(scene, IR, ext.inverse())
    thermogram = fuse(demodulate(raw, TOF), thermal, TOF, IR, ext)

    grid_complete = thermogram.temperature.size == TOF.width * TOF.height
    valid = thermogram.valid
    bound = max(
        np.abs(np.diff(thermal.temperatures, axis=0)).max(),
        np.abs(np.diff(thermal.temperatures, axis=1)).max(),
    )
    error = np.abs(thermogram.temperature[valid] - truth.temperature[valid])
    ok = grid_complete and bool(valid.any()) and error.max() <= bound + 1e-9
    _report(7, "fusion correctness", ok,
            f"max |error| {error.max():.3f} K <= adjacent-pixel bound {bound:.3f} K, "
            f"grid {thermogram.temperature.shape} complete = {grid_complete}")


def test_criterion_8_geometry_property_suite():
    """10^4 randomized cases per property, zero failures allowed."""
    rng = np.random.default_rng(4096)
    n = 10_000
    failures = {}

    # rigid-transform isometry
    points = rng.uniform(-3, 3, size=(n, 3))
    partner = rng.uniform(-3, 3, size=(n, 3))
    rotation = Rotation.from_rotvec(rng.normal(size=3)).as_matrix()
    ext = Extrinsics(rotation, rng.normal(size=3))
    before = np.linalg.norm(points - partner, axis=1)
    after = np.linalg.norm(ext.apply(points) - ext.apply(partner), axis=1)
    failures["isometry"] = int(np.count_nonzero(np.abs(after - before) > 1e-9 * np.maximum(before, 1.0)))

    # projective scale invariance
    pts = np.stack([rng.uniform(-1, 1, n), rng.uniform(-1, 1, n), rng.uniform(0.2, 6.0, n)], -1)
    lam = rng.uniform(0.01, 50.0, size=(n, 1))
    from tofir.camera import project_points

    pix_a, _ = project_points(pts, IR)
    pix_b, _ = project_points(pts * lam, IR)
    failures["scale-invariance"] = int(
        np.count_nonzero(np.linalg.norm(pix_a - pix_b, axis=1) > 1e-9 * np.maximum(np.linalg.norm(pix_a, axis=1), 1.0))
    )

    # bilinear bounds and pixel-center exactness
    temps = rng.uniform(250.0, 350.0, size=(32, 48))
    frame = ThermalFrame(temps)
    xs = rng.uniform(0.5, 47.5, size=n)
    ys = rng.uniform(0.5, 31.5, size=n)
    values, ok_mask = sample_temperature_grid(frame, xs, ys)
    i0 = np.clip((xs - 0.5).astype(int), 0, 46)
    j0 = np.clip((ys - 0.5).astype(int), 0, 30)
    corners = np.stack([temps[j0, i0], temps[j0, i0 + 1], temps[j0 + 1, i0], temps[j0 + 1, i0 + 1]])
    in_bounds = (values >= corners.min(0) - 1e-12) & (values <= corners.max(0) + 1e-12)
    failures["bilinear-bounds"] = int(np.count_nonzero(~(in_bounds & ok_mask)))
    ii = rng.integers(0, 48, size=n)
    jj = rng.integers(0, 32, size=n)
    centers, _ = sample_temperature_grid(frame, ii + 0.5, jj + 0.5)
    failures["corner-exactness"] = int(np.count_nonzero(centers != temps[jj, ii]))

    # undistort identity at zero coefficients
    u, v = rng.normal(size=(2, n))
    uu, vu = undistort_pixel(u, v, 0.0, 0.0)
    failures["undistort-identity"] = int(np.count_nonzero((uu != u) | (vu != v)))

    total = sum(failures.values())
    _report(8, "geometry property suite", total == 0,
            f"{n} cases per property, failures: {failures}")


def test_criterion_9_cli_determinism(tmp_path):
    """cmd_simulate is byte-identical across repeated runs with one seed."""
    (tmp_path / "scene.json").write_text(json.dumps({
        "primitives": [
            {"type": "plane", "axis": "z", "offset": 3.0, "reflectivity": 1.0,
             "temperature": 300.0},
            {"type": "sphere", "center": [0.0, 0.0, 1.5], "radius": 0.25,
             "reflectivity": 1.0, "temperature": 310.0},
        ],
    }))
    (tmp_path / "tof.json").write_text(json.dumps(TOF.to_json_dict()))
    (tmp_path / "ir.json").write_text(json.dumps(IR.to_json_dict()))
    (tmp_path / "sim.json").write_text(json.dumps({
        "scene": "scene.json",
        "tof_intrinsics": "tof.json",
        "ir_intrinsics": "ir.json",
        "noise": {"seed": 42, "bucket_noise_sigma": 0.2, "saturation_fraction": 0.02},
        "frames": 3,
    }))
    artifacts = ("raw.tirf", "raw.truth.tirf", "thermal.tirf", "extrinsics.truth.json")
    outputs = []
    for run in ("a", "b"):
        rc = main(["simulate", "--config", str(tmp_path / "sim.json"),
                   "--output", str(tmp_path / run), "--quiet"])
        assert rc == 0
        outputs.append({name: (tmp_path / run / name).read_bytes() for name in artifacts})
    # fresh interpreters with different thread-count environments
    for run, threads in (("c", "1"), ("d", "4")):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "tofir.cli", "simulate",
             "--config", str(tmp_path / "sim.json"),
             "--output", str(tmp_path / run), "--quiet"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append({name: (tmp_path / run / name).read_bytes() for name in artifacts})
    identical = all(out[name] == outputs[0][name] for out in outputs[1:] for name in artifacts)
    _report(9, "deterministic simulation", identical,
            f"{len(outputs)} runs (incl. 1- and 4-thread subprocesses), "
            f"{len(artifacts)} artifacts each, byte-identical = {identical}")
