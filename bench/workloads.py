"""The benchmark's workloads.

Every workload images one rig scene: a wall at 3 m with a warm sphere at
1.5 m, seen by a range camera and an IR camera 5 cm apart with a 3 degree
yaw between them. A workload

* generates its inputs from the seed, before anything is timed;
* names the CLI calls it drives through ``tofir.cli.main``;
* runs one library item, a frame, at a time for latency;
* checks every output against the simulator's ground truth.

Why each workload exists, and which layers it loads, is recorded in
``BENCHMARK.json`` and ``bench/predictions.json``.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tofir import calibration, fusion, segmentation, simulator, thermal, tof
from tofir.container import FrameContainer


@dataclass(frozen=True)
class Scale:
    rig: str  # sensors of the fuse and simulate workloads: "vga" or "paper"
    fuse_frames: int
    background_frames: int
    test_frames: int
    sim_frames: int
    render_items: int  # distinct frames of the simulate library loop
    observation_sets: int  # sets solved plain and robust after the measured window
    cli_calibrations: int  # calibrate calls per CLI repetition, half robust
    min_items: int  # fewest timed library items
    min_reps: int  # fewest CLI repetitions


SCALES = {
    "full": Scale("vga", 10, 300, 100, 4, 10, 200, 8, 200, 3),
    "toy": Scale("paper", 2, 20, 4, 1, 2, 4, 2, 10, 1),
}

PAPER_TOF = {"f": 4e-3, "width": 64, "height": 50, "pixel_pitch": 45e-6}
PAPER_IR = {"f": 4.8e-3, "width": 160, "height": 120, "pixel_pitch": 25e-6}
# 640x480 sensors with the fields of view of the paper's rig
VGA_TOF = {"f": 4e-3, "width": 640, "height": 480, "pixel_pitch": 4.5e-6}
VGA_IR = {"f": 4.8e-3, "width": 640, "height": 480, "pixel_pitch": 6.25e-6}
RIGS = {"paper": (PAPER_TOF, PAPER_IR), "vga": (VGA_TOF, VGA_IR)}

RIG_YAW_DEG = 3.0
_YAW = math.radians(RIG_YAW_DEG)
RIG_ROTATION = np.array(
    [[math.cos(_YAW), 0.0, math.sin(_YAW)], [0.0, 1.0, 0.0], [-math.sin(_YAW), 0.0, math.cos(_YAW)]]
)
RIG_TRANSLATION = [0.05, 0.0, 0.0]

WALL = {"type": "plane", "axis": "z", "offset": 3.0, "reflectivity": 1.0, "temperature": 300.0}
SPHERE = {"type": "sphere", "center": [0.0, 0.0, 1.5], "radius": 0.25, "reflectivity": 1.0,
          "temperature": 310.0}
LIMITS = {"a_min": 1e-6, "a_max": 1000.0, "b_max": 1000.0}
SEG_K = 3.0
SEG_SIGMA_FLOOR = 0.001
SEG_MEDIAN_STEP = 0.01
TARGETS_PER_SET = 20

# ground-truth checks: an output outside these fails its operation
MAX_WRONG_TEMP_FRAC = 0.03
MIN_VALID_FRAC = 0.5
MIN_F1 = 0.8
MAX_ROT_ERR_DEG = 0.5
TEMP_TOL_K = 1e-3  # thermograms are stored as float32

# count metrics; a workload reports the ones it produces, the rest read 0
COUNT_METRICS = (
    "tof.valid_frac",
    "fusion.valid_frac",
    "fusion.reason.invalid_range_frac",
    "fusion.reason.behind_ir_camera_frac",
    "fusion.reason.out_of_ir_field_frac",
    "segmentation.foreground_px_per_frame",
    "calibration.iterations_plain_p50",
    "calibration.iterations_robust_p50",
    "calibration.iterations_max",
    "calibration.stop.step_tolerance",
    "calibration.stop.cost_tolerance",
    "calibration.stop.max_iterations",
    "calibration.stop.stalled",
)


@dataclass(frozen=True)
class Call:
    """One CLI call of a repetition; its artifacts go to ``<out>/<label>``."""

    label: str
    command: str
    config: Path
    frames: int

    def argv(self, out: Path) -> list[str]:
        return [self.command, "--config", str(self.config), "--output", str(out / self.label),
                "--quiet"]


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def rotation_error_deg(r_a, r_b) -> float:
    cos = (np.trace(np.asarray(r_a).T @ np.asarray(r_b)) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, cos))))


def _noise_key(seed: int) -> int:
    return seed % (1 << 62)


class Workload:
    name = ""

    def __init__(self, inputs: Path, scale: Scale):
        self.inputs = inputs
        self.scale = scale
        self.first_pass: dict = {}

    # --- inputs (generated in their own process, before timing) -------------------

    def _write_rig(self) -> tuple[dict, dict]:
        tof_doc, ir_doc = RIGS[self.scale.rig]
        _write_json(self.inputs / "tof.json", tof_doc)
        _write_json(self.inputs / "ir.json", ir_doc)
        _write_json(self.inputs / "ext.json", {
            "rotation": [float(v) for v in RIG_ROTATION.ravel()],
            "translation": RIG_TRANSLATION,
        })
        return tof_doc, ir_doc

    def generate(self, seed: int) -> None:
        raise NotImplementedError

    # --- measured process ------------------------------------------------------------

    def load(self) -> None:
        """Read the library loop's inputs; part of set-up."""
        raise NotImplementedError

    def calls(self) -> list[Call]:
        raise NotImplementedError

    @property
    def distinct_items(self) -> int:
        raise NotImplementedError

    def item(self, k: int):
        raise NotImplementedError

    def check_item(self, k: int, output, record: bool) -> str | None:
        """Ground-truth check; returns why the item failed, or None. With
        ``record`` the item belongs to the first pass over the distinct
        inputs and feeds the counts and the accuracy figure."""
        raise NotImplementedError

    def check_artifacts(self, call: Call, out: Path) -> str | None:
        raise NotImplementedError

    def finish(self) -> list[tuple[str, str | None]]:
        """Untimed work after the measured window; returns (operation,
        why it failed or None) for each operation it made."""
        return []

    def counts(self) -> dict[str, float]:
        return {}

    def truth_error(self) -> float:
        raise NotImplementedError

    def accuracy(self) -> dict[str, float]:
        return {}


def _tof_intrinsics(path: Path) -> tof.TofIntrinsics:
    return tof.TofIntrinsics.from_json_dict(_read_json(path))


def _ir_intrinsics(path: Path) -> thermal.IrIntrinsics:
    return thermal.IrIntrinsics.from_json_dict(_read_json(path))


# --- fuse-vga ----------------------------------------------------------------------

class FuseVga(Workload):
    """``tofir fuse`` of noisy raw frames with one thermal frame."""

    name = "fuse-vga"

    def generate(self, seed: int) -> None:
        tof_doc, ir_doc = self._write_rig()
        tof_i = tof.TofIntrinsics.from_json_dict(tof_doc)
        ir_i = thermal.IrIntrinsics.from_json_dict(ir_doc)
        ext = fusion.Extrinsics(RIG_ROTATION, RIG_TRANSLATION)
        scene = simulator.scene_from_json({"primitives": [WALL, SPHERE]})
        noise = simulator.NoiseConfig(seed=_noise_key(seed), bucket_noise_sigma=0.2,
                                      saturation_fraction=0.01)
        rendered = simulator.render_tof_sequence(
            scene, tof_i, None, noise, self.scale.fuse_frames, extrinsics=ext)
        tof.raw_frames_to_container([raw for raw, _ in rendered]).write(self.inputs / "raw.tirf")
        ir_frame = simulator.render_ir(scene, ir_i, ext.inverse())
        thermal.thermal_frames_to_container([ir_frame]).write(self.inputs / "thermal.tirf")
        truth = rendered[0][1]  # geometry, hence truth, is the same in every frame
        np.savez(self.inputs / "oracle.npz", temperature=truth.temperature,
                 bound=_interpolation_bound(truth.points, ir_frame.temperatures, ir_doc))
        _write_json(self.inputs / "fuse.json", {
            "raw": "raw.tirf", "thermal": "thermal.tirf", "tof_intrinsics": "tof.json",
            "ir_intrinsics": "ir.json", "extrinsics": "ext.json", "limits": LIMITS,
        })

    def load(self) -> None:
        self.tof_i = _tof_intrinsics(self.inputs / "tof.json")
        self.ir_i = _ir_intrinsics(self.inputs / "ir.json")
        self.ext = fusion.Extrinsics.from_json_dict(_read_json(self.inputs / "ext.json"))
        self.raws = tof.raw_frames_from_container(FrameContainer.read(self.inputs / "raw.tirf"))
        self.thermal = thermal.thermal_frames_from_container(
            FrameContainer.read(self.inputs / "thermal.tirf"))[0]
        oracle = np.load(self.inputs / "oracle.npz")
        self.truth_t = oracle["temperature"]
        self.bound = oracle["bound"]
        self.first_pass = {"pixels": 0, "tof_valid": 0, "valid": 0, "wrong": 0,
                           "reasons": np.zeros(256, dtype=np.int64)}

    def calls(self) -> list[Call]:
        return [Call("fuse", "fuse", self.inputs / "fuse.json", self.scale.fuse_frames)]

    @property
    def distinct_items(self) -> int:
        return len(self.raws)

    def item(self, k: int):
        range_frame = tof.demodulate(self.raws[k % len(self.raws)], self.tof_i, **LIMITS)
        return range_frame, fusion.fuse(range_frame, self.thermal, self.tof_i, self.ir_i, self.ext)

    def _judge(self, temperature, reason) -> tuple[int, int, str | None]:
        valid = reason == fusion.FuseReason.VALID
        n_valid = int(np.count_nonzero(valid))
        wrong = valid & (np.abs(temperature - self.truth_t) > self.bound + TEMP_TOL_K)
        n_wrong = int(np.count_nonzero(wrong))
        if n_valid < MIN_VALID_FRAC * reason.size:
            return n_valid, n_wrong, f"only {n_valid} of {reason.size} pixels VALID"
        if n_wrong > MAX_WRONG_TEMP_FRAC * n_valid:
            return n_valid, n_wrong, f"{n_wrong} of {n_valid} VALID temperatures wrong"
        return n_valid, n_wrong, None

    def check_item(self, k: int, output, record: bool) -> str | None:
        range_frame, tg = output
        n_valid, n_wrong, problem = self._judge(tg.temperature, tg.reason)
        if record:
            acc = self.first_pass
            acc["pixels"] += tg.reason.size
            acc["tof_valid"] += int(np.count_nonzero(range_frame.valid))
            acc["valid"] += n_valid
            acc["wrong"] += n_wrong
            acc["reasons"] += np.bincount(tg.reason.ravel(), minlength=256)[:256]
        return problem and f"frame {k % len(self.raws)}: {problem}"

    def check_artifacts(self, call: Call, out: Path) -> str | None:
        cont = FrameContainer.read(out / "thermogram.tirf")
        if cont.frames != len(self.raws):
            return f"thermogram.tirf has {cont.frames} frames, expected {len(self.raws)}"
        for k in range(cont.frames):
            reason = np.rint(cont.channel("validity", k)).astype(np.uint8)
            _, _, problem = self._judge(cont.channel("temperature", k).astype(np.float64), reason)
            if problem:
                return f"thermogram.tirf frame {k}: {problem}"
        with open(out / "thermogram.txt") as fh:
            rows = sum(1 for _ in fh)
        if rows != self.truth_t.size + 1:
            return f"thermogram.txt has {rows} lines, expected {self.truth_t.size + 1}"
        return None

    def counts(self) -> dict[str, float]:
        acc = self.first_pass
        pixels = acc["pixels"]
        out = {"tof.valid_frac": acc["tof_valid"] / pixels,
               "fusion.valid_frac": acc["reasons"][fusion.FuseReason.VALID] / pixels}
        for reason in fusion.FuseReason:
            if reason != fusion.FuseReason.VALID:
                out[f"fusion.reason.{reason.name.lower()}_frac"] = acc["reasons"][reason] / pixels
        return out

    def truth_error(self) -> float:
        return self.first_pass["wrong"] / self.first_pass["valid"]

    def accuracy(self) -> dict[str, float]:
        return {"wrong_temp_frac": self.truth_error()}


def _interpolation_bound(points, ir_temps, ir_doc) -> np.ndarray:
    """Per range pixel, the spread of the four IR pixels that bilinear
    sampling mixes at the true projection of its true surface point. A fused
    temperature further than this from the truth cannot come from
    interpolation; it comes from sampling the wrong surface (occlusion or a
    wrong projection). Pixels projecting outside the IR field get no bound."""
    height, width = ir_temps.shape
    q = points.reshape(-1, 3) @ RIG_ROTATION.T + np.asarray(RIG_TRANSLATION)
    scale = ir_doc["f"] / ir_doc["pixel_pitch"]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = width / 2.0 + scale * q[:, 0] / q[:, 2]
        y = height / 2.0 + scale * q[:, 1] / q[:, 2]
        inside = (q[:, 2] > 0) & (x >= 0.5) & (x <= width - 0.5) & (y >= 0.5) & (y <= height - 0.5)
    i0 = np.clip(np.floor(np.where(inside, x, 0.5) - 0.5).astype(np.int64), 0, width - 2)
    j0 = np.clip(np.floor(np.where(inside, y, 0.5) - 0.5).astype(np.int64), 0, height - 2)
    corners = np.stack([ir_temps[j0, i0], ir_temps[j0, i0 + 1],
                        ir_temps[j0 + 1, i0], ir_temps[j0 + 1, i0 + 1]])
    bound = np.where(inside, corners.max(axis=0) - corners.min(axis=0), np.inf)
    return bound.reshape(points.shape[:2])


# --- segment-paper -------------------------------------------------------------------

class SegmentPaper(Workload):
    """``tofir segment`` on the paper's 64x50 rig: wall background, sphere test."""

    name = "segment-paper"

    def generate(self, seed: int) -> None:
        _write_json(self.inputs / "tof.json", PAPER_TOF)
        tof_i = tof.TofIntrinsics.from_json_dict(PAPER_TOF)
        wall = simulator.scene_from_json({"primitives": [WALL]})
        blob = simulator.scene_from_json({"primitives": [WALL, SPHERE]})
        key = _noise_key(seed)
        background = simulator.render_tof_sequence(
            wall, tof_i, None, simulator.NoiseConfig(seed=2 * key), self.scale.background_frames)
        test = simulator.render_tof_sequence(
            blob, tof_i, None, simulator.NoiseConfig(seed=2 * key + 1), self.scale.test_frames)
        for name, rendered in (("background", background), ("test", test)):
            tof.raw_frames_to_container([r for r, _ in rendered]).write(
                self.inputs / f"{name}.tirf")
        truth_mask = test[0][1].range < background[0][1].range - 1e-9
        np.savez(self.inputs / "oracle.npz", mask=truth_mask)
        _write_json(self.inputs / "segment.json", {
            "background": "background.tirf", "frames": "test.tirf", "tof_intrinsics": "tof.json",
            "k": SEG_K, "sigma_floor": SEG_SIGMA_FLOOR, "median_step": SEG_MEDIAN_STEP,
            "limits": LIMITS,
        })

    def load(self) -> None:
        self.tof_i = _tof_intrinsics(self.inputs / "tof.json")
        background = [
            tof.demodulate(raw, self.tof_i, **LIMITS)
            for raw in tof.raw_frames_from_container(
                FrameContainer.read(self.inputs / "background.tirf"))
        ]
        self.model = segmentation.build_background(background, median_step=SEG_MEDIAN_STEP)
        self.raws = tof.raw_frames_from_container(FrameContainer.read(self.inputs / "test.tirf"))
        self.truth = np.load(self.inputs / "oracle.npz")["mask"]
        self.first_pass = {"pixels": 0, "tof_valid": 0, "tp": 0, "fp": 0, "fn": 0, "frames": 0}

    def calls(self) -> list[Call]:
        frames = self.scale.background_frames + self.scale.test_frames
        return [Call("segment", "segment", self.inputs / "segment.json", frames)]

    @property
    def distinct_items(self) -> int:
        return len(self.raws)

    def item(self, k: int):
        frame = tof.demodulate(self.raws[k % len(self.raws)], self.tof_i, **LIMITS)
        return frame, segmentation.foreground_mask(frame, self.model, SEG_K, SEG_SIGMA_FLOOR)

    def _confusion(self, foreground) -> tuple[int, int, int]:
        tp = int(np.count_nonzero(foreground & self.truth))
        fp = int(np.count_nonzero(foreground & ~self.truth))
        fn = int(np.count_nonzero(~foreground & self.truth))
        return tp, fp, fn

    def check_item(self, k: int, output, record: bool) -> str | None:
        frame, mask = output
        tp, fp, fn = self._confusion(mask.foreground)
        if record:
            acc = self.first_pass
            acc["pixels"] += frame.valid.size
            acc["tof_valid"] += int(np.count_nonzero(frame.valid))
            acc["tp"] += tp
            acc["fp"] += fp
            acc["fn"] += fn
            acc["frames"] += 1
        f1 = _f1(tp, fp, fn)
        return None if f1 >= MIN_F1 else f"frame {k % len(self.raws)}: F1 {f1:.3f} < {MIN_F1}"

    def check_artifacts(self, call: Call, out: Path) -> str | None:
        masks = FrameContainer.read(out / "masks.tirf")
        if masks.frames != len(self.raws):
            return f"masks.tirf has {masks.frames} frames, expected {len(self.raws)}"
        tp = fp = fn = 0
        for k in range(masks.frames):
            a, b, c = self._confusion(masks.channel("foreground", k) > 0.5)
            tp, fp, fn = tp + a, fp + b, fn + c
        if _f1(tp, fp, fn) < MIN_F1:
            return f"masks.tirf F1 {_f1(tp, fp, fn):.3f} < {MIN_F1}"
        if FrameContainer.read(out / "background.tirf").frames != 1:
            return "background.tirf must hold one frame"
        pbm = len(list(out.glob("mask_*.pbm")))
        return None if pbm == len(self.raws) else f"{pbm} PBM files, expected {len(self.raws)}"

    def counts(self) -> dict[str, float]:
        acc = self.first_pass
        return {"tof.valid_frac": acc["tof_valid"] / acc["pixels"],
                "segmentation.foreground_px_per_frame": (acc["tp"] + acc["fp"]) / acc["frames"]}

    def truth_error(self) -> float:
        return 1.0 - self.accuracy()["seg_f1"]

    def accuracy(self) -> dict[str, float]:
        acc = self.first_pass
        return {"seg_f1": _f1(acc["tp"], acc["fp"], acc["fn"])}


def _f1(tp: int, fp: int, fn: int) -> float:
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


# --- simulate-calibrate --------------------------------------------------------------

class SimulateCalibrate(Workload):
    """Rig bring-up: ``tofir simulate`` with every error source, then
    ``tofir calibrate`` on seeded observation sets, half of them robust.

    The library loop renders one frame at a time. Solves are not timed
    there: a solve is short, interpreter-bound work that other tenants of a
    shared machine slowed by up to half for whole runs at a time, far more
    than the bounds allow. Their time is in ``frames_per_s`` through the
    calibrate calls and in the per-layer spans; after the window every
    observation set is solved plain and robust, untimed, for the accuracy
    figure and the convergence counts."""

    name = "simulate-calibrate"

    def generate(self, seed: int) -> None:
        logging.getLogger("tofir.simulator").setLevel(logging.ERROR)
        tof_doc, ir_doc = self._write_rig()
        _write_json(self.inputs / "scene.json", {"primitives": [WALL, SPHERE]})
        tof_i = tof.TofIntrinsics.from_json_dict(tof_doc)
        ir_i = thermal.IrIntrinsics.from_json_dict(ir_doc)
        ext = fusion.Extrinsics(RIG_ROTATION, RIG_TRANSLATION)
        rng = np.random.default_rng(_noise_key(seed))
        _write_json(self.inputs / "simulate.json", {
            "scene": "scene.json", "tof_intrinsics": "tof.json", "ir_intrinsics": "ir.json",
            "extrinsics": "ext.json",
            "noise": {"seed": _noise_key(seed), "saturation_fraction": 0.01,
                      "multipath": {"enabled": True}, "scattering": {"enabled": True}},
            "frames": self.scale.sim_frames,
            "calibration_targets": {"points": _targets_in_view(rng, tof_doc, TARGETS_PER_SET),
                                    "pixel_noise_sigma": 0.1},
        })
        sets = []
        while len(sets) < self.scale.observation_sets:
            targets = [simulator.CalibrationTarget(tuple(p))
                       for p in _targets_in_view(rng, tof_doc, TARGETS_PER_SET + 4)]
            obs = simulator.make_calibration_set(targets, ext, tof_i, ir_i, 0.1,
                                                 seed=int(rng.integers(1 << 62)))
            if len(obs) >= TARGETS_PER_SET:
                sets.append([[o.u, o.v, o.distance, o.ir_x, o.ir_y]
                             for o in obs[:TARGETS_PER_SET]])
        np.save(self.inputs / "sets.npy", np.array(sets))
        for c in range(self.scale.cli_calibrations):
            np.savetxt(self.inputs / f"observations_{c}.txt", np.array(sets[c]), fmt="%.17g",
                       header="u v distance ir_x ir_y")
            _write_json(self.inputs / f"calibrate_{c}.json", {
                "observations": f"observations_{c}.txt", "tof_intrinsics": "tof.json",
                "ir_intrinsics": "ir.json", "translation": RIG_TRANSLATION,
                "robust": self._robust(c),
            })

    def _robust(self, c: int) -> bool:
        return c >= self.scale.cli_calibrations // 2

    def load(self) -> None:
        self.tof_i = _tof_intrinsics(self.inputs / "tof.json")
        self.ir_i = _ir_intrinsics(self.inputs / "ir.json")
        self.ext = fusion.Extrinsics.from_json_dict(_read_json(self.inputs / "ext.json"))
        self.scene = simulator.scene_from_json(_read_json(self.inputs / "scene.json"))
        noise = _read_json(self.inputs / "simulate.json")["noise"]
        # the CLI renders with the config's seed; the loop's frames follow it
        self.noises = [simulator.noise_from_json({**noise, "seed": noise["seed"] + 1 + j})
                       for j in range(self.scale.render_items)]
        self.sets = [[calibration.TargetObservation(*row) for row in table]
                     for table in np.load(self.inputs / "sets.npy")]
        self.first_pass = {"errors": [], "plain": [], "robust": [], "stops": {}}

    def calls(self) -> list[Call]:
        calls = [Call("simulate", "simulate", self.inputs / "simulate.json", self.scale.sim_frames)]
        for c in range(self.scale.cli_calibrations):
            kind = "robust" if self._robust(c) else "plain"
            calls.append(Call(f"calibrate-{kind}-{c}", "calibrate",
                              self.inputs / f"calibrate_{c}.json", 0))
        return calls

    @property
    def distinct_items(self) -> int:
        return len(self.noises)

    def item(self, k: int):
        noise = self.noises[k % len(self.noises)]
        return simulator.render_tof_sequence(self.scene, self.tof_i, None, noise, 1,
                                             extrinsics=self.ext)[0]

    def check_item(self, k: int, output, record: bool) -> str | None:
        raw, truth = output
        where = f"frame {k % len(self.noises)}"
        if (raw.height, raw.width) != (self.tof_i.height, self.tof_i.width):
            return f"{where}: raw frame is {raw.height}x{raw.width}"
        if not np.isfinite(raw.samples).all():
            return f"{where}: raw buckets not finite"
        if not np.isin(truth.temperature, [WALL["temperature"], SPHERE["temperature"]]).all():
            return f"{where}: truth holds a temperature of no scene surface"
        return None

    def finish(self) -> list[tuple[str, str | None]]:
        acc = self.first_pass
        done = []
        for i, observations in enumerate(self.sets):
            for kind in ("plain", "robust"):
                op = f"solve {kind} set {i}"
                try:
                    result = calibration.estimate_rotation(observations, RIG_TRANSLATION,
                                                           self.tof_i, self.ir_i,
                                                           robust=kind == "robust")
                except Exception as exc:
                    done.append((op, f"{type(exc).__name__}: {exc}"))
                    continue
                error = rotation_error_deg(result.rotation, RIG_ROTATION)
                acc["errors"].append(error)
                acc[kind].append(result.iterations)
                acc["stops"][result.stop_reason] = acc["stops"].get(result.stop_reason, 0) + 1
                problem = None
                if not error <= MAX_ROT_ERR_DEG:
                    problem = f"rotation error {error:.3g} deg > {MAX_ROT_ERR_DEG}"
                done.append((op, problem))
        return done

    def check_artifacts(self, call: Call, out: Path) -> str | None:
        if call.command == "calibrate":
            rotation = np.asarray(_read_json(out / "extrinsics.json")["rotation"]).reshape(3, 3)
            error = rotation_error_deg(rotation, RIG_ROTATION)
            if not error <= MAX_ROT_ERR_DEG:
                return f"calibrated rotation error {error:.3g} deg > {MAX_ROT_ERR_DEG}"
            return None
        raw = FrameContainer.read(out / "raw.tirf")
        tof_doc = RIGS[self.scale.rig][0]
        expected = (call.frames, tof_doc["height"], tof_doc["width"])
        if (raw.frames, raw.height, raw.width) != expected:
            return f"raw.tirf is {raw.frames}x{raw.height}x{raw.width}"
        truth = FrameContainer.read(out / "raw.truth.tirf")
        if not np.isin(truth.data[..., truth.channel_names.index("temperature")],
                       [WALL["temperature"], SPHERE["temperature"]]).all():
            return "raw.truth.tirf holds a temperature of no scene surface"
        ir = FrameContainer.read(out / "thermal.tirf").data
        if not ((ir >= WALL["temperature"]) & (ir <= SPHERE["temperature"])).all():
            return "thermal.tirf holds a temperature of no scene surface"
        rotation = np.asarray(_read_json(out / "extrinsics.truth.json")["rotation"]).reshape(3, 3)
        if not np.allclose(rotation, RIG_ROTATION, rtol=0, atol=1e-12):
            return "extrinsics.truth.json differs from the rig"
        rows = np.loadtxt(out / "observations.txt", ndmin=2).shape[0]
        return None if rows == TARGETS_PER_SET else f"observations.txt has {rows} rows"

    def counts(self) -> dict[str, float]:
        acc = self.first_pass
        stops = {f"calibration.stop.{reason}": float(n) for reason, n in acc["stops"].items()}
        return {
            "calibration.iterations_plain_p50": float(np.median(acc["plain"])),
            "calibration.iterations_robust_p50": float(np.median(acc["robust"])),
            "calibration.iterations_max": float(max(acc["plain"] + acc["robust"])),
            **stops,
        }

    def truth_error(self) -> float:
        return self.accuracy()["rot_err_p50_deg"] / RIG_YAW_DEG

    def accuracy(self) -> dict[str, float]:
        return {"rot_err_p50_deg": float(np.median(self.first_pass["errors"]))}


def _targets_in_view(rng, tof_doc: dict, count: int) -> list[list[float]]:
    """Points 1.5 to 5 m away whose range-camera pixel lies in the central 80%."""
    width, height = tof_doc["width"], tof_doc["height"]
    u = rng.uniform(0.1 * width, 0.9 * width, count)
    v = rng.uniform(0.1 * height, 0.9 * height, count)
    distance = rng.uniform(1.5, 5.0, count)
    scale = tof_doc["pixel_pitch"] / tof_doc["f"]
    rays = np.stack([(u - width / 2) * scale, (v - height / 2) * scale, np.ones(count)], axis=-1)
    points = distance[:, None] * rays / np.linalg.norm(rays, axis=1, keepdims=True)
    return points.tolist()


WORKLOADS = {w.name: w for w in (FuseVga, SegmentPaper, SimulateCalibrate)}
