"""Command-line pipeline: simulate, calibrate, fuse, segment.

One binary with subcommands. Values are resolved flag > config file >
default; configs are JSON documents whose keys are described in the README.
Exit codes are a stable scripting contract: 0 success, 2 input/config error,
3 numerical/geometric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import calibration, fusion, segmentation, simulator, thermal, tof
from .container import FrameContainer
from .errors import (
    ContainerFormatError,
    DegenerateGeometryError,
    DimensionMismatchError,
    InsufficientDataError,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    """Bad input file or configuration; maps to exit code 2."""


def _load_json(path: str | Path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise ConfigError(f"missing file: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _require(cfg: dict, key: str, source: str):
    if key not in cfg:
        raise ConfigError(f"missing field '{key}' in {source}")
    return cfg[key]


def _resolve(cfg: dict, key: str, base: Path) -> Path:
    value = _require(cfg, key, "config")
    return (base / value).resolve() if not Path(value).is_absolute() else Path(value)


def _load_intrinsics(cfg, base, key: str, cls):
    doc = _load_json(_resolve(cfg, key, base))
    try:
        return cls.from_json_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _load_extrinsics(path: Path) -> fusion.Extrinsics:
    doc = _load_json(path)
    try:
        return fusion.Extrinsics.from_json_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"extrinsics: {exc}") from exc


def _output_dir(args, cfg) -> Path:
    out = args.output or cfg.get("output", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _limits(cfg) -> dict:
    limits = cfg.get("limits", {})
    return {
        "a_min": float(limits.get("a_min", 0.0)),
        "a_max": float(limits.get("a_max", float("inf"))),
        "b_max": float(limits.get("b_max", float("inf"))),
    }


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


# --- subcommands -------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _load_json(args.config)
    base = Path(args.config).parent
    scene_doc = _load_json(_resolve(cfg, "scene", base))
    try:
        scene = simulator.scene_from_json(scene_doc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    tof_intr = _load_intrinsics(cfg, base, "tof_intrinsics", tof.TofIntrinsics)
    ir_intr = _load_intrinsics(cfg, base, "ir_intrinsics", thermal.IrIntrinsics)
    try:
        noise = simulator.noise_from_json(cfg.get("noise", {}))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is not None:
        noise = dataclasses.replace(noise, seed=int(seed))
    frames = int(cfg.get("frames", 1))
    if frames < 1:
        raise ConfigError(f"frames must be >= 1, got {frames}")

    ext = fusion.Extrinsics.identity()
    if "extrinsics" in cfg:
        ext = _load_extrinsics(_resolve(cfg, "extrinsics", base))

    out = _output_dir(args, cfg)
    rendered = simulator.render_tof_sequence(scene, tof_intr, None, noise, frames, extrinsics=ext)
    raws = [r for r, _ in rendered]
    truths = [t for _, t in rendered]
    tof.raw_frames_to_container(raws).write(out / "raw.tirf")
    simulator.TRUTH_SCHEMA.pack(truths).write(out / "raw.truth.tirf")

    ir_frame = simulator.render_ir(scene, ir_intr, ext.inverse(),
                                   blur_sigma=float(cfg.get("ir_blur_sigma", 0.0)))
    thermal.thermal_frames_to_container([ir_frame]).write(out / "thermal.tirf")
    _write_json(out / "extrinsics.truth.json", ext.to_json_dict())

    if "calibration_targets" in cfg:
        tgt_cfg = cfg["calibration_targets"]
        points = _require(tgt_cfg, "points", "calibration_targets")
        targets = [simulator.CalibrationTarget(tuple(p)) for p in points]
        observations = simulator.make_calibration_set(
            targets,
            ext,
            tof_intr,
            ir_intr,
            pixel_noise_sigma=float(tgt_cfg.get("pixel_noise_sigma", 0.0)),
            seed=noise.seed,
        )
        calibration.save_observations(out / "observations.txt", observations)
        _say(args, f"wrote {len(observations)} calibration observations")

    _say(args, f"simulated {frames} frame(s) at {tof_intr.width}x{tof_intr.height} "
               f"(seed {noise.seed}) into {out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    cfg = _load_json(args.config)
    base = Path(args.config).parent
    obs_path = _resolve(cfg, "observations", base)
    if not obs_path.exists():
        raise ConfigError(f"missing file: {obs_path}")
    try:
        observations = calibration.load_observations(obs_path)
    except ValueError as exc:
        raise ConfigError(f"{obs_path}: {exc}") from exc
    tof_intr = _load_intrinsics(cfg, base, "tof_intrinsics", tof.TofIntrinsics)
    ir_intr = _load_intrinsics(cfg, base, "ir_intrinsics", thermal.IrIntrinsics)

    initial = None
    if "extrinsics" in cfg:
        guess = _load_extrinsics(_resolve(cfg, "extrinsics", base))
        translation = guess.translation
        initial = guess.rotation
    else:
        translation = np.asarray(_require(cfg, "translation", "config"), dtype=np.float64)

    result = calibration.estimate_rotation(
        observations,
        translation,
        tof_intr,
        ir_intr,
        initial,
        robust=bool(cfg.get("robust", False)),
    )

    out = _output_dir(args, cfg)
    ext = fusion.Extrinsics(result.rotation, translation)
    _write_json(out / "extrinsics.json", ext.to_json_dict())
    (out / "calibration_report.txt").write_text(calibration.format_report(result))
    _say(args, f"calibrated rotation from {len(observations)} observations: "
               f"total error {result.total_error:.6g} px, "
               f"{result.iterations} iterations, {result.stop_reason}")
    return EXIT_OK


def cmd_fuse(args) -> int:
    cfg = _load_json(args.config)
    base = Path(args.config).parent
    raw_cont = FrameContainer.read(_resolve(cfg, "raw", base))
    thermal_cont = FrameContainer.read(_resolve(cfg, "thermal", base))
    tof_intr = _load_intrinsics(cfg, base, "tof_intrinsics", tof.TofIntrinsics)
    ir_intr = _load_intrinsics(cfg, base, "ir_intrinsics", thermal.IrIntrinsics)
    ext = _load_extrinsics(_resolve(cfg, "extrinsics", base))
    limits = _limits(cfg)

    raws = tof.raw_frames_from_container(raw_cont)
    thermal_frames = thermal.thermal_frames_from_container(thermal_cont)
    if len(thermal_frames) not in (1, len(raws)):
        raise ConfigError(
            f"{len(thermal_frames)} thermal frames for {len(raws)} raw frames: "
            "need 1 or one per raw frame"
        )

    thermograms = []
    for k, raw in enumerate(raws):
        range_frame = tof.demodulate(raw, tof_intr, **limits)
        thermal_frame = thermal_frames[k if len(thermal_frames) > 1 else 0]
        tg = fusion.fuse(range_frame, thermal_frame, tof_intr, ir_intr, ext)
        thermograms.append(tg)
        stats = fusion.fuse_summary(tg)
        _say(args, f"frame {k}: " + "  ".join(f"{k_}={v:.4f}" for k_, v in stats.items()))

    out = _output_dir(args, cfg)
    fusion.thermograms_to_container(thermograms).write(out / "thermogram.tirf")
    (out / "thermogram.txt").write_text(fusion.thermogram_to_text(thermograms[0]))
    return EXIT_OK


def cmd_segment(args) -> int:
    cfg = _load_json(args.config)
    base = Path(args.config).parent
    tof_intr = _load_intrinsics(cfg, base, "tof_intrinsics", tof.TofIntrinsics)
    limits = _limits(cfg)

    background_cont = FrameContainer.read(_resolve(cfg, "background", base))
    bg_frames = [
        tof.demodulate(r, tof_intr, **limits)
        for r in tof.raw_frames_from_container(background_cont)
    ]
    try:
        model = segmentation.build_background(
            bg_frames, median_step=float(cfg.get("median_step", segmentation.DEFAULT_MEDIAN_STEP))
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if "frames" in cfg:
        test_cont = FrameContainer.read(_resolve(cfg, "frames", base))
        test_frames = [
            tof.demodulate(r, tof_intr, **limits)
            for r in tof.raw_frames_from_container(test_cont)
        ]
    else:
        test_frames = bg_frames

    k = float(cfg.get("k", 3.0))
    sigma_floor = float(cfg.get("sigma_floor", segmentation.DEFAULT_SIGMA_FLOOR))
    masks = [segmentation.foreground_mask(f, model, k, sigma_floor) for f in test_frames]

    out = _output_dir(args, cfg)
    segmentation.background_to_container(model).write(out / "background.tirf")
    segmentation.masks_to_container(masks).write(out / "masks.tirf")
    for i, mask in enumerate(masks):
        (out / f"mask_{i:04d}.pbm").write_text(segmentation.mask_to_pbm(mask))
        _say(args, f"frame {i}: {int(mask.foreground.sum())} foreground pixels")
    return EXIT_OK


# --- entry point ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tofir",
        description="Range + thermal camera pipeline: simulate, calibrate, fuse, segment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, desc in (
        ("simulate", cmd_simulate, "render raw range buckets, a thermal image, and ground truth"),
        ("calibrate", cmd_calibrate, "estimate the inter-camera rotation from observations"),
        ("fuse", cmd_fuse, "fuse a raw range container with a thermal image into thermograms"),
        ("segment", cmd_segment, "build a background model and segment moving objects"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", required=True, help="JSON config document")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--output", default=None, help="override the output directory")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        p.set_defaults(func=func)
    return parser


# first match wins: the numerical errors subclass ValueError
_EXIT_CODES = (
    ((ConfigError, ContainerFormatError, DimensionMismatchError, OSError), EXIT_INPUT),
    ((InsufficientDataError, DegenerateGeometryError, np.linalg.LinAlgError), EXIT_NUMERICAL),
    # bad values inside otherwise well-formed documents
    ((ValueError, KeyError, TypeError), EXIT_INPUT),
)
_HANDLED = tuple(kind for kinds, _ in _EXIT_CODES for kind in kinds)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _HANDLED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
