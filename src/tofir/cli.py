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
from typing import Iterable

import numpy as np

from . import calibration, document, fusion, segmentation, simulator, thermal, tof
from .container import FrameContainer, check_frame_count, frame_writer, replacing
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


def _write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path``, whole or not at all (see ``replacing``)."""
    with replacing(path, text=True) as fh:
        fh.write(text)


def _write_json(path: Path, doc: dict) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _require(cfg: dict, key: str, source: str):
    if key not in cfg:
        raise ConfigError(f"missing field '{key}' in {source}")
    return cfg[key]


def _resolve(cfg: dict, key: str, base: Path) -> Path:
    value = _require(cfg, key, "config")
    return (base / value).resolve() if not Path(value).is_absolute() else Path(value)


def _load_document(cfg, base, key: str, cls):
    """``cls.from_json_dict`` of the JSON file the config's ``key`` names."""
    doc = _load_json(_resolve(cfg, key, base))
    try:
        return cls.from_json_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _output_dir(args, cfg) -> Path:
    out = args.output or cfg.get("output", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _limits(cfg: dict) -> dict:
    """Keyword arguments of ``tof.demodulate`` from the optional "limits" object."""
    settings = document.read(cfg, "config", limits=lambda limits: document.read(
        limits, "limits", a_min=document.number, a_max=document.number,
        b_max=document.number))
    return settings.get("limits", {})


def _targets(points) -> list:
    return [simulator.CalibrationTarget(document.triple(p)) for p in points]


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


# --- subcommands -------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _load_json(args.config)
    base = Path(args.config).parent
    settings = document.read(cfg, "config", frames=document.whole, seed=document.whole,
                             ir_blur_sigma=document.number)
    frames = settings.get("frames", 1)
    try:
        check_frame_count(frames)  # before anything is rendered or the output made
    except ContainerFormatError as exc:
        raise ConfigError(f"config field 'frames': {exc}") from None
    scene = simulator.scene_from_json(_load_json(_resolve(cfg, "scene", base)))
    tof_intr = _load_document(cfg, base, "tof_intrinsics", tof.TofIntrinsics)
    ir_intr = _load_document(cfg, base, "ir_intrinsics", thermal.IrIntrinsics)
    noise = simulator.noise_from_json(cfg.get("noise", {}))
    seed = args.seed if args.seed is not None else settings.get("seed")
    if seed is not None:
        noise = dataclasses.replace(noise, seed=seed)
    targets = None
    if "calibration_targets" in cfg:
        targets = document.read(cfg["calibration_targets"], "calibration_targets",
                                points=_targets, pixel_noise_sigma=document.number)
        _require(targets, "points", "calibration_targets")

    ext = fusion.Extrinsics.identity()
    if "extrinsics" in cfg:
        ext = _load_document(cfg, base, "extrinsics", fusion.Extrinsics)

    # everything but range frames 1 on is computed before the output
    # directory is made, so a setting the renderer rejects leaves none
    blur = {"blur_sigma": settings["ir_blur_sigma"]} if "ir_blur_sigma" in settings else {}
    ir_frame = simulator.render_ir(scene, ir_intr, ext.inverse(), **blur)
    observations = None
    if targets is not None:
        observations = simulator.make_calibration_set(
            targets.pop("points"), ext, tof_intr, ir_intr, seed=noise.seed, **targets
        )

    def rendered(k: int):
        return simulator.render_tof(scene, tof_intr, None, noise, frame_index=k,
                                    extrinsics=ext)

    # each frame is rendered once and appended to both files, which are
    # renamed into place only after the last frame: a failure leaves the
    # earlier raw.tirf and raw.truth.tirf as they were
    raw, truth = rendered(0)
    out = _output_dir(args, cfg)
    with frame_writer(out / "raw.tirf", frames) as raws, \
            frame_writer(out / "raw.truth.tirf", frames) as truths:
        for k in range(frames):
            if k:
                raw, truth = rendered(k)
            raws.append(tof.raw_frames_to_container([raw]))
            truths.append(simulator.TRUTH_SCHEMA.pack([truth]))
            del raw, truth  # freed before the next frame is rendered
    thermal.thermal_frames_to_container([ir_frame]).write(out / "thermal.tirf")
    _write_json(out / "extrinsics.truth.json", ext.to_json_dict())
    if observations is not None:
        calibration.save_observations(out / "observations.txt", observations)
        _say(args, f"wrote {len(observations)} calibration observations")

    _say(args, f"simulated {frames} frame(s) at {tof_intr.width}x{tof_intr.height} "
               f"(seed {noise.seed}) into {out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    cfg = _load_json(args.config)
    base = Path(args.config).parent
    settings = document.read(cfg, "config", robust=document.flag)
    obs_path = _resolve(cfg, "observations", base)
    if not obs_path.exists():
        raise ConfigError(f"missing file: {obs_path}")
    try:
        observations = calibration.load_observations(obs_path)
    except ValueError as exc:
        raise ConfigError(f"{obs_path}: {exc}") from exc
    tof_intr = _load_document(cfg, base, "tof_intrinsics", tof.TofIntrinsics)
    ir_intr = _load_document(cfg, base, "ir_intrinsics", thermal.IrIntrinsics)

    initial = None
    if "extrinsics" in cfg:
        guess = _load_document(cfg, base, "extrinsics", fusion.Extrinsics)
        translation = guess.translation
        initial = guess.rotation
    else:
        _require(cfg, "translation", "config")
        translation = np.array(document.read(cfg, "config", translation=document.triple)
                               ["translation"])

    result = calibration.estimate_rotation(
        observations,
        translation,
        tof_intr,
        ir_intr,
        initial,
        **settings,
    )

    out = _output_dir(args, cfg)
    ext = fusion.Extrinsics(result.rotation, translation)
    _write_json(out / "extrinsics.json", ext.to_json_dict())
    _write_text(out / "calibration_report.txt", calibration.format_report(result))
    _say(args, f"calibrated rotation from {len(observations)} observations: "
               f"total error {result.total_error:.6g} px, "
               f"{result.iterations} iterations, {result.stop_reason}"
               + ("" if result.converged else ", not converged"))
    return EXIT_OK


def _range_frame(cont: FrameContainer, k: int, tof_intr, limits: dict) -> tof.RangeFrame:
    # a function of its own, so the float64 raw frame is freed on return, not
    # held by a loop variable while the next one is unpacked
    (raw,) = tof.raw_frames_from_container(cont.frame(k))
    return tof.demodulate(raw, tof_intr, **limits)


@dataclasses.dataclass(frozen=True)
class _Counted:
    """``count`` items made one at a time by ``items``. ``build_background``
    takes any iterable, but the benchmark's ``segmentation.background`` span
    reads ``len(frames)``, so the frames it is given must have a length."""

    items: Iterable
    count: int

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self.items)


def _range_frames(cont: FrameContainer, tof_intr, limits: dict) -> _Counted:
    """The demodulated frames of a raw container, one raw frame in float64
    at a time."""
    frames = (_range_frame(cont, k, tof_intr, limits) for k in range(cont.frames))
    return _Counted(frames, cont.frames)


def cmd_fuse(args) -> int:
    cfg = _load_json(args.config)
    base = Path(args.config).parent
    limits = _limits(cfg)
    raw_cont = FrameContainer.read(_resolve(cfg, "raw", base))
    thermal_cont = FrameContainer.read(_resolve(cfg, "thermal", base))
    tof_intr = _load_document(cfg, base, "tof_intrinsics", tof.TofIntrinsics)
    ir_intr = _load_document(cfg, base, "ir_intrinsics", thermal.IrIntrinsics)
    ext = _load_document(cfg, base, "extrinsics", fusion.Extrinsics)

    if thermal_cont.frames not in (1, raw_cont.frames):
        raise ConfigError(
            f"{thermal_cont.frames} thermal frames for {raw_cont.frames} raw frames: "
            "need 1 or one per raw frame"
        )
    # one thermal frame is unpacked once; one per raw frame is unpacked, in
    # float64, only while its raw frame is fused
    single = None
    if thermal_cont.frames == 1:
        (single,) = thermal.thermal_frames_from_container(thermal_cont)

    def fused(k: int) -> fusion.Thermogram:
        """Raw frame k fused with its thermal frame; prints the frame's line
        unless --quiet."""
        if single is None:
            (thermal_frame,) = thermal.thermal_frames_from_container(thermal_cont.frame(k))
        else:
            thermal_frame = single
        tg = fusion.fuse(_range_frame(raw_cont, k, tof_intr, limits), thermal_frame,
                         tof_intr, ir_intr, ext)
        if not args.quiet:  # the summary counts every reason code: only when printed
            stats = fusion.fuse_summary(tg)
            print(f"frame {k}: " + "  ".join(f"{k_}={v:.4f}" for k_, v in stats.items()))
        return tg

    # frame 0 is fused before the output directory is made. Each thermogram
    # is written to disk as it is fused and freed before the next frame is
    # demodulated; the text table, from frame 0, goes to disk a block of rows
    # at a time. The container is renamed into place before the table, so a
    # failure in either write leaves both earlier files as they were
    first = fused(0)
    out = _output_dir(args, cfg)
    with replacing(out / "thermogram.txt", text=True) as fh, \
            frame_writer(out / "thermogram.tirf", raw_cont.frames) as writer:
        fusion.thermogram_to_text(first, fh)
        writer.append(fusion.thermograms_to_container([first]))
        del first
        for k in range(1, raw_cont.frames):
            # the thermogram is held by the argument list only, freed on return
            writer.append(fusion.thermograms_to_container([fused(k)]))
    return EXIT_OK


def cmd_segment(args) -> int:
    cfg = _load_json(args.config)
    base = Path(args.config).parent
    limits = _limits(cfg)
    background_settings = document.read(cfg, "config", median_step=document.number)
    mask_settings = document.read(cfg, "config", k=document.number,
                                  sigma_floor=document.number)
    k = mask_settings.pop("k", 3.0)
    tof_intr = _load_document(cfg, base, "tof_intrinsics", tof.TofIntrinsics)

    background_cont = FrameContainer.read(_resolve(cfg, "background", base))
    model = segmentation.build_background(
        _range_frames(background_cont, tof_intr, limits), **background_settings)

    # without "frames" the background frames are demodulated a second time
    test_cont = background_cont
    if "frames" in cfg:
        test_cont = FrameContainer.read(_resolve(cfg, "frames", base))
    masks = [segmentation.foreground_mask(f, model, k, **mask_settings)
             for f in _range_frames(test_cont, tof_intr, limits)]

    out = _output_dir(args, cfg)
    segmentation.background_to_container(model).write(out / "background.tirf")
    with frame_writer(out / "masks.tirf", len(masks)) as writer:
        for mask in masks:
            writer.append(segmentation.masks_to_container([mask]))
    for i, mask in enumerate(masks):
        _write_text(out / f"mask_{i:04d}.pbm", segmentation.mask_to_pbm(mask))
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
        if name == "simulate":
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
