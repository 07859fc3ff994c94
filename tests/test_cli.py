import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import geodesic_degrees, rotation_about

import tofir
from tofir import Extrinsics, FrameContainer, calibration
from tofir.cli import main


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=1))


@pytest.fixture
def workspace(tmp_path):
    """Config files for a small wall + warm sphere scenario."""
    _write_json(tmp_path / "scene.json", {
        "primitives": [
            {"type": "plane", "axis": "z", "offset": 3.0, "reflectivity": 1.0,
             "temperature": 300.0},
            {"type": "sphere", "center": [0.0, 0.0, 1.5], "radius": 0.25,
             "reflectivity": 1.0, "temperature": 310.0},
        ],
        "ambient_temperature": 293.0,
    })
    _write_json(tmp_path / "tof.json", {
        "f": 4e-3, "width": 64, "height": 50, "pixel_pitch": 45e-6, "f_mod": 21e6,
    })
    _write_json(tmp_path / "ir.json", {
        "f": 4.8e-3, "width": 160, "height": 120, "pixel_pitch": 25e-6,
    })
    rotation = rotation_about([0, 1, 0], 4.0)
    ext = Extrinsics(rotation, np.array([0.05, 0.0, 0.0]))
    _write_json(tmp_path / "ext.json", ext.to_json_dict())
    targets = [[0.3 * i - 0.3, 0.2 * j - 0.2, 1.5 + 0.7 * k]
               for i in range(3) for j in range(3) for k in range(3)]
    _write_json(tmp_path / "sim.json", {
        "scene": "scene.json",
        "tof_intrinsics": "tof.json",
        "ir_intrinsics": "ir.json",
        "extrinsics": "ext.json",
        "noise": {"seed": 42},
        "frames": 3,
        "output": str(tmp_path / "out"),
        "calibration_targets": {"points": targets, "pixel_noise_sigma": 0.0},
    })
    return tmp_path


@pytest.fixture(autouse=True)
def no_temporary_file_left(tmp_path):
    """Fails a test that leaves a writer's temporary file (``.<name>.<hex>.tmp``,
    see ``tofir.container.replacing``) anywhere under its ``tmp_path``."""
    yield
    left = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob(".*.tmp"))
    assert left == [], f"temporary files left behind: {left}"


def _simulate(workspace, extra=()):
    rc = main(["simulate", "--config", str(workspace / "sim.json"), "--quiet", *extra])
    assert rc == 0
    extra = list(extra)
    if "--output" in extra:
        return Path(extra[extra.index("--output") + 1])
    return workspace / "out"


class TestSimulate:
    def test_produces_expected_files(self, workspace):
        out = _simulate(workspace)
        for name in ("raw.tirf", "raw.truth.tirf", "thermal.tirf",
                     "extrinsics.truth.json", "observations.txt"):
            assert (out / name).exists(), name
        raw = FrameContainer.read(out / "raw.tirf")
        assert raw.frames == 3 and (raw.width, raw.height) == (64, 50)
        assert raw.channel_names == ("a1", "a2", "a3", "a4")
        truth = FrameContainer.read(out / "raw.truth.tirf")
        assert truth.channel_names == ("range", "x", "y", "z", "temperature", "outlier")

    def test_runs_are_byte_identical(self, workspace, tmp_path):
        out_a = _simulate(workspace, ("--output", str(tmp_path / "a")))
        out_b = _simulate(workspace, ("--output", str(tmp_path / "b")))
        for name in ("raw.tirf", "raw.truth.tirf", "thermal.tirf"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_flag_overrides_config(self, workspace, tmp_path):
        out_a = _simulate(workspace, ("--output", str(tmp_path / "a")))
        out_b = _simulate(workspace, ("--output", str(tmp_path / "b"), "--seed", "43"))
        assert (out_a / "raw.tirf").read_bytes() != (out_b / "raw.tirf").read_bytes()

    def test_negative_seed_flag_exits_2(self, workspace, capsys):
        rc = main(["simulate", "--config", str(workspace / "sim.json"), "--seed", "-1",
                   "--quiet"])
        assert rc == 2
        assert "seed" in capsys.readouterr().err
        assert not (workspace / "out").exists()

    def test_missing_scene_names_path(self, workspace, capsys):
        (workspace / "scene.json").unlink()
        rc = main(["simulate", "--config", str(workspace / "sim.json")])
        assert rc == 2
        assert "scene.json" in capsys.readouterr().err

    def test_malformed_scene_reports_position(self, workspace, capsys):
        (workspace / "scene.json").write_text('{"primitives": [}')
        rc = main(["simulate", "--config", str(workspace / "sim.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "scene.json:1:" in err

    def test_bad_primitive_field_named(self, workspace, capsys):
        _write_json(workspace / "scene.json", {"primitives": [{"type": "plane", "axis": "z"}]})
        rc = main(["simulate", "--config", str(workspace / "sim.json")])
        assert rc == 2
        assert "primitive 0" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["render", "pack"])
    def test_failing_last_frame_leaves_no_partial_artifact(self, workspace, capsys, monkeypatch,
                                                           where):
        """Frames 0 and 1 go to both files before frame 2 fails, as it is
        rendered or as its ground truth is packed: raw.tirf and raw.truth.tirf
        appear whole or not at all."""
        out = _simulate(workspace)  # 3 frames
        earlier = {p.name: p.read_bytes() for p in out.iterdir()}
        made = []
        if where == "render":
            render = tofir.simulator._render_frame

            def failing(base, noise, frame_index, *args):
                made.append(frame_index)
                if frame_index == 2:
                    raise OSError("frame 2 failed")
                return render(base, noise, frame_index, *args)

            monkeypatch.setattr(tofir.simulator, "_render_frame", failing)
        else:
            schema = tofir.simulator.TRUTH_SCHEMA

            def failing(records):
                made.append(len(made))
                if len(made) == 3:
                    raise OSError("frame 2 failed")
                return schema.pack(records)

            double = SimpleNamespace(pack=failing, coerce=schema.coerce)
            monkeypatch.setattr(tofir.simulator, "TRUTH_SCHEMA", double)
        # another seed, so a completed call would write other bytes
        rc = main(["simulate", "--config", str(workspace / "sim.json"), "--seed", "43",
                   "--quiet"])
        assert rc == 2
        assert "frame 2 failed" in capsys.readouterr().err
        assert made == [0, 1, 2]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier

    def test_more_frames_than_the_container_holds_exit_2_before_rendering(
            self, workspace, capsys, monkeypatch):
        sim = json.loads((workspace / "sim.json").read_text())
        _write_json(workspace / "sim.json", {**sim, "frames": 2**32})
        rendered = []
        monkeypatch.setattr(tofir.simulator, "render_tof", lambda *a, **k: rendered.append(a))
        rc = main(["simulate", "--config", str(workspace / "sim.json"), "--quiet"])
        assert rc == 2
        assert "frame count 4294967296" in capsys.readouterr().err
        assert rendered == []
        assert not (workspace / "out").exists()


class TestCalibrate:
    def _calibrate(self, workspace, quiet=True, **overrides):
        cfg = {
            "observations": str(workspace / "out" / "observations.txt"),
            "tof_intrinsics": "tof.json",
            "ir_intrinsics": "ir.json",
            "translation": [0.05, 0.0, 0.0],
            "output": str(workspace / "cal"),
        }
        cfg.update(overrides)
        _write_json(workspace / "cal.json", cfg)
        return main(["calibrate", "--config", str(workspace / "cal.json")]
                    + ["--quiet"] * quiet)

    def test_recovers_true_rotation(self, workspace):
        _simulate(workspace)
        assert self._calibrate(workspace) == 0
        estimated = Extrinsics.from_json_dict(
            json.loads((workspace / "cal" / "extrinsics.json").read_text())
        )
        truth = Extrinsics.from_json_dict(
            json.loads((workspace / "out" / "extrinsics.truth.json").read_text())
        )
        assert geodesic_degrees(estimated.rotation, truth.rotation) < 1e-4
        report = (workspace / "cal" / "calibration_report.txt").read_text()
        assert "converged: True" in report

    def test_too_few_observations_exit_3(self, workspace):
        _simulate(workspace)
        obs = (workspace / "out" / "observations.txt").read_text().splitlines()
        kept = [l for l in obs if not l.startswith("#")][:2]
        (workspace / "out" / "observations.txt").write_text("\n".join(kept) + "\n")
        assert self._calibrate(workspace) == 3

    def test_collinear_observations_exit_3(self, workspace):
        workspace.joinpath("out").mkdir(exist_ok=True)
        rows = [f"{10 + 5 * i} 25.0 {2.0 + 0.1 * i} {40 + 9 * i} 60.0" for i in range(5)]
        (workspace / "out" / "observations.txt").write_text("\n".join(rows) + "\n")
        assert self._calibrate(workspace) == 3

    def test_missing_observations_exit_2(self, workspace):
        assert self._calibrate(workspace, observations="nowhere.txt") == 2

    def test_nan_observation_exit_2_without_extrinsics(self, workspace, capsys):
        _simulate(workspace)
        path = workspace / "out" / "observations.txt"
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")][:4]
        cells = rows[2].split()
        cells[3] = "nan"
        rows[2] = " ".join(cells)
        path.write_text("\n".join(rows) + "\n")
        assert self._calibrate(workspace) == 2
        assert "finite" in capsys.readouterr().err
        assert not (workspace / "cal" / "extrinsics.json").exists()

    def test_non_convergence_noted_on_stdout(self, workspace, capsys, monkeypatch):
        _simulate(workspace)
        assert self._calibrate(workspace, quiet=False) == 0
        assert "not converged" not in capsys.readouterr().out

        solve = calibration.estimate_rotation

        def stopped_early(*args, **kwargs):
            return dataclasses.replace(solve(*args, **kwargs), converged=False,
                                       stop_reason="max_iterations")

        monkeypatch.setattr(calibration, "estimate_rotation", stopped_early)
        assert self._calibrate(workspace, quiet=False) == 0
        printed = capsys.readouterr().out
        assert printed.rstrip().endswith("max_iterations, not converged")
        report = (workspace / "cal" / "calibration_report.txt").read_text()
        assert "converged: False" in report

    def test_nan_translation_exit_2(self, workspace, capsys):
        _simulate(workspace)
        assert self._calibrate(workspace, translation=[math.nan, 0.0, 0.0]) == 2
        assert "'translation'" in capsys.readouterr().err
        assert not (workspace / "cal").exists()

    def test_nan_initial_extrinsics_exit_2(self, workspace, capsys):
        out = _simulate(workspace)
        guess = json.loads((out / "extrinsics.truth.json").read_text())
        guess["translation"][1] = math.nan
        _write_json(workspace / "guess.json", guess)
        assert self._calibrate(workspace, extrinsics="guess.json") == 2
        err = capsys.readouterr().err
        assert "extrinsics" in err and "translation" in err
        assert not (workspace / "cal").exists()

    def test_string_rotation_entry_exit_2(self, workspace, capsys):
        out = _simulate(workspace)
        guess = json.loads((out / "extrinsics.truth.json").read_text())
        guess["rotation"] = [str(x) for x in guess["rotation"]]
        _write_json(workspace / "guess.json", guess)
        assert self._calibrate(workspace, extrinsics="guess.json") == 2
        err = capsys.readouterr().err
        assert "extrinsics field 'rotation'" in err
        assert not (workspace / "cal").exists()

    def test_non_integral_sensor_size_exit_2(self, workspace, capsys):
        _simulate(workspace)
        _write_json(workspace / "ir.json", {
            "f": 4.8e-3, "width": 160, "height": 119.5, "pixel_pitch": 25e-6,
        })
        assert self._calibrate(workspace) == 2
        assert "ir_intrinsics" in capsys.readouterr().err


class TestFuse:
    def test_thermogram_outputs(self, workspace, capsys):
        out = _simulate(workspace)
        _write_json(workspace / "fuse.json", {
            "raw": str(out / "raw.tirf"),
            "thermal": str(out / "thermal.tirf"),
            "tof_intrinsics": "tof.json",
            "ir_intrinsics": "ir.json",
            "extrinsics": str(out / "extrinsics.truth.json"),
            "output": str(workspace / "fused"),
        })
        rc = main(["fuse", "--config", str(workspace / "fuse.json")])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "valid=" in printed
        cont = FrameContainer.read(workspace / "fused" / "thermogram.tirf")
        assert cont.frames == 3
        assert cont.channel_names == ("x", "y", "z", "temperature", "validity")
        text = (workspace / "fused" / "thermogram.txt").read_text()
        assert len([l for l in text.splitlines() if not l.startswith("#")]) == 64 * 50

    def test_quiet_builds_no_summary(self, workspace, capsys, monkeypatch):
        out = _simulate(workspace)
        _write_json(workspace / "fuse.json", {
            "raw": str(out / "raw.tirf"),
            "thermal": str(out / "thermal.tirf"),
            "tof_intrinsics": "tof.json",
            "ir_intrinsics": "ir.json",
            "extrinsics": str(out / "extrinsics.truth.json"),
            "output": str(workspace / "fused"),
        })
        capsys.readouterr()
        summaries = []
        monkeypatch.setattr(tofir.fusion, "fuse_summary", summaries.append)
        assert main(["fuse", "--config", str(workspace / "fuse.json"), "--quiet"]) == 0
        assert summaries == []
        assert capsys.readouterr().out == ""

    def test_dimension_mismatch_exit_2(self, workspace):
        out = _simulate(workspace)
        _write_json(workspace / "fuse.json", {
            "raw": str(out / "raw.tirf"),
            "thermal": str(out / "thermal.tirf"),
            "tof_intrinsics": "ir.json",  # wrong sensor on purpose
            "ir_intrinsics": "ir.json",
            "extrinsics": str(out / "extrinsics.truth.json"),
            "output": str(workspace / "fused"),
        })
        assert main(["fuse", "--config", str(workspace / "fuse.json"), "--quiet"]) == 2

    def _fuse_with_thermal_frames(self, workspace, n_thermal):
        out = _simulate(workspace)  # 3 raw frames
        FrameContainer.stack(
            [{"temperature": np.full((120, 160), 300.0 + k)} for k in range(n_thermal)]
        ).write(workspace / "thermal_seq.tirf")
        _write_json(workspace / "fuse.json", {
            "raw": str(out / "raw.tirf"),
            "thermal": str(workspace / "thermal_seq.tirf"),
            "tof_intrinsics": "tof.json",
            "ir_intrinsics": "ir.json",
            "extrinsics": str(out / "extrinsics.truth.json"),
            "output": str(workspace / "fused"),
        })
        return main(["fuse", "--config", str(workspace / "fuse.json"), "--quiet"])

    def test_one_thermal_frame_per_raw_frame(self, workspace):
        assert self._fuse_with_thermal_frames(workspace, 3) == 0
        cont = FrameContainer.read(workspace / "fused" / "thermogram.tirf")
        for k in range(3):
            valid = cont.channel("validity", k) == 0
            assert valid.any()
            assert np.all(cont.channel("temperature", k)[valid] == 300.0 + k)

    @pytest.mark.parametrize("n_thermal", [2, 4])
    def test_thermal_frame_count_mismatch_exit_2(self, workspace, n_thermal):
        assert self._fuse_with_thermal_frames(workspace, n_thermal) == 2

    def test_nan_rotation_exit_2(self, workspace, capsys):
        out = _simulate(workspace)
        ext = json.loads((out / "extrinsics.truth.json").read_text())
        ext["rotation"][4] = math.nan
        _write_json(workspace / "bad_ext.json", ext)
        _write_json(workspace / "fuse.json", {
            "raw": str(out / "raw.tirf"),
            "thermal": str(out / "thermal.tirf"),
            "tof_intrinsics": "tof.json",
            "ir_intrinsics": "ir.json",
            "extrinsics": "bad_ext.json",
            "output": str(workspace / "fused"),
        })
        assert main(["fuse", "--config", str(workspace / "fuse.json"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "extrinsics" in err and "rotation" in err
        assert not (workspace / "fused").exists()


    def test_failing_last_frame_leaves_no_partial_artifact(self, workspace, capsys):
        """Frame 0 goes to disk before the last frame fails: the thermogram
        appears whole or not at all, and no temporary file is left."""
        out = _simulate(workspace)  # 3 raw frames
        raw = FrameContainer.read(out / "raw.tirf")
        data = raw.data.copy()
        data[-1, 0, 0, 0] = -1.0  # a negative bucket in the last frame only
        FrameContainer(raw.channel_names, data).write(workspace / "bad_raw.tirf")

        def fuse(raw_path, output):
            _write_json(workspace / "fuse.json", {
                "raw": str(raw_path),
                "thermal": str(out / "thermal.tirf"),
                "tof_intrinsics": "tof.json",
                "ir_intrinsics": "ir.json",
                "extrinsics": str(out / "extrinsics.truth.json"),
                "output": str(workspace / output),
            })
            return main(["fuse", "--config", str(workspace / "fuse.json"), "--quiet"])

        def files(output):
            return {p.name: p.read_bytes() for p in (workspace / output).iterdir()}

        assert fuse(workspace / "bad_raw.tirf", "fresh") == 2
        assert "non-negative" in capsys.readouterr().err
        assert files("fresh") == {}
        assert fuse(out / "raw.tirf", "earlier") == 0
        earlier = files("earlier")
        assert sorted(earlier) == ["thermogram.tirf", "thermogram.txt"]
        assert fuse(workspace / "bad_raw.tirf", "earlier") == 2
        assert files("earlier") == earlier

    def test_failing_text_table_leaves_no_partial_table(self, workspace, capsys, monkeypatch):
        """The text table goes to disk a block at a time: one that fails
        part-way, or a container that fails after it, leaves the earlier
        table and container as they were, and no temporary file."""
        out = _simulate(workspace)
        # other frames, so the failing call would write a different container
        other = _simulate(workspace, ("--output", str(workspace / "other"), "--seed", "43"))

        def fuse(raw_path):
            _write_json(workspace / "fuse.json", {
                "raw": str(raw_path),
                "thermal": str(out / "thermal.tirf"),
                "tof_intrinsics": "tof.json",
                "ir_intrinsics": "ir.json",
                "extrinsics": str(out / "extrinsics.truth.json"),
                "output": str(workspace / "fused"),
            })
            return main(["fuse", "--config", str(workspace / "fuse.json"), "--quiet"])

        def files():
            return {p.name: p.read_bytes() for p in (workspace / "fused").iterdir()}

        assert fuse(out / "raw.tirf") == 0
        earlier = files()
        assert sorted(earlier) == ["thermogram.tirf", "thermogram.txt"]

        def failing(thermogram, file):
            file.write("# x y z temperature reason\n0 0 0 300 0\n")
            raise OSError("disk full")

        monkeypatch.setattr(tofir.fusion, "thermogram_to_text", failing)
        assert fuse(other / "raw.tirf") == 2
        assert "disk full" in capsys.readouterr().err
        assert files() == earlier

        # the table is made before the container, and a container that fails
        # on its last frame leaves the earlier table too
        monkeypatch.undo()
        raw = FrameContainer.read(other / "raw.tirf")
        data = raw.data.copy()
        data[-1, 0, 0, 0] = -1.0
        FrameContainer(raw.channel_names, data).write(workspace / "bad_raw.tirf")
        assert fuse(workspace / "bad_raw.tirf") == 2
        assert "non-negative" in capsys.readouterr().err
        assert files() == earlier

    def test_nan_in_a_later_thermal_frame_leaves_the_earlier_outputs(self, workspace, capsys):
        """Thermal frame k is unpacked as raw frame k is fused: a NaN in
        frame 1 exits 2 and leaves an earlier call's files as they were."""
        assert self._fuse_with_thermal_frames(workspace, 3) == 0
        fused = workspace / "fused"
        earlier = {p.name: p.read_bytes() for p in fused.iterdir()}
        assert sorted(earlier) == ["thermogram.tirf", "thermogram.txt"]
        temperatures = np.full((3, 120, 160, 1), 310.0)
        temperatures[1, 60, 80, 0] = np.nan
        FrameContainer(("temperature",), temperatures).write(workspace / "thermal_seq.tirf")
        assert main(["fuse", "--config", str(workspace / "fuse.json"), "--quiet"]) == 2
        assert "finite" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in fused.iterdir()} == earlier


class TestSegment:
    def test_background_and_masks(self, workspace, capsys):
        out = _simulate(workspace)
        _write_json(workspace / "seg.json", {
            "background": str(out / "raw.tirf"),
            "tof_intrinsics": "tof.json",
            "k": 3.0,
            "output": str(workspace / "seg"),
        })
        rc = main(["segment", "--config", str(workspace / "seg.json")])
        assert rc == 0
        assert "foreground pixels" in capsys.readouterr().out
        bg = FrameContainer.read(workspace / "seg" / "background.tirf")
        assert bg.channel_names == ("mean", "std", "median", "count")
        masks = FrameContainer.read(workspace / "seg" / "masks.tirf")
        assert masks.frames == 3
        pbm = (workspace / "seg" / "mask_0000.pbm").read_text()
        assert pbm.startswith("P1\n64 50\n")

    def test_single_frame_background_exit_2(self, workspace):
        _write_json(workspace / "sim.json", {
            **json.loads((workspace / "sim.json").read_text()), "frames": 1,
        })
        out = _simulate(workspace)
        _write_json(workspace / "seg.json", {
            "background": str(out / "raw.tirf"),
            "tof_intrinsics": "tof.json",
            "output": str(workspace / "seg"),
        })
        assert main(["segment", "--config", str(workspace / "seg.json"), "--quiet"]) == 2

    def test_failing_last_frame_writes_nothing(self, workspace, capsys):
        """No file is written until every test frame has succeeded: a bad
        last frame makes no output directory and leaves an earlier call's
        background, masks and PBMs as they were."""
        out = _simulate(workspace)  # 3 raw frames
        # other frames, so a completed failing call would write other bytes
        other = _simulate(workspace, ("--output", str(workspace / "other"), "--seed", "43"))
        raw = FrameContainer.read(other / "raw.tirf")
        data = raw.data.copy()
        data[-1, 0, 0, 0] = -1.0  # a negative bucket in the last frame only
        FrameContainer(raw.channel_names, data).write(workspace / "bad_raw.tirf")

        def segment(sim, frames, output):
            _write_json(workspace / "seg.json", {
                "background": str(sim / "raw.tirf"),
                "frames": str(frames),
                "tof_intrinsics": "tof.json",
                "output": str(workspace / output),
            })
            return main(["segment", "--config", str(workspace / "seg.json"), "--quiet"])

        def files(output):
            return {p.name: p.read_bytes() for p in (workspace / output).iterdir()}

        assert segment(other, workspace / "bad_raw.tirf", "fresh") == 2
        assert "non-negative" in capsys.readouterr().err
        assert not (workspace / "fresh").exists()
        assert segment(out, out / "raw.tirf", "earlier") == 0
        earlier = files("earlier")
        assert sorted(earlier) == ["background.tirf", "mask_0000.pbm", "mask_0001.pbm",
                                   "mask_0002.pbm", "masks.tirf"]
        assert segment(other, workspace / "bad_raw.tirf", "earlier") == 2
        assert files("earlier") == earlier


class TestDeterminism:
    """simulate, fuse and segment write the same bytes in-process and in
    fresh interpreters with one or four BLAS/OpenMP threads."""

    ARTIFACTS = {
        "simulate": ("raw.tirf", "raw.truth.tirf", "thermal.tirf", "extrinsics.truth.json",
                     "observations.txt"),
        "fuse": ("thermogram.tirf", "thermogram.txt"),
        "segment": ("background.tirf", "masks.tirf", "mask_0000.pbm", "mask_0002.pbm"),
    }

    def _configs(self, workspace):
        out = _simulate(workspace)
        # background frames from the wall alone, so the sphere is foreground
        scene = json.loads((workspace / "scene.json").read_text())
        _write_json(workspace / "wall.json", {**scene, "primitives": scene["primitives"][:1]})
        _write_json(workspace / "sim_bg.json", {
            **json.loads((workspace / "sim.json").read_text()),
            "scene": "wall.json", "output": str(workspace / "bg"),
        })
        assert main(["simulate", "--config", str(workspace / "sim_bg.json"), "--quiet"]) == 0
        _write_json(workspace / "fuse.json", {
            "raw": str(out / "raw.tirf"),
            "thermal": str(out / "thermal.tirf"),
            "tof_intrinsics": "tof.json",
            "ir_intrinsics": "ir.json",
            "extrinsics": str(out / "extrinsics.truth.json"),
        })
        _write_json(workspace / "segment.json", {
            "background": str(workspace / "bg" / "raw.tirf"),
            "frames": str(out / "raw.tirf"),
            "tof_intrinsics": "tof.json",
            "k": 3.0,
        })

    def _read(self, command, out):
        return {name: (out / name).read_bytes() for name in self.ARTIFACTS[command]}

    def _in_process(self, workspace, command, run):
        out = workspace / f"{command}-{run}"
        config = str(workspace / f"{command}.json")
        assert main([command, "--config", config, "--output", str(out), "--quiet"]) == 0
        return self._read(command, out)

    @staticmethod
    def _env(threads):
        # the subprocesses import the package from where this process found it
        pythonpath = os.pathsep.join(
            filter(None, [str(Path(tofir.__file__).resolve().parents[1]),
                          os.environ.get("PYTHONPATH")])
        )
        return dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                    MKL_NUM_THREADS=threads, PYTHONPATH=pythonpath)

    def _in_subprocess(self, workspace, command, threads):
        out = workspace / f"{command}-threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "tofir.cli", command, "--config",
             str(workspace / f"{command}.json"), "--output", str(out), "--quiet"],
            env=self._env(threads), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return self._read(command, out)

    def _assert_byte_identical(self, workspace, command):
        runs = [self._in_process(workspace, command, run) for run in ("a", "b")]
        runs += [self._in_subprocess(workspace, command, threads) for threads in ("1", "4")]
        assert all(run == runs[0] for run in runs[1:]), command

    def test_fuse_and_segment_byte_identical(self, workspace):
        self._configs(workspace)
        for command in ("fuse", "segment"):
            self._assert_byte_identical(workspace, command)
        masks = FrameContainer.read(workspace / "segment-a" / "masks.tirf")
        assert masks.channel("foreground", 0).any()

    def test_simulate_byte_identical(self, workspace):
        # the first in-process call builds the frame base and the second takes
        # it; each fresh interpreter builds its own
        (workspace / "simulate.json").write_text((workspace / "sim.json").read_text())
        runs = [self._in_process(workspace, "simulate", "a")]
        runs.append(self._in_process(workspace, "simulate", "b"))
        assert tofir.simulator._frame_base.cache_info().misses == 1
        runs += [self._in_subprocess(workspace, "simulate", threads) for threads in ("1", "4")]
        assert all(run == runs[0] for run in runs[1:])

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="needs two CPUs for the block runner's worker threads")
    def test_multi_block_rig_matches_one_cpu(self, workspace):
        # 256x96 is two blocks of rows, so this process fuses and renders on
        # worker threads; the child may run on one CPU only, so it runs inline
        _write_json(workspace / "tof.json", {
            "f": 4e-3, "width": 256, "height": 96, "pixel_pitch": 11.25e-6, "f_mod": 21e6,
        })
        cpu = min(os.sched_getaffinity(0))
        runs = []
        for where in ("in-process", "one-cpu"):
            sim = {**json.loads((workspace / "sim.json").read_text()), "frames": 2,
                   "output": str(workspace / f"sim-{where}")}
            del sim["calibration_targets"]
            _write_json(workspace / f"simulate-{where}.json", sim)
            _write_json(workspace / f"fuse-{where}.json", {
                "raw": f"sim-{where}/raw.tirf", "thermal": f"sim-{where}/thermal.tirf",
                "tof_intrinsics": "tof.json", "ir_intrinsics": "ir.json",
                "extrinsics": f"sim-{where}/extrinsics.truth.json",
                "output": str(workspace / f"fuse-{where}"),
            })
            argvs = [[command, "--config", str(workspace / f"{command}-{where}.json"), "--quiet"]
                     for command in ("simulate", "fuse")]
            for argv in argvs:
                if where == "in-process":
                    assert main(argv) == 0
                else:
                    proc = subprocess.run(
                        [sys.executable, "-m", "tofir.cli", *argv], env=self._env("1"),
                        capture_output=True, text=True,
                        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
                    assert proc.returncode == 0, proc.stderr
            runs.append({name: (workspace / f"{folder}-{where}" / name).read_bytes()
                         for folder, names in (("sim", self.ARTIFACTS["simulate"][:3]),
                                               ("fuse", self.ARTIFACTS["fuse"]))
                         for name in names})
        assert runs[0] == runs[1]


class TestStreamedMemory:
    """fuse and segment hold one raw frame in float64 at a time: per extra
    frame, their peak grows by the frame's float32 input payload and, for
    segment, its mask record only; simulate writes each frame as it is rendered, so its peak
    does not grow with the frame count. tracemalloc counts numpy's buffers;
    RSS would follow glibc's heap thresholds as much as live memory."""

    WIDTH, HEIGHT = 160, 120
    FRAME_COUNTS = (2, 12)
    # allowance over a frame's float32 bytes
    SLACK = 0.2
    # float32 channels per frame read and written or held
    CHANNELS = {
        "fuse": 4 + 5,  # raw a1..a4; thermogram x, y, z, temperature, validity
        # background and test raw; the mask record's foreground, score and
        # valid (bool, float64, bool: 10 bytes a pixel, under 3 channels' 12)
        "segment": 4 + 4 + 3,
    }

    def _configs(self, workspace, frames: int) -> dict:
        _write_json(workspace / "tof_160.json", {
            "f": 4e-3, "width": self.WIDTH, "height": self.HEIGHT, "pixel_pitch": 18e-6,
        })
        out = workspace / f"sim{frames}"
        sim = json.loads((workspace / "sim.json").read_text())
        del sim["calibration_targets"]
        simulate = workspace / f"sim_160_{frames}.json"
        _write_json(simulate, {
            **sim, "tof_intrinsics": "tof_160.json", "frames": frames, "output": str(out),
        })
        assert main(["simulate", "--config", str(simulate), "--quiet"]) == 0
        docs = {
            "fuse": {"raw": str(out / "raw.tirf"), "thermal": str(out / "thermal.tirf"),
                     "tof_intrinsics": "tof_160.json", "ir_intrinsics": "ir.json",
                     "extrinsics": str(out / "extrinsics.truth.json")},
            "segment": {"background": str(out / "raw.tirf"), "frames": str(out / "raw.tirf"),
                        "tof_intrinsics": "tof_160.json"},
        }
        configs = {"simulate": simulate}
        for command, doc in docs.items():
            configs[command] = workspace / f"{command}{frames}.json"
            _write_json(configs[command], {**doc, "output": str(workspace / f"{command}-out")})
        return configs

    @staticmethod
    def _peak(argv) -> int:
        assert main(argv) == 0  # untraced first: imports and the ray cache are warm
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_grows_by_the_float32_frames_only(self, workspace):
        configs = {n: self._configs(workspace, n) for n in self.FRAME_COUNTS}
        low, high = self.FRAME_COUNTS
        for command, channels in self.CHANNELS.items():
            peaks = [self._peak([command, "--config", str(configs[n][command]), "--quiet"])
                     for n in self.FRAME_COUNTS]
            per_frame = (peaks[1] - peaks[0]) / (high - low)
            float32_bytes = self.WIDTH * self.HEIGHT * channels * 4
            assert per_frame <= (1 + self.SLACK) * float32_bytes, (command, peaks)

    def test_fuse_peak_grows_by_the_float32_input_only(self, workspace):
        # each thermogram goes to disk as it is fused, so no output stack grows
        configs = {n: self._configs(workspace, n) for n in self.FRAME_COUNTS}
        low, high = self.FRAME_COUNTS
        peaks = [self._peak(["fuse", "--config", str(configs[n]["fuse"]), "--quiet"])
                 for n in self.FRAME_COUNTS]
        per_frame = (peaks[1] - peaks[0]) / (high - low)
        input_bytes = self.WIDTH * self.HEIGHT * 4 * 4  # raw a1..a4
        assert per_frame <= 1.5 * input_bytes, (peaks, per_frame / input_bytes)

    def test_fuse_peak_with_a_thermal_frame_per_raw_frame(self, workspace):
        # thermal frame k is unpacked to float64 only while raw frame k is
        # fused, so only the two float32 inputs grow with the frame count
        ir = json.loads((workspace / "ir.json").read_text())
        peaks = []
        for n in self.FRAME_COUNTS:
            config = self._configs(workspace, n)["fuse"]
            thermal_path = workspace / f"thermal{n}.tirf"
            FrameContainer.stack(
                [{"temperature": np.full((ir["height"], ir["width"]), 300.0 + k)}
                 for k in range(n)]
            ).write(thermal_path)
            _write_json(config, {**json.loads(config.read_text()), "thermal": str(thermal_path)})
            peaks.append(self._peak(["fuse", "--config", str(config), "--quiet"]))
        low, high = self.FRAME_COUNTS
        per_frame = (peaks[1] - peaks[0]) / (high - low)
        # raw a1..a4 and one temperature channel
        input_bytes = self.WIDTH * self.HEIGHT * 4 * 4 + ir["width"] * ir["height"] * 4
        assert per_frame <= (1 + self.SLACK) * input_bytes, (peaks, per_frame / input_bytes)

    def test_simulate_peak_does_not_grow_with_frames(self, workspace, monkeypatch):
        # each frame is appended to raw.tirf and raw.truth.tirf as it is
        # rendered and freed before the next one; the whole-recording list grew
        # by 1.88 frames' float32 bytes per frame. From 1 to 2 frames, frame 1
        # is the first rendered while an earlier frame could still be held.
        # The renderer's blocks run on the calling thread alone: with a
        # worker thread, whether two blocks' temporaries are live at once
        # depends on scheduling, which moved a step by 0.44 of a frame
        monkeypatch.setattr(tofir.blocks, "_workers", 0)
        counts = (1,) + self.FRAME_COUNTS
        configs = {n: self._configs(workspace, n) for n in counts}
        peaks = [self._peak(["simulate", "--config", str(configs[n]["simulate"]), "--quiet"])
                 for n in counts]
        output_bytes = self.WIDTH * self.HEIGHT * (4 + 6) * 4  # raw a1..a4; truth
        for low, high, step in zip(counts, counts[1:], np.diff(peaks)):
            per_frame = step / (high - low)
            assert per_frame <= 0.25 * output_bytes, (low, high, peaks, per_frame / output_bytes)

    def test_fuse_holds_no_earlier_frame(self, workspace, monkeypatch):
        """Every thermogram and its packed container, the first one's after
        the text table is written, are freed before the next frame is
        demodulated."""
        argv = ["fuse", "--config", str(self._configs(workspace, 12)["fuse"]), "--quiet"]
        assert main(argv) == 0  # untraced first: imports and the ray cache are warm
        demodulate = tofir.tof.demodulate
        live = []

        def recorded(*args, **kwargs):
            live.append(tracemalloc.get_traced_memory()[0])
            return demodulate(*args, **kwargs)

        monkeypatch.setattr(tofir.tof, "demodulate", recorded)
        tracemalloc.start()
        try:
            assert main(argv) == 0
        finally:
            tracemalloc.stop()
        assert len(live) == 12
        # float64 points and temperature, uint8 reason
        thermogram_bytes = self.WIDTH * self.HEIGHT * (3 * 8 + 8 + 1)
        # from frame 1 on, no earlier thermogram or packed container is live
        growth = (max(live[1:]) - live[0]) / thermogram_bytes
        assert growth <= 0.1, (growth, live)


class TestTextOutputsWholeOrNotAtAll:
    """Every text artifact (extrinsics.json, extrinsics.truth.json,
    calibration_report.txt, observations.txt, mask_NNNN.pbm) goes through a
    temporary file, as containers do: a write that fails part-way leaves the
    earlier file and no temporary file."""

    # each writes a small file at size 1 and a large one at size 1000
    WRITERS = {
        "json": "cli._write_json(path, {'rotation': [0.5] * 9 * size})",
        "text": "cli._write_text(path, 'P1\\n' + '0 1\\n' * size)",
        "observations": "calibration.save_observations(path, "
                        "[TargetObservation(1, 2, 3, 4, 5)] * size)",
    }

    @pytest.mark.parametrize("writer", WRITERS)
    def test_a_write_that_fails_part_way_leaves_the_earlier_file(self, tmp_path, writer):
        # the child caps the size of any file it writes (RLIMIT_FSIZE), so the
        # second write fails with EFBIG once 200 bytes are on disk
        script = "\n".join([
            "import errno, resource, signal",
            "from pathlib import Path",
            "from tofir import calibration, cli",
            "from tofir.calibration import TargetObservation",
            f"path = Path({str(tmp_path / 'out.txt')!r})",
            "size = 1",
            self.WRITERS[writer],
            "earlier = path.read_bytes()",
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)",
            "resource.setrlimit(resource.RLIMIT_FSIZE,",
            "                   (200, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))",
            "size = 1000",
            "try:",
            "    " + self.WRITERS[writer],
            "except OSError as exc:",
            "    assert exc.errno == errno.EFBIG, exc",
            "else:",
            "    raise AssertionError('the write did not fail')",
            "assert path.read_bytes() == earlier, path.read_bytes()[:200]",
        ])
        proc = subprocess.run([sys.executable, "-c", script], env=TestDeterminism._env("1"),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class TestCommonBehavior:
    def test_quiet_suppresses_stdout(self, workspace, capsys):
        _simulate(workspace)
        assert capsys.readouterr().out == ""

    def test_argparse_rejects_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestMalformedSettings:
    """A setting of the wrong kind exits 2 naming its key, before any artifact
    is written."""

    def _rejected(self, workspace, capsys, command, doc, key):
        _write_json(workspace / "bad.json", doc)
        out = workspace / "rejected"
        rc = main([command, "--config", str(workspace / "bad.json"), "--output", str(out),
                   "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert key in err
        assert not out.exists()
        return err

    @pytest.mark.parametrize("change, key", [
        ({"frames": 2.5}, "frames"),
        ({"seed": 1.5}, "seed"),
        ({"noise": {"seed": 1.5}}, "seed"),
        ({"noise": {"scattering": {"enabled": True, "kernel_radius": 4.7}}}, "kernel_radius"),
        ({"noise": {"multipath": {"enabled": "false"}}}, "enabled"),
        ({"calibration_targets": {"points": [5]}}, "points"),
        ({"ir_blur_sigma": -1.0}, "blur_sigma"),
        ({"frames": 0}, "'frames'"),
        ({"frames": -2}, "'frames'"),
        ({"seed": -1}, "seed"),
        ({"noise": {"seed": -1}}, "seed"),
        ({"frames": 2**32}, "'frames'"),
    ])
    def test_simulate(self, workspace, capsys, change, key):
        sim = json.loads((workspace / "sim.json").read_text())
        self._rejected(workspace, capsys, "simulate", {**sim, **change}, key)

    def test_primitive_not_an_object(self, workspace, capsys):
        _write_json(workspace / "scene.json", {"primitives": [5]})
        sim = json.loads((workspace / "sim.json").read_text())
        self._rejected(workspace, capsys, "simulate", sim, "primitive 0")

    def test_robust_as_string(self, workspace, capsys):
        _simulate(workspace)
        self._rejected(workspace, capsys, "calibrate", {
            "observations": str(workspace / "out" / "observations.txt"),
            "tof_intrinsics": "tof.json", "ir_intrinsics": "ir.json",
            "translation": [0.05, 0.0, 0.0], "robust": "false",
        }, "robust")

    @pytest.mark.parametrize("command", ["fuse", "segment"])
    def test_limits_not_an_object(self, workspace, capsys, command):
        out = _simulate(workspace)
        self._rejected(workspace, capsys, command, {
            "raw": str(out / "raw.tirf"), "thermal": str(out / "thermal.tirf"),
            "background": str(out / "raw.tirf"),
            "tof_intrinsics": "tof.json", "ir_intrinsics": "ir.json",
            "extrinsics": str(out / "extrinsics.truth.json"), "limits": [1, 2],
        }, "limits")

    # (command, document holding the setting, path to it, value)
    NON_FINITE = [
        ("simulate", "sim.json", ("ir_blur_sigma",), math.nan),
        ("simulate", "sim.json", ("calibration_targets", "pixel_noise_sigma"), math.nan),
        ("simulate", "sim.json", ("calibration_targets", "points"), [[0.0, math.nan, 2.0]]),
        ("simulate", "sim.json", ("noise", "phase_noise_scale"), math.nan),
        ("simulate", "sim.json", ("noise", "bucket_noise_sigma"), math.inf),
        ("simulate", "sim.json", ("noise", "saturation_fraction"), math.nan),
        ("simulate", "sim.json", ("noise", "multipath", "extra_distance"), math.nan),
        ("simulate", "sim.json", ("noise", "multipath", "relative_amplitude"), math.inf),
        ("simulate", "sim.json", ("noise", "scattering", "energy_fraction"), math.nan),
        ("simulate", "scene.json", ("ambient_temperature",), math.nan),
        ("simulate", "scene.json", ("background_distance",), math.inf),
        ("simulate", "scene.json", ("background_reflectivity",), math.nan),
        ("simulate", "scene.json", ("primitives", 0, "offset"), math.nan),
        ("simulate", "scene.json", ("primitives", 0, "reflectivity"), math.nan),
        ("simulate", "scene.json", ("primitives", 0, "temperature"), math.inf),
        ("simulate", "scene.json", ("primitives", 1, "radius"), math.nan),
        ("simulate", "scene.json", ("primitives", 1, "center"), [0.0, math.nan, 1.5]),
        ("simulate", "scene.json", ("primitives", 1, "reflectivity"), -math.inf),
        ("simulate", "scene.json", ("primitives", 1, "temperature"), math.nan),
        ("simulate", "tof.json", ("f",), math.nan),
        ("simulate", "tof.json", ("pixel_pitch",), math.nan),
        ("simulate", "tof.json", ("cx",), math.nan),
        ("simulate", "tof.json", ("cy",), math.inf),
        ("simulate", "tof.json", ("k1",), math.nan),
        ("simulate", "tof.json", ("k2",), math.inf),
        ("simulate", "tof.json", ("f_mod",), math.nan),
        ("fuse", "config", ("limits", "a_min"), math.nan),
        ("fuse", "config", ("limits", "a_max"), math.nan),
        ("fuse", "config", ("limits", "b_max"), math.inf),
        ("segment", "config", ("median_step",), math.nan),
        ("segment", "config", ("k",), math.nan),
        ("segment", "config", ("sigma_floor",), math.nan),
    ]

    @pytest.mark.parametrize("command, name, path, value", NON_FINITE,
                             ids=[f"{c}-{'.'.join(map(str, p))}" for c, _, p, _ in NON_FINITE])
    def test_non_finite_number(self, workspace, capsys, command, name, path, value):
        if command == "simulate":
            doc = json.loads((workspace / name).read_text())
        else:
            out = _simulate(workspace)
            doc = {"raw": str(out / "raw.tirf"), "thermal": str(out / "thermal.tirf"),
                   "background": str(out / "raw.tirf"),
                   "tof_intrinsics": "tof.json", "ir_intrinsics": "ir.json",
                   "extrinsics": str(out / "extrinsics.truth.json")}
        node = doc
        for key in path[:-1]:
            node = node[key] if isinstance(key, int) else node.setdefault(key, {})
        node[path[-1]] = value
        if name != "sim.json" and command == "simulate":  # a document the config names
            _write_json(workspace / name, doc)
            doc = json.loads((workspace / "sim.json").read_text())
        err = self._rejected(workspace, capsys, command, doc, repr(path[-1]))
        assert "finite" in err

    @pytest.mark.parametrize("command", ["calibrate", "fuse", "segment"])
    def test_seed_flag_only_on_simulate(self, workspace, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(workspace / "sim.json"), "--seed", "1"])
        assert exc.value.code == 2


class TestOneErrorLine:
    """Settings the renderer cannot honour and observation files the solver
    cannot use exit with their code and a single ``error:`` line on stderr:
    no warning, no traceback, no numpy scalar repr, and no output directory.
    Each case runs the console entry point in a child process whose address
    space is capped (RLIMIT_AS), so a check that regresses fails the case
    instead of allocating gigabytes."""

    ADDRESS_SPACE = 2 * 1024**3
    ROWS = ["10 10 2.0 40 30", "50 12 2.5 120 35", "30 40 3.0 80 90", "20 30 2.2 60 70"]

    # simulate's cases change its config; calibrate's give the observation rows
    @pytest.mark.parametrize("command, change, code, message", [
        ("simulate", {"ir_blur_sigma": 1e308}, 2,
         "blur_sigma 1e+308: a kernel radius of inf pixels is more than the 160x120 "
         "image's larger side, 160"),
        ("simulate", {"noise": {"scattering": {"enabled": True, "kernel_radius": 10000}}}, 2,
         "kernel_radius 10000: a kernel radius of 10000 pixels is more than the "
         "64x50 image's larger side, 64"),
        ("calibrate", [], 3, "need at least 3 observations, got 0"),
        ("calibrate", ROWS[:2] + ["30 40 nan 80 90"] + ROWS[3:], 2,
         "observation values must be finite, got (30.0, 40.0, nan, 80.0, 90.0)"),
        ("calibrate", ROWS[:1] + ["1e308 12 2.5 120 35"] + ROWS[2:], 2,
         "observation 1: range pixel (1e+308, 12.0) is outside the 64x50 range image"),
    ], ids=["blur-sigma", "scattering-radius", "no-observations", "nan-observation",
            "observation-off-the-range-image"])
    def test_exits_with_one_error_line(self, workspace, command, change, code, message):
        out = workspace / "rejected"
        if command == "simulate":
            doc = {**json.loads((workspace / "sim.json").read_text()), **change}
        else:
            (workspace / "observations.txt").write_text("".join(r + "\n" for r in change))
            doc = {"observations": "observations.txt", "tof_intrinsics": "tof.json",
                   "ir_intrinsics": "ir.json", "translation": [0.05, 0.0, 0.0]}
        _write_json(workspace / "bad.json", {**doc, "output": str(out)})
        script = ("import resource\n"
                  "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
                  f"resource.setrlimit(resource.RLIMIT_AS, ({self.ADDRESS_SPACE}, hard))\n"
                  "from tofir.cli import entry\n"
                  "entry()\n")
        proc = subprocess.run(
            [sys.executable, "-c", script, command, "--config", str(workspace / "bad.json"),
             "--quiet"],
            env=TestDeterminism._env("1"), capture_output=True, text=True,
        )
        assert proc.returncode == code, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert message in lines[0]
        assert not out.exists()
