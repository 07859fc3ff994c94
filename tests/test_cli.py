import json
from pathlib import Path

import numpy as np
import pytest

from conftest import geodesic_degrees, rotation_about

from tofir import Extrinsics, FrameContainer
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


class TestCalibrate:
    def _calibrate(self, workspace, **overrides):
        cfg = {
            "observations": str(workspace / "out" / "observations.txt"),
            "tof_intrinsics": "tof.json",
            "ir_intrinsics": "ir.json",
            "translation": [0.05, 0.0, 0.0],
            "output": str(workspace / "cal"),
        }
        cfg.update(overrides)
        _write_json(workspace / "cal.json", cfg)
        return main(["calibrate", "--config", str(workspace / "cal.json"), "--quiet"])

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


class TestCommonBehavior:
    def test_quiet_suppresses_stdout(self, workspace, capsys):
        _simulate(workspace)
        assert capsys.readouterr().out == ""

    def test_argparse_rejects_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
