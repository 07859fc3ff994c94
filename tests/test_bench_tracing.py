"""The benchmark's traced run wraps package functions by name; these tests
fail when a refactor drops or bypasses one of those names."""

import importlib.util
import json
from pathlib import Path

import numpy as np

from tofir import RangeFrame, fusion, render_ir
from tofir.cli import main

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_exists_on_its_owner():
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, *_ in _tracing().LAYER_CALLS
        if attr not in vars(owner)
    ]
    assert not missing


def test_fuse_reaches_its_layers_through_the_fusion_namespace(
    tof_intr, ir_intr, baseline_ext, blob_scene
):
    tracing = _tracing()
    shape = (tof_intr.height, tof_intr.width)
    frame = RangeFrame(np.full(shape, 2.0), np.ones(shape), np.ones(shape), np.ones(shape, bool))
    thermal = render_ir(blob_scene, ir_intr, baseline_ext.inverse())
    tracer = tracing.Tracer()
    with tracer.installed():
        fusion.fuse(frame, thermal, tof_intr, ir_intr, baseline_ext)
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"fusion.fuse", "tof.backproject", "thermal.project", "thermal.sample"} <= names


def test_cli_reaches_every_adapter_through_its_traced_name(tmp_path):
    def write(name, doc):
        (tmp_path / name).write_text(json.dumps(doc))
        return str(tmp_path / name)

    write("scene.json", {"primitives": [
        {"type": "plane", "axis": "z", "offset": 3.0, "reflectivity": 1.0, "temperature": 300.0},
        {"type": "sphere", "center": [0.0, 0.0, 1.5], "radius": 0.25, "reflectivity": 1.0,
         "temperature": 310.0},
    ]})
    write("tof.json", {"f": 4e-3, "width": 16, "height": 12, "pixel_pitch": 180e-6})
    write("ir.json", {"f": 4.8e-3, "width": 20, "height": 15, "pixel_pitch": 200e-6})
    sim = tmp_path / "sim"
    configs = [
        ("simulate", {"scene": "scene.json", "tof_intrinsics": "tof.json",
                      "ir_intrinsics": "ir.json", "frames": 2, "output": str(sim)}),
        ("fuse", {"raw": str(sim / "raw.tirf"), "thermal": str(sim / "thermal.tirf"),
                  "tof_intrinsics": "tof.json", "ir_intrinsics": "ir.json",
                  "extrinsics": str(sim / "extrinsics.truth.json"),
                  "output": str(tmp_path / "fused")}),
        ("segment", {"background": str(sim / "raw.tirf"), "tof_intrinsics": "tof.json",
                     "output": str(tmp_path / "seg")}),
    ]
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        for command, doc in configs:
            assert main([command, "--config", write(f"{command}.json", doc), "--quiet"]) == 0
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {
        "tof.pack", "tof.unpack", "thermal.pack", "thermal.unpack",
        "fusion.pack", "fusion.text", "segmentation.pack", "container.stack",
        "segmentation.background", "segmentation.mask", "segmentation.pbm",
    } <= names
