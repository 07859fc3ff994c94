"""The benchmark's traced run wraps package functions by name; these tests
fail when a refactor drops or bypasses one of those names."""

import importlib.util
from pathlib import Path

import numpy as np

from tofir import RangeFrame, fusion, render_ir

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
