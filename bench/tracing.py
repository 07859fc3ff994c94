"""Spans recorded around calls into the package's layers, and the per-layer
metrics derived from them.

A span is one call into a layer: its name, start, end, the span that caused
it and the item (one CLI call, one library frame or one solve) it belongs to.
Spans stay in memory until the run ends. A span's self time is its duration
minus the time covered by its direct children; calls are sequential, so
children never overlap.

``Tracer.installed()`` wraps the package's public functions, listed in
``LAYER_CALLS``, in spans for as long as it is entered. The wrappers replace
module and class attributes, so calls made by ``tofir.cli.main`` and by
other package functions are timed without a change to the package. Nothing
is wrapped outside that block.

A per-layer timing metric is named ``<span>.<kind>`` and derived from the
spans of that name:

* ``ms_per_frame``: median over spans of self time / frames handled;
* ``ms``: median over root spans of the summed self time inside that root,
  i.e. per CLI call or per library item;
* ``s``: median duration of the spans, for root spans such as ``cli.fuse``;
* ``mb_per_s``: bytes moved / summed self time, MB being 2**20 bytes;
* ``mpix_per_s``: pixels handled / summed self time, in 1e6 pixels.

A layer the workload never calls has no spans and reads 0.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

from tofir import calibration, fusion, segmentation, simulator, thermal, tof
from tofir.container import FrameContainer

# span record fields, kept as lists to keep tens of thousands of spans small
NAME, PARENT, ROOT, ITEM, START, END, FRAMES, NBYTES, PIXELS = range(9)


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _file_bytes(index: int):
    return lambda a, k, r: {"bytes": Path(_arg(a, k, index, "path")).stat().st_size}


def _frames_in(a, k, r):
    return {"frames": r.frames}


def _frames_out(a, k, r):
    return {"frames": len(r)}


def _nothing(a, k, r):
    return {}


def _solve_name(args, kwargs) -> str:
    # robust is keyword-only
    return "calibration.solve_robust" if kwargs.get("robust") else "calibration.solve_plain"


# (owner, attribute, span name or (args, kwargs) -> span name,
#  (args, kwargs, result) -> the span's "frames", "bytes" and "pixels").
# fusion.fuse calls backproject, project_points and sample_temperature_grid
# by the names it imported, so those are wrapped in the fusion module.
LAYER_CALLS = (
    (FrameContainer, "read", "container.read", _file_bytes(0)),
    (FrameContainer, "write", "container.write", _file_bytes(1)),  # args[0] is the container
    (FrameContainer, "stack", "container.stack", _frames_in),
    (tof, "raw_frames_from_container", "tof.unpack", _frames_out),
    (tof, "raw_frames_to_container", "tof.pack", _frames_in),
    (tof, "demodulate", "tof.demodulate",
     lambda a, k, r: {"pixels": r.distance.size}),
    (fusion, "backproject", "tof.backproject", _nothing),
    (fusion, "project_points", "thermal.project", _nothing),
    (fusion, "sample_temperature_grid", "thermal.sample", _nothing),
    (thermal, "thermal_frames_from_container", "thermal.unpack", _frames_out),
    (thermal, "thermal_frames_to_container", "thermal.pack", _frames_in),
    (fusion, "fuse", "fusion.fuse", _nothing),
    (fusion, "thermograms_to_container", "fusion.pack", _frames_in),
    (fusion, "thermogram_to_text", "fusion.text", _nothing),
    (segmentation, "build_background", "segmentation.background",
     lambda a, k, r: {"frames": len(_arg(a, k, 0, "frames"))}),
    (segmentation, "foreground_mask", "segmentation.mask", _nothing),
    (segmentation, "mask_to_pbm", "segmentation.pbm", _nothing),
    (segmentation, "background_to_container", "segmentation.pack", _nothing),
    (segmentation, "masks_to_container", "segmentation.pack", _nothing),
    (calibration, "estimate_rotation", _solve_name, _nothing),
    (calibration, "load_observations", "calibration.io", _nothing),
    (calibration, "save_observations", "calibration.io", _nothing),
    (calibration, "format_report", "calibration.io", _nothing),
    (simulator, "render_tof_sequence", "simulator.render_tof", _frames_out),
    (simulator, "render_ir", "simulator.render_ir", _nothing),
    (simulator, "make_calibration_set", "simulator.calibration_set", _nothing),
)


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, *, item: str | None = None):
        """Time the enclosed call. Inside the block, ``info["frames"]``,
        ``info["bytes"]`` and ``info["pixels"]`` record what the call handled."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        if parent is None:
            root = index
            item = item or f"{name}#{index}"
        else:
            root = self.spans[parent][ROOT]
            item = item or self.spans[parent][ITEM]
        rec = [name, parent, root, item, 0.0, 0.0, 1, 0, 0]
        self.spans.append(rec)
        self._stack.append(index)
        info: dict = {}
        rec[START] = time.perf_counter()
        try:
            yield info
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
            rec[FRAMES] = info.get("frames", 1)
            rec[NBYTES] = info.get("bytes", 0)
            rec[PIXELS] = info.get("pixels", 0)

    def _wrap(self, func, name, measure):
        span = self.span

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with span(name if isinstance(name, str) else name(args, kwargs)) as info:
                result = func(*args, **kwargs)
                info.update(measure(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self, table=LAYER_CALLS):
        """Wrap every call of ``table`` in a span while the block runs."""
        saved = []
        try:
            for owner, attr, name, measure in table:
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    wrapper = staticmethod(self._wrap(getattr(owner, attr), name, measure))
                else:
                    wrapper = self._wrap(original, name, measure)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] is not None:
                covered[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - covered[i] for i, rec in enumerate(self.spans)]

    def dump(self, path) -> None:
        """Write one JSON object per span, times in seconds from the first span."""
        origin = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "parent": rec[PARENT], "item": rec[ITEM],
                    "start": round(rec[START] - origin, 9), "end": round(rec[END] - origin, 9),
                    "frames": rec[FRAMES], "bytes": rec[NBYTES], "pixels": rec[PIXELS],
                }, separators=(",", ":")) + "\n")


TIMING_KINDS = ("ms_per_frame", "ms", "s", "mb_per_s", "mpix_per_s")


def timing_kind(metric: str) -> str | None:
    """The timing kind a metric name ends in, or None for a count."""
    for kind in TIMING_KINDS:
        if metric.endswith("." + kind):
            return kind
    return None


def layer_metric(tracer: Tracer, self_s: list[float], metric: str) -> float:
    """Derive one ``<span>.<kind>`` metric from the recorded spans."""
    kind = timing_kind(metric)
    span_name = metric[: -len(kind) - 1]
    picked = [(rec, self_s[i]) for i, rec in enumerate(tracer.spans) if rec[NAME] == span_name]
    if not picked:
        return 0.0
    if kind == "ms_per_frame":
        return statistics.median(1e3 * t / max(rec[FRAMES], 1) for rec, t in picked)
    if kind == "ms":
        per_root: dict[int, float] = {}
        for rec, t in picked:
            per_root[rec[ROOT]] = per_root.get(rec[ROOT], 0.0) + t
        return 1e3 * statistics.median(per_root.values())
    if kind == "s":
        return statistics.median(rec[END] - rec[START] for rec, _ in picked)
    busy = sum(t for _, t in picked)
    if kind == "mb_per_s":
        return sum(rec[NBYTES] for rec, _ in picked) / 2**20 / busy
    return sum(rec[PIXELS] for rec, _ in picked) / 1e6 / busy
