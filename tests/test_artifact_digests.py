"""Pinned artifact digests: "byte-identical" as a test.

A paper-rig scenario runs the command line end to end (``simulate`` of a
background and of a scene, both with every error source and the scene with
calibration targets, then ``calibrate`` plain and robust, ``fuse`` and
``segment``) and takes the SHA-256 of every file those calls write. The
digests are compared with the entry that ``artifact_digests.json`` holds for
this machine's kernel fingerprint.

The digests depend on the machine: numpy sends float64 ``arctan2``, ``hypot``,
``exp`` and the like to SIMD kernels that differ from libm in the last bit
for some arguments, and an older numpy may round otherwise. So each entry is
keyed by a fingerprint: the numpy version and the SHA-256 of the float64
results of the ufuncs and linear-algebra routines the pipeline calls, on a
fixed argument vector.

* An entry that does not match fails the test, naming each differing file.
* A fingerprint with no entry skips the test: there is nothing to compare
  against, and the bytes of another machine's kernels are no evidence either
  way.

The fingerprint and the digests are printed in both cases (run with
``pytest -s``), as the JSON entry to add. To record this machine's entry
from the current code::

    PYTHONPATH=src python tests/test_artifact_digests.py

A change that alters an artifact on purpose re-records the entries it can
and says so in its change notes.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from tofir.cli import main

DIGEST_FILE = Path(__file__).with_name("artifact_digests.json")

_TOF = {"f": 4e-3, "width": 64, "height": 50, "pixel_pitch": 45e-6, "k1": -0.05,
        "f_mod": 21e6}
_IR = {"f": 4.8e-3, "width": 160, "height": 120, "pixel_pitch": 25e-6}
_WALL = {"type": "plane", "axis": "z", "offset": 3.0, "reflectivity": 0.9,
         "temperature": 300.0}
_PERSON = {"type": "sphere", "center": [0.1, -0.05, 1.6], "radius": 0.3,
           "reflectivity": 0.7, "temperature": 309.5}
# every error source: phase and bucket noise, saturation, multipath, scattering
_NOISE = {"seed": 7, "bucket_noise_sigma": 0.3, "saturation_fraction": 0.02,
          "multipath": {"enabled": True, "extra_distance": 0.8, "relative_amplitude": 0.15},
          "scattering": {"enabled": True, "kernel_radius": 3, "energy_fraction": 0.08}}
_YAW = np.radians(3.0)
_ROTATION = [[np.cos(_YAW), 0.0, np.sin(_YAW)], [0.0, 1.0, 0.0],
             [-np.sin(_YAW), 0.0, np.cos(_YAW)]]
_TARGETS = [[0.35 * i - 0.35, 0.25 * j - 0.25, 1.8 + 0.9 * ((i + 2 * j) % 3)]
            for i in range(3) for j in range(3)]


def kernel_fingerprint() -> str:
    """``numpy-<version>-<16 hex digits>``: the digits begin the SHA-256 of
    the float64 results of the pipeline's ufuncs and linear-algebra
    routines on a fixed argument vector."""
    x = np.linspace(-20.0, 20.0, 8191)
    y = np.linspace(0.25, 7.5, 8191)[::-1].copy()
    z = x + 1j * y
    m = np.stack([x, y, x * y], axis=1)
    square = m[:3].T @ m[:3] + np.eye(3)
    results = [
        np.sin(x), np.cos(x), np.exp(x), np.sqrt(y), np.arccos(x / 20.0),
        np.arctan2(x, y), np.hypot(x, y), np.fmod(x, y), np.abs(z), np.angle(z),
        m @ np.asarray(_ROTATION), m.T @ m, np.linalg.norm(m, axis=1),
        np.linalg.solve(square, x[:3]), np.linalg.svd(m[:64, :2], compute_uv=False),
    ]
    digest = hashlib.sha256()
    for result in results:
        digest.update(np.ascontiguousarray(result, dtype=np.float64).tobytes())
    return f"numpy-{np.__version__}-{digest.hexdigest()[:16]}"


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1))


def _cli(*argv) -> None:
    assert main([*argv, "--quiet"]) == 0, argv


def run_scenario(work: Path) -> dict[str, str]:
    """Run the scenario in the empty directory ``work``; the SHA-256 of every
    file the command line wrote, keyed ``<call>/<file>``."""
    _write_json(work / "tof.json", _TOF)
    _write_json(work / "ir.json", _IR)
    _write_json(work / "ext.json", {"rotation": [v for row in _ROTATION for v in row],
                                    "translation": [0.05, 0.0, 0.0]})
    _write_json(work / "empty.json", {"primitives": [_WALL]})
    _write_json(work / "person.json", {"primitives": [_WALL, _PERSON]})
    rig = {"tof_intrinsics": "tof.json", "ir_intrinsics": "ir.json", "extrinsics": "ext.json"}
    _write_json(work / "background.json", {**rig, "scene": "empty.json", "noise": _NOISE,
                                           "frames": 6})
    _write_json(work / "simulate.json", {
        **rig, "scene": "person.json", "noise": {**_NOISE, "seed": 8}, "frames": 3,
        "ir_blur_sigma": 0.8,
        "calibration_targets": {"points": _TARGETS, "pixel_noise_sigma": 0.1},
    })
    calibrate = {"observations": "simulate/observations.txt", "tof_intrinsics": "tof.json",
                 "ir_intrinsics": "ir.json", "translation": [0.05, 0.0, 0.0]}
    _write_json(work / "calibrate-plain.json", calibrate)
    _write_json(work / "calibrate-robust.json", {**calibrate, "robust": True})
    limits = {"a_min": 0.5, "a_max": 1000.0, "b_max": 1000.0}
    _write_json(work / "fuse.json", {**rig, "raw": "simulate/raw.tirf",
                                     "thermal": "simulate/thermal.tirf", "limits": limits})
    _write_json(work / "segment.json", {
        "tof_intrinsics": "tof.json", "background": "background/raw.tirf",
        "frames": "simulate/raw.tirf", "limits": limits, "k": 2.5, "sigma_floor": 0.01,
        "median_step": 0.02,
    })

    calls = [("simulate", "background"), ("simulate", "simulate"),
             ("calibrate", "calibrate-plain"), ("calibrate", "calibrate-robust"),
             ("fuse", "fuse"), ("segment", "segment")]
    for command, label in calls:
        _cli(command, "--config", str(work / f"{label}.json"), "--output", str(work / label))
    return {f"{label}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
            for _, label in calls for path in sorted((work / label).iterdir())}


def test_artifacts_match_the_recorded_digests(tmp_path):
    key = kernel_fingerprint()
    digests = run_scenario(tmp_path)
    print(f"\nkernel fingerprint {key}; its entry for {DIGEST_FILE.name}:")
    print(json.dumps({key: digests}, indent=1, sort_keys=True))
    entries = json.loads(DIGEST_FILE.read_text())
    if key not in entries:
        pytest.skip(f"{DIGEST_FILE.name} has no entry for kernel fingerprint {key}")
    expected = entries[key]
    differ = sorted(name for name in expected.keys() | digests.keys()
                    if expected.get(name) != digests.get(name))
    assert not differ, f"artifacts differ from the recorded digests: {differ}"


if __name__ == "__main__":
    entries = json.loads(DIGEST_FILE.read_text()) if DIGEST_FILE.exists() else {}
    key = kernel_fingerprint()
    with tempfile.TemporaryDirectory() as work:
        entries[key] = run_scenario(Path(work))
    DIGEST_FILE.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(entries[key])} digests for {key} in {DIGEST_FILE}", file=sys.stderr)
