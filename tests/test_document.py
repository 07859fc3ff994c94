import math
import re

import numpy as np
import pytest

import tofir
from tofir.document import check, count, flag, number, read, triple, whole


@pytest.mark.parametrize("value", [0, 4, 4.0, -3.0, 2**62 - 1, 2**80])
def test_whole_keeps_whole_numbers_exactly(value):
    number = whole(value)
    assert type(number) is int and number == value


@pytest.mark.parametrize("value", [np.int64(2**62 - 1), np.uint8(4), np.int32(-3)])
def test_whole_converts_numpy_integers_exactly(value):
    number = whole(value)
    assert type(number) is int and number == value


@pytest.mark.parametrize("value", [4.5, True, "4", None, math.inf, math.nan, [4],
                                   np.bool_(True)])
def test_whole_rejects_everything_else(value):
    with pytest.raises(ValueError, match="whole number"):
        whole(value)


@pytest.mark.parametrize("value, least", [(0, 0), (1, 1), (7.0, 1), (np.int64(3), 3),
                                          (2**80, 1)])
def test_count_keeps_a_whole_number_of_at_least_least(value, least):
    converted = count("frames", value, least)
    assert type(converted) is int and converted == value


@pytest.mark.parametrize("value, least, message", [
    (0, 1, "frames must be >= 1, got 0"),
    (-1, 0, "frames must be >= 0, got -1"),
    (2, 3, "frames must be >= 3, got 2"),
    (2.5, 1, "frames: expected a whole number"),
    (True, 0, "frames: expected a whole number"),
])
def test_count_names_the_setting_and_its_lower_bound(value, least, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        count("frames", value, least)


@pytest.mark.parametrize("value", [0, -3, 2.5, 1e-300, -1.7976931348623157e308, 2**62])
def test_number_reads_finite_numbers_as_floats(value):
    converted = number(value)
    assert type(converted) is float and converted == value


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400, True, "3.0",
                                   "nan", None, [1.0]])
def test_number_rejects_everything_else(value):
    with pytest.raises(ValueError, match="finite number"):
        number(value)


@pytest.mark.parametrize("value", [True, False])
def test_flag_accepts_json_booleans(value):
    assert flag(value) is value


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_flag_rejects_everything_else(value):
    with pytest.raises(ValueError, match="true or false"):
        flag(value)


def test_read_converts_only_named_keys_that_are_present():
    doc = {"a": 2.0, "b": "x", "unnamed": 1}
    assert read(doc, "doc", a=whole, c=float) == {"a": 2}


@pytest.mark.parametrize("doc", [[1, 2], 5, "text", None])
def test_read_rejects_a_non_object(doc):
    with pytest.raises(ValueError, match="limits must be a JSON object"):
        read(doc, "limits", a_min=float)


def test_read_error_names_document_and_key():
    with pytest.raises(ValueError, match="noise field 'seed': expected a whole number"):
        read({"seed": 1.5}, "noise", seed=whole)
    with pytest.raises(ValueError, match="limits field 'a_min'"):
        read({"a_min": [1]}, "limits", a_min=float)


@pytest.mark.parametrize("value", [[1, 2.5, -3], (0.0, 0.0, 0.0)])
def test_triple_reads_three_finite_numbers(value):
    converted = triple(value)
    assert type(converted) is tuple and converted == tuple(value)
    assert all(type(x) is float for x in converted)


@pytest.mark.parametrize("value", [[1, 2], [1, 2, 3, 4], [1, math.nan, 3], [1, True, 3],
                                   "abc", 5, None])
def test_triple_rejects_everything_else(value):
    with pytest.raises(ValueError, match="expected 3 numbers|finite number"):
        triple(value)


_BELOW_ONE = math.nextafter(1.0, 0.0)
_ABOVE_ONE = math.nextafter(1.0, 2.0)


# every row also rejects a boolean; numpy numbers and 0-d arrays pass, booleans
# of every kind and strings do not
@pytest.mark.parametrize("rule, accepted, rejected", [
    ("finite", [-1.0, 0.0, 1e300, (1.0, -2.0, 0.0), np.float32(1.5), np.int64(3),
                np.array(2.0)],
     [math.nan, math.inf, -math.inf, (1.0, math.nan, 0.0), True, False, np.bool_(True),
      np.array(False), (1.0, True, 0.0), "3", "nan"]),
    ("positive", [1e-300, 2.0], [0.0, -1.0, math.nan, math.inf, -math.inf, True]),
    ("non-negative", [0.0, 2.0], [-1e-300, math.nan, math.inf, -math.inf, True]),
    ("in (0, 1]", [5e-324, 1.0], [0.0, _ABOVE_ONE, math.nan, math.inf, -math.inf, True]),
    ("in [0, 1)", [0.0, _BELOW_ONE], [-5e-324, 1.0, math.nan, math.inf, -math.inf, True]),
    ("in [0, 1]", [0.0, 1.0], [-5e-324, _ABOVE_ONE, math.nan, math.inf, -math.inf, True]),
])
def test_check_rules(rule, accepted, rejected):
    for value in accepted:
        check("setting", value, rule)
    for value in rejected:
        with pytest.raises(ValueError, match=re.escape(f"setting must be {rule}")):
            check("setting", value, rule)


def _range_frame():
    ones = np.ones((2, 2))
    return tofir.RangeFrame(ones, ones, ones, ones.astype(bool))


def _background():
    return tofir.build_background([_range_frame(), _range_frame()])


_CAMERA = dict(focal_length=4e-3, width=64, height=50, pixel_pitch=45e-6)
_SCENE = tofir.Scene((tofir.Plane("z", 3.0, 1.0, 300.0),))
_OBSERVATION = dict(u=10.0, v=20.0, distance=2.0, ir_x=80.0, ir_y=60.0)


def _observation(field):
    return lambda nan: tofir.TargetObservation(**{**_OBSERVATION, field: nan})


# every library check a NaN used to pass, each written as "x <= 0" or "x < 0"
# or not written at all: (what is checked, a call that gives it NaN)
LIBRARY_NAN = {
    "Pinhole.focal_length": lambda nan: tofir.IrIntrinsics(**{**_CAMERA, "focal_length": nan}),
    "Pinhole.pixel_pitch": lambda nan: tofir.IrIntrinsics(**{**_CAMERA, "pixel_pitch": nan}),
    "TofIntrinsics.f_mod": lambda nan: tofir.TofIntrinsics(**_CAMERA, f_mod=nan),
    "TofIntrinsics.k1": lambda nan: tofir.TofIntrinsics(**_CAMERA, k1=nan),
    "TofIntrinsics.k2": lambda nan: tofir.TofIntrinsics(**_CAMERA, k2=nan),
    "NoiseConfig.phase_noise_scale": lambda nan: tofir.NoiseConfig(phase_noise_scale=nan),
    "NoiseConfig.bucket_noise_sigma": lambda nan: tofir.NoiseConfig(bucket_noise_sigma=nan),
    "MultipathConfig.extra_distance": lambda nan: tofir.MultipathConfig(extra_distance=nan),
    "ScatteringConfig.kernel_radius": lambda nan: tofir.ScatteringConfig(kernel_radius=nan),
    "Plane.offset": lambda nan: tofir.Plane("z", nan, 1.0, 300.0),
    "Plane.reflectivity": lambda nan: tofir.Plane("z", 3.0, nan, 300.0),
    "Plane.temperature": lambda nan: tofir.Plane("z", 3.0, 1.0, nan),
    "Sphere.center": lambda nan: tofir.Sphere((0.0, nan, 1.0), 0.2, 1.0, 310.0),
    "Sphere.radius": lambda nan: tofir.Sphere((0.0, 0.0, 1.0), nan, 1.0, 310.0),
    "Sphere.reflectivity": lambda nan: tofir.Sphere((0.0, 0.0, 1.0), 0.2, nan, 310.0),
    "Scene.ambient_temperature": lambda nan: tofir.Scene(_SCENE.primitives,
                                                         ambient_temperature=nan),
    "Scene.background_distance": lambda nan: tofir.Scene(_SCENE.primitives,
                                                         background_distance=nan),
    "Scene.background_reflectivity": lambda nan: tofir.Scene(_SCENE.primitives,
                                                             background_reflectivity=nan),
    "MultipathConfig.relative_amplitude": lambda nan: tofir.MultipathConfig(
        relative_amplitude=nan),
    "ScatteringConfig.energy_fraction": lambda nan: tofir.ScatteringConfig(energy_fraction=nan),
    "NoiseConfig.saturation_fraction": lambda nan: tofir.NoiseConfig(saturation_fraction=nan),
    **{f"TargetObservation.{field}": _observation(field) for field in _OBSERVATION},
    "CalibrationTarget.position": lambda nan: tofir.CalibrationTarget((0.0, nan, 2.0)),
    "CalibrationTarget.temperature": lambda nan: tofir.CalibrationTarget((0.0, 0.0, 2.0), nan),
    "Extrinsics.rotation": lambda nan: tofir.Extrinsics(np.full((3, 3), nan), np.zeros(3)),
    "Extrinsics.translation": lambda nan: tofir.Extrinsics(np.eye(3), [0.05, nan, 0.0]),
    "render_ir(blur_sigma=)": lambda nan: tofir.render_ir(
        _SCENE, tofir.IrIntrinsics(**_CAMERA), blur_sigma=nan),
    "build_background(median_step=)": lambda nan: tofir.build_background(
        [_range_frame(), _range_frame()], median_step=nan),
    "foreground_mask(k=)": lambda nan: tofir.foreground_mask(_range_frame(), _background(), nan),
    "foreground_mask(sigma_floor=)": lambda nan: tofir.foreground_mask(
        _range_frame(), _background(), 3.0, sigma_floor=nan),
    "make_calibration_set(pixel_noise_sigma=)": lambda nan: tofir.make_calibration_set(
        [tofir.CalibrationTarget((0.0, 0.0, 2.0))], tofir.Extrinsics.identity(),
        tofir.TofIntrinsics(**_CAMERA), tofir.IrIntrinsics(**_CAMERA), pixel_noise_sigma=nan),
    "unambiguous_range(f_mod)": lambda nan: tofir.unambiguous_range(nan),
    "demodulate(b_max=)": lambda nan: tofir.demodulate(
        tofir.RawTofFrame(np.ones((50, 64, 4))), tofir.TofIntrinsics(**_CAMERA), b_max=nan),
}


@pytest.mark.parametrize("call", LIBRARY_NAN.values(), ids=LIBRARY_NAN.keys())
def test_library_rejects_nan(call):
    with pytest.raises(ValueError):
        call(math.nan)


# checks a boolean used to pass: a wall at True metres, a blur of sigma True
@pytest.mark.parametrize("what", ["Plane.offset", "render_ir(blur_sigma=)",
                                  "Pinhole.focal_length"])
def test_library_rejects_a_boolean(what):
    with pytest.raises(ValueError, match="must be"):
        LIBRARY_NAN[what](True)
