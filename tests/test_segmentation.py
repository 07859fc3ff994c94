import math

import numpy as np
import pytest

from tofir import (
    DimensionMismatchError,
    NoiseConfig,
    RangeFrame,
    RawTofFrame,
    TofIntrinsics,
    build_background,
    demodulate,
    foreground_mask,
    render_tof,
    render_tof_sequence,
    synthesize_buckets,
)
from tofir.segmentation import (
    BACKGROUND_SCHEMA,
    BackgroundModel,
    background_to_container,
    mask_to_pbm,
    masks_to_container,
)


def _frame(distance, valid=None):
    distance = np.asarray(distance, dtype=np.float64)
    if valid is None:
        valid = np.ones(distance.shape, bool)
    ones = np.ones_like(distance)
    return RangeFrame(distance, ones, ones, valid)


class TestBuildBackground:
    def test_constant_sequence(self):
        frames = [_frame(np.full((4, 5), 2.5)) for _ in range(10)]
        model = build_background(frames)
        assert np.array_equal(model.mean, np.full((4, 5), 2.5))
        assert np.array_equal(model.std, np.zeros((4, 5)))
        assert np.array_equal(model.median, np.full((4, 5), 2.5))
        assert model.valid.all()

    def test_two_frame_sample_statistics(self):
        # mean 2, sample (n-1) std sqrt(2)
        model = build_background([_frame(np.full((2, 2), 1.0)), _frame(np.full((2, 2), 3.0))])
        assert np.allclose(model.mean, 2.0)
        assert np.allclose(model.std, math.sqrt(2.0))

    @pytest.mark.parametrize("count", [0, 1])
    def test_too_few_frames_rejected(self, count):
        frames = [_frame(np.full((2, 2), 1.0))] * count
        with pytest.raises(ValueError):
            build_background(frames)

    def test_mismatched_frames_rejected(self):
        with pytest.raises(DimensionMismatchError):
            build_background([_frame(np.zeros((2, 2)) + 1), _frame(np.ones((3, 3)))])

    def test_invalid_samples_excluded(self):
        valid0 = np.array([[True, False]])
        valid1 = np.array([[True, True]])
        frames = [
            _frame(np.array([[1.0, 100.0]]), valid0),
            _frame(np.array([[3.0, 2.0]]), valid1),
            _frame(np.array([[5.0, 4.0]]), valid1),
        ]
        model = build_background(frames)
        assert model.mean[0, 0] == pytest.approx(3.0)
        assert model.mean[0, 1] == pytest.approx(3.0)  # the 100 m outlier never entered
        assert model.count[0, 0] == 3 and model.count[0, 1] == 2
        assert model.median[0, 1] != pytest.approx(100.0)

    def test_pixels_with_single_valid_sample_marked_invalid(self):
        valid_once = np.array([[True, False]])
        never = np.array([[True, False]])
        frames = [_frame(np.array([[1.0, 7.0]]), valid_once),
                  _frame(np.array([[2.0, 7.0]]), never)]
        model = build_background(frames)
        assert model.valid[0, 0]
        assert not model.valid[0, 1]

    def test_mean_and_std_permutation_invariant(self):
        rng = np.random.default_rng(0)
        stack = rng.uniform(1, 5, size=(20, 6, 6))
        frames = [_frame(d) for d in stack]
        shuffled = [frames[i] for i in rng.permutation(20)]
        a = build_background(frames)
        b = build_background(shuffled)
        assert np.allclose(a.mean, b.mean, rtol=1e-12)
        assert np.allclose(a.std, b.std, rtol=1e-12)
        # the approximate median is order-dependent by construction: no assertion

    def test_gaussian_noise_std_recovery(self):
        rng = np.random.default_rng(1)
        sigma_true = 0.03
        frames = [_frame(3.0 + sigma_true * rng.standard_normal((8, 8))) for _ in range(400)]
        model = build_background(frames)
        assert np.all(np.abs(model.std / sigma_true - 1.0) < 0.25)
        assert np.all(np.abs(model.mean - 3.0) < 0.01)


class TestUpdateMedian:
    """The approximate-median step rule, driven through build_background:
    the first frame seeds the median, each later valid sample moves it by
    +step, -step, or 0 when the sample equals it."""

    def _median(self, start, frames, step):
        seed = _frame(np.asarray(start, dtype=np.float64))
        return build_background([seed, *frames], median_step=step).median

    def test_equal_frame_leaves_median(self):
        median = self._median(np.full((3, 3), 2.0), [_frame(np.full((3, 3), 2.0))], 0.01)
        assert np.array_equal(median, np.full((3, 3), 2.0))

    def test_converges_within_one_step(self):
        target = _frame(np.full((2, 2), 0.1))
        median = self._median(np.zeros((2, 2)), [target] * 10, 0.01)
        assert np.all(np.abs(median - 0.1) <= 0.01 + 1e-12)

    def test_alternating_frames_oscillate_within_step(self):
        step = 0.01
        hi = _frame(np.full((2, 2), 1.3))
        lo = _frame(np.full((2, 2), 0.7))
        median = self._median(np.full((2, 2), 1.0), [hi, lo] * 50, step)
        assert np.all(np.abs(median - 1.0) <= step + 1e-12)

    def test_moves_by_exactly_zero_or_step(self):
        rng = np.random.default_rng(2)
        start = rng.uniform(1, 3, size=(5, 5))
        sample = rng.uniform(1, 3, size=(5, 5))
        sample[0, 0] = start[0, 0]
        median = self._median(start, [_frame(sample)], 0.02)
        deltas = np.round(median - start, 12)
        assert set(np.unique(deltas)) == {-0.02, 0.0, 0.02}
        assert deltas[0, 0] == 0.0

    def test_invalid_pixels_untouched(self):
        frame = _frame(np.full((1, 2), 9.0), np.array([[True, False]]))
        median = self._median(np.full((1, 2), 1.0), [frame], 0.5)
        assert median[0, 0] == 1.5
        assert median[0, 1] == 1.0

    @pytest.mark.parametrize("step", [0.0, -0.1])
    def test_non_positive_step_rejected(self, step):
        with pytest.raises(ValueError):
            self._median(np.zeros((2, 2)), [_frame(np.zeros((2, 2)))], step)


class TestForegroundMask:
    def _model(self, mean, std):
        shape = np.asarray(mean).shape
        return BackgroundModel(np.asarray(mean, float), np.asarray(std, float),
                               np.asarray(mean, float), np.full(shape, 10, np.int64))

    def test_frame_equal_to_mean_is_empty(self):
        model = self._model(np.full((4, 4), 3.0), np.full((4, 4), 0.03))
        mask = foreground_mask(_frame(np.full((4, 4), 3.0)), model, k=3.0)
        assert not mask.foreground.any()
        assert np.array_equal(mask.score, np.zeros((4, 4)))

    def test_five_sigma_outlier_flagged_with_score(self):
        model = self._model(np.full((2, 2), 3.0), np.full((2, 2), 0.1))
        frame = _frame(np.full((2, 2), 3.5))  # 5 sigma away
        mask = foreground_mask(frame, model, k=3.0)
        assert mask.foreground.all()
        assert np.allclose(mask.score, 5.0)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(3)
        model = self._model(np.full((10, 10), 3.0), np.full((10, 10), 0.05))
        frame = _frame(3.0 + 0.3 * rng.standard_normal((10, 10)))
        masks = [foreground_mask(frame, model, k) for k in (1.0, 2.0, 4.0, 8.0)]
        for tighter, looser in zip(masks[1:], masks):
            assert not np.any(tighter.foreground & ~looser.foreground)

    def test_sigma_floor_keeps_scores_finite(self):
        model = self._model(np.full((3, 3), 3.0), np.zeros((3, 3)))
        mask = foreground_mask(_frame(np.full((3, 3), 4.0)), model, k=3.0, sigma_floor=0.001)
        assert np.all(np.isfinite(mask.score))
        assert mask.foreground.all()  # 1 m against a 1 mm floor

    def test_invalid_pixels_never_flagged(self):
        model = self._model(np.full((1, 2), 3.0), np.full((1, 2), 0.01))
        frame = _frame(np.full((1, 2), 9.0), np.array([[True, False]]))
        mask = foreground_mask(frame, model, k=3.0)
        assert mask.foreground[0, 0]
        assert not mask.foreground[0, 1]
        assert not mask.valid[0, 1]

    def test_rejects_bad_parameters(self):
        model = self._model(np.full((2, 2), 3.0), np.full((2, 2), 0.1))
        with pytest.raises(ValueError):
            foreground_mask(_frame(np.full((2, 2), 3.0)), model, k=0.0)
        with pytest.raises(DimensionMismatchError):
            foreground_mask(_frame(np.full((3, 3), 3.0)), model, k=3.0)


class TestFlagInvalid:
    """Exposure limits: ``demodulate``'s ``a_min``/``a_max``/``b_max``."""

    @staticmethod
    def _valid(amplitude, offset, **limits) -> np.ndarray:
        """``demodulate``'s validity of a row of pixels with these returns."""
        amplitude = np.asarray(amplitude, dtype=np.float64)[None, :]
        offset = np.broadcast_to(np.asarray(offset, dtype=np.float64), amplitude.shape)
        raw = RawTofFrame(synthesize_buckets(np.zeros(amplitude.shape), amplitude, offset))
        return demodulate(raw, TofIntrinsics(4e-3, amplitude.shape[1], 1, 45e-6), **limits).valid

    def test_within_thresholds_unchanged(self, tof_intr, wall_scene):
        assert self._valid(np.full(3, 5.0), 20.0, a_min=1.0, a_max=10.0, b_max=100.0).all()
        # limits that flag nothing leave every plane of the frame as it was
        raw, _ = render_tof(wall_scene, tof_intr, noise=NoiseConfig.quiet())
        plain = demodulate(raw, tof_intr)
        limited = demodulate(raw, tof_intr, a_min=1e-6, a_max=1000.0, b_max=1000.0)
        assert limited.valid.all()
        for plane in ("distance", "amplitude", "offset", "valid"):
            assert np.array_equal(getattr(limited, plane), getattr(plain, plane))

    def test_threshold_rules(self):
        amplitude = [0.0, 0.5, 5.0, 20.0]
        offset = [10.0, 10.0, 500.0, 50.0]
        # without limits only the zero amplitude carries no phase
        assert self._valid(amplitude, offset).tolist() == [[False, True, True, True]]
        # zero amplitude, underexposed, saturated offset, overexposed amplitude
        valid = self._valid(amplitude, offset, a_min=1.0, a_max=10.0, b_max=100.0)
        assert valid.tolist() == [[False, False, False, False]]

    def test_saturation_injection_flags_exactly_injected_pixels(self, tof_intr, wall_scene):
        noise = NoiseConfig(seed=21, phase_noise_scale=0.0, saturation_fraction=0.05)
        raw, truth = render_tof(wall_scene, tof_intr, noise=noise)
        assert truth.outlier_mask.sum() == round(0.05 * 64 * 50)
        frame = demodulate(raw, tof_intr, a_min=1e-6, a_max=1000.0, b_max=1000.0)
        assert np.array_equal(~frame.valid, truth.outlier_mask)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            self._valid([1.0], 1.0, a_min=-1.0, a_max=10.0, b_max=5.0)
        with pytest.raises(ValueError):
            self._valid([1.0], 1.0, a_min=5.0, a_max=1.0, b_max=5.0)


class TestSegmentationEndToEnd:
    def test_person_blob_f1(self, tof_intr, wall_scene, blob_scene):
        noise = NoiseConfig(seed=5)
        bg = [demodulate(r, tof_intr)
              for r, _ in render_tof_sequence(wall_scene, tof_intr, None, noise, 200)]
        model = build_background(bg)
        raw, truth_blob = render_tof(blob_scene, tof_intr,
                                     noise=NoiseConfig(seed=777))
        mask = foreground_mask(demodulate(raw, tof_intr), model, k=3.0)
        _, truth_wall = render_tof(wall_scene, tof_intr, noise=NoiseConfig.quiet())
        gt = truth_blob.range < truth_wall.range - 1e-9
        tp = np.count_nonzero(mask.foreground & gt)
        fp = np.count_nonzero(mask.foreground & ~gt)
        fn = np.count_nonzero(~mask.foreground & gt)
        f1 = 2 * tp / (2 * tp + fp + fn)
        assert f1 >= 0.9


class TestExports:
    def test_pbm_format(self):
        mask = foreground_mask(
            _frame(np.array([[3.0, 4.0], [3.0, 3.0]])),
            BackgroundModel(np.full((2, 2), 3.0), np.full((2, 2), 0.01),
                            np.full((2, 2), 3.0), np.full((2, 2), 5, np.int64)),
            k=3.0,
        )
        text = mask_to_pbm(mask)
        lines = text.splitlines()
        assert lines[0] == "P1"
        assert lines[1] == "2 2"
        assert lines[2] == "0 1"
        assert lines[3] == "0 0"

    def test_background_container_round_trip(self):
        rng = np.random.default_rng(4)
        model = BackgroundModel(
            rng.uniform(1, 4, (5, 6)),
            rng.uniform(0, 0.1, (5, 6)),
            rng.uniform(1, 4, (5, 6)),
            rng.integers(0, 50, (5, 6)),
        )
        (back,) = BACKGROUND_SCHEMA.unpack(background_to_container(model))
        assert np.array_equal(back.count, model.count)
        assert np.allclose(back.mean, model.mean, rtol=1e-6)

    def test_mask_container_channels(self):
        mask = foreground_mask(
            _frame(np.full((2, 2), 3.0)),
            BackgroundModel(np.full((2, 2), 3.0), np.full((2, 2), 0.01),
                            np.full((2, 2), 3.0), np.full((2, 2), 5, np.int64)),
            k=3.0,
        )
        cont = masks_to_container([mask, mask])
        assert cont.channel_names == ("foreground", "score", "valid")
        assert cont.frames == 2
