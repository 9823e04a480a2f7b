import numpy as np
import pytest

from foodcal import measurement as meas
from foodcal.errors import InvalidDimension, NoReferenceObject, UnknownDensity
from foodcal.measurement import ClassLabel, DetectionInstance


def det(label, conf=None, bbox=(0, 0, 10, 10), mask=None):
    return DetectionInstance(label=label, confidence=conf, bbox=bbox, mask=mask)


def disk_mask(shape, cx, cy, r):
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    return (((xx - cx) ** 2 + (yy - cy) ** 2) <= r * r).astype(np.uint8)


# ---------------------------------------------------------------------------
# class names


def test_every_class_reads_back_from_its_name():
    assert [ClassLabel.from_name(label.value) for label in ClassLabel] == list(ClassLabel)


@pytest.mark.parametrize("name", ["coin", "Coin ", "", "COIN", 5, 1.5, None, True, ["Coin"], {"Coin": 1}, ("Coin",)],
                         ids=["lower", "space", "empty", "upper", "int", "float", "none", "bool", "list", "dict",
                              "tuple"])
def test_unknown_class_name_raises_value_error(name):
    with pytest.raises(ValueError) as info:
        ClassLabel.from_name(name)
    assert str(info.value) == f"unknown class name {name!r}"


# ---------------------------------------------------------------------------
# select_reference


def test_highest_confidence_coin_wins():
    a = det(ClassLabel.COIN, 0.7)
    b = det(ClassLabel.COIN, 0.9)
    assert meas.select_reference([a, b]) is b


def test_no_coin_raises():
    with pytest.raises(NoReferenceObject):
        meas.select_reference([det(ClassLabel.PURI, 0.9)])
    with pytest.raises(NoReferenceObject):
        meas.select_reference([])


def test_single_low_confidence_coin_is_selected():
    c = det(ClassLabel.COIN, 0.3)
    assert meas.select_reference([det(ClassLabel.BEGUNI, 0.99), c]) is c


def test_confidence_tie_goes_to_earliest():
    a = det(ClassLabel.COIN, 0.5)
    b = det(ClassLabel.COIN, 0.5)
    assert meas.select_reference([a, b]) is a


# ---------------------------------------------------------------------------
# scale_factor


def test_scale_factor_square_coin():
    sf = meas.scale_factor(100, 100)
    assert sf.s_f == pytest.approx(0.255, abs=1e-12)


def test_scale_factor_asymmetric():
    sf = meas.scale_factor(50, 102)
    assert sf.s_h == pytest.approx(0.51, abs=1e-12)
    assert sf.s_w == pytest.approx(0.25, abs=1e-12)
    assert sf.s_f == pytest.approx(0.38, abs=1e-12)


def test_scale_factor_single_pixel_coin():
    assert meas.scale_factor(1, 1).s_f == pytest.approx(25.5, abs=1e-12)


def test_scale_factor_rejects_nonpositive():
    with pytest.raises(InvalidDimension):
        meas.scale_factor(0, 10)
    with pytest.raises(InvalidDimension):
        meas.scale_factor(10, -1)


def test_scale_factor_average_identity():
    sf = meas.scale_factor(37, 59)
    assert sf.s_f == (sf.s_h + sf.s_w) / 2.0


def test_doubling_coin_pixels_halves_s_f():
    rng = np.random.default_rng(0)
    for _ in range(20):
        h, w = rng.integers(1, 500, size=2)
        assert meas.scale_factor(2 * h, 2 * w).s_f == pytest.approx(
            meas.scale_factor(h, w).s_f / 2.0, rel=1e-15
        )


# ---------------------------------------------------------------------------
# calorie labels


@pytest.mark.parametrize("value", [True, "12", float("inf"), float("nan"), [1.0]],
                         ids=["bool", "string", "inf", "nan", "list"])
def test_instance_rejects_a_calorie_label_that_is_not_a_finite_number(value):
    with pytest.raises(ValueError) as info:
        DetectionInstance(ClassLabel.PURI, (0, 0, 1, 1), calories_kcal=value)
    assert str(info.value) == f"calories_kcal must be a finite number or null, got {value!r}"


@pytest.mark.parametrize("value", [None, 0, 12.5])
def test_instance_keeps_a_calorie_label_that_is_a_finite_number_or_none(value):
    assert DetectionInstance(ClassLabel.PURI, (0, 0, 1, 1), calories_kcal=value).calories_kcal == value


# ---------------------------------------------------------------------------
# extract_features


def test_area_scaling_is_quadratic():
    # 1000 px^2 contour area at s_f = 0.5 must give 250 mm^2; use a rectangle
    # whose shoelace area is exactly 1000 = (w-1)(h-1) with w=101, h=11.
    m = np.zeros((15, 110), np.uint8)
    m[2:13, 4:105] = 1
    d = det(ClassLabel.PURI, 0.9, bbox=(4, 2, 101, 11), mask=m)
    sf = meas.ScaleFactor(s_h=0.5, s_w=0.5, s_f=0.5)
    (rec,) = meas.extract_features([d], sf)
    assert rec.area_mm2 == pytest.approx(250.0, abs=1e-9)


def test_height_scaling_is_linear():
    m = np.zeros((120, 40), np.uint8)
    m[10:110, 5:25] = 1
    d = det(ClassLabel.SOMUSA, 0.8, bbox=(5, 10, 20, 100), mask=m)
    sf = meas.ScaleFactor(s_h=0.2, s_w=0.2, s_f=0.2)
    (rec,) = meas.extract_features([d], sf)
    assert rec.height_mm == pytest.approx(20.0, abs=1e-12)
    assert rec.width_mm == pytest.approx(4.0, abs=1e-12)


def test_only_coin_gives_empty_features():
    m = disk_mask((60, 60), 30, 30, 20)
    d = det(ClassLabel.COIN, 0.99, bbox=(10, 10, 41, 41), mask=m)
    assert meas.extract_features([d], meas.scale_factor(41, 41)) == []


def test_empty_mask_skipped_with_warning(caplog):
    # a row after a skipped instance keeps the calorie label of its own instance
    good = DetectionInstance(ClassLabel.PEAJU, (0, 0, 3, 3), 0.9, np.ones((5, 5), np.uint8), calories_kcal=30.0)
    bad = DetectionInstance(ClassLabel.PURI, (0, 0, 3, 3), 0.9, np.zeros((5, 5), np.uint8), calories_kcal=10.0)
    with caplog.at_level("WARNING"):
        recs = meas.extract_features([bad, good], meas.ScaleFactor(1.0, 1.0, 1.0))
    assert [(r.label, r.instance, r.calories_kcal) for r in recs] == [(ClassLabel.PEAJU, 1, 30.0)]
    assert "empty mask" in caplog.text


def test_rescaling_equivariance():
    # scaling every pixel measurement and the coin bbox by k leaves mm outputs
    # unchanged
    rng = np.random.default_rng(42)
    for k in (2, 3):
        m1 = np.zeros((40, 40), np.uint8)
        m1[5:25, 8:30] = 1
        mk = np.zeros((40 * k, 40 * k), np.uint8)
        mk[5 * k : 25 * k, 8 * k : 30 * k] = 1
        d1 = det(ClassLabel.BEGUNI, 0.9, bbox=(8, 5, 22, 20), mask=m1)
        dk = det(ClassLabel.BEGUNI, 0.9, bbox=(8 * k, 5 * k, 22 * k, 20 * k), mask=mk)
        coin_px = int(rng.integers(30, 80))
        (r1,) = meas.extract_features([d1], meas.scale_factor(coin_px, coin_px))
        (rk,) = meas.extract_features([dk], meas.scale_factor(k * coin_px, k * coin_px))
        assert rk.height_mm == pytest.approx(r1.height_mm, rel=1e-9)
        assert rk.width_mm == pytest.approx(r1.width_mm, rel=1e-9)
        # contour-polygon area of a rectangle is (w-1)(h-1), which is not a
        # pure quadratic in the rescale factor; compare against its own oracle
        w_px, h_px = 22 * k, 20 * k
        assert rk.area_mm2 == pytest.approx(
            (w_px - 1) * (h_px - 1) * (25.5 / (k * coin_px)) ** 2, rel=1e-9
        )


def blob_with_island():
    """A disk with a one-pixel tail and a separate smaller disk: the largest
    component is traced, the island is not."""
    m = disk_mask((70, 90), 30, 35, 25)
    m[35, 55:70] = 1
    m |= disk_mask((70, 90), 80, 8, 6)
    return m


def test_records_do_not_depend_on_mask_placement():
    shape = blob_with_island()
    h, w = shape.shape
    sf = meas.scale_factor(41, 44)
    (expected,) = meas.extract_features([det(ClassLabel.SINGARA, 0.9, (0, 0, w, h), shape)], sf)
    for oy, ox in [(0, 0), (640 - h, 640 - w), (0, 640 - w), (640 - h, 0), (211, 377)]:
        image = np.zeros((640, 640), np.uint8)
        image[oy : oy + h, ox : ox + w] = shape
        (rec,) = meas.extract_features([det(ClassLabel.SINGARA, 0.9, (ox, oy, w, h), image)], sf)
        assert rec == expected  # exact float equality


@pytest.mark.parametrize(
    "mask, match",
    [
        (np.ones(5, np.uint8), "2D"),
        (np.ones((2, 3, 3), np.uint8), "2D"),
        (np.pad(np.full((2, 2), 2, np.uint8), 300), "exactly 0 or 1"),
        (np.pad(np.array([[1, 255]], np.uint8), 200), "exactly 0 or 1"),
    ],
    ids=["1d", "3d", "value-2", "value-255"],
)
def test_malformed_masks_raise(mask, match):
    d = det(ClassLabel.PURI, 0.9, bbox=(0, 0, 3, 3), mask=mask)
    with pytest.raises(ValueError, match=match):
        meas.extract_features([d], meas.ScaleFactor(1.0, 1.0, 1.0))


def test_a_mask_of_nested_lists_measures_as_its_array():
    # write_manifest, detection_report and maskgeom.as_mask take such a mask too
    shape = blob_with_island()
    h, w = shape.shape
    sf = meas.scale_factor(41, 44)
    coin = det(ClassLabel.COIN, 0.9, (0, 0, 41, 44), np.ones((44, 41), np.uint8))
    as_array = [coin, det(ClassLabel.SINGARA, 0.9, (0, 0, w, h), shape)]
    as_lists = [coin, det(ClassLabel.SINGARA, 0.9, (0, 0, w, h), shape.tolist()),
                det(ClassLabel.PURI, 0.9, mask=[[0, 0], [0, 0]])]
    expected = meas.extract_features(as_array, sf)
    assert len(expected) == 1
    assert meas.extract_features(as_lists, sf) == expected
    assert meas.extract_batch([(as_lists, sf), (as_array, sf)]) == [expected, expected]


def test_all_zero_mask_of_any_shape_is_skipped(caplog):
    dets = [det(ClassLabel.PURI, 0.9, mask=np.zeros(s, np.uint8)) for s in [(640, 640), (4,), (1, 1)]]
    with caplog.at_level("WARNING"):
        assert meas.extract_features(dets, meas.ScaleFactor(1.0, 1.0, 1.0)) == []
    assert caplog.text.count("empty mask") == 3


# ---------------------------------------------------------------------------
# calorie_label


def test_singara_density_from_table():
    assert meas.calorie_label(100.0, ClassLabel.SINGARA) == pytest.approx(261.0)


def test_peaju_density_from_table():
    assert meas.calorie_label(50.0, ClassLabel.PEAJU) == pytest.approx(59.0)


def test_zero_weight_zero_calories():
    for label in meas.FOOD_CLASSES:
        assert meas.calorie_label(0.0, label) == 0.0


def test_coin_has_no_density():
    with pytest.raises(UnknownDensity):
        meas.calorie_label(10.0, ClassLabel.COIN)


def test_calorie_label_linear_in_weight():
    rng = np.random.default_rng(1)
    for _ in range(20):
        w = float(rng.uniform(0, 500))
        label = meas.FOOD_CLASSES[rng.integers(0, 5)]
        assert meas.calorie_label(2 * w, label) == 2 * meas.calorie_label(w, label)


def test_default_densities_cover_food_classes():
    assert set(meas.DEFAULT_DENSITIES) == set(meas.FOOD_CLASSES)
    assert all(d > 0 for d in meas.DEFAULT_DENSITIES.values())
