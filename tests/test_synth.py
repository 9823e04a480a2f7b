import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foodcal import manifests, maskgeom, measurement, preprocess, synth
from foodcal.errors import PlacementFailure
from foodcal.measurement import FOOD_CLASSES, ClassLabel

import mask_oracles


def noiseless_cfg(**kw):
    return synth.SceneConfig(boundary_noise=0.0, **kw)


def scene_food_pairs(scene):
    """(record, truth) pairs for the food instances of one scene."""
    scale = measurement.scale_from_detections(scene.instances)
    recs = measurement.extract_features(scene.instances, scale)
    truths = [t for t in scene.truth.instances if t.label is not ClassLabel.COIN]
    return list(zip(recs, truths)), scene.truth.mm_per_px


# ---------------------------------------------------------------------------
# scene structure and determinism


def test_same_seed_identical_scene():
    cfg = synth.SceneConfig()
    a = synth.generate_scene(cfg, 3)
    b = synth.generate_scene(cfg, 3)
    assert len(a.instances) == len(b.instances)
    for ia, ib in zip(a.instances, b.instances):
        assert ia.label is ib.label and ia.bbox == ib.bbox and ia.confidence == ib.confidence
        assert np.array_equal(ia.mask, ib.mask)
    assert a.truth == b.truth


def test_exactly_one_coin_per_scene():
    cfg = synth.SceneConfig()
    for seed in range(10):
        scene = synth.generate_scene(cfg, seed)
        coins = [i for i in scene.instances if i.label is ClassLabel.COIN]
        assert len(coins) == 1
        assert scene.instances[0].label is ClassLabel.COIN


def test_masks_are_disjoint():
    scene = synth.generate_scene(synth.SceneConfig(), 5)
    total = np.zeros((scene.height, scene.width), dtype=np.int32)
    for inst in scene.instances:
        total += inst.mask
    assert total.max() == 1


def test_placement_failure_when_too_crowded():
    cfg = synth.SceneConfig(width=90, height=90, items_per_scene=6, max_placement_tries=30)
    with pytest.raises(PlacementFailure):
        for seed in range(5):
            synth.generate_scene(cfg, seed)


# ---------------------------------------------------------------------------
# placement, checked against np.nonzero on the full-frame masks


def assert_placed_apart(scene):
    """Every bbox is the np.nonzero box of its full-frame mask, no mask
    touches the frame edge or another mask, and the coin's truth box is its
    diameter."""
    h, w = scene.height, scene.width
    assert [i.label for i in scene.instances] == [t.label for t in scene.truth.instances]
    covered = np.zeros((h, w), np.int32)
    for inst in scene.instances:
        assert inst.mask.shape == (h, w)
        ys, xs = np.nonzero(inst.mask)
        assert inst.bbox == (xs.min(), ys.min(), xs.max() - xs.min() + 1, ys.max() - ys.min() + 1)
        assert 0 < xs.min() and xs.max() < w - 1 and 0 < ys.min() and ys.max() < h - 1
        covered += inst.mask
    assert covered.max() == 1
    coin, coin_truth = scene.instances[0], scene.truth.instances[0]
    assert coin.label is ClassLabel.COIN
    assert coin_truth.bbox_w_px == coin_truth.bbox_h_px == coin.bbox[2] == coin.bbox[3]
    assert coin_truth.bbox_w_px == pytest.approx(measurement.COIN_DIAMETER_MM / scene.truth.mm_per_px, rel=1e-12)


@pytest.mark.parametrize(
    "cfg",
    [
        synth.SceneConfig(),
        synth.SceneConfig(width=400, height=256, boundary_noise=0.0),
        synth.SceneConfig(width=240, height=320, items_per_scene=2, boundary_noise=0.06),
    ],
    ids=["default", "wide-noiseless", "tall-noisy"],
)
def test_scenes_place_instances_inside_the_frame_and_apart(cfg):
    for seed in range(40):
        assert_placed_apart(synth.generate_scene(cfg, seed))


@pytest.mark.parametrize(
    "cfg",
    [
        synth.SceneConfig(width=150, height=90, items_per_scene=4, coin_radius_range=(8.0, 12.0),
                          max_placement_tries=15, boundary_noise=0.05),
        # the margin is clamped to the strip's height, so triangles whose apex
        # points down or right overhang only the far edge
        synth.SceneConfig(width=160, height=32, items_per_scene=2, coin_radius_range=(8.0, 10.0),
                          max_placement_tries=30, boundary_noise=0.05),
    ],
    ids=["crowded", "strip"],
)
def test_small_scenes_retry_and_reseed_yet_place_apart(monkeypatch, cfg):
    rasters = []
    real = synth._rasterize
    monkeypatch.setattr(synth, "_rasterize", lambda *a: rasters.append(a) or real(*a))
    rng = np.random.default_rng(11)
    retried = reseeded = 0
    for seed in range(40):
        items = [synth.draw_item(rng, FOOD_CLASSES[(seed + k) % 5], cfg) for k in range(cfg.items_per_scene)]
        try:
            synth.generate_scene(cfg, seed, items)
        except PlacementFailure:
            reseeded += 1
        before = len(rasters)
        scene = synth._scene_with_retries(cfg, seed, items)
        retried += len(rasters) - before > len(scene.instances)
        assert_placed_apart(scene)
    assert retried > 5 and reseeded > 0


def test_a_try_whose_core_meets_an_earlier_instance_resolves_no_band(monkeypatch):
    # the core, the raster at the largest jitter scale s_hi, lies inside
    # every raster the jitter can give: a try whose core overlaps is
    # rejected before the jitter is evaluated on any pixel, and every other
    # try resolves its band as before
    cfg = synth.SceneConfig(width=150, height=90, items_per_scene=4, coin_radius_range=(8.0, 12.0),
                            max_placement_tries=15, boundary_noise=0.05)
    tries, renders = [], []
    real_raster, real_jitter, real_scene = synth._rasterize, synth._jitter_field, synth.generate_scene

    def rasterize(shape, height, width, jitter=None, occupied=None):
        window, inside = real_raster(shape, height, width, jitter, occupied)
        tries.append((shape, jitter, occupied.copy(), inside))
        return window, inside

    monkeypatch.setattr(synth, "_rasterize", rasterize)
    monkeypatch.setattr(synth, "_jitter_field", lambda *a: CountingJitter(real_jitter(*a)))
    monkeypatch.setattr(synth, "generate_scene", lambda *a: renders.append(a) or real_scene(*a))
    rng = np.random.default_rng(11)
    for seed in range(20):
        items = [synth.draw_item(rng, FOOD_CLASSES[(seed + k) % 5], cfg) for k in range(cfg.items_per_scene)]
        assert_placed_apart(synth._scene_with_retries(cfg, seed, items))
    ys, xs = np.mgrid[0 : cfg.height, 0 : cfg.width]
    rejected = 0
    for shape, jitter, occupied, inside in tries:
        if jitter is None:  # the coin, placed first
            assert not occupied.any() and inside is not None
            continue
        s_hi = (1.0 + 1e-9) / (1.0 - jitter.amplitude)
        core = shape.contains((xs - shape.cx) * s_hi, (ys - shape.cy) * s_hi)
        if (core & occupied).any():
            rejected += 1
            assert inside is None and jitter.pixels == 0
        else:
            assert inside is not None and jitter.pixels > 0
    assert rejected > 20 and len(renders) > 20  # some scenes were re-seeded


# ---------------------------------------------------------------------------
# the foreground each instance carries


def test_a_turned_instance_writes_and_measures_its_turned_mask(tmp_path):
    # synth gives each instance the foreground of its mask; an instance
    # turned with replace, as perfbench's rotated_180 makes it, must be cut
    # to the foreground of its own mask, as a freshly built one is
    scene = synth.generate_scene(synth.SceneConfig(), 4)
    h, w = scene.height, scene.width
    turned, fresh = [], []
    for d in scene.instances:
        (crop, origin), (own_crop, own_origin) = d.foreground, maskgeom.foreground(d.mask, d.origin)
        assert np.array_equal(crop, own_crop) and origin == own_origin
        same = measurement.DetectionInstance(d.label, d.bbox, d.confidence, d.mask, d.origin, d.calories_kcal)
        assert d == same and repr(d) == repr(same)  # the window is no field
        bbox = (w - d.bbox[0] - d.bbox[2], h - d.bbox[1] - d.bbox[3], d.bbox[2], d.bbox[3])
        mask = np.ascontiguousarray(d.mask[::-1, ::-1])
        turned.append(replace(d, bbox=bbox, mask=mask))
        fresh.append(measurement.DetectionInstance(d.label, bbox, d.confidence, mask.copy(),
                                                   calories_kcal=d.calories_kcal))
    assert [d.bbox for d in turned] != [d.bbox for d in scene.instances]
    written = []
    for name, dets in (("turned", turned), ("fresh", fresh)):
        path = manifests.write_manifest(tmp_path / name / "annotations.json",
                                        [manifests.ImageAnnotations("scene", w, h, dets)])
        written.append(path.read_bytes())
    assert written[0] == written[1]
    scale = measurement.scale_from_detections(fresh)
    want = measurement.extract_features(fresh, scale)
    assert len(want) == len(fresh) - 1
    assert [(r, r.instance) for r in measurement.extract_features(turned, scale)] == [(r, r.instance) for r in want]


# ---------------------------------------------------------------------------
# coin scale recovery


def test_scale_recovery_exact_for_even_diameter_coins():
    # coin bbox equals the nominal diameter by construction, so the
    # recovered factor is exact, well within the 2% discretization bound
    cfg = noiseless_cfg()
    for seed in range(100):
        scene = synth.generate_scene(cfg, seed)
        assert scene.instances[0].bbox[2] >= 40
        sf = measurement.scale_from_detections(scene.instances)
        assert abs(sf.s_f - scene.truth.mm_per_px) / scene.truth.mm_per_px < 0.02
        assert sf.s_f == pytest.approx(scene.truth.mm_per_px, rel=1e-12)


# ---------------------------------------------------------------------------
# rasterization fidelity


def test_ellipse_raster_pixel_area_within_3_percent():
    rng = np.random.default_rng(0)
    for _ in range(30):
        a = float(rng.uniform(20, 55))
        b = float(rng.uniform(20, a + 1))
        theta = float(rng.uniform(0, math.pi))
        e = synth._Ellipse(120.3, 119.7, a, b, theta)
        _, mask = synth._rasterize(e, 260, 260)
        assert abs(int(mask.sum()) - math.pi * a * b) / (math.pi * a * b) < 0.03


def test_ellipse_contour_area_matches_half_pixel_inset():
    # the traced polygon passes through boundary pixel centers, a half-pixel
    # inside the true boundary; the analytic inset area is A - P/2
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = float(rng.uniform(20, 55))
        b = float(rng.uniform(20, a + 1))
        e = synth._Ellipse(120.0, 120.0, a, b, float(rng.uniform(0, math.pi)))
        _, mask = synth._rasterize(e, 260, 260)
        stats = maskgeom.shape_stats(maskgeom.trace_contour(mask))
        area, perim, _, _ = e.truth()
        assert stats.area_px == pytest.approx(area - perim / 2.0, rel=0.05)


def full_frame_raster(shape, height, width, jitter=None):
    """The oracle: the angle and the jitter on every pixel of the frame."""
    ys, xs = np.mgrid[0:height, 0:width]
    dx = xs - shape.cx
    dy = ys - shape.cy
    if jitter is not None:
        phi = np.arctan2(dy, dx)
        scale = 1.0 / (1.0 + jitter(phi))
        dx = dx * scale
        dy = dy * scale
    return shape.contains(dx, dy)


def framed_raster(shape, height, width, jitter=None):
    frame = np.zeros((height, width), dtype=bool)
    window, inside = synth._rasterize(shape, height, width, jitter)
    frame[window] = inside
    return frame


ORACLE_H, ORACLE_W = 96, 112


@st.composite
def shapes(draw):
    """A shape of any family, up to most of the frame's size, centred
    anywhere from just outside the frame to just inside its far edge."""
    family = draw(st.sampled_from(["disk", "ellipse", "rectangle", "triangle"]))
    size = draw(st.floats(1.5, 48.0))
    aspect = draw(st.floats(0.3, 1.0))
    rotation = draw(st.floats(0.0, 2.0 * math.pi))
    cx = draw(st.floats(-6.0, ORACLE_W + 6.0))
    cy = draw(st.floats(-6.0, ORACLE_H + 6.0))
    if family == "disk":
        return synth._Disk(cx, cy, size)
    if family == "ellipse":
        return synth._Ellipse(cx, cy, size, size * aspect, rotation)
    if family == "rectangle":
        return synth._Rectangle(cx, cy, size, size * aspect)
    return synth._Triangle(cx, cy, 2 * size, 2 * size * aspect, rotation)


@pytest.mark.parametrize("amplitude", [0.0, 0.02, 0.05, 0.3, 0.9])
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(shape=shapes(), seed=st.integers(0, 2**32))
# at 0.3 this wave pushes the disk's edge past 1.2 times its radius plus 2 px,
# so a window of that fixed size would clip it
@example(shape=synth._Disk(56.0, 48.0, 40.0), seed=8)
def test_window_raster_equals_the_full_frame_oracle(amplitude, shape, seed):
    jitter = synth._jitter_field(np.random.default_rng(seed), amplitude)
    got = framed_raster(shape, ORACLE_H, ORACLE_W, jitter)
    assert np.array_equal(got, full_frame_raster(shape, ORACLE_H, ORACLE_W, jitter))


class CountingJitter:
    def __init__(self, jitter):
        self.jitter = jitter
        self.amplitude = jitter.amplitude
        self.pixels = 0

    def __call__(self, phi):
        self.pixels += phi.size
        return self.jitter(phi)


@pytest.mark.parametrize(
    "shape",
    [
        synth._Disk(100.5, 100.5, 25.0),
        synth._Ellipse(100.3, 99.8, 40.0, 24.0, 0.7),
        synth._Rectangle(100.2, 100.6, 30.0, 18.0),
        synth._Triangle(99.6, 100.1, 60.0, 50.0, 2.1),
    ],
    ids=["disk", "ellipse", "rectangle", "triangle"],
)
def test_jitter_runs_only_on_the_boundary_band(shape):
    for seed in range(5):
        jitter = CountingJitter(synth._jitter_field(np.random.default_rng(seed), 0.02))
        (rows, cols), inside = synth._rasterize(shape, 200, 200, jitter)
        assert np.array_equal(inside, full_frame_raster(shape, 200, 200, jitter.jitter)[rows, cols])
        assert 0 < jitter.pixels <= 0.25 * inside.size


@pytest.mark.parametrize("amplitude", [0.0, 0.02, 0.3, 0.9])
@pytest.mark.parametrize(
    "shape, box",
    [
        (synth._Rectangle(100.2, 100.6, 30.0, 18.0), (-30.0, 30.0, -18.0, 18.0)),
        # apex up: vertices (0, -30), (30, 15) and (-30, 15) about the centroid
        (synth._Triangle(99.6, 100.1, 60.0, 45.0, 0.0), (-30.0, 30.0, -30.0, 15.0)),
    ],
    ids=["rectangle", "triangle"],
)
def test_window_is_the_box_grown_by_the_jitter(shape, box, amplitude):
    assert shape.box() == box
    x_min, x_max, y_min, y_max = (v * (1.0 + amplitude) for v in box)
    rows, cols = synth._window(shape, 300, 300, amplitude)
    # 2 px on each side, plus less than 1 px of rounding to whole pixels
    assert rows.start > shape.cy + y_min - 3.0 and rows.stop - 1 < shape.cy + y_max + 3.0
    assert cols.start > shape.cx + x_min - 3.0 and cols.stop - 1 < shape.cx + x_max + 3.0


def cross_product_contains(triangle, dx, dy):
    """The triangle's inside test as three cross products, each >= 0."""
    v = triangle.vertices
    inside = np.ones(np.broadcast(dx, dy).shape, dtype=bool)
    for (x1, y1), (x2, y2) in zip(v, v[1:] + v[:1]):
        inside &= (x2 - x1) * (dy - y1) - (y2 - y1) * (dx - x1) >= 0.0
    return inside


@pytest.mark.parametrize(
    "triangle",
    [
        synth._Triangle(0.0, 0.0, 60.0, 45.0, 0.0),
        synth._Triangle(0.0, 0.0, 60.0, 50.0, 2.1),
        synth._Triangle(0.0, 0.0, 7.3, 1.1, 4.0),
        synth._Triangle(0.0, 0.0, 40.0, 40.0, math.pi / 2),
    ],
    ids=["apex-up", "turned", "thin", "quarter-turn"],
)
def test_triangle_contains_is_the_cross_product_test_bit_for_bit(triangle):
    v = np.array(triangle.vertices)
    t = np.linspace(0.0, 1.0, 41)[:, None]
    on_edges = np.concatenate([a + t * (b - a) for a, b in zip(v, np.roll(v, -1, axis=0))])
    points = np.concatenate([v, on_edges, on_edges + 1e-12, on_edges - 1e-12])
    got = triangle.contains(points[:, 0], points[:, 1])
    assert got.dtype == bool and np.array_equal(got, cross_product_contains(triangle, points[:, 0], points[:, 1]))
    assert triangle.contains(v[:, 0], v[:, 1]).all()  # a vertex lies on two edges
    grid = np.arange(-40.0, 40.5, 0.5)
    dx, dy = grid[None, :], grid[:, None]
    assert np.array_equal(triangle.contains(dx, dy), cross_product_contains(triangle, dx, dy))


def test_apex_up_triangle_holds_its_edges():
    # on this triangle the points of each edge at integer steps are exact floats
    triangle = synth._Triangle(0.0, 0.0, 60.0, 45.0, 0.0)
    steps = np.arange(0.0, 31.0)
    dx = np.concatenate([steps, -steps, 2 * steps - 30.0])
    dy = np.concatenate([1.5 * steps - 30.0, 1.5 * steps - 30.0, np.full(31, 15.0)])
    assert triangle.contains(dx, dy).all()
    assert not triangle.contains(dx * (1 + 1e-9), dy * (1 + 1e-9))[[5, 36, 72]].any()


@pytest.mark.parametrize("amplitude", [-0.1, 1.0, 1.5, math.nan])
def test_boundary_noise_outside_unit_interval_is_rejected(amplitude):
    with pytest.raises(ValueError, match="boundary noise must be in"):
        synth.generate_scene(synth.SceneConfig(boundary_noise=amplitude), 0)


# ---------------------------------------------------------------------------
# pipeline features vs analytic truth (noiseless shapes, >= 30 px)


def test_bbox_features_within_5_percent_of_truth():
    cfg = noiseless_cfg()
    for seed in range(40):
        pairs, s = scene_food_pairs(synth.generate_scene(cfg, seed))
        for rec, tr in pairs:
            assert min(tr.bbox_w_px, tr.bbox_h_px) >= 30
            assert rec.height_mm == pytest.approx(tr.bbox_h_px * s, rel=0.05)
            assert rec.width_mm == pytest.approx(tr.bbox_w_px * s, rel=0.05)


def test_area_feature_within_5_percent_of_inset_truth():
    cfg = noiseless_cfg()
    for seed in range(40):
        pairs, s = scene_food_pairs(synth.generate_scene(cfg, seed))
        for rec, tr in pairs:
            inset = (tr.area_px - tr.perimeter_px / 2.0) * s * s
            assert rec.area_mm2 == pytest.approx(inset, rel=0.05)


def test_perimeter_feature_within_chain_length_bounds():
    # an 8-connected chain measures diagonal-ish smooth arcs up to
    # cos(22.5deg) + (sqrt(2)-1) sin(22.5deg) ~ 1.0824 times their length,
    # while pixel-center tracing shortens it slightly
    cfg = noiseless_cfg()
    for seed in range(40):
        pairs, s = scene_food_pairs(synth.generate_scene(cfg, seed))
        for rec, tr in pairs:
            ratio = rec.perimeter_mm / (tr.perimeter_px * s)
            assert 0.95 <= ratio <= 1.085


# ---------------------------------------------------------------------------
# dataset generation


def test_dataset_row_count_and_balance():
    cfg = synth.SceneConfig()
    records, _ = synth.generate_regression_dataset(cfg, 644, seed=0)
    assert len(records) == 644
    counts = {label: 0 for label in FOOD_CLASSES}
    for r in records:
        counts[r.label] += 1
    assert max(counts.values()) - min(counts.values()) <= 2 * cfg.views_per_item


def test_dataset_calories_positive_and_linear_in_weight():
    cfg = synth.SceneConfig()
    records, scenes = synth.generate_regression_dataset(cfg, 120, seed=1)
    assert all(r.calories_kcal > 0 for r in records)
    for scene in scenes[:10]:
        for det, t in zip(scene.instances, scene.truth.instances, strict=True):
            if t.label is ClassLabel.COIN:
                assert det.calories_kcal is None
                continue
            rate = measurement.DEFAULT_DENSITIES[t.label]
            assert det.calories_kcal == pytest.approx(t.weight_g * rate, rel=1e-12)


def test_dataset_regeneration_bit_identical(tmp_path):
    cfg = synth.SceneConfig()
    a, _ = synth.generate_regression_dataset(cfg, 90, seed=7)
    b, _ = synth.generate_regression_dataset(cfg, 90, seed=7)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    preprocess.write_csv(pa, a)
    preprocess.write_csv(pb, b)
    assert pa.read_bytes() == pb.read_bytes()


def per_scene_dataset(cfg, n_records, seed):
    """``generate_regression_dataset`` as it was before scenes were measured
    in a batch: each scene measured as it is rendered, one mask at a time,
    and rendering stopped once the records are there. Also returns how many
    food instances the last scene dropped."""
    cfg = replace(cfg, seed=seed)
    views = max(1, cfg.views_per_item)
    group_size = max(1, cfg.items_per_scene)
    item_rng = np.random.default_rng((seed, 0x17E6))
    cycle, items = [], []
    for _ in range(-(-n_records // views)):
        if not cycle:
            cycle = [FOOD_CLASSES[j] for j in item_rng.permutation(len(FOOD_CLASSES))]
        items.append(synth.draw_item(item_rng, cycle.pop(0), cfg))
    groups = [items[i : i + group_size] for i in range(0, len(items), group_size)]
    records, scenes, surplus = [], [], set()
    for scene_idx in range(views * len(groups)):
        scene = synth._scene_with_retries(cfg, scene_idx, groups[scene_idx % len(groups)])
        records += mask_oracles.scene_records(scene)
        surplus = {rec.instance for rec in records[n_records:]}
        if surplus:
            keep = [k for k in range(len(scene.instances)) if k not in surplus]
            scene = replace(
                scene,
                instances=[scene.instances[k] for k in keep],
                truth=replace(scene.truth, instances=[scene.truth.instances[k] for k in keep]),
            )
        scenes.append(scene)
        if len(records) >= n_records:
            break
    return records[:n_records], scenes, len(surplus)


def assert_same_scenes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.width, a.height, a.seed, a.truth) == (b.width, b.height, b.seed, b.truth)
        assert len(a.instances) == len(b.instances)
        for da, db in zip(a.instances, b.instances):
            assert (da.label, da.bbox, da.confidence, da.origin, da.calories_kcal) == (
                db.label, db.bbox, db.confidence, db.origin, db.calories_kcal)
            assert np.array_equal(da.mask, db.mask)


@pytest.mark.parametrize(
    "cfg, n_records",
    [
        (synth.SceneConfig(), 61),
        (synth.SceneConfig(width=256, height=288, views_per_item=3, boundary_noise=0.03), 41),
        (synth.SceneConfig(width=640, height=640), 23),
    ],
    ids=["default", "256x288-noisy", "640"],
)
def test_dataset_matches_the_per_scene_oracle(cfg, n_records):
    # every scene rendered first and measured in one batch: the same records,
    # the same scenes and the same surplus cut as measuring scene by scene
    records, scenes = synth.generate_regression_dataset(cfg, n_records, seed=5)
    want_records, want_scenes, cut = per_scene_dataset(cfg, n_records, seed=5)
    assert len(records) == n_records and cut > 0
    assert [(r, r.instance) for r in records] == [(r, r.instance) for r in want_records]
    assert_same_scenes(scenes, want_scenes)
    assert sum(d.label is not ClassLabel.COIN for s in scenes for d in s.instances) == n_records


def test_dataset_with_empty_masks_renders_until_the_masks_fill_the_records(monkeypatch):
    # a blank mask gives no record, so rendering goes on past the scene whose
    # food instances could fill the records; the result is still the
    # per-scene one, measured in one batch
    real = synth.generate_scene

    def blank_foods(cfg, seed, items=None):
        scene = real(cfg, seed, items)
        for k in range(1, len(scene.instances), 2):
            scene.instances[k] = replace(scene.instances[k], mask=np.zeros_like(scene.instances[k].mask))
        return scene

    monkeypatch.setattr(synth, "generate_scene", blank_foods)
    batches = []
    real_batch = measurement.extract_batch
    monkeypatch.setattr(measurement, "extract_batch", lambda images: batches.append(len(images)) or real_batch(images))
    cfg = synth.SceneConfig(views_per_item=4)
    # 5 items of 4 views, in scenes of 3 and 2: 7 scenes hold 17 foods, but
    # their masks do not fill the records, so all 8 scenes are rendered
    records, scenes = synth.generate_regression_dataset(cfg, 17, seed=2)
    want_records, want_scenes, _ = per_scene_dataset(cfg, 17, seed=2)
    assert batches == [8] and len(records) == 8
    assert [(r, r.instance) for r in records] == [(r, r.instance) for r in want_records]
    assert_same_scenes(scenes, want_scenes)


def test_multi_view_items_share_calorie_label():
    cfg = synth.SceneConfig(items_per_scene=1, views_per_item=4)
    records, _ = synth.generate_regression_dataset(cfg, 40, seed=3)
    # 10 items x 4 views, grouped per round: views v of item i appear at
    # index v * 10 + i
    n_items = 10
    for i in range(n_items):
        cals = {round(records[v * n_items + i].calories_kcal, 9) for v in range(4)}
        labels = {records[v * n_items + i].label for v in range(4)}
        assert len(cals) == 1 and len(labels) == 1


def test_blank_mask_does_not_shift_calorie_labels(monkeypatch):
    # extract_features skips an instance whose mask is empty; the items after
    # it in the same scene must keep their own calorie labels
    real = synth.generate_scene

    def blank_first_food(cfg, seed, items=None):
        scene = real(cfg, seed, items)
        if seed == 0:
            det = scene.instances[1]
            scene.instances[1] = replace(det, mask=np.zeros_like(det.mask))
        return scene

    monkeypatch.setattr(synth, "generate_scene", blank_first_food)
    records, scenes = synth.generate_regression_dataset(synth.SceneConfig(views_per_item=1), 6, seed=3)
    expected = [det.calories_kcal for s in scenes for det in s.instances[1:]]
    del expected[0]  # the blanked item
    assert [r.calories_kcal for r in records] == expected


def test_views_of_one_item_vary_in_features():
    cfg = synth.SceneConfig(items_per_scene=1, views_per_item=4)
    records, _ = synth.generate_regression_dataset(cfg, 40, seed=3)
    heights = {round(records[v * 10].height_mm, 6) for v in range(4)}
    assert len(heights) > 1


def test_thickness_constants_positive():
    for label in FOOD_CLASSES:
        assert synth.THICKNESS_G_PER_MM2[label] > 0
