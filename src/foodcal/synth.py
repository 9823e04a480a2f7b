"""Seeded synthetic scenes with analytic ground truth.

Food items are physical objects described in millimetres (shape family,
extent, aspect, weight); a scene renders items next to a reference coin and
the coin's pixel diameter fixes the scene's true mm/px scale. The dataset
generator mirrors the multi-view protocol: each item appears in
``views_per_item`` scenes with a fresh rotation, placement, coin, and
boundary jitter, so its calorie label stays constant while the measured
features vary view to view.

The coin renders with an even pixel diameter centered on the half-integer
grid, making its rasterized bounding box exactly the nominal diameter, so
true mm/px = 25.5 / diameter_px. Weight model: weight_g = nominal area_mm2
* class thickness (g/mm^2) * (1 + u), u uniform in +-weight_noise, drawn
once per item; calories = weight * class density.

Each shape is rasterized only over its window: its nominal bounding box
scaled by 1 + a about its centre and grown by 2 px, where a < 1 is the
boundary jitter's amplitude, because a jittered offset p is inside when
p / (1 + j(phi)) is inside the nominal shape and |j| <= a. Every shape is
star-convex about its centre (each family is convex and holds it), so the
jitter can only change the pixels of a thin band around the nominal
boundary; the angle and the jitter are evaluated there alone. The pixels
within the band's inner edge are the sure-inside core, which every
jittered raster holds, so a placement try whose core overlaps an earlier
instance is rejected before its band is resolved. An accepted instance
carries its ``DetectionInstance.foreground``: a view of its frame cut to
the tight box that placement found, and that box's top-left pixel.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from foodcal import maskgeom, measurement
from foodcal.errors import PlacementFailure
from foodcal.measurement import (
    COIN_DIAMETER_MM,
    ClassLabel,
    DetectionInstance,
    FeatureRecord,
    FOOD_CLASSES,
)

SHAPE_FAMILIES = {
    ClassLabel.SINGARA: "triangle",
    ClassLabel.SOMUSA: "triangle",
    ClassLabel.PURI: "ellipse",
    ClassLabel.PEAJU: "ellipse",
    ClassLabel.BEGUNI: "rectangle",
}

# Portion calibration. Per-class top-view area bands tile [600, 1200] mm^2
# geometrically (constant band ratio), and the calorie bands tile [30, 60]
# kcal in the reverse class order, which pins each class's kcal-per-mm2
# rate. Geometric tiling keeps both pooled distributions compact (max |z|
# below the filtering threshold of 2 for everything except measurement
# error), while the reversed assignment yields a ~3x rate spread: the
# class-area interaction that separates the ensemble models from a single
# global linear fit.
_AREA_TOTAL_MM2 = (600.0, 1200.0)
_CAL_TOTAL_KCAL = (30.0, 60.0)
_AREA_ORDER = (
    ClassLabel.PEAJU,
    ClassLabel.BEGUNI,
    ClassLabel.SOMUSA,
    ClassLabel.SINGARA,
    ClassLabel.PURI,
)


def _geometric_bands(lo, hi, n=5):
    ratio = (hi / lo) ** (1.0 / n)
    return [(lo * ratio**k, lo * ratio ** (k + 1)) for k in range(n)]


_AREA_BANDS_MM2 = dict(zip(_AREA_ORDER, _geometric_bands(*_AREA_TOTAL_MM2)))
_CAL_BANDS_KCAL = dict(zip(reversed(_AREA_ORDER), _geometric_bands(*_CAL_TOTAL_KCAL)))
_CAL_RATE_PER_MM2 = {
    label: _CAL_BANDS_KCAL[label][0] / _AREA_BANDS_MM2[label][0] for label in _AREA_ORDER
}

# grams per square millimetre, derived so weight * density hits the class's
# calorie band
THICKNESS_G_PER_MM2 = {
    label: _CAL_RATE_PER_MM2[label] / measurement.DEFAULT_DENSITIES[label]
    for label in FOOD_CLASSES
}


@dataclass(frozen=True)
class SceneConfig:
    width: int = 320
    height: int = 320
    coin_radius_range: tuple[float, float] = (20.0, 30.0)  # px; diameter forced even
    items_per_scene: int = 3
    views_per_item: int = 10
    boundary_noise: float = 0.02  # radial perturbation, fraction of radius, in [0, 1)
    weight_noise: float = 0.05
    seed: int = 0
    max_placement_tries: int = 200


@dataclass(frozen=True)
class FoodItem:
    """A physical item: fixed mm geometry and a fixed calorie content."""

    label: ClassLabel
    extent_mm: float
    aspect: float
    height_ratio: float  # triangles: height / base
    weight_g: float
    calories_kcal: float
    area_mm2: float
    perimeter_mm: float


@dataclass(frozen=True)
class InstanceTruth:
    """Per-view analytic geometry in pixels (unperturbed shape) plus the
    item's weight; its calorie label is on the scene's instance."""

    label: ClassLabel
    area_px: float
    perimeter_px: float
    bbox_w_px: float
    bbox_h_px: float
    weight_g: float | None = None


@dataclass(frozen=True)
class SceneTruth:
    mm_per_px: float
    instances: list[InstanceTruth]


@dataclass
class Scene:
    width: int
    height: int
    seed: int
    instances: list[DetectionInstance]  # coin first, then foods, masks and calorie labels attached
    truth: SceneTruth


# ---------------------------------------------------------------------------
# shape machinery


class _Shape:
    """Shape star-convex about its centre (cx, cy), with an exact inside
    test on centered offsets; ``truth`` gives the analytic geometry of the
    nominal (unjittered) boundary and ``box`` its bounding box, which
    holds the centre. ``_rasterize`` relies on the star convexity:
    ``contains(p * s)`` can only turn false as s grows."""

    def __init__(self, cx, cy, rotation=0.0):
        self.cx = cx
        self.cy = cy
        self.rotation = rotation

    def contains(self, dx, dy):
        raise NotImplementedError

    def box(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max) offsets of the nominal shape about
        its centre."""
        raise NotImplementedError

    def truth(self) -> tuple[float, float, float, float]:
        """(area, perimeter, bbox_w, bbox_h) of the nominal shape."""
        raise NotImplementedError


class _Disk(_Shape):
    def __init__(self, cx, cy, radius):
        super().__init__(cx, cy)
        self.radius = radius

    def contains(self, dx, dy):
        return dx * dx + dy * dy <= self.radius * self.radius

    def box(self):
        return -self.radius, self.radius, -self.radius, self.radius

    def truth(self):
        r = self.radius
        return math.pi * r * r, 2 * math.pi * r, 2 * r, 2 * r


class _Ellipse(_Shape):
    def __init__(self, cx, cy, a, b, rotation):
        super().__init__(cx, cy, rotation)
        self.a = a
        self.b = b

    def contains(self, dx, dy):
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        u = dx * c + dy * s
        v = -dx * s + dy * c
        return (u / self.a) ** 2 + (v / self.b) ** 2 <= 1.0

    def box(self):
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        w = math.sqrt((self.a * c) ** 2 + (self.b * s) ** 2)
        h = math.sqrt((self.a * s) ** 2 + (self.b * c) ** 2)
        return -w, w, -h, h

    def truth(self):
        a, b = self.a, self.b
        area = math.pi * a * b
        perimeter = math.pi * (3 * (a + b) - math.sqrt((3 * a + b) * (a + 3 * b)))  # Ramanujan
        _, w, _, h = self.box()
        return area, perimeter, 2 * w, 2 * h


class _Rectangle(_Shape):
    def __init__(self, cx, cy, half_w, half_h):
        super().__init__(cx, cy)
        self.half_w = half_w
        self.half_h = half_h

    def contains(self, dx, dy):
        return (np.abs(dx) <= self.half_w) & (np.abs(dy) <= self.half_h)

    def box(self):
        return -self.half_w, self.half_w, -self.half_h, self.half_h

    def truth(self):
        w, h = 2 * self.half_w, 2 * self.half_h
        return w * h, 2 * (w + h), w, h


class _Triangle(_Shape):
    """Isoceles triangle, apex up before rotation, centroid at the origin."""

    def __init__(self, cx, cy, base, height, rotation):
        super().__init__(cx, cy, rotation)
        self.base = base
        self.height = height
        c, s = math.cos(rotation), math.sin(rotation)
        local = [
            (0.0, -2.0 * height / 3.0),
            (base / 2.0, height / 3.0),
            (-base / 2.0, height / 3.0),
        ]
        self.vertices = [(x * c - y * s, x * s + y * c) for x, y in local]

    def contains(self, dx, dy):
        # inside or on each edge: cross product A - B >= 0, tested as A >= B (the same bits)
        (x1, y1), (x2, y2), (x3, y3) = self.vertices
        return (
            ((x2 - x1) * (dy - y1) >= (y2 - y1) * (dx - x1))
            & ((x3 - x2) * (dy - y2) >= (y3 - y2) * (dx - x2))
            & ((x1 - x3) * (dy - y3) >= (y1 - y3) * (dx - x3))
        )

    def box(self):
        xs, ys = zip(*self.vertices)
        return min(xs), max(xs), min(ys), max(ys)

    def truth(self):
        v = self.vertices
        area = 0.0
        perimeter = 0.0
        for i in range(3):
            x1, y1 = v[i]
            x2, y2 = v[(i + 1) % 3]
            area += x1 * y2 - x2 * y1
            perimeter += math.hypot(x2 - x1, y2 - y1)
        x_min, x_max, y_min, y_max = self.box()
        return abs(area) / 2.0, perimeter, x_max - x_min, y_max - y_min


def _shape_for(label, extent, aspect, height_ratio, rotation, cx, cy) -> _Shape:
    family = SHAPE_FAMILIES[label]
    if family == "ellipse":
        return _Ellipse(cx, cy, extent / 2.0, extent / 2.0 * aspect, rotation)
    if family == "rectangle":
        return _Rectangle(cx, cy, extent / 2.0, extent / 2.0 * aspect)
    return _Triangle(cx, cy, extent, extent * height_ratio, rotation)


def _extent_for_area(label, area, aspect, height_ratio) -> float:
    family = SHAPE_FAMILIES[label]
    if family == "ellipse":
        return math.sqrt(4.0 * area / (math.pi * aspect))
    if family == "rectangle":
        return math.sqrt(area / aspect)
    return math.sqrt(2.0 * area / height_ratio)


def draw_item(rng, label: ClassLabel, cfg: SceneConfig) -> FoodItem:
    """Sample one physical item: mm geometry plus its fixed calorie label.

    The top-view area is uniform over the class's band and the extent is
    derived from it, so the pooled size distribution stays light-tailed."""
    lo, hi = _AREA_BANDS_MM2[label]
    target_area = float(rng.uniform(lo, hi))
    aspect = float(rng.uniform(0.55, 0.9))
    height_ratio = float(rng.uniform(0.75, 1.0))
    extent = _extent_for_area(label, target_area, aspect, height_ratio)
    nominal = _shape_for(label, extent, aspect, height_ratio, 0.0, 0.0, 0.0)
    area_mm2, perimeter_mm, _, _ = nominal.truth()
    weight = (
        area_mm2
        * THICKNESS_G_PER_MM2[label]
        * (1.0 + float(rng.uniform(-cfg.weight_noise, cfg.weight_noise)))
    )
    return FoodItem(
        label=label,
        extent_mm=extent,
        aspect=aspect,
        height_ratio=height_ratio,
        weight_g=weight,
        calories_kcal=measurement.calorie_label(weight, label),
        area_mm2=area_mm2,
        perimeter_mm=perimeter_mm,
    )


class _Jitter:
    """Radial perturbation r(phi) *= 1 + j(phi), with j = amplitude * f(phi)
    and f a unit-bounded two-harmonic wave, so |j| <= amplitude."""

    def __init__(self, rng, amplitude):
        weights = rng.uniform(0.3, 1.0, size=2)
        self.weights = weights / weights.sum()
        self.phases = rng.uniform(0.0, 2.0 * math.pi, size=2)
        self.amplitude = amplitude

    def __call__(self, phi):
        w, p = self.weights, self.phases
        return self.amplitude * (w[0] * np.sin(2 * phi + p[0]) + w[1] * np.sin(3 * phi + p[1]))


def _jitter_field(rng, amplitude):
    """The boundary jitter of one placement try; None when the amplitude is
    zero. At 1 or more, 1 + j could reach 0 and turn the shape inside out."""
    if not 0.0 <= amplitude < 1.0:
        raise ValueError(f"boundary noise must be in [0, 1), got {amplitude!r}")
    return _Jitter(rng, amplitude) if amplitude > 0 else None


def _window(shape: _Shape, height, width, amplitude) -> tuple[slice, slice]:
    """Row and column slices of the frame box that holds every pixel the
    shape can cover, boundary jitter of ``amplitude`` included.

    A jittered offset p is inside when p / (1 + j) is inside the nominal
    shape and |j| <= amplitude, so it lies in the ``box`` scaled by 1 + j,
    within the box scaled by 1 + amplitude as the box holds the centre; 2 px
    more on each side keep rounding off the edge."""
    x_min, x_max, y_min, y_max = (v * (1.0 + amplitude) for v in shape.box())
    y0 = max(0, int(math.floor(shape.cy + y_min - 2.0)))
    y1 = min(height, int(math.ceil(shape.cy + y_max + 2.0)) + 1)
    x0 = max(0, int(math.floor(shape.cx + x_min - 2.0)))
    x1 = min(width, int(math.ceil(shape.cx + x_max + 2.0)) + 1)
    return slice(y0, max(y0, y1)), slice(x0, max(x0, x1))


def _rasterize(
    shape: _Shape, height, width, jitter=None, occupied=None
) -> tuple[tuple[slice, slice], np.ndarray | None]:
    """The shape's ``_window`` of the frame and its boolean raster there.

    With a the jitter's amplitude, the jittered test is ``contains(p * s)``
    with s = 1 / (1 + j) in [1 / (1 + a), 1 / (1 - a)], and
    ``contains(p * s)`` can only turn false as s grows: a pixel inside at
    the largest s is inside, one outside at the smallest s is outside, and
    only the band in between needs the angle and the jitter. The 1e-9 pad
    keeps both bounds clear of rounding.

    The pixels inside at the largest s, the sure-inside core, are inside
    whatever the jitter (without one, they are the raster). ``occupied``
    is the boolean frame of pixels that earlier instances cover, none when
    not given. When the core meets it, the shape would overlap: the raster
    is None, and its band is never resolved."""
    amplitude = 0.0 if jitter is None else jitter.amplitude
    window = _window(shape, height, width, amplitude)
    dx = np.arange(window[1].start, window[1].stop) - shape.cx
    dy = (np.arange(window[0].start, window[0].stop) - shape.cy)[:, None]
    s_hi = 1.0 if jitter is None else (1.0 + 1e-9) / (1.0 - amplitude)
    inside = shape.contains(dx * s_hi, dy * s_hi)
    if occupied is not None and (occupied[window] & inside).any():
        return window, None
    if jitter is None:
        return window, inside
    s_lo = (1.0 - 1e-9) / (1.0 + amplitude)
    ys, xs = np.nonzero(shape.contains(dx * s_lo, dy * s_lo) & ~inside)
    bx, by = dx[xs], dy[ys, 0]
    scale = 1.0 / (1.0 + jitter(np.arctan2(by, bx)))
    inside[ys, xs] = shape.contains(bx * scale, by * scale)
    return window, inside


# ---------------------------------------------------------------------------
# scenes


def generate_scene(
    cfg: SceneConfig, seed: int, items: list[FoodItem] | None = None
) -> Scene:
    """One scene: a coin plus food items, deterministic in (cfg.seed, seed).

    ``items`` pins the physical items (multi-view datasets); otherwise
    ``items_per_scene`` items are drawn from the scene's own stream.
    """
    rng = np.random.default_rng((cfg.seed, seed))

    occupancy = np.zeros((cfg.height, cfg.width), dtype=bool)
    # each instance's full-frame mask is a plane of one zeroed block, one allocation per scene
    masks = np.zeros((1 + (cfg.items_per_scene if items is None else len(items)), cfg.height, cfg.width), np.uint8)
    instances: list[DetectionInstance] = []
    truths: list[InstanceTruth] = []

    def place(label, build_shape, reach, min_confidence, item=None):
        """Draw centres until the shape lands clear of the frame edge and of
        every earlier instance, then append its detection and its truth."""
        margin = min(reach + 2.0, (min(cfg.width, cfg.height) - 2) / 2.0)
        for _ in range(cfg.max_placement_tries):
            cx = float(rng.uniform(margin, cfg.width - margin))
            cy = float(rng.uniform(margin, cfg.height - margin))
            shape, jitter = build_shape(cx, cy)
            window, inside = _rasterize(shape, cfg.height, cfg.width, jitter, occupancy)
            if inside is None:  # its sure-inside core overlaps an earlier instance
                continue
            box = maskgeom.foreground_slices(inside)
            if box is None:
                continue
            y0, y1 = window[0].start + box[0].start, window[0].start + box[0].stop
            x0, x1 = window[1].start + box[1].start, window[1].start + box[1].stop
            touches_edge = y0 == 0 or x0 == 0 or y1 == cfg.height or x1 == cfg.width
            if touches_edge or (occupancy[window] & inside).any():
                continue
            occupancy[window] |= inside
            mask = masks[len(instances)]
            mask[window] = inside
            confidence = round(float(rng.uniform(min_confidence, 1.0)), 6)
            bbox = (x0, y0, x1 - x0, y1 - y0)
            calories = None if item is None else item.calories_kcal
            instances.append(DetectionInstance.with_foreground(
                (mask[y0:y1, x0:x1], (x0, y0)), label, bbox, confidence, mask, calories_kcal=calories))
            truths.append(InstanceTruth(label, *shape.truth(), weight_g=None if item is None else item.weight_g))
            return
        raise PlacementFailure(
            f"could not place an item of reach {reach:.0f}px in a "
            f"{cfg.width}x{cfg.height} scene after {cfg.max_placement_tries} tries"
        )

    # coin first: even diameter, half-integer center, no boundary noise
    lo, hi = cfg.coin_radius_range
    diameter = 2 * int(rng.integers(int(math.ceil(lo)), int(hi) + 1))
    radius = diameter / 2.0
    mm_per_px = COIN_DIAMETER_MM / diameter

    def build_coin(cx, cy):
        return _Disk(math.floor(cx) + 0.5, math.floor(cy) + 0.5, radius), None

    place(ClassLabel.COIN, build_coin, radius, 0.9)

    if items is None:
        labels = [FOOD_CLASSES[i] for i in rng.integers(0, len(FOOD_CLASSES), cfg.items_per_scene)]
        items = [draw_item(rng, label, cfg) for label in labels]

    for item in items:
        rotation = float(rng.uniform(0.0, math.pi))
        extent_px = item.extent_mm / mm_per_px

        def build_food(cx, cy):
            shape = _shape_for(
                item.label, extent_px, item.aspect, item.height_ratio, rotation, cx, cy
            )
            return shape, _jitter_field(rng, cfg.boundary_noise)

        place(item.label, build_food, extent_px / 2.0 * 1.2, 0.75, item)

    return Scene(
        width=cfg.width,
        height=cfg.height,
        seed=seed,
        instances=instances,
        truth=SceneTruth(mm_per_px=mm_per_px, instances=truths),
    )


_SCENE_ATTEMPTS = 20


def _scene_with_retries(cfg: SceneConfig, seed: int, items) -> Scene:
    """Crowded draws can fail placement; retry under derived sub-seeds so the
    result stays a pure function of (cfg, seed, items)."""
    for attempt in range(_SCENE_ATTEMPTS):
        try:
            return generate_scene(replace(cfg, seed=(cfg.seed + 7919 * attempt)), seed, items)
        except PlacementFailure:
            if attempt == _SCENE_ATTEMPTS - 1:
                raise
    raise AssertionError("unreachable")


def generate_regression_dataset(
    cfg: SceneConfig, n_records: int, seed: int
) -> tuple[list[FeatureRecord], list[Scene]]:
    """Multi-view feature records with calorie labels from analytic truth.

    Items are drawn first (classes cycling through seeded permutations for
    near-uniform balance), then rendered in ``views_per_item`` scenes each,
    ``items_per_scene`` items at a time. One record per item view, truncated
    to ``n_records``; the last scene drops the food instances (and their
    truth) whose records are cut, so a manifest written from the scenes
    measures to the same rows. Deterministic per (cfg, n_records, seed),
    including the bytes of any files written from the result.

    Rendering stops at the first scene that brings the food instances with
    foreground, each of which gives one record, to ``n_records``. One
    ``measurement.extract_batch`` call then measures every rendered scene.
    """
    if n_records < 1:
        raise ValueError("n_records must be >= 1")
    cfg = replace(cfg, seed=seed)
    views = max(1, cfg.views_per_item)
    group_size = max(1, cfg.items_per_scene)
    n_items = -(-n_records // views)  # ceil
    item_rng = np.random.default_rng((seed, 0x17E6))
    cycle: list[ClassLabel] = []
    items: list[FoodItem] = []
    for _ in range(n_items):
        if not cycle:
            cycle = [FOOD_CLASSES[j] for j in item_rng.permutation(len(FOOD_CLASSES))]
        items.append(draw_item(item_rng, cycle.pop(0), cfg))

    groups = [items[i : i + group_size] for i in range(0, len(items), group_size)]
    n_scenes = views * len(groups)
    scenes: list[Scene] = []
    foods = 0
    while foods < n_records and len(scenes) < n_scenes:
        # scene k renders group k % len(groups) in view k // len(groups)
        k = len(scenes)
        scenes.append(_scene_with_retries(cfg, k, groups[k % len(groups)]))
        foods += sum(det.label is not ClassLabel.COIN and det.foreground is not None for det in scenes[-1].instances)
    images = [(s.instances, measurement.scale_from_detections(s.instances)) for s in scenes]
    records = [rec for recs in measurement.extract_batch(images) for rec in recs]
    surplus = {rec.instance for rec in records[n_records:]}  # all of the last scene
    if surplus:
        last = scenes[-1]
        keep = [k for k in range(len(last.instances)) if k not in surplus]
        scenes[-1] = replace(
            last,
            instances=[last.instances[k] for k in keep],
            truth=replace(last.truth, instances=[last.truth.instances[k] for k in keep]),
        )
    return records[:n_records], scenes
