"""Reference-coin scaling and real-world feature extraction.

The reference object is a 25.5 mm coin. Its bounding-box pixel height and
width give two mm/px scale factors whose average converts pixel geometry
into millimetres: linear features scale with the factor, areas with its
square. Calorie targets are weight (grams) times a per-class caloric
density (kcal per gram).

Area and perimeter come from the outer contour of the largest 8-connected
component of each food mask. ``extract_batch`` measures the masks of many
images at once: it cuts each mask to its instance's ``foreground`` box,
and ``maskgeom.largest_component_stats`` stacks the crops into one
canvas, with a background row between crops and a background column on
each side, labels its runs once and walks each contour through a 256 x 8
table of moves indexed by (8-neighbour code, back direction). Of
components of equal size, the first in ``maskgeom.connected_components``'
order (min-y, then min-x, then first pixel) is measured.

An instance that ``synth`` renders is given its foreground by the
placement that drew it, so its full-frame mask is not scanned again. Any
other instance cuts its own on first use, once, and
``dataclasses.replace`` never carries one over to a new mask.
"""

import logging
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from foodcal import maskgeom
from foodcal.errors import InvalidDimension, NoReferenceObject, UnknownDensity, is_number

logger = logging.getLogger(__name__)

COIN_DIAMETER_MM = 25.5


class ClassLabel(Enum):
    SINGARA = "Singara"
    SOMUSA = "Somusa"
    PURI = "Puri"
    PEAJU = "Peaju"
    BEGUNI = "Beguni"
    COIN = "Coin"

    @classmethod
    def from_name(cls, name: str) -> "ClassLabel":
        try:
            return _LABELS_BY_NAME[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name, such as a list
            raise ValueError(f"unknown class name {name!r}") from None


_LABELS_BY_NAME = {label.value: label for label in ClassLabel}

FOOD_CLASSES = tuple(label for label in ClassLabel if label is not ClassLabel.COIN)

# kcal per gram for the standard variant of each food class
DEFAULT_DENSITIES = {
    ClassLabel.SINGARA: 2.61,
    ClassLabel.SOMUSA: 2.11,
    ClassLabel.PURI: 2.44,
    ClassLabel.PEAJU: 1.18,
    ClassLabel.BEGUNI: 1.48,
}

# the NumPy numbers an instance takes, those float() holds exactly; not np.bool_ or np.longdouble
_NUMPY_NUMBER = (np.integer, np.float16, np.float32, np.float64)


@dataclass(frozen=True)
class DetectionInstance:
    """One detector output: class, optional confidence, bbox (x, y, w, h)
    in pixels, an instance mask (a crop holding all of its foreground with
    its top-left pixel at ``origin`` (x, y), or the frame at (0, 0)), and
    the item's calorie label where ground truth has one.

    ``foreground`` is the mask cut to its foreground box, and the box's
    top-left pixel. ``synth`` gives it with the mask it renders
    (``with_foreground``); any other instance computes it on first use,
    once. It is no field: it takes no part in equality or repr, and
    ``dataclasses.replace`` builds an instance without it.
    """

    label: ClassLabel
    bbox: tuple[int, int, int, int]
    confidence: float | None = None
    mask: np.ndarray | None = None
    origin: tuple[int, int] = (0, 0)
    calories_kcal: float | None = None

    def __post_init__(self):
        for name in ("confidence", "calories_kcal"):  # a NumPy number as the Python number it holds
            if isinstance(value := getattr(self, name), _NUMPY_NUMBER):
                object.__setattr__(self, name, value.item())
        if self.confidence is not None and not (is_number(self.confidence) and 0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be a number in [0, 1], got {self.confidence!r}")
        if self.calories_kcal is not None and not is_number(self.calories_kcal):
            raise ValueError(f"calories_kcal must be a finite number or null, got {self.calories_kcal!r}")

    @classmethod
    def with_foreground(cls, foreground, *args, **kwargs) -> "DetectionInstance":
        """``DetectionInstance(*args, **kwargs)`` whose ``foreground`` is
        ``foreground``, which must be that of its mask and origin."""
        inst = cls(*args, **kwargs)
        inst.__dict__["foreground"] = foreground  # where cached_property keeps it
        return inst

    @cached_property
    def foreground(self) -> tuple[np.ndarray, tuple[int, int]] | None:
        """``maskgeom.foreground`` of the mask at its origin: ``(crop, (x,
        y))``, or None when the mask is missing or has no foreground."""
        if self.mask is None:
            return None
        return maskgeom.foreground(self.mask, self.origin)


@dataclass(frozen=True)
class ScaleFactor:
    """mm/px conversion factors: per-axis s_h, s_w and their average s_f."""

    s_h: float
    s_w: float
    s_f: float


@dataclass
class FeatureRecord:
    """One regression row: food class, mm-scaled geometry, kcal target.

    ``instance`` is the index of the detection the row was extracted from;
    it is not part of the CSV row and does not take part in equality.
    """

    label: ClassLabel
    height_mm: float
    width_mm: float
    area_mm2: float
    perimeter_mm: float
    calories_kcal: float | None = None
    instance: int | None = field(default=None, compare=False)


def select_reference(detections: list[DetectionInstance]) -> DetectionInstance:
    """Pick the highest-confidence coin; ties go to the earliest instance."""
    if not detections:
        raise NoReferenceObject("no detections supplied")
    coins = [det for det in detections if det.label is ClassLabel.COIN]
    if not coins:
        raise NoReferenceObject("no coin instance among detections")
    return max(coins, key=lambda det: det.confidence or 0.0)  # max keeps the first of equal keys


def scale_factor(coin_bbox_h_px: float, coin_bbox_w_px: float) -> ScaleFactor:
    """mm/px factors from the coin's bounding-box pixel dimensions:
    s_h = d/h, s_w = d/w, s_f = (s_h + s_w) / 2, with d = COIN_DIAMETER_MM."""
    if coin_bbox_h_px <= 0 or coin_bbox_w_px <= 0:
        raise InvalidDimension(
            f"coin bbox must be positive, got {coin_bbox_h_px} x {coin_bbox_w_px}"
        )
    s_h = COIN_DIAMETER_MM / coin_bbox_h_px
    s_w = COIN_DIAMETER_MM / coin_bbox_w_px
    return ScaleFactor(s_h=s_h, s_w=s_w, s_f=(s_h + s_w) / 2.0)


def scale_from_detections(detections: list[DetectionInstance]) -> ScaleFactor:
    """Convenience: select the coin and derive the scale from its bbox."""
    coin = select_reference(detections)
    return scale_factor(coin.bbox[3], coin.bbox[2])


def extract_features(
    detections: list[DetectionInstance], scale: ScaleFactor
) -> list[FeatureRecord]:
    """mm-scaled geometry and the calorie label of each food instance, in
    input order.

    Coin instances are excluded. Instances with an empty or missing mask are
    skipped with a warning, so each record carries the index of its detection
    in ``instance``. Height/width come from the instance bbox, area
    and perimeter from the traced contour of the mask's largest component;
    linear features scale with s_f and area with s_f squared. This is
    ``extract_batch`` of one image.
    """
    return extract_batch([(detections, scale)])[0]


def extract_batch(
    images: list[tuple[list[DetectionInstance], ScaleFactor]],
) -> list[list[FeatureRecord]]:
    """``extract_features`` of each (detections, scale) pair, with the masks
    of every image measured in one batch.

    Each mask is cut to its foreground rows and columns, and
    ``maskgeom.largest_component_stats`` measures all the crops at once on
    one canvas, or a few when they are many: area and perimeter do not
    change under translation, and both sums are exact on integer points.
    """
    crops, owners = [], []
    for j, (detections, _) in enumerate(images):
        for i, det in enumerate(detections):
            if det.label is ClassLabel.COIN:
                continue
            if det.foreground is None:
                logger.warning("skipping instance %d (%s): empty mask", i, det.label.value)
                continue
            crops.append(det.foreground[0])
            owners.append((j, i))
    records = [[] for _ in images]
    for (j, i), stats in zip(owners, maskgeom.largest_component_stats(crops)):
        det, s_f = images[j][0][i], images[j][1].s_f
        records[j].append(
            FeatureRecord(
                label=det.label,
                height_mm=det.bbox[3] * s_f,
                width_mm=det.bbox[2] * s_f,
                area_mm2=stats.area_px * s_f**2,
                perimeter_mm=stats.perimeter_px * s_f,
                calories_kcal=det.calories_kcal,
                instance=i,
            )
        )
    return records


def calorie_label(weight_g: float, label: ClassLabel) -> float:
    """Calories = weight (g) times the class density (kcal/g)."""
    if weight_g < 0:
        raise ValueError(f"weight must be non-negative, got {weight_g}")
    if label not in DEFAULT_DENSITIES:
        raise UnknownDensity(f"no caloric density for class {label.value}")
    return weight_g * DEFAULT_DENSITIES[label]
