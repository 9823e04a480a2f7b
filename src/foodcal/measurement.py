"""Reference-coin scaling and real-world feature extraction.

The reference object is a 25.5 mm coin. Its bounding-box pixel height and
width give two mm/px scale factors whose average converts pixel geometry
into millimetres: linear features scale with the factor, areas with its
square. Calorie targets are weight (grams) times a per-class caloric
density (kcal per gram).
"""

import logging
from dataclasses import dataclass, field
from enum import Enum

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


@dataclass(frozen=True)
class DetectionInstance:
    """One detector output: class, optional confidence, bbox (x, y, w, h)
    in pixels, an instance mask (a crop holding all of its foreground with
    its top-left pixel at ``origin`` (x, y), or the frame at (0, 0)), and
    the item's calorie label where ground truth has one."""

    label: ClassLabel
    bbox: tuple[int, int, int, int]
    confidence: float | None = None
    mask: np.ndarray | None = None
    origin: tuple[int, int] = (0, 0)
    calories_kcal: float | None = None

    def __post_init__(self):
        if self.confidence is not None and not (is_number(self.confidence) and 0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be a number in [0, 1], got {self.confidence!r}")
        if self.calories_kcal is not None and not is_number(self.calories_kcal):
            raise ValueError(f"calories_kcal must be a finite number or null, got {self.calories_kcal!r}")


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
    best = None
    for det in detections:
        if det.label is not ClassLabel.COIN:
            continue
        conf = det.confidence if det.confidence is not None else 0.0
        if best is None or conf > (best.confidence if best.confidence is not None else 0.0):
            best = det
    if best is None:
        raise NoReferenceObject("no coin instance among detections")
    return best


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
    linear features scale with s_f and area with s_f squared. The mask is
    cropped to its foreground rows and columns first: area and perimeter do
    not change under translation, and both sums are exact on integer points.
    """
    records = []
    for i, det in enumerate(detections):
        if det.label is ClassLabel.COIN:
            continue
        if det.mask is None or not det.mask.any():
            logger.warning("skipping instance %d (%s): empty mask", i, det.label.value)
            continue
        mask = det.mask
        if mask.ndim == 2:  # anything else goes on whole, for as_mask to reject
            mask = mask[maskgeom.foreground_slices(mask)]
        comps = maskgeom.connected_components(mask)
        largest = max(comps, key=lambda c: int(c.sum()))
        stats = maskgeom.shape_stats(maskgeom.trace_contour(largest))
        records.append(
            FeatureRecord(
                label=det.label,
                height_mm=det.bbox[3] * scale.s_f,
                width_mm=det.bbox[2] * scale.s_f,
                area_mm2=stats.area_px * scale.s_f**2,
                perimeter_mm=stats.perimeter_px * scale.s_f,
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
