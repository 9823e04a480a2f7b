"""Annotation manifest files.

A manifest is a JSON document listing images and their instances:

    {"format": "foodcal-annotations", "version": 2,
     "images": [{"image": "scene_0000", "width": 320, "height": 320,
                 "instances": [{"class": "Coin", "bbox": [x, y, w, h],
                                "confidence": 0.99,          # optional
                                "mask": "masks/scene_0000_i00.pgm",  # optional, relative
                                "mask_origin": [x, y],       # with "mask"
                                "calories_kcal": 210.5}]}]}  # optional

A mask is a PGM, relative to the manifest, of the instance's tight foreground
window with its top-left corner at image pixel "mask_origin"; an empty mask is
one background pixel at [0, 0]. Version 1 manifests (image-sized PGMs, no
origin) still load, cut to the same windows. Ground truth omits "confidence";
synthetic ground truth may carry per-instance calorie labels. "image" is a
string; "width", "height", the bbox values and the origin are JSON integers,
the origin >= 0 with its mask inside the image; "confidence" is a number in
[0, 1], null or absent; "calories_kcal" is a finite number, null or absent.
Any other value is a ``DataError`` naming the image.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from foodcal import maskgeom
from foodcal.errors import DataError, is_number, read_json, write_json
from foodcal.measurement import ClassLabel, DetectionInstance

MANIFEST_FORMAT = "foodcal-annotations"
MANIFEST_VERSION = 2


@dataclass
class ImageAnnotations:
    name: str
    width: int
    height: int
    instances: list[DetectionInstance] = field(default_factory=list)
    calories: list[float | None] = field(default_factory=list)  # aligned with instances


def write_manifest(path, images: list[ImageAnnotations]) -> Path:
    """Write the manifest and the referenced PGM masks, which land in
    ``masks/`` next to the manifest. Returns the manifest path."""
    path = Path(path)
    for img in images:
        if img.calories and len(img.calories) != len(img.instances):
            raise ValueError(
                f"image {img.name}: {len(img.calories)} calorie labels for {len(img.instances)} instances"
            )
    (path.parent / "masks").mkdir(parents=True, exist_ok=True)
    payload = {"format": MANIFEST_FORMAT, "version": MANIFEST_VERSION, "images": []}
    for img in images:
        entry = {"image": img.name, "width": img.width, "height": img.height, "instances": []}
        calories = img.calories if img.calories else [None] * len(img.instances)
        for k, (inst, cal) in enumerate(zip(img.instances, calories)):
            rec = {"class": inst.label.value, "bbox": [int(v) for v in inst.bbox]}
            if inst.confidence is not None:
                rec["confidence"] = inst.confidence
            if inst.mask is not None:
                rec["mask"] = f"masks/{img.name}_i{k:02d}.pgm"
                crop, origin = _window(inst.mask, inst.origin)
                maskgeom.write_pgm(path.parent / rec["mask"], crop)
                rec["mask_origin"] = [int(v) for v in origin]
            if cal is not None:
                rec["calories_kcal"] = cal
            entry["instances"].append(rec)
        payload["images"].append(entry)
    write_json(path, payload, indent=1)
    return path


def _window(mask, origin):
    """A mask at ``origin`` cut to its foreground window, and the window's
    origin; an empty mask is one background pixel at (0, 0). What is not a
    2-D array of pixels comes back whole, for ``write_pgm`` to reject."""
    mask = np.asarray(mask)
    if mask.ndim != 2 or mask.size == 0:
        return mask, origin
    box = maskgeom.foreground_slices(mask)
    if box is None:
        return np.zeros((1, 1), np.uint8), (0, 0)
    return mask[box], (origin[0] + box[1].start, origin[1] + box[0].start)


def _list(value, what):
    if not isinstance(value, list):
        raise DataError(f"{what} must be a list, not {type(value).__name__}")
    return value


def read_manifest(path) -> list[ImageAnnotations]:
    path = Path(path)
    payload = read_json(path, "manifest")
    if not isinstance(payload, dict) or payload.get("format") != MANIFEST_FORMAT:
        raise DataError(f"{path}: not a {MANIFEST_FORMAT} file")
    version = payload.get("version")
    if not (is_number(version, int) and version in (1, MANIFEST_VERSION)):
        raise DataError(f"{path}: unsupported manifest version {version!r}")
    images = []
    for entry in _list(payload.get("images", []), f"{path}: images"):
        if not isinstance(entry, dict) or not isinstance(entry.get("image"), str):
            raise DataError(f'{path}: an image entry is not an object with a string "image" name')
        where = f"{path}: image {entry['image']}"
        try:
            img = ImageAnnotations(name=entry["image"], width=entry["width"], height=entry["height"])
            if not (is_number(img.width, int) and is_number(img.height, int)):
                raise DataError(f"{where}: width and height must be integers, got {img.width!r}, {img.height!r}")
            for rec in _list(entry.get("instances", []), f"{where}: instances"):
                bbox = rec["bbox"]
                if not (isinstance(bbox, list) and len(bbox) == 4 and all(is_number(v, int) for v in bbox)
                        and bbox[2] > 0 and bbox[3] > 0):
                    raise DataError(f"{where}: bbox {bbox!r} is not [x, y, w, h] of integers with w, h > 0")
                calories = rec.get("calories_kcal")
                if calories is not None and not is_number(calories):
                    raise DataError(f"{where}: calories_kcal must be a finite number or null, got {calories!r}")
                mask, origin = None, (0, 0)
                if "mask" in rec:
                    origin = rec.get("mask_origin") if version == 2 else [0, 0]
                    if not (isinstance(origin, list) and len(origin) == 2
                            and all(is_number(v, int) and v >= 0 for v in origin)):
                        raise DataError(f"{where}: mask_origin {origin!r} is not [x, y] of integers >= 0")
                    mask = maskgeom.read_pgm(path.parent / rec["mask"])
                    (x, y), (h, w) = origin, mask.shape
                    inside = x + w <= img.width and y + h <= img.height
                    if not ((h, w) == (img.height, img.width) if version == 1 else inside):
                        raise DataError(f"{where}: mask {rec['mask']} is {mask.shape} at {origin}, image is "
                                        f"({img.height}, {img.width})")
                    if version == 1:  # an image-sized mask: keep the window that v2 stores
                        mask, origin = _window(mask, origin)
                img.instances.append(
                    DetectionInstance(
                        label=ClassLabel.from_name(rec["class"]),
                        bbox=tuple(bbox),
                        confidence=rec.get("confidence"),
                        mask=mask,
                        origin=tuple(origin),
                    )
                )
                img.calories.append(calories)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{where}: malformed entry: {exc}") from exc
        images.append(img)
    return images
