"""Annotation manifest files.

A manifest is a JSON document listing images and their instances:

    {"format": "foodcal-annotations", "version": 3,
     "images": [{"image": "scene_0000", "width": 320, "height": 320,
                 "instances": [{"class": "Coin", "bbox": [x, y, w, h],
                                "confidence": 0.99,                      # optional
                                "mask": {"size": [h, w], "bits": "..."},  # optional
                                "mask_origin": [x, y],                   # with "mask"
                                "calories_kcal": 210.5}]}]}              # optional

A mask is the instance's tight foreground window, h rows of w pixels, with
its top-left corner at image pixel "mask_origin"; an empty mask is one
background pixel at [0, 0]. "bits" is the base64 of ``np.packbits`` of the
window: one bit per pixel in row-major order, the first pixel in the high
bit of the first byte, and zero bits after the last pixel up to a whole
byte. Versions 1 and 2 store each mask as a PGM file named by its path
relative to the manifest: version 2 the same window, version 1 the whole
image and no origin. Both still load, a v1 mask cut to the window that v3
stores.

Ground truth omits "confidence"; synthetic ground truth may carry
per-instance calorie labels, which read onto each instance's
``calories_kcal``. "image" is a string; "width" and "height" are
JSON integers >= 1; the bbox values and the origin are JSON integers, the
origin >= 0 with its mask inside the image; "size" is two JSON integers
>= 1 and "bits" holds exactly ceil(h * w / 8) bytes with no pad bit set;
"confidence" is a number in [0, 1], null or absent; "calories_kcal" is a
finite number, null or absent. Any other value is a ``DataError`` naming
the image, and the instance's index when it is in an instance record.
"""

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from foodcal import maskgeom
from foodcal.errors import DataError, decode_array, encode_array, is_number, read_json, write_json
from foodcal.measurement import ClassLabel, DetectionInstance

MANIFEST_FORMAT = "foodcal-annotations"
MANIFEST_VERSION = 3


@dataclass
class ImageAnnotations:
    name: str
    width: int
    height: int
    instances: list[DetectionInstance] = field(default_factory=list)


def write_manifest(path, images: list[ImageAnnotations]) -> Path:
    """Write the manifest, each mask inline as its packed foreground window,
    as compact JSON with no indent. Returns the manifest path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"format": MANIFEST_FORMAT, "version": MANIFEST_VERSION, "images": []}
    for img in images:
        entry = {"image": img.name, "width": img.width, "height": img.height, "instances": []}
        for inst in img.instances:
            rec = {"class": inst.label.value, "bbox": [int(v) for v in inst.bbox]}
            if inst.confidence is not None:
                rec["confidence"] = inst.confidence
            if inst.mask is not None:
                crop, origin = _window(inst.mask, inst.origin)
                rec["mask"] = {"size": list(crop.shape), "bits": encode_array(np.packbits(crop), np.uint8)}
                rec["mask_origin"] = [int(v) for v in origin]
            if inst.calories_kcal is not None:
                rec["calories_kcal"] = inst.calories_kcal
            entry["instances"].append(rec)
        payload["images"].append(entry)
    write_json(path, payload)
    return path


def _window(mask, origin):
    """A mask at ``origin`` cut to its foreground window as 0/1 ``uint8``, and
    the window's origin; an empty mask is one background pixel at (0, 0).
    What is not a 2-D array of 0/1 pixels raises ``ValueError``."""
    mask = np.asarray(mask)
    if mask.ndim == 2 and mask.size:
        box = maskgeom.foreground_slices(mask)
        if box is None:
            return np.zeros((1, 1), np.uint8), (0, 0)
        mask, origin = mask[box], (origin[0] + box[1].start, origin[1] + box[0].start)
    return maskgeom.as_mask(mask), origin


def _unpack(bits, h, w, where) -> np.ndarray:
    """The h x w mask that ``write_manifest`` packed into ``bits``."""
    packed = decode_array(bits, np.uint8, f"{where}: mask bits")
    n = h * w
    nbytes = -(-n // 8)
    if packed.size != nbytes:
        raise DataError(f"{where}: mask bits hold {packed.size} bytes, a {h}x{w} mask packs into {nbytes}")
    if n % 8 and packed[-1] & (0xFF >> n % 8):
        raise DataError(f"{where}: mask bits set past the last of its {n} pixels")
    return np.unpackbits(packed, count=n).reshape(h, w)


def _read_mask(rec, version, img, where, root):
    """The mask and origin of instance record ``rec``: unpacked from the
    record in version 3, read from the PGM it names in versions 1 and 2."""
    mask = rec["mask"]
    origin = rec.get("mask_origin") if version > 1 else [0, 0]
    if not (isinstance(origin, list) and len(origin) == 2 and all(is_number(v, int) and v >= 0 for v in origin)):
        raise DataError(f"{where}: mask_origin {origin!r} is not [x, y] of integers >= 0")
    if version == 3:
        if not isinstance(mask, dict):
            raise DataError(f'{where}: a version 3 mask is an object {{"size": [h, w], "bits": ...}}, '
                            f"not {type(mask).__name__}")
        shape, what = mask["size"], "mask"
        if not (isinstance(shape, list) and len(shape) == 2 and all(is_number(v, int) and v >= 1 for v in shape)):
            raise DataError(f"{where}: mask size {shape!r} is not [h, w] of integers >= 1")
    else:
        if not isinstance(mask, str):
            raise DataError(f"{where}: a version {version} mask is a PGM path, not {type(mask).__name__}")
        pixels = maskgeom.read_pgm(root / mask)
        shape, what = pixels.shape, f"mask {mask}"
    (x, y), (h, w) = origin, shape
    inside = x + w <= img.width and y + h <= img.height
    if not ((h, w) == (img.height, img.width) if version == 1 else inside):
        raise DataError(f"{where}: {what} is {(h, w)} at {origin}, image is ({img.height}, {img.width})")
    if version == 3:
        return _unpack(mask["bits"], h, w, where), origin
    if version == 1:  # an image-sized mask: keep the window that v2 and v3 store
        return _window(pixels, origin)
    return pixels, origin


def _instance(rec, version, img, where, root) -> DetectionInstance:
    """The instance that record ``rec`` of image ``img`` describes."""
    if not isinstance(rec, dict):
        raise DataError(f"{where}: an instance record must be an object, not {type(rec).__name__}")
    bbox = rec["bbox"]
    if not (isinstance(bbox, list) and len(bbox) == 4 and all(is_number(v, int) for v in bbox)
            and bbox[2] > 0 and bbox[3] > 0):
        raise DataError(f"{where}: bbox {bbox!r} is not [x, y, w, h] of integers with w, h > 0")
    mask, origin = _read_mask(rec, version, img, where, root) if "mask" in rec else (None, (0, 0))
    return DetectionInstance(
        label=ClassLabel.from_name(rec["class"]),
        bbox=tuple(bbox),
        confidence=rec.get("confidence"),
        mask=mask,
        origin=tuple(origin),
        calories_kcal=rec.get("calories_kcal"),
    )


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
    if not (is_number(version, int) and version in (1, 2, MANIFEST_VERSION)):
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
            if img.width < 1 or img.height < 1:
                raise DataError(f"{where}: width and height must be >= 1, got {img.width}, {img.height}")
            for i, rec in enumerate(_list(entry.get("instances", []), f"{where}: instances")):
                try:
                    img.instances.append(_instance(rec, version, img, where, path.parent))
                except DataError as exc:
                    raise DataError(f"{exc} (instance {i})") from exc
                except (KeyError, TypeError, ValueError) as exc:
                    raise DataError(f"{where}: malformed entry: {exc} (instance {i})") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{where}: malformed entry: {exc}") from exc
        images.append(img)
    return images
