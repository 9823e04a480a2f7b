"""The per-instance manifest reader, the oracle of ``manifests.read_manifest``.

``read_manifest`` here checks and decodes one image and one instance at a
time, with one ``is_number`` call per value and one ``np.unpackbits`` per
mask, as ``manifests`` did before it read a whole manifest in one set of
passes. Its changes from that reader: an integer must fit int64, the rule of
``errors.number_array`` that the whole-manifest reader goes through, and an
image may not have the name of an earlier one, checked after its width and
height.
"""

from pathlib import Path

import numpy as np

from foodcal import maskgeom
from foodcal.errors import DataError, decode_array, is_number, read_json
from foodcal.manifests import MANIFEST_FORMAT, MANIFEST_VERSION, ImageAnnotations
from foodcal.measurement import ClassLabel, DetectionInstance


def _int(v) -> bool:
    return is_number(v, int) and -(2**63) <= v < 2**63


def _unpack(bits, h, w, where) -> np.ndarray:
    packed = decode_array(bits, np.uint8, f"{where}: mask bits")
    n = h * w
    nbytes = -(-n // 8)
    if packed.size != nbytes:
        raise DataError(f"{where}: mask bits hold {packed.size} bytes, a {h}x{w} mask packs into {nbytes}")
    if n % 8 and packed[-1] & (0xFF >> n % 8):
        raise DataError(f"{where}: mask bits set past the last of its {n} pixels")
    return np.unpackbits(packed, count=n).reshape(h, w)


def _read_mask(rec, version, img, where, root):
    mask = rec["mask"]
    origin = rec.get("mask_origin") if version > 1 else [0, 0]
    if not (isinstance(origin, list) and len(origin) == 2 and all(_int(v) and v >= 0 for v in origin)):
        raise DataError(f"{where}: mask_origin {origin!r} is not [x, y] of integers >= 0")
    if version == 3:
        if not isinstance(mask, dict):
            raise DataError(f'{where}: a version 3 mask is an object {{"size": [h, w], "bits": ...}}, '
                            f"not {type(mask).__name__}")
        shape, what = mask["size"], "mask"
        if not (isinstance(shape, list) and len(shape) == 2 and all(_int(v) and v >= 1 for v in shape)):
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
    if version == 1:  # cut to the box of the foreground pixels
        ys, xs = np.nonzero(pixels)
        if ys.size == 0:
            return np.zeros((1, 1), np.uint8), (0, 0)
        return pixels[ys.min() : ys.max() + 1, xs.min() : xs.max() + 1], (int(xs.min()), int(ys.min()))
    return pixels, origin


def _instance(rec, version, img, where, root) -> DetectionInstance:
    if not isinstance(rec, dict):
        raise DataError(f"{where}: an instance record must be an object, not {type(rec).__name__}")
    bbox = rec["bbox"]
    if not (isinstance(bbox, list) and len(bbox) == 4 and all(_int(v) for v in bbox)
            and bbox[2] > 0 and bbox[3] > 0):
        raise DataError(f"{where}: bbox {bbox!r} is not [x, y, w, h] of integers with w, h > 0")
    mask, origin = _read_mask(rec, version, img, where, root) if "mask" in rec else (None, (0, 0))
    inst = DetectionInstance(
        label=ClassLabel.from_name(rec["class"]),
        bbox=tuple(bbox),
        confidence=rec.get("confidence"),
        mask=mask,
        origin=tuple(origin),
        calories_kcal=rec.get("calories_kcal"),
    )
    if isinstance(inst.calories_kcal, int) and not _int(inst.calories_kcal):
        raise DataError(f"{where}: calories_kcal must be a finite number, got {inst.calories_kcal!r:.50}")
    return inst


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
    images, first = [], {}
    for k, entry in enumerate(_list(payload.get("images", []), f"{path}: images")):
        if not isinstance(entry, dict) or not isinstance(entry.get("image"), str):
            raise DataError(f'{path}: an image entry is not an object with a string "image" name')
        where = f"{path}: image {entry['image']}"
        try:
            img = ImageAnnotations(name=entry["image"], width=entry["width"], height=entry["height"])
            if not (_int(img.width) and _int(img.height)):
                raise DataError(f"{where}: width and height must be integers, got {img.width!r}, {img.height!r}")
            if img.width < 1 or img.height < 1:
                raise DataError(f"{where}: width and height must be >= 1, got {img.width}, {img.height}")
            if img.name in first:
                raise DataError(f"{where}: images {first[img.name]} and {k} have the same name")
            first[img.name] = k
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
