"""Annotation manifest files.

A manifest is a JSON document listing images and their instances:

    {"format": "foodcal-annotations", "version": 3,
     "images": [{"image": "scene_0000", "width": 320, "height": 320,
                 "instances": [{"class": "Coin", "bbox": [x, y, w, h],
                                "confidence": 0.99,                      # optional
                                "mask": {"size": [h, w], "bits": "..."},  # optional
                                "mask_origin": [x, y],                   # with "mask"
                                "calories_kcal": 210.5}]}]}              # optional

A mask is the instance's ``DetectionInstance.foreground``: its mask cut to
the tight box of its foreground, h rows of w pixels, with its top-left
corner at image pixel "mask_origin"; an empty mask is one background pixel
at [0, 0]. "bits" is the base64 of ``np.packbits`` of the crop: one bit
per pixel in row-major order, the first pixel in the high bit of the
first byte, and zero bits after the last pixel up to a whole byte.
Versions 1 and 2 store each mask as a PGM file named by its path relative
to the manifest: version 2 the same crop, version 1 the whole image and
no origin. Both still load, a v1 mask cut by ``maskgeom.foreground`` to
the crop that v3 stores.

Ground truth omits "confidence"; synthetic ground truth may carry
per-instance calorie labels, which read onto each instance's
``calories_kcal``. "image" is a string that no other image of the
manifest has; "width" and "height" are JSON integers >= 1; the bbox values
and the origin are JSON integers, the origin >= 0 with its mask inside the
image; "size" is two JSON integers >= 1 and "bits" holds exactly
ceil(h * w / 8) bytes with no pad bit set; every JSON integer fits int64;
"confidence" is a number in [0, 1], null or absent; "calories_kcal" is a
finite number, null or absent. Any other value is a ``DataError`` naming
the image, the field and, in an instance record, the instance's index; a
repeated name is one of the later image, naming both indices.
``write_manifest`` raises ``ValueError`` for what the reader would reject.

``read_manifest`` checks and decodes the whole manifest in one set of
passes: the width/height pairs of every image, every bbox, every
mask_origin, every mask size and every calorie label each go through one
``errors.number_array`` call, the other checks are array operations over
the same numbers, and the bits of every mask are decoded, joined and
unpacked by one ``np.unpackbits``, each mask a view of that array. Per
image these passes would cost more than they save, at about four
instances an image. When a check fails, the manifest is read again one
image, then one instance, at a time, and the first record at fault in
document order gives the error: the one a reader that checks one instance
at a time would raise.
"""

import base64
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from foodcal import maskgeom
from foodcal.errors import DataError, decode_array, encode_array, is_number, number_array, read_json, write_json
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
    """Write the manifest, each mask inline as its packed foreground crop,
    as compact JSON with no indent. Returns the manifest path.

    What ``read_manifest`` would reject raises ``ValueError`` naming the
    image and, for an instance, its index, and nothing is written. A number
    of integer value that fits int64, such as ``np.int64(2)`` or ``2.0``, is
    written as a JSON integer; a bool is no integer."""
    path = Path(path)
    payload = {"format": MANIFEST_FORMAT, "version": MANIFEST_VERSION, "images": []}
    first = {}  # the index of the first image of each name
    for k, img in enumerate(images):
        if not isinstance(img.name, str):
            raise ValueError(f"{path}: image {k}: the name {img.name!r} is not a string")
        where = f"{path}: image {img.name}"
        if first.setdefault(img.name, k) != k:
            raise ValueError(f"{where}: images {first[img.name]} and {k} have the same name")
        if not (_integer(img.width) and _integer(img.height) and img.width >= 1 and img.height >= 1):
            raise ValueError(f"{where}: width and height must be integers >= 1, got {img.width!r}, {img.height!r}")
        width, height = int(img.width), int(img.height)
        records = []
        for i, inst in enumerate(img.instances):
            try:
                records.append(_record(inst, width, height))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc} (instance {i})") from exc
        payload["images"].append({"image": img.name, "width": width, "height": height, "instances": records})
    path.parent.mkdir(parents=True, exist_ok=True)
    write_json(path, payload)
    return path


def _integer(v) -> bool:
    """Whether ``v`` is a number of integer value that fits int64, as the
    JSON integers of a manifest are. A bool is not one."""
    if isinstance(v, (np.integer, np.floating)):
        v = v.item()
    return isinstance(v, (int, float)) and not isinstance(v, bool) and -(2**63) <= v < 2**63 and v == int(v)


def _record(inst: DetectionInstance, width: int, height: int) -> dict:
    """The manifest record of an instance of a ``width`` x ``height`` image.
    What ``write_manifest`` rejects raises ``ValueError``."""
    if not (len(inst.bbox) == 4 and all(map(_integer, inst.bbox)) and inst.bbox[2] > 0 and inst.bbox[3] > 0):
        raise ValueError(f"bbox {inst.bbox!r} is not [x, y, w, h] of integers with w, h > 0")
    rec = {"class": inst.label.value, "bbox": [int(v) for v in inst.bbox]}
    if inst.confidence is not None:
        rec["confidence"] = inst.confidence
    if inst.mask is not None:
        found = inst.foreground
        if found is None:  # an empty mask: one background pixel at the image corner
            maskgeom.as_mask(inst.mask)  # a mask of no pixels, or not 2-D, still raises
            found = np.zeros((1, 1), np.uint8), (0, 0)
        crop, (x, y) = found
        crop = maskgeom.as_mask(crop)
        h, w = crop.shape
        if not (_integer(x) and _integer(y) and 0 <= x <= width - w and 0 <= y <= height - h):
            raise ValueError(f"mask foreground is ({h}, {w}) at [{x}, {y}], image is ({height}, {width})")
        rec["mask"] = {"size": [h, w], "bits": encode_array(np.packbits(crop), np.uint8)}
        rec["mask_origin"] = [int(x), int(y)]
    if inst.calories_kcal is not None:
        try:
            number_array(inst.calories_kcal, "calories_kcal", ndim=0)  # an int must fit int64
        except DataError as exc:
            raise ValueError(str(exc)) from None
        rec["calories_kcal"] = inst.calories_kcal
    return rec


def _int_rows(rows, k, fault, least=None, valid=None) -> np.ndarray:
    """``rows``, lists of ``k`` JSON integers (``>= least`` when given), as
    one (len(rows), k) int64 array from one ``number_array`` call, every
    row passing ``valid`` when given. Otherwise raises ``fault(i)`` for the
    first row i that fails on its own."""

    def ints(rows):
        try:
            a = number_array(rows, "", int, ndim=2, least=least) if rows else np.empty((0, k), np.int64)
        except DataError:
            return None
        return a if a.shape[1] == k and (valid is None or valid(a).all()) else None

    a = ints(rows)
    if a is None:
        raise fault(next(i for i, row in enumerate(rows) if ints([row]) is None))
    return a


def _raise_first(bad, fault) -> None:
    """Raise ``fault(i)`` for the first i where the flags ``bad`` are set."""
    if bad.any():
        raise fault(int(np.argmax(bad)))


def _read(entries, version, path) -> list[ImageAnnotations]:
    """The images of the manifest entries ``entries``, checked and decoded
    in one set of passes over all of their instances. Each check is one
    pass, in the order that one instance is checked in, and raises for the
    first record that fails it; given one instance, that is its first
    fault. A ``DataError`` names the image; a missing key or an unknown
    class raises ``KeyError`` or ``ValueError`` as it is."""
    root = path.parent
    if not all(isinstance(e, dict) and isinstance(e.get("image"), str) for e in entries):
        raise DataError(f'{path}: an image entry is not an object with a string "image" name')
    wheres = [f"{path}: image {e['image']}" for e in entries]
    sides = [[e["width"], e["height"]] for e in entries]
    dims = _int_rows(sides, 2, lambda i: DataError(
        f"{wheres[i]}: width and height must be integers, got {sides[i][0]!r}, {sides[i][1]!r}"))
    _raise_first((dims < 1).any(axis=1), lambda i: DataError(
        f"{wheres[i]}: width and height must be >= 1, got {dims[i, 0]}, {dims[i, 1]}"))
    first = {}  # the index of the first image of each name
    same = [first.setdefault(e["image"], k) for k, e in enumerate(entries)]
    _raise_first(np.array(same, np.int64) != np.arange(len(entries)), lambda k: DataError(
        f"{wheres[k]}: images {same[k]} and {k} have the same name"))
    lists = [_list(e.get("instances", []), f"{where}: instances") for e, where in zip(entries, wheres)]
    counts = list(map(len, lists))
    recs = list(chain.from_iterable(lists))
    owner = np.repeat(np.arange(len(entries)), counts)  # the image of each instance

    for i, rec in enumerate(recs):
        if not isinstance(rec, dict):
            raise DataError(f"{wheres[owner[i]]}: an instance record must be an object, not {type(rec).__name__}")
    boxes = [rec["bbox"] for rec in recs]
    _int_rows(boxes, 4, lambda i: DataError(
        f"{wheres[owner[i]]}: bbox {boxes[i]!r} is not [x, y, w, h] of integers with w, h > 0"),
        valid=lambda a: (a[:, 2:] > 0).all(axis=1))

    # masks: i below counts the instances that have one
    masked = [j for j, rec in enumerate(recs) if "mask" in rec]
    mrecs = [recs[j] for j in masked]
    mwheres = [wheres[o] for o in owner[masked]]
    origins = [rec.get("mask_origin") for rec in mrecs] if version > 1 else [[0, 0]] * len(mrecs)
    xy = _int_rows(origins, 2, lambda i: DataError(
        f"{mwheres[i]}: mask_origin {origins[i]!r} is not [x, y] of integers >= 0"), least=0)
    masks = [rec["mask"] for rec in mrecs]
    for i, mask in enumerate(masks):
        if version == 3 and not isinstance(mask, dict):
            raise DataError(f'{mwheres[i]}: a version 3 mask is an object {{"size": [h, w], "bits": ...}}, '
                            f"not {type(mask).__name__}")
        if version < 3 and not isinstance(mask, str):
            raise DataError(f"{mwheres[i]}: a version {version} mask is a PGM path, not {type(mask).__name__}")
    if version == 3:
        sizes = [mask["size"] for mask in masks]
        hw = _int_rows(sizes, 2, lambda i: DataError(
            f"{mwheres[i]}: mask size {sizes[i]!r} is not [h, w] of integers >= 1"), least=1)
    else:
        pixels = [maskgeom.read_pgm(root / mask) for mask in masks]
        hw = np.array([p.shape for p in pixels], np.int64).reshape(-1, 2)
    (x, y), (h, w), (H, W) = xy.T, hw.T, dims[owner[masked]].T[::-1]
    _raise_first(((h != H) | (w != W)) if version == 1 else (x > W - w) | (y > H - h), lambda i: DataError(
        f"{mwheres[i]}: {'mask' if version == 3 else f'mask {masks[i]}'} is {tuple(hw[i].tolist())} at "
        f"{origins[i]}, image is ({H[i]}, {W[i]})"))
    if version == 1:  # image-sized masks: keep the crops that v2 and v3 store
        found = (maskgeom.foreground(p) or (np.zeros((1, 1), np.uint8), (0, 0)) for p in pixels)
    else:
        crops = _unpack([mask["bits"] for mask in masks], h, w, mwheres) if version == 3 else pixels
        found = zip(crops, map(tuple, origins))
    mask_of = dict(zip(masked, found))

    labels = [ClassLabel.from_name(rec["class"]) for rec in recs]
    instances = [
        DetectionInstance(label, tuple(box), rec.get("confidence"), *mask_of.get(j, (None, (0, 0))),
                          rec.get("calories_kcal"))
        for j, (label, box, rec) in enumerate(zip(labels, boxes, recs))
    ]
    labelled = [j for j, inst in enumerate(instances) if inst.calories_kcal is not None]
    try:  # a JSON integer that does not fit int64 is what DetectionInstance lets through
        number_array([instances[j].calories_kcal for j in labelled], "calories_kcal")
    except DataError:
        for j in labelled:
            number_array(instances[j].calories_kcal, f"{wheres[owner[j]]}: calories_kcal", ndim=0)
    ends = np.cumsum(counts).tolist()
    return [ImageAnnotations(e["image"], width, height, instances[end - n : end])
            for e, (width, height), n, end in zip(entries, dims.tolist(), counts, ends)]


_INT64_MAX = np.iinfo(np.int64).max


def _unpack(bits, h, w, wheres) -> list[np.ndarray]:
    """The h x w masks that ``write_manifest`` packed into the strings
    ``bits``, their byte counts and pad bits checked in one pass each and
    all of them unpacked by one ``np.unpackbits``: each mask is a view of
    that one array."""
    try:
        raws = [base64.b64decode(b, validate=True) for b in bits]
    except (TypeError, ValueError):
        for b, where in zip(bits, wheres):
            decode_array(b, np.uint8, f"{where}: mask bits")  # raises for the first one at fault
        raise
    sizes = np.fromiter(map(len, raws), np.int64, len(raws))
    n = h * w
    nbytes = np.where(h <= _INT64_MAX // w, (n + 7) // 8, -1)  # no mask holds 2**63 pixels
    _raise_first(sizes != nbytes, lambda i: DataError(
        f"{wheres[i]}: mask bits hold {sizes[i]} bytes, "
        f"a {h[i]}x{w[i]} mask packs into {-(-int(h[i]) * int(w[i]) // 8)}"))  # Python ints: no overflow
    packed = np.frombuffer(b"".join(raws), np.uint8)
    ends = np.cumsum(sizes)
    _raise_first(packed[ends - 1] & ((1 << (-n % 8)) - 1) != 0, lambda i: DataError(
        f"{wheres[i]}: mask bits set past the last of its {n[i]} pixels"))
    flat = np.unpackbits(packed)
    return [flat[8 * start : 8 * start + size].reshape(rows, cols)
            for start, size, rows, cols in zip((ends - sizes).tolist(), n.tolist(), h.tolist(), w.tolist())]


def _list(value, what):
    if not isinstance(value, list):
        raise DataError(f"{what} must be a list, not {type(value).__name__}")
    return value


def _raise_first_fault(entries, version, path) -> None:
    """Raise the error of the first image or instance of ``entries``, in
    document order, that ``_read`` rejects on its own: a ``DataError``
    naming the image and, for an instance, its index. A name that an
    earlier image has is a fault of the later image, after its own fields."""
    first = {}  # the index of the first image of each name
    for k, entry in enumerate(entries):
        try:  # the image's own fields; an entry that is no object raises its DataError here
            _read([{**entry, "instances": []} if isinstance(entry, dict) else entry], version, path)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: image {entry['image']}: malformed entry: {exc}") from exc
        where = f"{path}: image {entry['image']}"
        if first.setdefault(entry["image"], k) != k:
            raise DataError(f"{where}: images {first[entry['image']]} and {k} have the same name")
        for i, rec in enumerate(_list(entry.get("instances", []), f"{where}: instances")):
            try:
                _read([{**entry, "instances": [rec]}], version, path)
            except DataError as exc:
                raise DataError(f"{exc} (instance {i})") from exc
            except (KeyError, TypeError, ValueError) as exc:
                raise DataError(f"{where}: malformed entry: {exc} (instance {i})") from exc


def read_manifest(path) -> list[ImageAnnotations]:
    path = Path(path)
    payload = read_json(path, "manifest")
    if not isinstance(payload, dict) or payload.get("format") != MANIFEST_FORMAT:
        raise DataError(f"{path}: not a {MANIFEST_FORMAT} file")
    version = payload.get("version")
    if not (is_number(version, int) and version in (1, 2, MANIFEST_VERSION)):
        raise DataError(f"{path}: unsupported manifest version {version!r}")
    entries = _list(payload.get("images", []), f"{path}: images")
    try:
        return _read(entries, version, path)
    except (DataError, OSError, KeyError, TypeError, ValueError):
        _raise_first_fault(entries, version, path)
        raise
