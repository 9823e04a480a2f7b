"""Version 1 and 2 manifests, which store each mask as a PGM file, for the
tests of the readers that still load them.

``write_pgm_manifest`` writes what the version 2 writer wrote: each mask's
tight foreground window as ``masks/<image>_iNN.pgm`` with its
``mask_origin``, and an empty mask as a 1x1 background PGM at [0, 0]. For
version 1 it writes each mask as the whole image instead, with no origin.
"""

import json
from pathlib import Path

import numpy as np

from foodcal import maskgeom


def paste(mask, origin, height, width):
    """The height x width frame of a mask cropped at ``origin`` (x, y)."""
    frame = np.zeros((height, width), np.uint8)
    (x, y), (h, w) = origin, mask.shape
    frame[y : y + h, x : x + w] = mask
    return frame


def write_pgm_manifest(path, images, version=2) -> Path:
    """Write ``images`` (``manifests.ImageAnnotations``) as a version 1 or 2
    manifest at ``path``, with its PGM masks in ``masks/`` beside it."""
    path = Path(path)
    (path.parent / "masks").mkdir(parents=True, exist_ok=True)
    doc = {"format": "foodcal-annotations", "version": version, "images": []}
    for img in images:
        entry = {"image": img.name, "width": img.width, "height": img.height, "instances": []}
        for k, inst in enumerate(img.instances):
            rec = {"class": inst.label.value, "bbox": [int(v) for v in inst.bbox]}
            if inst.confidence is not None:
                rec["confidence"] = inst.confidence
            if inst.mask is not None:
                rec["mask"] = f"masks/{img.name}_i{k:02d}.pgm"
                frame = paste(inst.mask, inst.origin, img.height, img.width)
                if version == 1:
                    maskgeom.write_pgm(path.parent / rec["mask"], frame)
                else:
                    box = maskgeom.foreground_slices(frame)
                    crop, origin = (np.zeros((1, 1), np.uint8), (0, 0)) if box is None else (
                        frame[box], (box[1].start, box[0].start))
                    maskgeom.write_pgm(path.parent / rec["mask"], crop)
                    rec["mask_origin"] = [int(v) for v in origin]
            if inst.calories_kcal is not None:
                rec["calories_kcal"] = inst.calories_kcal
            entry["instances"].append(rec)
        doc["images"].append(entry)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path
