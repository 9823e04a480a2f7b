"""Per-mask oracles of the batch measurement in ``maskgeom``.

``pixel_components`` labels pixels, not runs; ``trace`` is the Moore walk
that probes a mask's neighbours one by one, as ``maskgeom`` did before it
walked a table of neighbour codes; ``shape_stats`` sums each contour on its
own through ``np.roll``. ``extract_features`` measures one instance at a
time with the three of them, as ``measurement.extract_features`` did before
it measured a batch on one canvas.
"""

import numpy as np

from foodcal import maskgeom, measurement
from foodcal.measurement import ClassLabel, FeatureRecord

# Moore neighbourhood in clockwise order for image coordinates (y down):
# E, SE, S, SW, W, NW, N, NE
_DX = (1, 1, 0, -1, -1, -1, 0, 1)
_DY = (0, 1, 1, 1, 0, -1, -1, -1)


def nonzero_box(mask):
    """Row and column slices of the bounding box of the non-zero entries of
    a 2-D array, from ``np.nonzero``; None when it has none."""
    ys, xs = np.nonzero(mask)
    if ys.size == 0:
        return None
    return slice(int(ys.min()), int(ys.max()) + 1), slice(int(xs.min()), int(xs.max()) + 1)


def pixel_label(mask):
    """8-connected labelling by vectorised union-find over pixels. Every
    pixel starts out pointing at the first pixel of its horizontal run; each
    round then min-hooks the roots of the run pairs that still straddle two
    trees and pointer-jumps until every pixel points at its root. Returns
    int64 labels, 0 for background; ids are arbitrary, only the partition
    matters.
    """
    fg = mask != 0
    h, w = mask.shape
    idx = np.arange(h * w, dtype=np.int64).reshape(h, w)
    run_start = fg.copy()
    run_start[:, 1:] &= ~fg[:, :-1]
    parent = np.maximum.accumulate(np.where(run_start, idx, 0), axis=1).ravel()
    # Pairs (y, x)-(y + 1, x + dx). A pair that follows one at (y, x - 1)
    # joins the same two runs, so only the first pair of each streak is kept.
    a, b = [], []
    for dx in (-1, 0, 1):
        x0, x1 = max(0, -dx), w - max(0, dx)
        both = fg[:-1, x0:x1] & fg[1:, x0 + dx : x1 + dx]
        both[:, 1:] &= ~both[:, :-1]
        src = idx[:-1, x0:x1][both]
        a.append(src)
        b.append(src + w + dx)
    a = np.concatenate(a)
    b = np.concatenate(b)
    while a.size:
        ra = parent[a]
        rb = parent[b]
        open_ = ra != rb
        a, b, ra, rb = a[open_], b[open_], ra[open_], rb[open_]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    return np.where(fg, parent.reshape(h, w) + 1, 0)


def pixel_components(mask):
    """connected_components as computed from ``pixel_label``: full-size
    masks in (min-y, min-x, first pixel) order."""
    m = maskgeom.as_mask(mask)
    box = nonzero_box(m)
    if box is None:
        return []
    sub = m[box]
    w = sub.shape[1]
    labels = pixel_label(sub).ravel()
    fg = np.flatnonzero(labels)
    ids, first, inverse = np.unique(labels[fg], return_index=True, return_inverse=True)
    first = fg[first]
    min_x = np.full(ids.size, w, dtype=np.int64)
    np.minimum.at(min_x, inverse, fg % w)
    out = []
    for k in np.lexsort((first, min_x, first // w)):
        comp = np.zeros_like(m)
        comp[box] = (labels == ids[k]).reshape(sub.shape)
        out.append(comp)
    return out


def trace(mask):
    """Clockwise border following from the first foreground pixel in
    row-major order, over a flat byte view of the foreground bounding box
    with a zero border, so no neighbour lookup needs a bounds check. State
    is the directed edge (previous, current); the predecessor of the start
    on the clockwise cycle is found up front by a counterclockwise scan, so
    the walk stops exactly when that closing edge recurs. Returns (x, y)
    rows in the coordinates of ``mask``; empty for an empty mask.
    """
    box = nonzero_box(mask)
    if box is None:
        return np.empty((0, 2), dtype=np.int64)
    sub = mask[box]
    h, w = sub.shape
    stride = w + 2
    pad = np.zeros((h + 2, stride), dtype=np.uint8)
    pad[1:-1, 1:-1] = sub
    buf = pad.tobytes()
    offsets = [dy * stride + dx for dx, dy in zip(_DX, _DY)] * 2
    start = buf.index(1)
    # The start is topmost-then-leftmost, so its W neighbour is background;
    # scanning counterclockwise from W finds the pixel that re-enters the
    # start at the end of the clockwise cycle.
    for k in range(8):
        back = (4 - k) % 8
        prev = start + offsets[back]
        if buf[prev]:
            break
    else:
        prev = -1  # isolated pixel
    points = [start]
    if prev >= 0:
        p = start
        for _ in range(8 * h * w + 8):
            for d in range(back + 1, back + 9):
                c = p + offsets[d]
                if buf[c]:
                    break
            if c == start and p == prev:
                break
            points.append(c)
            back = (d + 4) % 8
            p = c
        else:
            raise RuntimeError("contour trace exceeded safety cap")
    flat = np.array(points, dtype=np.int64)
    ys, xs = np.divmod(flat, stride)
    return np.column_stack((xs + (box[1].start - 1), ys + (box[0].start - 1)))


def shape_stats(contour):
    """Shoelace area, arc-length perimeter and tight bbox of one contour."""
    pts = np.asarray(contour, dtype=np.int64)
    x = pts[:, 0].astype(np.float64)
    y = pts[:, 1].astype(np.float64)
    x2 = np.roll(x, -1)
    y2 = np.roll(y, -1)
    area = abs(float(np.sum(x * y2 - x2 * y))) / 2.0
    perimeter = float(np.sum(np.hypot(x2 - x, y2 - y)))
    bx0 = int(pts[:, 0].min())
    by0 = int(pts[:, 1].min())
    bbox = (bx0, by0, int(pts[:, 0].max()) - bx0 + 1, int(pts[:, 1].max()) - by0 + 1)
    return maskgeom.ShapeStats(bbox=bbox, area_px=area, perimeter_px=perimeter)


def largest_stats(mask):
    """``shape_stats`` of the traced largest component of one mask; the
    first of equal sizes in component order wins, as ``max`` keeps it."""
    largest = max(pixel_components(mask), key=lambda c: int(c.sum()))
    return shape_stats(trace(largest))


def extract_features(detections, scale):
    """``measurement.extract_features``, one instance at a time: each mask
    cut to its foreground and measured on its own."""
    records = []
    for i, det in enumerate(detections):
        if det.label is ClassLabel.COIN or det.mask is None or not det.mask.any():
            continue
        stats = largest_stats(det.mask[nonzero_box(det.mask)])
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


def scene_records(scene):
    """``extract_features`` of a synthetic scene at its coin's scale."""
    return extract_features(scene.instances, measurement.scale_from_detections(scene.instances))
