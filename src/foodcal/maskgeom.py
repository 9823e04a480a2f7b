"""Binary-mask geometry: components, boundary contours, shape statistics.

A binary mask is a 2D uint8 array with values 0/1 indexed ``[y, x]``.
Contours are ``(n, 2)`` int arrays of (x, y) boundary pixel coordinates,
traced clockwise in image coordinates (y down) from the topmost-then-leftmost
pixel. Area is the shoelace polygon area over the contour vertices and the
perimeter is the arc length of the closed vertex loop, so a filled w x h
rectangle measures (w-1)(h-1) and 2(w-1)+2(h-1).

Masks of version 1 and 2 annotation manifests are binary PGM (P5) files: 0
background, 255 foreground; a pixel v reads back as foreground when
2v > maxval, so v >= 128 at 255. Version 3 stores masks in the manifest.
"""

from dataclasses import dataclass

import numpy as np

from foodcal.errors import DataError, EmptyComponent

# Moore neighborhood in clockwise order for image coordinates (y down):
# E, SE, S, SW, W, NW, N, NE
_DX = (1, 1, 0, -1, -1, -1, 0, 1)
_DY = (0, 1, 1, 1, 0, -1, -1, -1)


@dataclass(frozen=True)
class ShapeStats:
    """Geometry of one traced contour: bbox (x, y, w, h) in pixels,
    shoelace area in px^2, arc-length perimeter in px."""

    bbox: tuple[int, int, int, int]
    area_px: float
    perimeter_px: float


def as_mask(arr) -> np.ndarray:
    """Validate and convert to a uint8 0/1 mask."""
    m = np.asarray(arr)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"mask must be 2D and non-empty, got shape {m.shape}")
    if not np.all((m == 0) | (m == 1)):  # before the cast, which would wrap 256 to 0
        raise ValueError("mask values must be exactly 0 or 1")
    return m.astype(np.uint8, copy=False)


def foreground_slices(mask) -> tuple[slice, slice] | None:
    """Row and column slices of the foreground bounding box of a 2D array,
    or None when it has no non-zero entry. Does not validate the values."""
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(mask[rows[0] : rows[-1] + 1].any(axis=0))
    return slice(int(rows[0]), int(rows[-1]) + 1), slice(int(cols[0]), int(cols[-1]) + 1)


def connected_components(mask) -> list[np.ndarray]:
    """Split a mask into its 8-connected foreground components.

    Returns one full-size mask per component, ordered by (min-y, min-x) of
    the component's pixels (ties broken by first pixel in row-major order).
    Components are disjoint and their union is the input foreground.

    Labels horizontal runs, not pixels (He, Chao & Suzuki, IEEE Trans. Image
    Process. 17(5), 2008): one ``np.diff`` finds the runs of the foreground
    box, ``searchsorted`` pairs each run with the runs on the next row that
    touch it 8-connectedly, and a vectorised union-find over run indices
    (Wu, Otoo & Suzuki, Pattern Anal. Appl. 2009) min-hooks the roots of
    the pairs that still straddle two trees and pointer-jumps until every
    run points at its root. Every tree with a pair left merges each round,
    so there are O(log n) rounds, and a root is the first run of its
    component in row-major order.
    """
    m = as_mask(mask)
    box = foreground_slices(m)
    if box is None:
        return []
    sub = m[box]
    h, w = sub.shape
    # Flat indices over the box with one background column after each row,
    # so runs never wrap; the transitions alternate run start, run end.
    stride = w + 1
    flat = np.zeros(h * stride + 1, dtype=np.int8)
    flat[1:].reshape(h, stride)[:, :w] = sub
    edges = np.flatnonzero(np.diff(flat))
    starts, ends = edges[::2], edges[1::2]
    # The runs on the next row that touch run i are those ending at or after
    # its start and starting at or before its (exclusive) end, a slice since
    # the runs are in row-major order.
    lo = np.searchsorted(ends, starts + stride)
    count = np.searchsorted(starts, ends + stride, side="right") - lo
    a = np.repeat(np.arange(starts.size), count)
    b = np.arange(a.size) + np.repeat(lo - np.cumsum(count) + count, count)
    parent = np.arange(starts.size)
    while a.size:
        ra = parent[a]
        rb = parent[b]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            parent = jumped
        open_ = parent[a] != parent[b]
        a, b = a[open_], b[open_]
    is_root = parent == np.arange(starts.size)
    roots = np.flatnonzero(is_root)
    if roots.size == 1:
        return [m.copy()]
    of_run = (np.cumsum(is_root) - 1)[parent]  # component of each run, in root order
    min_x = np.full(roots.size, w, dtype=np.int64)
    np.minimum.at(min_x, of_run, starts % stride)
    # A root run holds its component's first pixel, so its row is the min-y.
    rank = np.empty(roots.size, dtype=np.int64)
    rank[np.lexsort((roots, min_x, starts[roots] // stride))] = np.arange(1, roots.size + 1)
    # int32 compares faster than int64 and holds any rank short of a mask
    # of 2**32 pixels
    paint = np.zeros(h * stride, dtype=np.int32)
    paint[starts] = rank[of_run]
    paint[ends] = -rank[of_run]
    labels = np.cumsum(paint, dtype=np.int32).reshape(h, stride)[:, :w]

    out = []
    for k in range(1, roots.size + 1):
        comp = np.zeros_like(m)
        comp[box] = labels == k
        out.append(comp)
    return out


def _trace(mask):
    """Clockwise border following from the first foreground pixel in
    row-major order, over a flat byte view of the foreground bounding box
    with a zero border, so no neighbour lookup needs a bounds check. State
    is the directed edge (previous, current); the predecessor of the start
    on the clockwise cycle is found up front by a counterclockwise scan, so
    the walk stops exactly when that closing edge recurs. Returns (x, y)
    rows in the coordinates of ``mask``; empty for an empty mask.
    """
    box = foreground_slices(mask)
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
        else:  # pragma: no cover - a closed border is at most 8 moves per pixel
            raise RuntimeError("contour trace exceeded safety cap")
    flat = np.array(points, dtype=np.int64)
    ys, xs = np.divmod(flat, stride)
    return np.column_stack((xs + (box[1].start - 1), ys + (box[0].start - 1)))


def trace_contour(component) -> np.ndarray:
    """Trace the outer boundary of a single-component mask.

    Moore-neighbor tracing: starts at the topmost-then-leftmost foreground
    pixel and walks clockwise (image coordinates, y down); the walk stops
    when the start pixel is re-entered from its original backtrack position.
    Returns an (n, 2) int64 array of (x, y) points. Raises EmptyComponent
    if the mask has no foreground.
    """
    m = as_mask(component)
    pts = _trace(m)
    if pts.shape[0] == 0:
        raise EmptyComponent("cannot trace a mask with no foreground pixels")
    return pts


def shape_stats(contour) -> ShapeStats:
    """Shoelace area, arc-length perimeter, and tight bbox of a contour.

    A single-point contour yields area 0, perimeter 0 and a 1x1 bbox.
    """
    pts = np.asarray(contour, dtype=np.int64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError(f"contour must be a non-empty (n, 2) array, got shape {pts.shape}")
    x = pts[:, 0].astype(np.float64)
    y = pts[:, 1].astype(np.float64)
    x2 = np.roll(x, -1)
    y2 = np.roll(y, -1)
    area = abs(float(np.sum(x * y2 - x2 * y))) / 2.0
    perimeter = float(np.sum(np.hypot(x2 - x, y2 - y)))
    bx0 = int(pts[:, 0].min())
    by0 = int(pts[:, 1].min())
    bbox = (bx0, by0, int(pts[:, 0].max()) - bx0 + 1, int(pts[:, 1].max()) - by0 + 1)
    return ShapeStats(bbox=bbox, area_px=area, perimeter_px=perimeter)


def write_pgm(path, mask) -> None:
    """Write a mask as binary PGM (P5), foreground as 255."""
    m = as_mask(mask)
    h, w = m.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write((m * np.uint8(255)).tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5) as a 0/1 mask (pixel v is foreground if 2v > maxval)."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P5"):
        raise DataError(f"{path}: not a binary PGM (P5) file")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1  # single whitespace byte after maxval
    try:
        w, h, maxval = (int(v) for v in fields)
    except ValueError as exc:
        raise DataError(f"{path}: malformed PGM header") from exc
    if not 1 <= maxval <= 255 or w < 1 or h < 1:
        raise DataError(f"{path}: unsupported PGM header (w={w} h={h} maxval={maxval})")
    if len(data) - pos < w * h:
        raise DataError(f"{path}: truncated PGM raster")
    raster = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos).reshape(h, w)
    if maxval < 255 and raster.max() > maxval:
        raise DataError(f"{path}: a pixel is above the PGM maxval {maxval}")
    return (raster > maxval // 2).astype(np.uint8)
