"""Binary-mask geometry: components, boundary contours, shape statistics.

A binary mask is a 2D uint8 array with values 0/1 indexed ``[y, x]``.
Contours are ``(n, 2)`` int arrays of (x, y) boundary pixel coordinates,
traced clockwise in image coordinates (y down) from the topmost-then-leftmost
pixel. Area is the shoelace polygon area over the contour vertices and the
perimeter is the arc length of the closed vertex loop, so a filled w x h
rectangle measures (w-1)(h-1) and 2(w-1)+2(h-1).

Masks are exchanged on disk as binary PGM (P5): 0 background, 255 foreground;
any value >= 128 reads back as foreground.
"""

from dataclasses import dataclass

import numpy as np

from foodcal.errors import DataError, EmptyComponent

# Moore neighborhood in clockwise order for image coordinates (y down):
# E, SE, S, SW, W, NW, N, NE
_DX = np.array([1, 1, 0, -1, -1, -1, 0, 1], dtype=np.int64)
_DY = np.array([0, 1, 1, 1, 0, -1, -1, -1], dtype=np.int64)

# _DIR_INDEX[dy + 1, dx + 1] -> direction index; center entry unused
_DIR_INDEX = np.full((3, 3), -1, dtype=np.int64)
for _d in range(8):
    _DIR_INDEX[_DY[_d] + 1, _DX[_d] + 1] = _d
del _d


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
    m = m.astype(np.uint8, copy=False)
    if not np.all((m == 0) | (m == 1)):
        raise ValueError("mask values must be exactly 0 or 1")
    return m


def connected_components(mask) -> list[np.ndarray]:
    """Split a mask into its 8-connected foreground components.

    Returns one full-size mask per component, ordered by (min-y, min-x) of
    the component's pixels (ties broken by first pixel in row-major order).
    Components are disjoint and their union is the input foreground.
    """
    m = as_mask(mask)
    ys, xs = np.nonzero(m)
    if ys.size == 0:
        return []
    y0, y1 = int(ys.min()), int(ys.max())
    x0, x1 = int(xs.min()), int(xs.max())
    sub = m[y0 : y1 + 1, x0 : x1 + 1]
    labels = _label(sub)

    ids = np.unique(labels)
    ids = ids[ids > 0]
    order = []
    for cid in ids:
        cy, cx = np.nonzero(labels == cid)
        first = int(np.argmin(cy * sub.shape[1] + cx))
        order.append(
            (int(cy.min()) + y0, int(cx.min()) + x0, int(cy[first]) * m.shape[1] + int(cx[first]), cid)
        )
    order.sort()

    out = []
    for *_key, cid in order:
        comp = np.zeros_like(m)
        comp[y0 : y1 + 1, x0 : x1 + 1] = (labels == cid).astype(np.uint8)
        out.append(comp)
    return out


def _label(mask):
    """Label by iterated max-propagation of unique seeds over 8-neighborhoods.

    Converges in O(geodesic diameter) vectorized sweeps; callers crop to the
    foreground bounding box to keep that cheap. Component ids are arbitrary;
    callers renumber, so only the partition matters.
    """
    fg = mask != 0
    h, w = mask.shape
    labels = np.where(fg, np.arange(1, h * w + 1, dtype=np.int64).reshape(h, w), 0)
    while True:
        p = np.pad(labels, 1)
        neigh = np.maximum.reduce(
            [
                p[0:h, 0:w],
                p[0:h, 1 : w + 1],
                p[0:h, 2 : w + 2],
                p[1 : h + 1, 0:w],
                p[1 : h + 1, 2 : w + 2],
                p[2 : h + 2, 0:w],
                p[2 : h + 2, 1 : w + 1],
                p[2 : h + 2, 2 : w + 2],
            ]
        )
        new = np.where(fg, np.maximum(labels, neigh), 0)
        if np.array_equal(new, labels):
            return labels
        labels = new


def _trace_loops(mask, dxs, dys, dir_index, out):
    """Clockwise border following from the first foreground pixel in
    row-major order. State is the directed edge (previous, current); the
    predecessor of the start on the clockwise cycle is found up front by a
    counterclockwise scan, so the walk stops exactly when that closing edge
    recurs. Writes (x, y) rows into ``out``; returns the point count, 0 for
    an empty mask, or -1 if the safety cap in ``out`` is hit (which would
    indicate a bug, not bad input)."""
    h, w = mask.shape
    sy = -1
    sx = -1
    for y in range(h):
        for x in range(w):
            if mask[y, x] != 0:
                sy = y
                sx = x
                break
        if sy >= 0:
            break
    if sy < 0:
        return 0
    out[0, 0] = sx
    out[0, 1] = sy
    n = 1
    # The start is topmost-then-leftmost, so its W neighbor is background;
    # scanning counterclockwise from W finds the pixel that re-enters the
    # start at the end of the clockwise cycle.
    ppy = -1
    ppx = -1
    for k in range(8):
        d = (4 - k) % 8
        ny = sy + dys[d]
        nx = sx + dxs[d]
        if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] != 0:
            ppy = ny
            ppx = nx
            break
    if ppy < 0:
        return n  # isolated pixel
    py = sy
    px = sx
    qy = ppy  # previous boundary pixel
    qx = ppx
    while True:
        back = dir_index[qy - py + 1, qx - px + 1]
        cy = -1
        cx = -1
        for k in range(1, 9):
            d = (back + k) % 8
            ny = py + dys[d]
            nx = px + dxs[d]
            if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] != 0:
                cy = ny
                cx = nx
                break
        if cy == sy and cx == sx and py == ppy and px == ppx:
            return n
        if n >= out.shape[0]:
            return -1
        out[n, 0] = cx
        out[n, 1] = cy
        n += 1
        qy = py
        qx = px
        py = cy
        px = cx


def _trace(mask):
    cap = 8 * int(np.count_nonzero(mask)) + 8
    out = np.empty((cap, 2), dtype=np.int64)
    n = _trace_loops(mask, _DX, _DY, _DIR_INDEX, out)
    if n < 0:  # pragma: no cover - cap is generous
        raise RuntimeError("contour trace exceeded safety cap")
    return out[:n].copy()


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


def mask_bbox(mask) -> tuple[int, int, int, int]:
    """Tight (x, y, w, h) bounding box of the foreground pixels."""
    m = as_mask(mask)
    ys, xs = np.nonzero(m)
    if ys.size == 0:
        raise EmptyComponent("mask has no foreground pixels")
    x0, y0 = int(xs.min()), int(ys.min())
    return (x0, y0, int(xs.max()) - x0 + 1, int(ys.max()) - y0 + 1)


def write_pgm(path, mask) -> None:
    """Write a mask as binary PGM (P5), foreground as 255."""
    m = as_mask(mask)
    h, w = m.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write((m * np.uint8(255)).tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5) as a 0/1 mask (pixel >= 128 is foreground)."""
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
    if maxval > 255 or w < 1 or h < 1:
        raise DataError(f"{path}: unsupported PGM header (w={w} h={h} maxval={maxval})")
    if len(data) - pos < w * h:
        raise DataError(f"{path}: truncated PGM raster")
    raster = np.frombuffer(data, dtype=np.uint8, count=w * h, offset=pos)
    return (raster.reshape(h, w) >= 128).astype(np.uint8)
