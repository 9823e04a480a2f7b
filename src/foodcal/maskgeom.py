"""Binary-mask geometry: components, boundary contours, shape statistics.

A binary mask is a 2D uint8 array with values 0/1 indexed ``[y, x]``.
Contours are ``(n, 2)`` int arrays of (x, y) boundary pixel coordinates,
traced clockwise in image coordinates (y down) from the topmost-then-leftmost
pixel. Area is the shoelace polygon area over the contour vertices and the
perimeter is the arc length of the closed vertex loop, so a filled w x h
rectangle measures (w-1)(h-1) and 2(w-1)+2(h-1).

``largest_component_stats`` measures a batch of masks in one pass. It
stacks their crops into one ``uint8`` canvas: a background row on top,
each crop below the one before with a background row after it, and a
background column on each side of the widest crop. Every 8-neighbour of a
crop pixel is then a cell of the canvas, and no run or neighbour reaches
into another crop. A canvas holds at most ``_CANVAS_CELLS`` cells, so a
large batch takes several. On a canvas:

- the runs are labelled once, with the union-find of
  ``connected_components``;
- each crop's largest component is picked from its run lengths. Of equal
  sizes, the winner is the component first in ``connected_components``'
  order: min-y, then min-x, then first pixel. (The order of the root runs
  alone is the first pixel's order, which is not the same);
- that component is traced from its first pixel, on the canvas as it is:
  no other component is an 8-neighbour of it, so none is painted out. The
  8-neighbour code of every cell (bit d set when the neighbour in direction
  d is foreground) is computed once for the canvas, and each move of the
  walk is one lookup in a 256 x 8 table indexed by (code, back direction),
  as in Seo et al., Sensors 16(3):353, 2016;
- the shoelace areas of all contours are one ``np.add.reduceat``, exact
  since the sums are integers below 2**53, and each perimeter is one
  ``np.sum`` over its contour's slice, so its bits do not change.

``connected_components``, ``trace_contour`` and ``shape_stats`` run the
same code on a canvas of one crop or on one contour.

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

# The tables of the contour walk, over 8-neighbour codes (bit d set when the
# neighbour in direction d is foreground). Entry code << 3 | back of
# _NEXT_DIR is the first direction clockwise after back that leads to a
# foreground pixel, and _NEXT_BACK the back direction on arriving there;
# _FIRST_BACK[code] is the first foreground direction counterclockwise from
# W. Code 0, an isolated pixel, has no move.
_NEXT_DIR = [next((d % 8 for d in range(b + 1, b + 9) if c >> d % 8 & 1), 0) for c in range(256) for b in range(8)]
_NEXT_BACK = [(d + 4) % 8 for d in _NEXT_DIR]
_FIRST_BACK = [next((d for d in (4, 3, 2, 1, 0, 7, 6, 5) if c >> d & 1), -1) for c in range(256)]

# Cells of one measuring canvas: 256 KiB of uint8, a few times that in
# temporaries however many masks a call measures, and small enough that the
# passes over it stay in cache. Caps from 2**17 to 2**19 measured alike on
# 644 masks of 320 px scenes; 2**21 took a third longer.
_CANVAS_CELLS = 2**18


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
    # before the cast, which would wrap 256 to 0; for uint8, one max is the
    # same test
    if not (m.max() <= 1 if m.dtype == np.uint8 else np.all((m == 0) | (m == 1))):
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


def _canvas(crops) -> tuple[np.ndarray, int, np.ndarray]:
    """``crops`` stacked into one canvas as the module docstring lays it
    out: its flat cells, its stride and the canvas row of each crop's top
    row."""
    stride = max(crop.shape[1] for crop in crops) + 2
    tops = np.cumsum([1] + [crop.shape[0] + 1 for crop in crops[:-1]])
    canvas = np.zeros((int(tops[-1]) + crops[-1].shape[0] + 1, stride), np.uint8)
    for top, crop in zip(tops.tolist(), crops):
        h, w = crop.shape
        canvas[top : top + h, 1 : 1 + w] = crop
    return canvas.ravel(), stride, tops


def _label_runs(flat, stride) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The horizontal runs of a canvas, as flat start and (exclusive) end
    indices in row-major order, and the root run of each.

    Union-find over runs (He, Chao & Suzuki, IEEE Trans. Image Process.
    17(5), 2008): ``searchsorted`` pairs each run with the runs on the next
    row that touch it 8-connectedly, and a vectorised union-find over run
    indices (Wu, Otoo & Suzuki, Pattern Anal. Appl. 2009) min-hooks the
    roots of the pairs that still straddle two trees and pointer-jumps until
    every run points at its root. Every tree with a pair left merges each
    round, so there are O(log n) rounds, and a root is the first run of its
    component in row-major order."""
    # the background columns part the rows, so the transitions alternate
    # run start, run end
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
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
    return starts, ends, parent


def _components(starts, parent, stride) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The component of each run, numbered in root order, and the root run
    and the min-x column of each component. A root run holds its
    component's first pixel, so its row is the component's min-y."""
    is_root = parent == np.arange(parent.size)
    roots = np.flatnonzero(is_root)
    of_run = (np.cumsum(is_root) - 1)[parent]
    min_x = np.full(roots.size, stride, dtype=np.int64)
    np.minimum.at(min_x, of_run, starts % stride)
    return of_run, roots, min_x


def connected_components(mask) -> list[np.ndarray]:
    """Split a mask into its 8-connected foreground components.

    Returns one full-size mask per component, ordered by (min-y, min-x) of
    the component's pixels (ties broken by first pixel in row-major order).
    Components are disjoint and their union is the input foreground. The
    runs of the foreground box are labelled on a canvas of one crop, as
    ``largest_component_stats`` labels many.
    """
    m = as_mask(mask)
    box = foreground_slices(m)
    if box is None:
        return []
    sub = m[box]
    h, w = sub.shape
    flat, stride, _ = _canvas([sub])
    starts, ends, parent = _label_runs(flat, stride)
    of_run, roots, min_x = _components(starts, parent, stride)
    if roots.size == 1:
        return [m.copy()]
    rank = np.empty(roots.size, dtype=np.int64)
    rank[np.lexsort((roots, min_x, starts[roots] // stride))] = np.arange(1, roots.size + 1)
    # int32 compares faster than int64 and holds any rank short of a mask
    # of 2**32 pixels
    paint = np.zeros(flat.size, dtype=np.int32)
    paint[starts] = rank[of_run]
    paint[ends] = -rank[of_run]
    labels = np.cumsum(paint, dtype=np.int32).reshape(-1, stride)[1 : h + 1, 1 : w + 1]

    out = []
    for k in range(1, roots.size + 1):
        comp = np.zeros_like(m)
        comp[box] = labels == k
        out.append(comp)
    return out


def _neighbour_codes(flat, stride) -> bytes:
    """The 8-neighbour code of every cell of a canvas: bit d is set when the
    neighbour in direction d is foreground. The first and last rows, which
    are background, read 0."""
    n = flat.size
    codes = np.zeros(n, np.uint8)
    inner = codes[stride + 1 : n - stride - 1]
    bit = np.empty_like(inner)
    for d, (dx, dy) in enumerate(zip(_DX, _DY)):
        off = dy * stride + dx
        # a 0/1 cell times 2**d; NumPy multiplies uint8 in SIMD but shifts it
        # one element at a time
        np.multiply(flat[stride + 1 + off : n - stride - 1 + off], np.uint8(1 << d), out=bit)
        inner |= bit
    return codes.tobytes()


def _moves(stride) -> tuple[list[int], list[int]]:
    """The flat offset of each direction, and of each ``_NEXT_DIR`` entry,
    on a canvas of ``stride``."""
    offsets = [dy * stride + dx for dx, dy in zip(_DX, _DY)]
    return offsets, [offsets[d] for d in _NEXT_DIR]


def _walk(codes, start, offsets, moves) -> list[int]:
    """Flat indices of the clockwise outer border of the component whose
    first pixel in row-major order is ``start``.

    Moore border following as a state machine over (pixel, back), where
    back is the direction of the pixel the walk came from: the next move is
    ``_NEXT_DIR[code << 3 | back]``, the first foreground neighbour
    clockwise after back. The start is topmost-then-leftmost, so its W
    neighbour is background, and its first foreground neighbour
    counterclockwise from W is its predecessor on the cycle: the walk stops
    exactly when the edge from there into the start recurs."""
    code = codes[start]
    if not code:  # an isolated pixel
        return [start]
    back = _FIRST_BACK[code]
    prev = start + offsets[back]
    points = [start]
    p, k = start, code << 3 | back
    for _ in range(8 * len(codes)):  # each (pixel, back) state comes up once
        c = p + moves[k]
        if c == start and p == prev:
            return points
        points.append(c)
        k = codes[c] << 3 | _NEXT_BACK[k]
        p = c
    raise RuntimeError("contour trace exceeded safety cap")  # pragma: no cover


def trace_contour(component) -> np.ndarray:
    """Trace the outer boundary of a single-component mask.

    Moore-neighbor tracing: starts at the topmost-then-leftmost foreground
    pixel and walks clockwise (image coordinates, y down); the walk stops
    when the start pixel is re-entered from its original backtrack position.
    Returns an (n, 2) int64 array of (x, y) points. Raises EmptyComponent
    if the mask has no foreground. The foreground box is walked on a canvas
    of one crop, as ``largest_component_stats`` walks many.
    """
    m = as_mask(component)
    box = foreground_slices(m)
    if box is None:
        raise EmptyComponent("cannot trace a mask with no foreground pixels")
    flat, stride, _ = _canvas([m[box]])
    start = int(np.argmax(flat))
    points = np.array(_walk(_neighbour_codes(flat, stride), start, *_moves(stride)), dtype=np.int64)
    ys, xs = np.divmod(points, stride)
    return np.column_stack((xs + (box[1].start - 1), ys + (box[0].start - 1)))


def _stats(x, y, bounds) -> list[ShapeStats]:
    """ShapeStats of the contours whose int64 (x, y) points are concatenated
    in ``x`` and ``y``, contour i in ``bounds[i]:bounds[i + 1]``.

    The shoelace sums go through one ``np.add.reduceat``: they add integers
    below 2**53, so every order of addition gives the same float. Each
    perimeter is one ``np.sum`` over its contour's slice, which adds in the
    same pairwise order as over the contour alone."""
    first = bounds[:-1]
    nxt = np.arange(1, x.size + 1)
    nxt[bounds[1:] - 1] = first
    xf = x.astype(np.float64)
    yf = y.astype(np.float64)
    x2, y2 = xf[nxt], yf[nxt]
    areas = (np.abs(np.add.reduceat(xf * y2 - x2 * yf, first)) / 2.0).tolist()
    steps = np.hypot(x2 - xf, y2 - yf)
    boxes = zip(*(ufunc.reduceat(v, first).tolist() for ufunc in (np.minimum, np.maximum) for v in (x, y)))
    return [
        ShapeStats(bbox=(x0, y0, x1 - x0 + 1, y1 - y0 + 1), area_px=area, perimeter_px=float(np.sum(steps[s:e])))
        for (x0, y0, x1, y1), area, s, e in zip(boxes, areas, first.tolist(), bounds[1:].tolist())
    ]


def shape_stats(contour) -> ShapeStats:
    """Shoelace area, arc-length perimeter, and tight bbox of a contour.

    A single-point contour yields area 0, perimeter 0 and a 1x1 bbox.
    """
    pts = np.asarray(contour, dtype=np.int64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError(f"contour must be a non-empty (n, 2) array, got shape {pts.shape}")
    return _stats(pts[:, 0], pts[:, 1], np.array([0, pts.shape[0]]))[0]


def _batches(crops):
    """``crops`` in order, in runs whose canvas holds at most
    ``_CANVAS_CELLS`` cells, or one crop."""
    batch, rows, width = [], 1, 0
    for crop in crops:
        h, w = crop.shape
        if batch and (rows + h + 1) * (max(width, w) + 2) > _CANVAS_CELLS:
            yield batch
            batch, rows, width = [], 1, 0
        batch.append(crop)
        rows += h + 1
        width = max(width, w)
    if batch:
        yield batch


def largest_component_stats(crops) -> list[ShapeStats]:
    """ShapeStats of the outer contour of the largest 8-connected component
    of each mask in ``crops``, in its own coordinates.

    Each mask must hold foreground, or this raises ValueError. Of equal
    sizes, the component first in ``connected_components``' order wins.
    The masks are measured together on canvases of at most
    ``_CANVAS_CELLS`` cells; see the module docstring.
    """
    crops = [as_mask(crop) for crop in crops]
    out = []
    for batch in _batches(crops):
        out += _largest_on_canvas(batch)
    return out


def _largest_on_canvas(crops) -> list[ShapeStats]:
    """``largest_component_stats`` of crops that share one canvas."""
    flat, stride, tops = _canvas(crops)
    starts, ends, parent = _label_runs(flat, stride)
    of_run, roots, min_x = _components(starts, parent, stride)
    first = starts[roots]
    row = first // stride
    owner = np.searchsorted(tops, row, side="right") - 1
    size = np.bincount(of_run, weights=ends - starts)  # exact: integers below 2**53
    # each crop's components by size, then in connected_components' order
    order = np.lexsort((first, min_x, row, -size, owner))
    pick = order[np.flatnonzero(np.diff(owner[order], prepend=-1))]
    if pick.size != len(crops):
        raise ValueError("every mask must hold foreground")
    codes = _neighbour_codes(flat, stride)
    offsets, moves = _moves(stride)
    points, bounds = [], [0]
    for start in first[pick].tolist():
        points += _walk(codes, start, offsets, moves)
        bounds.append(len(points))
    bounds = np.array(bounds)
    ys, xs = np.divmod(np.array(points, dtype=np.int64), stride)
    return _stats(xs - 1, ys - np.repeat(tops, np.diff(bounds)), bounds)


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
