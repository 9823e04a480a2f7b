import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foodcal import maskgeom, measurement, synth
from foodcal.errors import DataError, EmptyComponent

import mask_oracles
from mask_oracles import pixel_components


# ---------------------------------------------------------------------------
# independent oracles


def flood_components(mask):
    """Brute-force 8-connected components as frozensets of (x, y)."""
    h, w = mask.shape
    seen = np.zeros_like(mask, bool)
    comps = []
    for y in range(h):
        for x in range(w):
            if not mask[y, x] or seen[y, x]:
                continue
            comp = set()
            dq = deque([(y, x)])
            seen[y, x] = True
            while dq:
                cy, cx = dq.popleft()
                comp.add((cx, cy))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = cy + dy, cx + dx
                        if 0 <= ny < h and 0 <= nx < w and mask[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            dq.append((ny, nx))
            comps.append(frozenset(comp))
    return comps


def ordered_flood_components(mask):
    """flood_components in the documented order: (min-y, min-x, first pixel
    in row-major order)."""
    return sorted(
        flood_components(mask),
        key=lambda c: (min(y for _, y in c), min(x for x, _ in c), min((y, x) for x, y in c)),
    )


def outer_border(component):
    """Foreground pixels 4-adjacent to the background region that reaches
    outside the image, as a set of (x, y): the pixels a clockwise outer
    border walk must visit."""
    h, w = component.shape
    fg = np.zeros((h + 2, w + 2), bool)
    fg[1:-1, 1:-1] = component != 0
    outside = np.zeros_like(fg)
    outside[0, 0] = True
    dq = deque([(0, 0)])
    while dq:
        y, x = dq.popleft()
        for ny, nx in ((y + 1, x), (y - 1, x), (y, x + 1), (y, x - 1)):
            if 0 <= ny < h + 2 and 0 <= nx < w + 2 and not fg[ny, nx] and not outside[ny, nx]:
                outside[ny, nx] = True
                dq.append((ny, nx))
    return {
        (int(x) - 1, int(y) - 1)
        for y, x in zip(*np.nonzero(fg))
        if outside[y - 1, x] or outside[y + 1, x] or outside[y, x - 1] or outside[y, x + 1]
    }


def check_against_oracles(mask):
    """Components match the ordered flood fill; each contour starts at the
    topmost-then-leftmost pixel, steps between 8-neighbours, and visits
    exactly the outer border."""
    comps = maskgeom.connected_components(mask)
    assert [frozenset(zip(*np.nonzero(c)[::-1])) for c in comps] == ordered_flood_components(mask)
    for comp in comps:
        assert comp.shape == mask.shape and comp.dtype == np.uint8
        pts = maskgeom.trace_contour(comp)
        ys, xs = np.nonzero(comp)
        assert (pts[0, 1], pts[0, 0]) == (ys[0], xs[0])
        steps = np.abs(np.diff(np.vstack([pts, pts[:1]]), axis=0)).max(axis=1)
        assert len(pts) == 1 or np.all(steps == 1)
        assert {tuple(p) for p in pts.tolist()} == outer_border(comp)


def serpentine(rows, width):
    """One-pixel-wide path over every other row, turning at alternate ends."""
    m = np.zeros((2 * rows - 1, width), np.uint8)
    m[::2] = 1
    for r in range(rows - 1):
        m[2 * r + 1, width - 1 if r % 2 == 0 else 0] = 1
    return m


def spiral(side):
    """One-pixel-wide square spiral winding inwards, one-pixel gaps."""
    m = np.zeros((side, side), np.uint8)
    y, x, dy, dx = 0, 0, 0, 1
    m[0, 0] = 1
    while True:
        moved = False
        while True:
            ny, nx = y + dy, x + dx
            ay, ax = ny + dy, nx + dx
            inside = 0 <= ny < side and 0 <= nx < side
            if not inside or (0 <= ay < side and 0 <= ax < side and m[ay, ax]):
                break
            y, x = ny, nx
            m[y, x] = 1
            moved = True
        if not moved:
            return m
        dy, dx = dx, -dy  # turn clockwise (y down)


def shoelace_oracle(points):
    """Plain-loop shoelace area and arc length over a vertex list."""
    n = len(points)
    acc = 0.0
    perim = 0.0
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
        perim += ((x2 - x1) ** 2 + (y2 - y1) ** 2) ** 0.5
    return abs(acc) / 2.0, perim


def all_3x3_masks():
    for bits in itertools.product((0, 1), repeat=9):
        yield np.array(bits, dtype=np.uint8).reshape(3, 3)


def random_mask(rng, max_side=32):
    h = int(rng.integers(1, max_side + 1))
    w = int(rng.integers(1, max_side + 1))
    return (rng.random((h, w)) < rng.uniform(0.1, 0.9)).astype(np.uint8)


# ---------------------------------------------------------------------------
# foreground_slices


@st.composite
def sparse_masks(draw):
    """A few foreground pixels, often none, in frames down to 1 x N and
    N x 1, as uint8 or bool."""
    h = draw(st.integers(1, 24))
    w = draw(st.integers(1, 24))
    m = np.zeros((h, w), draw(st.sampled_from([np.uint8, np.bool_])))
    for _ in range(draw(st.integers(0, 4))):
        m[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = 1
    return m


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sparse_masks())
@example(np.zeros((5, 7), np.uint8))
@example(np.ones((1, 9), np.uint8))
@example(np.ones((9, 1), np.uint8))
@example(np.pad(np.zeros((4, 6), np.uint8), 1, constant_values=1))
@example(np.eye(6, 4, k=-2, dtype=np.uint8))
def test_foreground_slices_match_nonzero_box(m):
    ys, xs = np.nonzero(m)
    box = maskgeom.foreground_slices(m)
    if ys.size == 0:
        assert box is None
    else:
        assert box == (slice(int(ys.min()), int(ys.max()) + 1), slice(int(xs.min()), int(xs.max()) + 1))
        assert all(type(v) is int for sl in box for v in (sl.start, sl.stop))


# ---------------------------------------------------------------------------
# connected_components


def test_diagonal_pixels_are_one_component():
    m = np.zeros((3, 3), np.uint8)
    m[0, 0] = m[1, 1] = 1
    assert len(maskgeom.connected_components(m)) == 1


def test_empty_mask_gives_no_components():
    assert maskgeom.connected_components(np.zeros((5, 5), np.uint8)) == []


def test_full_3x3_is_one_component_of_nine():
    comps = maskgeom.connected_components(np.ones((3, 3), np.uint8))
    assert len(comps) == 1
    assert comps[0].sum() == 9


def test_components_match_flood_fill_on_all_3x3_masks():
    for m in all_3x3_masks():
        comps = maskgeom.connected_components(m)
        got = [frozenset(zip(*np.nonzero(c)[::-1])) for c in comps]
        expected = flood_components(m)
        assert sorted(got, key=sorted) == sorted(expected, key=sorted)
        # disjoint and union equals foreground
        if comps:
            stack = np.stack(comps)
            assert stack.sum(axis=0).max() <= 1
            assert np.array_equal(stack.any(axis=0).astype(np.uint8), m)


def test_component_order_is_min_y_then_min_x():
    m = np.zeros((4, 6), np.uint8)
    m[0, 4] = 1  # component A: starts high, far right
    m[3, 0] = 1  # component B: low but leftmost
    comps = maskgeom.connected_components(m)
    assert comps[0][0, 4] == 1
    assert comps[1][3, 0] == 1


def test_components_keep_input_dimensions():
    m = np.zeros((7, 9), np.uint8)
    m[2:4, 3:5] = 1
    (c,) = maskgeom.connected_components(m)
    assert c.shape == m.shape


@st.composite
def random_masks(draw, max_side=64):
    h = draw(st.integers(1, max_side))
    w = draw(st.integers(1, max_side))
    density = draw(st.floats(0.02, 0.98))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random((h, w)) < density).astype(np.uint8)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(random_masks())
def test_components_and_contours_match_oracles_on_random_masks(m):
    check_against_oracles(m)


def test_serpentine_is_one_component():
    m = serpentine(16, 40)
    (comp,) = maskgeom.connected_components(m)
    assert np.array_equal(comp, m)
    check_against_oracles(m)


def test_spiral_is_one_component():
    m = spiral(45)
    assert m.sum() > 45 * 45 // 2
    (comp,) = maskgeom.connected_components(m)
    assert np.array_equal(comp, m)
    check_against_oracles(m)


def test_component_order_uses_min_x_before_first_pixel():
    # A's first pixel (5, 0) comes after B's (2, 0) in row-major order, but
    # A reaches further left (min-x 1), so A comes first
    m = np.zeros((7, 7), np.uint8)
    m[0:7, 5] = 1
    m[6, 1:6] = 1
    m[0:4, 2:4] = 1
    a, b = maskgeom.connected_components(m)
    assert a[0, 5] == 1 and b[0, 2] == 1
    check_against_oracles(m)


@pytest.mark.parametrize(
    "m",
    [
        np.pad(np.zeros((6, 9), np.uint8), 1, constant_values=1),  # frame on all four borders
        np.eye(12, dtype=np.uint8) | np.eye(12, dtype=np.uint8)[::-1],  # X corner to corner
        (np.indices((11, 13)).sum(axis=0) % 2 == 0).astype(np.uint8),  # checkerboard
        np.ones((9, 14), np.uint8),
    ],
    ids=["frame", "cross", "checkerboard", "full"],
)
def test_masks_touching_all_borders(m):
    check_against_oracles(m)


@pytest.mark.parametrize(
    "line", [[1], [1, 1, 0, 1, 0, 0, 1, 1, 1], [0, 1, 0, 1, 0], [1] * 50 + [0] + [1] * 3]
)
def test_single_row_and_column_masks(line):
    row = np.array([line], np.uint8)
    check_against_oracles(row)
    check_against_oracles(row.T.copy())


def tiled_copies(rng):
    """Copies of one random tile, each flipped or transposed at random, in
    the cells of a grid with a background gap between cells: components of
    equal size in every arrangement, so the first of them in the documented
    order is the one ``max(..., key=sum)`` keeps."""
    side = int(rng.integers(1, 6))
    tile = (rng.random((side, side)) < rng.uniform(0.3, 1.0)).astype(np.uint8)
    tile[rng.integers(side), rng.integers(side)] = 1
    rows, cols = (int(v) for v in rng.integers(1, 5, 2))
    cell = side + 1 + int(rng.integers(0, 3))
    m = np.zeros((rows * cell, cols * cell), np.uint8)
    for r in range(rows):
        for c in range(cols):
            t = tile[:: rng.choice([-1, 1]), :: rng.choice([-1, 1])]
            t = t.T if rng.random() < 0.5 else t
            if rng.random() < 0.8:
                oy, ox = (int(v) for v in rng.integers(0, cell - side, 2))
                m[r * cell + oy : r * cell + oy + side, c * cell + ox : c * cell + ox + side] = t
    return m


def checkerboard(rng):
    h, w = (int(v) for v in rng.integers(1, 40, 2))
    return (np.indices((h, w)).sum(axis=0) % 2 == rng.integers(2)).astype(np.uint8)


def comb(rng):
    """One-pixel teeth a gap apart, with or without a spine, either way up."""
    h, w = (int(v) for v in rng.integers(1, 40, 2))
    m = np.zeros((h, w), np.uint8)
    m[:, rng.integers(2) :: int(rng.integers(2, 4))] = 1
    if rng.random() < 0.5:
        m[rng.choice([0, h - 1])] = 1
    return m.T.copy() if rng.random() < 0.5 else m


def diagonal_steps(rng):
    """One run per row, each placed so it touches the run above only at a
    corner, misses it by one pixel, or overlaps it."""
    h = int(rng.integers(1, 30))
    w = 48
    m = np.zeros((h, w), np.uint8)
    x0, x1 = 20, 20 + int(rng.integers(1, 4))
    for y in range(h):
        m[y, x0:x1] = 1
        length = int(rng.integers(1, 4))
        step = rng.choice(["right corner", "left corner", "right gap", "left gap", "overlap"])
        if step == "right corner":
            x0 = x1
        elif step == "left corner":
            x0 = x0 - 1 - length
        elif step == "right gap":
            x0 = x1 + 1
        elif step == "left gap":
            x0 = x0 - 2 - length
        x0 = min(max(x0, 0), w - length)
        x1 = x0 + length
    return m


MASK_KINDS = {
    "random": lambda rng: random_mask(rng, max_side=40),
    "tied": tiled_copies,
    "checkerboard": checkerboard,
    "comb": comb,
    "diagonal": diagonal_steps,
}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(MASK_KINDS)), st.integers(0, 2**32 - 1), st.integers(0, 3), st.booleans())
def test_run_labels_match_the_pixel_oracle(kind, seed, pad, as_bool):
    rng = np.random.default_rng(seed)
    m = np.pad(MASK_KINDS[kind](rng), ((pad, 0), (0, pad)))
    m = m.astype(bool) if as_bool else m
    got = maskgeom.connected_components(m)
    want = pixel_components(m)
    assert len(got) == len(want)
    for g, e in zip(got, want):
        assert g.dtype == np.uint8 and g.shape == m.shape
        assert np.array_equal(g, e)


def _tie_on_min_x():
    # A (12 px): column x=5 with a foot to x=1; B (12 px): block at x 2-3.
    # Both start on row 0 and B's first pixel comes first, but A reaches
    # further left, so A is first.
    m = np.zeros((9, 7), np.uint8)
    m[0:8, 5] = 1
    m[7, 1:5] = 1
    m[0:6, 2:4] = 1
    return m, (0, 5)


def _tie_on_first_pixel():
    # A (8 px): block at x 1-2; B (8 px): column x=4 with a foot to x=1.
    # Same min-y and min-x, so the first pixel decides: A's (0, 1).
    m = np.zeros((7, 6), np.uint8)
    m[0:4, 1:3] = 1
    m[0:5, 4] = 1
    m[5, 1:4] = 1
    return m, (0, 1)


@pytest.mark.parametrize("case", [_tie_on_min_x, _tie_on_first_pixel], ids=["min-x", "first-pixel"])
def test_largest_of_tied_components_is_the_first_in_order(case):
    m, winner = case()
    comps = maskgeom.connected_components(m)
    assert len(comps) == 2 and comps[0].sum() == comps[1].sum()
    assert max(comps, key=lambda c: int(c.sum()))[winner] == 1
    assert all(np.array_equal(g, e) for g, e in zip(comps, pixel_components(m)))


def necked_blobs(rng):
    """Two rectangles joined by a one-pixel-wide neck, straight or through
    a single corner, or not joined at all, beside a few lone pixels."""
    h, w = (int(v) for v in rng.integers(8, 30, 2))
    m = np.zeros((h, w), np.uint8)
    a = int(rng.integers(2, w // 2 - 1))
    m[: h // 2, :a] = 1
    m[h // 2 + 1 :, a + 2 :] = 1
    neck = rng.choice(["straight", "corner", "none"])
    if neck == "straight":
        m[h // 2 - 1 : h // 2 + 2, a] = 1  # down from the first block
        m[h // 2 + 1, a : a + 2] = 1  # and right into the second
    elif neck == "corner":
        m[h // 2, a] = 1  # touches the first block's corner cell and the second's only diagonally
    for y, x in zip(rng.integers(0, h, 3), rng.integers(0, w, 3)):
        m[y, x] = 1
    return m[:: rng.choice([-1, 1]), :: rng.choice([-1, 1])]


def lone_pixels(rng):
    """Pixels a background pixel apart on both axes: every component is one
    pixel, and all of them tie."""
    h, w = (int(v) for v in rng.integers(1, 30, 2))
    m = np.zeros((h, w), np.uint8)
    m[::2, ::2] = rng.random(m[::2, ::2].shape) < 0.5
    return m


BATCH_KINDS = {**MASK_KINDS, "necked": necked_blobs, "pixels": lone_pixels, "tie": lambda rng: _tie_on_min_x()[0]}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.tuples(st.sampled_from(sorted(BATCH_KINDS)), st.integers(0, 2**32 - 1), st.booleans()),
             min_size=1, max_size=12),
    st.sampled_from([1, 64, 700, 5000, None]),
)
@example([("tie", 0, False), ("tie", 0, True), ("random", 1, True)], None)
@example([("necked", 4, True)] * 3 + [("comb", 5, False)], 64)
@example([("pixels", 6, False), ("pixels", 7, True)], None)
def test_batch_matches_the_per_mask_oracle(specs, cap):
    # the largest component of each crop, the first of equal sizes in
    # component order, traced and measured: bit for bit the per-mask oracle,
    # on one canvas or, under a small cap, on several
    crops = []
    for kind, seed, tight in specs:
        rng = np.random.default_rng(seed)
        m = BATCH_KINDS[kind](rng)
        m[int(rng.integers(m.shape[0])), int(rng.integers(m.shape[1]))] = 1
        crops.append(m[maskgeom.foreground_slices(m)] if tight else m)  # tight crops touch all four edges
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(maskgeom, "_CANVAS_CELLS", cap)
        canvases = len(list(maskgeom._batches(crops)))
        got = maskgeom.largest_component_stats(crops)
    assert canvases == 1 or cap is not None
    assert got == [mask_oracles.largest_stats(c) for c in crops]


def test_batch_of_masks_crosses_the_canvas_cap(monkeypatch):
    rng = np.random.default_rng(3)
    crops = [random_mask(rng, max_side=20) for _ in range(30)]
    for m in crops:
        m[-1, 0] = 1
    monkeypatch.setattr(maskgeom, "_CANVAS_CELLS", 1000)
    assert len(list(maskgeom._batches(crops))) > 5
    assert maskgeom.largest_component_stats(crops) == [mask_oracles.largest_stats(c) for c in crops]


def test_batch_picks_the_first_of_tied_components_not_the_first_root_run():
    # B's root run (row 0, x 2) comes before A's (row 0, x 5), but A reaches
    # further left, so A is first in component order and is the one measured
    m, _ = _tie_on_min_x()
    a = np.zeros_like(m)
    a[0:8, 5] = 1
    a[7, 1:5] = 1
    (got,) = maskgeom.largest_component_stats([m])
    assert got == maskgeom.shape_stats(maskgeom.trace_contour(a))
    assert got.bbox == (1, 0, 5, 8)


def test_batch_rejects_a_mask_without_foreground():
    with pytest.raises(ValueError, match="every mask must hold foreground"):
        maskgeom.largest_component_stats([np.ones((2, 2), np.uint8), np.zeros((3, 3), np.uint8)])
    with pytest.raises(ValueError, match="exactly 0 or 1"):
        maskgeom.largest_component_stats([np.full((2, 2), 2, np.uint8)])
    assert maskgeom.largest_component_stats([]) == []


def test_trace_matches_the_probing_oracle_on_random_masks():
    rng = np.random.default_rng(21)
    for _ in range(300):
        m = random_mask(rng, max_side=24)
        for comp in maskgeom.connected_components(m):
            assert np.array_equal(maskgeom.trace_contour(comp), mask_oracles.trace(comp))


def test_measurements_match_with_the_pixel_oracle():
    # pixel labelling, the probing trace and per-contour sums, one mask at a time
    _, scenes = synth.generate_regression_dataset(synth.SceneConfig(), 180, 7)
    got = measurement.extract_batch([(s.instances, measurement.scale_from_detections(s.instances)) for s in scenes])
    want = [mask_oracles.scene_records(s) for s in scenes]
    assert sum(map(len, got)) == 180
    assert [[(r, r.instance) for r in recs] for recs in got] == [[(r, r.instance) for r in recs] for recs in want]
    assert [measurement.extract_features(s.instances, measurement.scale_from_detections(s.instances))
            for s in scenes] == got


@pytest.mark.parametrize(
    "shape", [serpentine(6, 15), spiral(21), random_mask(np.random.default_rng(9)), np.ones((1, 1), np.uint8)],
    ids=["serpentine", "spiral", "random", "pixel"],
)
def test_contour_does_not_depend_on_placement(shape):
    h, w = shape.shape
    expected = [maskgeom.trace_contour(c) for c in maskgeom.connected_components(shape)]
    for oy, ox in [(0, 0), (640 - h, 640 - w), (0, 640 - w), (640 - h, 0), (317, 5)]:
        image = np.zeros((640, 640), np.uint8)
        image[oy : oy + h, ox : ox + w] = shape
        got = [maskgeom.trace_contour(c) for c in maskgeom.connected_components(image)]
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e + [ox, oy])


# ---------------------------------------------------------------------------
# trace_contour


def test_single_pixel_contour():
    m = np.zeros((5, 5), np.uint8)
    m[3, 2] = 1
    assert maskgeom.trace_contour(m).tolist() == [[2, 3]]


def test_2x2_block_contour_order():
    m = np.zeros((3, 3), np.uint8)
    m[0:2, 0:2] = 1
    assert maskgeom.trace_contour(m).tolist() == [[0, 0], [1, 0], [1, 1], [0, 1]]


def test_filled_rectangle_boundary_count():
    # 10x5 rectangle: boundary pixel count oracle 2(10+5)-4 = 26
    m = np.zeros((7, 12), np.uint8)
    m[1:6, 1:11] = 1
    assert len(maskgeom.trace_contour(m)) == 26


def test_trace_empty_raises():
    with pytest.raises(EmptyComponent):
        maskgeom.trace_contour(np.zeros((3, 3), np.uint8))


def test_trace_start_and_adjacency_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = random_mask(rng)
        for comp in maskgeom.connected_components(m):
            pts = maskgeom.trace_contour(comp)
            ys, xs = np.nonzero(comp)
            assert pts[0, 1] == ys.min()
            assert pts[0, 0] == xs[ys == ys.min()].min()
            n = len(pts)
            for i in range(n):
                a = pts[i]
                b = pts[(i + 1) % n]
                assert max(abs(int(a[0] - b[0])), abs(int(a[1] - b[1]))) <= 1


def test_trace_clockwise_signed_area_nonnegative():
    # clockwise in image coordinates (y down) makes the y-down shoelace sum >= 0
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = random_mask(rng, max_side=16)
        for comp in maskgeom.connected_components(m):
            pts = maskgeom.trace_contour(comp).astype(float)
            x, y = pts[:, 0], pts[:, 1]
            signed = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) / 2.0
            assert signed >= 0.0


# ---------------------------------------------------------------------------
# shape_stats


def test_rectangle_stats_match_hand_values():
    m = np.zeros((8, 12), np.uint8)
    m[2:7, 1:11] = 1  # 10 wide, 5 tall
    st = maskgeom.shape_stats(maskgeom.trace_contour(m))
    assert st.area_px == 36.0  # (10-1)(5-1)
    assert st.perimeter_px == 26.0  # 2(9+4)
    assert st.bbox == (1, 2, 10, 5)


def test_single_point_stats():
    st = maskgeom.shape_stats(np.array([[4, 9]]))
    assert st.area_px == 0.0
    assert st.perimeter_px == 0.0
    assert st.bbox == (4, 9, 1, 1)


def test_square_contour_shoelace():
    st = maskgeom.shape_stats(np.array([[0, 0], [3, 0], [3, 3], [0, 3]]))
    assert st.area_px == 9.0


@pytest.mark.parametrize("w,h", [(2, 2), (3, 5), (10, 5), (17, 3), (32, 32)])
def test_rectangle_identities(w, h):
    m = np.zeros((h + 2, w + 2), np.uint8)
    m[1 : 1 + h, 1 : 1 + w] = 1
    st = maskgeom.shape_stats(maskgeom.trace_contour(m))
    assert st.area_px == (w - 1) * (h - 1)
    assert st.perimeter_px == 2 * (w - 1) + 2 * (h - 1)
    assert st.bbox[2:] == (w, h)


def test_stats_match_bruteforce_oracle_on_random_masks():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        m = random_mask(rng)
        comps = maskgeom.connected_components(m)
        if not comps:
            continue
        pts = maskgeom.trace_contour(comps[0])
        st = maskgeom.shape_stats(pts)
        area, perim = shoelace_oracle([tuple(p) for p in pts.tolist()])
        assert st.area_px == pytest.approx(area, abs=1e-9)
        assert st.perimeter_px == pytest.approx(perim, rel=1e-12)


def test_hflip_invariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = random_mask(rng, max_side=24)
        comps = maskgeom.connected_components(m)
        if len(comps) != 1:
            continue
        st = maskgeom.shape_stats(maskgeom.trace_contour(comps[0]))
        flipped = m[:, ::-1].copy()
        stf = maskgeom.shape_stats(maskgeom.trace_contour(maskgeom.connected_components(flipped)[0]))
        assert stf.area_px == pytest.approx(st.area_px, abs=1e-9)
        assert stf.perimeter_px == pytest.approx(st.perimeter_px, rel=1e-12)
        x, _, w, _ = st.bbox
        assert stf.bbox == (m.shape[1] - x - w, st.bbox[1], w, st.bbox[3])


# ---------------------------------------------------------------------------
# PGM round trip


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    m = (rng.random((13, 17)) < 0.5).astype(np.uint8)
    p = tmp_path / "m.pgm"
    maskgeom.write_pgm(p, m)
    assert np.array_equal(maskgeom.read_pgm(p), m)


def test_pgm_threshold_on_read(tmp_path):
    p = tmp_path / "gray.pgm"
    with open(p, "wb") as f:
        f.write(b"P5\n# a comment\n3 1\n255\n")
        f.write(bytes([0, 127, 128]))
    assert maskgeom.read_pgm(p).tolist() == [[0, 0, 1]]


@pytest.mark.parametrize(
    "maxval, pixels, expected",
    [(1, [0, 1, 1], [0, 1, 1]), (100, [50, 51, 100], [0, 1, 1]), (3, [1, 2, 3], [0, 1, 1]),
     (255, [127, 128, 255], [0, 1, 1])],
    ids=["maxval-1", "maxval-100", "maxval-3", "maxval-255"],
)
def test_pgm_foreground_is_above_half_of_maxval(tmp_path, maxval, pixels, expected):
    p = tmp_path / "low.pgm"
    p.write_bytes(f"P5\n3 1\n{maxval}\n".encode() + bytes(pixels))
    assert maskgeom.read_pgm(p).tolist() == [expected]


@pytest.mark.parametrize(
    "header, pixels, message",
    [(b"P5\n3 1\n0\n", [0, 0, 0], "maxval=0"), (b"P5\n3 1\n100\n", [0, 200, 1], "above the PGM maxval 100"),
     (b"P5\n2 1\n1\n", [1, 2], "above the PGM maxval 1")],
    ids=["maxval-0", "200-over-100", "2-over-1"],
)
def test_pgm_rejects_maxval_0_and_pixels_above_maxval(tmp_path, header, pixels, message):
    p = tmp_path / "bad.pgm"
    p.write_bytes(header + bytes(pixels))
    with pytest.raises(DataError, match=message):
        maskgeom.read_pgm(p)


def test_pgm_rejects_other_formats(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(DataError):
        maskgeom.read_pgm(p)


def test_pgm_rejects_truncated_raster(tmp_path):
    p = tmp_path / "short.pgm"
    p.write_bytes(b"P5\n4 3\n255\n" + bytes(11))
    with pytest.raises(DataError, match="truncated"):
        maskgeom.read_pgm(p)


@pytest.mark.parametrize("values", [[[256, 1]], [[0.5, 1.7]], [[1.0, np.nan]], [[-1, 0]]],
                         ids=["256", "fractions", "nan", "negative"])
def test_as_mask_checks_values_before_casting(values):
    with pytest.raises(ValueError, match="exactly 0 or 1"):
        maskgeom.as_mask(np.array(values))


def test_as_mask_accepts_bool_and_uint8():
    assert maskgeom.as_mask(np.array([[True, False]])).tolist() == [[1, 0]]
    assert maskgeom.as_mask(np.array([[True, False]])).dtype == np.uint8
    u = np.array([[0, 1]], dtype=np.uint8)
    assert maskgeom.as_mask(u) is u
    assert maskgeom.as_mask(np.array([[0.0, 1.0]])).tolist() == [[0, 1]]
