"""Regression and detection/segmentation metrics.

Regression: MAE, MSE, RMSE (= sqrt(MSE) exactly), R^2. Detection: IoU for
boxes and masks, greedy confidence-ordered matching, average precision with
101-point interpolation, and per-class / mean summaries at IoU 0.5 plus the
0.50:0.05:0.95 threshold sweep. Precision/recall headline numbers use all
predictions at IoU 0.5 (no confidence cutoff) unless one is supplied.

Detection is scored in array passes, as COCO's reference evaluator
accumulates one precision array over every class and threshold, and box and
mask in one sweep. Once for both kinds, each image's predictions are ranked
by confidence, every same-class (prediction, ground truth) pair of every
image is found with one sort, and one stable sort pools the predictions by
class and confidence. Per kind, each pair's IoU is computed once (box pairs
in one vectorised pass, a mask pair on the overlap of its masks' windows,
each mask the crop at its instance's origin or a whole frame at (0, 0)),
each image is matched greedily at the first threshold and again only at a
threshold where one of its pairs stops passing, and the AP of all (class,
threshold) rows is one 2-D pass: a cumulative sum, the right-to-left
precision envelope and a lookup of the 101-point recall grid.
``average_precision`` is its one-row case.
"""

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from foodcal.errors import (
    DegenerateTarget,
    LengthMismatch,
    NoGroundTruth,
    ShapeMismatch,
)
from foodcal.measurement import ClassLabel, DetectionInstance

COCO_THRESHOLDS = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
_RECALL_GRID = np.linspace(0.0, 1.0, 101)
# keyed by value: an enum member hashes in Python, its value string in C
_LABEL_CODE = {label.value: code for code, label in enumerate(ClassLabel)}


# ---------------------------------------------------------------------------
# regression


@dataclass(frozen=True)
class RegressionReport:
    mae: float
    mse: float
    rmse: float
    r2: float


def regression_metrics(pred, truth) -> RegressionReport:
    p = np.asarray(pred, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 1 or p.size == 0:
        raise LengthMismatch(f"pred/truth must be equal-length non-empty vectors, got {p.shape} vs {t.shape}")
    err = p - t
    mae = float(np.mean(np.abs(err)))
    mse = float(np.mean(err**2))
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateTarget("R^2 undefined: truth vector has zero variance")
    r2 = 1.0 - float(np.sum(err**2)) / ss_tot
    return RegressionReport(mae=mae, mse=mse, rmse=math.sqrt(mse), r2=r2)


# ---------------------------------------------------------------------------
# IoU


def box_iou(a, b) -> float:
    """Intersection over union of (x, y, w, h) boxes; 0 when the union is empty."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def _box_ious(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``box_iou`` of each row of two (n, 4) float arrays of boxes, by the
    same float operations in the same order."""
    ax, ay, aw, ah = a.T
    bx, by, bw, bh = b.T
    ix = np.maximum(0.0, np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx))
    iy = np.maximum(0.0, np.minimum(ay + ah, by + bh) - np.maximum(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def mask_iou(a, b) -> float:
    """Intersection over union of two equal-shape 2-D masks (non-zero is
    foreground); 0 when the union is empty."""
    a, b = _crop(a), _crop(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"mask dimensions differ: {a.shape} vs {b.shape}")
    return float(_mask_ious([((0, 0), a)], [((0, 0), b)], [0], [0])[0])


def _crop(mask) -> np.ndarray:
    m = np.asarray(mask)
    if m.ndim != 2:
        raise ShapeMismatch(f"a mask must be 2-D, got shape {m.shape}")
    return m


def _crops(masks) -> tuple[list[np.ndarray], np.ndarray]:
    """The crops of (origin (x, y), mask) pairs, and the (top, left,
    bottom, right) of each one in the frame."""
    crops = [_crop(m) for _, m in masks]
    box = np.array([(y, x, y + c.shape[0], x + c.shape[1]) for ((x, y), _), c in zip(masks, crops)], np.int64)
    return crops, box.reshape(-1, 4)


def _mask_ious(a, b, pair_a, pair_b) -> np.ndarray:
    """IoU of the masks of each pair (a[pair_a[k]], b[pair_b[k]]), a mask
    being an (origin (x, y), crop) whose crop holds all of its foreground,
    the non-zero pixels. The intersection is counted on the overlap of the
    two crops only, and union = |A| + |B| - |A n B|: the same integers as a
    full-frame count. Crops that overlap no crop they are paired with are
    not counted: such a pair has IoU 0 whatever the areas."""
    (a_crops, a_box), (b_crops, b_box) = _crops(a), _crops(b)
    pair_a, pair_b = np.asarray(pair_a, dtype=np.int64), np.asarray(pair_b, dtype=np.int64)
    lo = np.maximum(a_box[pair_a, :2], b_box[pair_b, :2])
    hi = np.minimum(a_box[pair_a, 2:], b_box[pair_b, 2:])
    hit = np.flatnonzero((lo < hi).all(axis=1))
    # the overlap as (top, left, bottom, right) within each crop
    in_a, in_b = (np.hstack([lo - box[:, :2], hi - box[:, :2]])[hit].tolist()
                  for box in (a_box[pair_a], b_box[pair_b]))
    inter = np.zeros(len(pair_a), dtype=np.int64)
    inter[hit] = [
        np.count_nonzero(np.logical_and(a_crops[i][t:d, l:r], b_crops[j][u:e, m:s]))
        for i, j, (t, l, d, r), (u, m, e, s) in zip(pair_a[hit].tolist(), pair_b[hit].tolist(), in_a, in_b)
    ]
    area_a, area_b = np.zeros(len(a_crops), dtype=np.int64), np.zeros(len(b_crops), dtype=np.int64)
    for area, crops, pair in ((area_a, a_crops, pair_a), (area_b, b_crops, pair_b)):
        used = np.zeros(len(crops), dtype=bool)  # not np.unique: NumPy 2 imports numpy.ma for it
        used[pair[hit]] = True
        used = np.flatnonzero(used)
        area[used] = [np.count_nonzero(crops[i]) for i in used.tolist()]
    union = area_a[pair_a] + area_b[pair_b] - inter
    return np.divide(inter, union, out=np.zeros(len(pair_a)), where=union > 0)


def _check_kind(kind: str) -> None:
    if kind not in ("box", "mask"):
        raise ValueError(f"iou kind must be 'box' or 'mask', got {kind!r}")


def _candidates(preds_by_image, gts_by_image, kinds) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The match candidates of every prediction by each IoU kind of ``kinds``,
    the predictions taken image by image and in the order given within an
    image, as ``{kind: (starts, ious, gts)}``: prediction k's candidates are
    ``ious[starts[k]:starts[k + 1]]`` with their ground truths' indices within
    the image in ``gts``, highest IoU first and ties to the lower index. A
    candidate is a ground truth of the prediction's class in its image with
    IoU > 0. The pairs are found once, and each one's IoU once per kind: box
    pairs in one array pass, a mask pair on the windows of its two masks."""
    preds = [p for ps in preds_by_image for p in ps]
    gts = [g for gs in gts_by_image for g in gs]
    n_labels = len(_LABEL_CODE)
    p_key, g_key = (
        np.array([i * n_labels + code for i, dets in enumerate(images) for code in _codes(dets)], np.int64)
        for images in (preds_by_image, gts_by_image)
    )
    # every same-class pair of an image, grouped by prediction, ground truths in order
    g_order = np.argsort(g_key, kind="stable")
    lo, hi = (np.searchsorted(g_key[g_order], p_key, side) for side in ("left", "right"))
    count = hi - lo
    pair_p = np.repeat(np.arange(len(preds)), count)
    # pair k of a prediction is the ground truth at lo + k in key order
    pair_g = g_order[np.arange(len(pair_p)) + np.repeat(lo - (np.cumsum(count) - count), count)]
    g_index = np.array([j for gs in gts_by_image for j in range(len(gs))], np.int64)
    candidates = {}
    for kind in kinds:
        if kind == "box":
            p_box, g_box = (
                np.fromiter(chain.from_iterable(d.bbox for d in dets), np.float64).reshape(-1, 4)
                for dets in (preds, gts)
            )
            iou = _box_ious(p_box[pair_p], g_box[pair_g])
        else:
            iou = _mask_ious(*([(d.origin, d.mask) for d in dets] for dets in (preds, gts)), pair_p, pair_g)
        keep = np.flatnonzero(iou > 0.0)
        keep = keep[np.lexsort((-iou[keep], pair_p[keep]))]  # stable: equal IoUs keep ground-truth order
        candidates[kind] = np.searchsorted(pair_p[keep], np.arange(len(preds) + 1)), iou[keep], g_index[pair_g[keep]]
    return candidates


# ---------------------------------------------------------------------------
# matching


@dataclass(frozen=True)
class MatchResult:
    """Greedy matching output: prediction order (indices into the input list,
    confidence-descending), a TP flag per ordered prediction, and a matched
    flag per ground-truth instance."""

    order: tuple[int, ...]
    tp: tuple[bool, ...]
    gt_matched: tuple[bool, ...]


def _confidence_order(preds) -> list[int]:
    return sorted(range(len(preds)), key=lambda i: (-(preds[i].confidence or 0.0), i))


def _greedy_match(starts, ious, gts, threshold: float, num_gt: int) -> tuple[list[bool], list[bool]]:
    """TP flag per prediction and matched flag per ground truth of one image:
    each prediction in turn claims its best unmatched candidate at or above
    the threshold. Prediction k's candidates are ``ious[s:e]`` and ``gts[s:e]``
    for ``s, e = starts[k], starts[k + 1]``, in the order of ``_candidates``."""
    matched = [False] * num_gt
    tp = []
    for k in range(len(starts) - 1):
        hit = False
        for c in range(starts[k], starts[k + 1]):
            if ious[c] < threshold:
                break
            if not matched[gts[c]]:
                matched[gts[c]] = hit = True
                break
        tp.append(hit)
    return tp, matched


def match_detections(
    preds: list[DetectionInstance],
    gts: list[DetectionInstance],
    iou_threshold: float = 0.5,
    iou_kind: str = "box",
) -> MatchResult:
    """Greedy single-image matching.

    Predictions are visited in confidence-descending order (ties keep input
    order); each claims the unmatched same-class ground truth with the
    highest IoU at or above the threshold (IoU ties go to the lowest ground
    truth index). A pair with IoU 0 never matches. Unclaimed predictions are
    false positives.
    """
    _check_kind(iou_kind)
    order = _confidence_order(preds)
    starts, ious, gt_index = (a.tolist() for a in _candidates([[preds[i] for i in order]], [gts], [iou_kind])[iou_kind])
    tp, matched = _greedy_match(starts, ious, gt_index, iou_threshold, len(gts))
    return MatchResult(order=tuple(order), tp=tuple(tp), gt_matched=tuple(matched))


def _average_precisions(tp: np.ndarray, num_gt) -> np.ndarray:
    """101-point interpolated AP of each row of a (rows, n) array of
    confidence-ordered TP flags, row r of a class with ``num_gt[r]`` ground
    truths. A row may end in FP padding: it lowers no precision on the
    envelope and adds no recall, so it changes no AP."""
    rows, width = tp.shape
    if width == 0:
        tp, width = np.zeros((rows, 1), dtype=bool), 1
    cum_tp = np.cumsum(tp, axis=1)
    precision = cum_tp / np.arange(1, width + 1)  # TP + FP is the count so far
    envelope = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    # the least TP count k whose recall k / n, the float a row's recall
    # holds, is at least r - 1e-12, for each ground-truth count n and point r
    steps = {n: np.searchsorted(np.arange(n + 1) / n, _RECALL_GRID - 1e-12, side="left") for n in set(num_gt)}
    # the first point of each row with at least that many TPs, for all rows
    # in one search by lifting row r's counts by r * (width + 1); a count
    # above the width is reached nowhere and lands on the next row's start
    need = np.minimum([steps[n] for n in num_gt], width + 1)
    lift = np.arange(rows)[:, None] * (width + 1)
    idx = np.searchsorted((cum_tp + lift).ravel(), (need + lift).ravel(), side="left").reshape(rows, -1)
    idx -= np.arange(rows)[:, None] * width
    sampled = np.where(idx < width, np.take_along_axis(envelope, np.minimum(idx, width - 1), axis=1), 0.0)
    return sampled.mean(axis=1)


def average_precision(tp_sequence, num_gt: int) -> float:
    """101-point interpolated AP from a confidence-ordered TP/FP sequence.

    Precision at recall r is the maximum precision over points with recall
    at least r, averaged over r in {0, 0.01, ..., 1}.
    """
    if num_gt < 1:
        raise NoGroundTruth("average precision needs at least one ground-truth instance")
    return float(_average_precisions(np.asarray(tp_sequence, dtype=bool).reshape(1, -1), [num_gt])[0])


# ---------------------------------------------------------------------------
# dataset-level summary


@dataclass(frozen=True)
class ClassDetectionMetrics:
    precision: float
    recall: float
    ap50: float
    ap50_95: float
    num_gt: int


@dataclass(frozen=True)
class DetectionSummary:
    precision: float
    recall: float
    map50: float
    map50_95: float
    per_class: dict[str, ClassDetectionMetrics]  # last, as in detmetrics.json


@dataclass(frozen=True)
class DetectionReport:
    box: DetectionSummary
    mask: DetectionSummary | None = None


def _codes(dets) -> list[int]:
    return [_LABEL_CODE[d.label._value_] for d in dets]


def _image_flags(ranked, gts_by_image, candidates, thresholds) -> np.ndarray:
    """The (threshold, prediction) TP flags of every prediction of
    ``ranked``, each image's predictions in confidence order, all images in
    a row, from their ``_candidates`` of one IoU kind. ``thresholds`` ascend.

    A pair passes the thresholds at or below its IoU, so the set of pairs
    that pass changes only at a threshold where one of them stops passing,
    and the greedy outcome depends on nothing else. Each image is matched
    at the first threshold and again at each such change, and its flags
    hold until the next; once no pair passes, its predictions are FPs and
    no match is made, as when it has no pair at all. A prediction only
    claims ground truth of its own class, so matching all classes of an
    image together gives each class the flags it would get alone."""
    starts, ious, gt_index = candidates
    passed = np.searchsorted(thresholds, ious, side="right").tolist()  # thresholds each pair passes
    starts, ious, gt_index = starts.tolist(), ious.tolist(), gt_index.tolist()
    flags = np.zeros((len(thresholds), len(starts) - 1), dtype=bool)
    first = 0  # the image's first prediction
    for preds, gts in zip(ranked, gts_by_image):
        end = first + len(preds)
        # threshold 0, then each one at which one of the image's pairs stops
        # passing; from the last on, none passes
        cuts = sorted({0, *passed[starts[first] : starts[end]]})
        for t, stop in zip(cuts, cuts[1:]):
            flags[t:stop, first:end] = _greedy_match(starts[first : end + 1], ious, gt_index, thresholds[t],
                                                     len(gts))[0]
        first = end
    return flags


def _class_sweeps(preds_by_image, gts_by_image, kinds, conf_threshold, thresholds):
    """For each IoU kind of ``kinds`` and each class in the ground truth, in
    ``ClassLabel`` order: a (threshold, prediction) bool array of the TP flags
    of its predictions pooled across images in (-confidence, image, index)
    order, and its ground-truth count. ``thresholds`` ascend. Only the IoUs
    and the matching run once per kind; all else is shared."""
    if len(preds_by_image) != len(gts_by_image):
        raise LengthMismatch("prediction and ground-truth image lists differ in length")
    ranked = []  # each image's predictions in confidence order
    for preds in preds_by_image:
        if conf_threshold is not None:
            preds = [p for p in preds if (p.confidence or 0.0) >= conf_threshold]
        ranked.append([preds[i] for i in _confidence_order(preds)])
    # a stable sort on (class, -confidence) keeps (image, index) order among equals
    flat = [p for preds in ranked for p in preds]
    codes = np.array(_codes(flat), dtype=np.int64)
    pool = np.lexsort((np.array([-(p.confidence or 0.0) for p in flat]), codes))
    ends = np.cumsum(np.bincount(codes, minlength=len(_LABEL_CODE)))
    num_gt = np.bincount(np.array(_codes(g for gts in gts_by_image for g in gts), dtype=np.int64),
                         minlength=len(_LABEL_CODE)).tolist()
    # each class of the ground truth, with the columns of its predictions in pooled order
    classes = [(label, cols, n) for label, cols, n in zip(ClassLabel, np.split(pool, ends[:-1]), num_gt) if n]
    sweeps = {}
    for kind, candidates in _candidates(ranked, gts_by_image, kinds).items():
        flags = _image_flags(ranked, gts_by_image, candidates, thresholds)
        sweeps[kind] = {label: (flags[:, cols], n) for label, cols, n in classes}
    return sweeps


def _summary(sweeps) -> DetectionSummary:
    """The summary of one kind's ``_class_sweeps`` over ``COCO_THRESHOLDS``."""
    if not sweeps:
        return DetectionSummary(per_class={}, precision=0.0, recall=0.0, map50=0.0, map50_95=0.0)
    # every (class, threshold) sweep is one row, padded with FPs to the longest
    n_thr, width = len(COCO_THRESHOLDS), max(flags.shape[1] for flags, _ in sweeps.values())
    tps = np.zeros((len(sweeps), n_thr, width), dtype=bool)
    for row, (flags, _) in zip(tps, sweeps.values()):
        row[:, : flags.shape[1]] = flags
    num_gts = [num_gt for _, num_gt in sweeps.values()]
    aps = _average_precisions(tps.reshape(len(sweeps) * n_thr, width), [n for n in num_gts for _ in range(n_thr)])
    per_class = {}
    for (label, (flags, num_gt)), class_aps in zip(sweeps.items(), aps.reshape(-1, n_thr).tolist()):
        n_tp = int(np.count_nonzero(flags[0]))  # COCO_THRESHOLDS[0] is 0.5
        n_pred = flags.shape[1]
        per_class[label.value] = ClassDetectionMetrics(
            precision=n_tp / n_pred if n_pred else 0.0,
            recall=n_tp / num_gt,
            ap50=class_aps[0],
            ap50_95=sum(class_aps) / len(class_aps),
            num_gt=num_gt,
        )
    vals = list(per_class.values())
    return DetectionSummary(
        per_class=per_class,
        precision=sum(m.precision for m in vals) / len(vals),
        recall=sum(m.recall for m in vals) / len(vals),
        map50=sum(m.ap50 for m in vals) / len(vals),
        map50_95=sum(m.ap50_95 for m in vals) / len(vals),
    )


def map_summary(
    preds_by_image: list[list[DetectionInstance]],
    gts_by_image: list[list[DetectionInstance]],
    iou_kind: str = "box",
    conf_threshold: float | None = None,
) -> DetectionSummary:
    """Per-class and mean precision, recall, AP50, and AP averaged over the
    0.50:0.05:0.95 IoU sweep.

    Classes are the ones present in the ground truth; predictions for absent
    classes are ignored. Precision of a class with no predictions is 0.
    """
    _check_kind(iou_kind)
    sweeps = _class_sweeps(preds_by_image, gts_by_image, [iou_kind], conf_threshold, COCO_THRESHOLDS)
    return _summary(sweeps[iou_kind])


def detection_report(
    preds_by_image,
    gts_by_image,
    conf_threshold: float | None = None,
) -> DetectionReport:
    """Box summary always; mask summary, from the same sweep, when every instance carries a mask."""
    have_masks = all(
        inst.mask is not None
        for group in (preds_by_image, gts_by_image)
        for img in group
        for inst in img
    )
    kinds = ["box", "mask"] if have_masks else ["box"]
    sweeps = _class_sweeps(preds_by_image, gts_by_image, kinds, conf_threshold, COCO_THRESHOLDS)
    return DetectionReport(*(_summary(sweeps[kind]) for kind in kinds))


def summary_text(summary: DetectionSummary, title: str = "detections") -> str:
    """Aligned text table for terminal output."""
    lines = [
        f"{title}: P={summary.precision:.4f} R={summary.recall:.4f} "
        f"mAP50={summary.map50:.4f} mAP50-95={summary.map50_95:.4f}",
        f"  {'class':<10} {'P':>8} {'R':>8} {'AP50':>8} {'AP50-95':>9} {'#gt':>5}",
    ]
    for name, m in summary.per_class.items():
        lines.append(
            f"  {name:<10} {m.precision:>8.4f} {m.recall:>8.4f} {m.ap50:>8.4f} "
            f"{m.ap50_95:>9.4f} {m.num_gt:>5d}"
        )
    return "\n".join(lines)
