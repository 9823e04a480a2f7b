"""Regression and detection/segmentation metrics.

Regression: MAE, MSE, RMSE (= sqrt(MSE) exactly), R^2. Detection: IoU for
boxes and masks, greedy confidence-ordered matching, average precision with
101-point interpolation, and per-class / mean summaries at IoU 0.5 plus the
0.50:0.05:0.95 threshold sweep. Precision/recall headline numbers use all
predictions at IoU 0.5 (no confidence cutoff) unless one is supplied.

As in COCO's reference evaluator, the sweep computes the IoU of each
same-class (prediction, ground truth) pair of an image once and matches at
every threshold from it. Mask IoU counts the intersection on the overlap of
the two masks' windows only: each mask is the crop at its instance's origin,
as the manifest reader gives it, or a whole frame at (0, 0).
"""

import math
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass

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


def mask_iou(a, b) -> float:
    """Intersection over union of two equal-shape 2-D masks (non-zero is
    foreground); 0 when the union is empty."""
    a, b = _MaskWindow.of((0, 0), a), _MaskWindow.of((0, 0), b)
    if a.crop.shape != b.crop.shape:
        raise ShapeMismatch(f"mask dimensions differ: {a.crop.shape} vs {b.crop.shape}")
    return _window_iou(a, b)


@dataclass(frozen=True)
class _MaskWindow:
    """A mask as a boolean crop with its top-left corner in the frame and
    its pixel count. The crop need not be tight: the IoU is exact for any
    window that holds all of a mask's foreground."""

    top: int
    left: int
    crop: np.ndarray
    area: int

    @classmethod
    def of(cls, origin, mask) -> "_MaskWindow":
        m = np.asarray(mask)
        if m.ndim != 2:
            raise ShapeMismatch(f"a mask must be 2-D, got shape {m.shape}")
        crop = m != 0
        return cls(origin[1], origin[0], crop, int(np.count_nonzero(crop)))


def _window_iou(a: _MaskWindow, b: _MaskWindow) -> float:
    """Mask IoU with the intersection counted on the overlap of the two
    windows only; union = |A| + |B| - |A n B|, the same integers as a
    full-frame count."""
    top, left = max(a.top, b.top), max(a.left, b.left)
    bottom = min(a.top + a.crop.shape[0], b.top + b.crop.shape[0])
    right = min(a.left + a.crop.shape[1], b.left + b.crop.shape[1])
    inter = 0
    if top < bottom and left < right:
        inter = int(
            np.count_nonzero(
                a.crop[top - a.top : bottom - a.top, left - a.left : right - a.left]
                & b.crop[top - b.top : bottom - b.top, left - b.left : right - b.left]
            )
        )
    union = a.area + b.area - inter
    return inter / union if union > 0 else 0.0


def _check_kind(kind: str) -> None:
    if kind not in ("box", "mask"):
        raise ValueError(f"iou kind must be 'box' or 'mask', got {kind!r}")


def _match_candidates(preds, gts, kind) -> list[list[tuple[float, int]]]:
    """For each prediction, the (IoU, ground-truth index) of every same-class
    ground truth it overlaps, highest IoU first and ties to the lower index.
    Each pair's IoU is computed once, a mask's on the window it is stored in."""
    if kind == "box":
        iou, pk, gk = box_iou, [p.bbox for p in preds], [g.bbox for g in gts]
    else:
        iou = _window_iou
        pk, gk = ([_MaskWindow.of(d.origin, d.mask) for d in dets] for dets in (preds, gts))
    candidates = []
    for pred, a in zip(preds, pk):
        pairs = ((iou(a, b), j) for j, (gt, b) in enumerate(zip(gts, gk)) if gt.label is pred.label)
        candidates.append(sorted((c for c in pairs if c[0] > 0.0), key=lambda c: (-c[0], c[1])))
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


def _greedy_match(order, candidates, num_gt: int, threshold: float) -> tuple[list[bool], list[bool]]:
    """TP flag per ordered prediction and matched flag per ground truth:
    each prediction claims its best unmatched candidate at or above the
    threshold."""
    matched = [False] * num_gt
    tp = []
    for i in order:
        hit = False
        for iou, j in candidates[i]:
            if iou < threshold:
                break
            if not matched[j]:
                matched[j] = hit = True
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
    tp, matched = _greedy_match(order, _match_candidates(preds, gts, iou_kind), len(gts), iou_threshold)
    return MatchResult(order=tuple(order), tp=tuple(tp), gt_matched=tuple(matched))


def average_precision(tp_sequence, num_gt: int) -> float:
    """101-point interpolated AP from a confidence-ordered TP/FP sequence.

    Precision at recall r is the maximum precision over points with recall
    at least r, averaged over r in {0, 0.01, ..., 1}.
    """
    if num_gt < 1:
        raise NoGroundTruth("average precision needs at least one ground-truth instance")
    tp = np.asarray(tp_sequence, dtype=np.float64)
    if tp.size == 0:
        return 0.0
    cum_tp = np.cumsum(tp)
    cum_fp = np.cumsum(1.0 - tp)
    precision = cum_tp / (cum_tp + cum_fp)
    recall = cum_tp / num_gt
    # precision envelope from the right, then sample the recall grid
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    idx = np.searchsorted(recall, _RECALL_GRID - 1e-12, side="left")
    sampled = np.where(idx < len(envelope), envelope[np.minimum(idx, len(envelope) - 1)], 0.0)
    return float(sampled.mean())


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


def _class_sweeps(preds_by_image, gts_by_image, kind, conf_threshold, thresholds):
    """Pooled confidence-ordered TP flags per class across all images, one
    list per threshold, and the class's ground-truth count.

    Each image is matched from one set of pair IoUs, once per distinct set
    of pairs at or above a threshold: the greedy outcome depends on nothing
    else, so thresholds that pass the same pairs share one match. A
    prediction only claims ground truth of its own class, so matching all
    classes of an image together gives each class the flags it would get
    alone."""
    pooled = defaultdict(list)  # label -> [(-conf, image, index, tp per threshold)]
    num_gt = Counter()
    for img, (preds, gts) in enumerate(zip(preds_by_image, gts_by_image)):
        if conf_threshold is not None:
            preds = [p for p in preds if (p.confidence or 0.0) >= conf_threshold]
        num_gt.update(g.label for g in gts)
        order = _confidence_order(preds)
        candidates = _match_candidates(preds, gts, kind)
        ious = sorted({iou for cands in candidates for iou, _ in cands})
        by_passing = {}  # count of distinct IoUs >= threshold -> TP flags
        tps = []
        for thr in thresholds:
            passing = len(ious) - bisect_left(ious, thr)
            if passing not in by_passing:
                by_passing[passing] = _greedy_match(order, candidates, len(gts), thr)[0]
            tps.append(by_passing[passing])
        for rank, i in enumerate(order):
            pooled[preds[i].label].append((-(preds[i].confidence or 0.0), img, i, [tp[rank] for tp in tps]))
    sweeps = {}
    for label in pooled.keys() | num_gt.keys():
        entries = sorted(pooled[label])  # (image, index) is unique, so tp lists are never compared
        sweeps[label] = ([[e[3][t] for e in entries] for t in range(len(thresholds))], num_gt[label])
    return sweeps


def _class_tp_sequences(preds_by_image, gts_by_image, label, threshold, kind, conf_threshold):
    """Pooled confidence-ordered TP flags for one class across all images."""
    sweeps = _class_sweeps(preds_by_image, gts_by_image, kind, conf_threshold, (threshold,))
    if label not in sweeps:
        return [], 0
    (tps,), num_gt = sweeps[label]
    return tps, num_gt


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
    if len(preds_by_image) != len(gts_by_image):
        raise LengthMismatch("prediction and ground-truth image lists differ in length")
    sweeps = _class_sweeps(preds_by_image, gts_by_image, iou_kind, conf_threshold, COCO_THRESHOLDS)
    labels = sorted(
        {g.label for gts in gts_by_image for g in gts}, key=lambda l: list(ClassLabel).index(l)
    )
    per_class = {}
    for label in labels:
        tps_by_threshold, num_gt = sweeps[label]
        aps = [average_precision(tps, num_gt) for tps in tps_by_threshold]
        tps50 = tps_by_threshold[0]  # COCO_THRESHOLDS[0] is 0.5
        n_tp = sum(tps50)
        n_pred = len(tps50)
        per_class[label.value] = ClassDetectionMetrics(
            precision=n_tp / n_pred if n_pred else 0.0,
            recall=n_tp / num_gt,
            ap50=aps[0],
            ap50_95=sum(aps) / len(aps),
            num_gt=num_gt,
        )
    if not per_class:
        return DetectionSummary(per_class={}, precision=0.0, recall=0.0, map50=0.0, map50_95=0.0)
    vals = list(per_class.values())
    return DetectionSummary(
        per_class=per_class,
        precision=sum(m.precision for m in vals) / len(vals),
        recall=sum(m.recall for m in vals) / len(vals),
        map50=sum(m.ap50 for m in vals) / len(vals),
        map50_95=sum(m.ap50_95 for m in vals) / len(vals),
    )


def detection_report(
    preds_by_image,
    gts_by_image,
    conf_threshold: float | None = None,
) -> DetectionReport:
    """Box summary always; mask summary when every instance carries a mask."""
    box = map_summary(preds_by_image, gts_by_image, "box", conf_threshold)
    have_masks = all(
        inst.mask is not None
        for group in (preds_by_image, gts_by_image)
        for img in group
        for inst in img
    )
    mask = map_summary(preds_by_image, gts_by_image, "mask", conf_threshold) if have_masks else None
    return DetectionReport(box=box, mask=mask)


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
