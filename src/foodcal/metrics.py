"""Regression and detection/segmentation metrics.

Regression: MAE, MSE, RMSE (= sqrt(MSE) exactly), R^2. Detection: IoU for
boxes and masks, greedy confidence-ordered matching, average precision with
101-point interpolation, and per-class / mean summaries at IoU 0.5 plus the
0.50:0.05:0.95 threshold sweep. Precision/recall headline numbers use all
predictions at IoU 0.5 (no confidence cutoff) unless one is supplied.
"""

import math
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
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"mask dimensions differ: {a.shape} vs {b.shape}")
    inter = int(np.count_nonzero((a != 0) & (b != 0)))
    union = int(np.count_nonzero((a != 0) | (b != 0)))
    return inter / union if union > 0 else 0.0


def _instance_iou(pred: DetectionInstance, gt: DetectionInstance, kind: str) -> float:
    if kind == "box":
        return box_iou(pred.bbox, gt.bbox)
    if kind == "mask":
        return mask_iou(pred.mask, gt.mask)
    raise ValueError(f"iou kind must be 'box' or 'mask', got {kind!r}")


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
    truth index). Unclaimed predictions are false positives.
    """
    order = sorted(range(len(preds)), key=lambda i: (-(preds[i].confidence or 0.0), i))
    matched = [False] * len(gts)
    tp = []
    for i in order:
        pred = preds[i]
        best_j = -1
        best_iou = 0.0
        for j, gt in enumerate(gts):
            if matched[j] or gt.label is not pred.label:
                continue
            iou = _instance_iou(pred, gt, iou_kind)
            if iou >= iou_threshold and iou > best_iou:
                best_iou = iou
                best_j = j
        if best_j >= 0:
            matched[best_j] = True
            tp.append(True)
        else:
            tp.append(False)
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


def _class_tp_sequences(preds_by_image, gts_by_image, label, threshold, kind, conf_threshold):
    """Pooled confidence-ordered TP flags for one class across all images."""
    entries = []  # (-conf, image index, within-image rank, tp)
    num_gt = 0
    for img, (preds, gts) in enumerate(zip(preds_by_image, gts_by_image)):
        cls_pred_idx = [i for i, p in enumerate(preds) if p.label is label]
        if conf_threshold is not None:
            cls_pred_idx = [i for i in cls_pred_idx if (preds[i].confidence or 0.0) >= conf_threshold]
        cls_gts = [g for g in gts if g.label is label]
        num_gt += len(cls_gts)
        result = match_detections([preds[i] for i in cls_pred_idx], cls_gts, threshold, kind)
        for rank, i in enumerate(result.order):
            conf = preds[cls_pred_idx[i]].confidence or 0.0
            entries.append((-conf, img, i, result.tp[rank]))
    entries.sort()
    return [e[3] for e in entries], num_gt


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
    if len(preds_by_image) != len(gts_by_image):
        raise LengthMismatch("prediction and ground-truth image lists differ in length")
    labels = sorted(
        {g.label for gts in gts_by_image for g in gts}, key=lambda l: list(ClassLabel).index(l)
    )
    per_class = {}
    for label in labels:
        sweep = {
            thr: _class_tp_sequences(preds_by_image, gts_by_image, label, thr, iou_kind, conf_threshold)
            for thr in COCO_THRESHOLDS
        }
        aps = {thr: average_precision(tps, num_gt) for thr, (tps, num_gt) in sweep.items()}
        tps50, num_gt = sweep[0.5]
        n_tp = sum(tps50)
        n_pred = len(tps50)
        per_class[label.value] = ClassDetectionMetrics(
            precision=n_tp / n_pred if n_pred else 0.0,
            recall=n_tp / num_gt,
            ap50=aps[0.5],
            ap50_95=sum(aps.values()) / len(aps),
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
