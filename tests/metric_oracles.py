"""The list-based detection scoring, the oracle of ``metrics.map_summary``.

``average_precision`` scores one confidence-ordered TP/FP sequence with its
own ``cumsum``, ``searchsorted`` over the recall grid and ``mean``;
``map_summary`` calls it once per class and threshold. ``class_sweeps``
builds each prediction's candidate list with one ``box_iou`` or window IoU
call per pair, matches an image once per distinct set of passing pairs, and
pools each class by sorting (-confidence, image, index, flags) tuples. This
is how ``metrics`` scored detections before it scored every class and
threshold of an IoU kind in array passes. ``per_threshold_sweeps`` is the
older form of ``class_sweeps`` that matches every image at every threshold.
"""

from bisect import bisect_left
from collections import Counter, defaultdict

import numpy as np

from foodcal.errors import NoGroundTruth
from foodcal.measurement import ClassLabel
from foodcal.metrics import COCO_THRESHOLDS, ClassDetectionMetrics, DetectionSummary, box_iou

_RECALL_GRID = np.linspace(0.0, 1.0, 101)


def average_precision(tp_sequence, num_gt: int) -> float:
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


def _window(origin, mask):
    """(top, left, boolean crop, pixel count) of a mask stored at ``origin``."""
    crop = np.asarray(mask) != 0
    return origin[1], origin[0], crop, int(np.count_nonzero(crop))


def window_iou(a, b) -> float:
    """Mask IoU of two ``_window``s, the intersection counted on the
    overlap of the windows only."""
    (a_top, a_left, a_crop, a_area), (b_top, b_left, b_crop, b_area) = a, b
    top, left = max(a_top, b_top), max(a_left, b_left)
    bottom = min(a_top + a_crop.shape[0], b_top + b_crop.shape[0])
    right = min(a_left + a_crop.shape[1], b_left + b_crop.shape[1])
    inter = 0
    if top < bottom and left < right:
        inter = int(
            np.count_nonzero(
                a_crop[top - a_top : bottom - a_top, left - a_left : right - a_left]
                & b_crop[top - b_top : bottom - b_top, left - b_left : right - b_left]
            )
        )
    union = a_area + b_area - inter
    return inter / union if union > 0 else 0.0


def match_candidates(preds, gts, kind) -> list[list[tuple[float, int]]]:
    """For each prediction, the (IoU, ground-truth index) of every same-class
    ground truth it overlaps, highest IoU first and ties to the lower index."""
    if kind == "box":
        iou, pk, gk = box_iou, [p.bbox for p in preds], [g.bbox for g in gts]
    else:
        iou = window_iou
        pk, gk = ([_window(d.origin, d.mask) for d in dets] for dets in (preds, gts))
    candidates = []
    for pred, a in zip(preds, pk):
        pairs = ((iou(a, b), j) for j, (gt, b) in enumerate(zip(gts, gk)) if gt.label is pred.label)
        candidates.append(sorted((c for c in pairs if c[0] > 0.0), key=lambda c: (-c[0], c[1])))
    return candidates


def confidence_order(preds) -> list[int]:
    return sorted(range(len(preds)), key=lambda i: (-(preds[i].confidence or 0.0), i))


def greedy_match(order, candidates, num_gt: int, threshold: float) -> list[bool]:
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
    return tp


def class_sweeps(preds_by_image, gts_by_image, kind, conf_threshold, thresholds):
    """Per class, of the predictions and the ground truth: one pooled TP
    list per threshold, and the class's ground-truth count."""
    pooled = defaultdict(list)  # label -> [(-conf, image, index, tp per threshold)]
    num_gt = Counter()
    for img, (preds, gts) in enumerate(zip(preds_by_image, gts_by_image)):
        if conf_threshold is not None:
            preds = [p for p in preds if (p.confidence or 0.0) >= conf_threshold]
        num_gt.update(g.label for g in gts)
        order = confidence_order(preds)
        candidates = match_candidates(preds, gts, kind)
        ious = sorted({iou for cands in candidates for iou, _ in cands})
        by_passing = {}  # count of distinct IoUs >= threshold -> TP flags
        tps = []
        for thr in thresholds:
            passing = len(ious) - bisect_left(ious, thr)
            if passing not in by_passing:
                by_passing[passing] = greedy_match(order, candidates, len(gts), thr)
            tps.append(by_passing[passing])
        for rank, i in enumerate(order):
            pooled[preds[i].label].append((-(preds[i].confidence or 0.0), img, i, [tp[rank] for tp in tps]))
    sweeps = {}
    for label in pooled.keys() | num_gt.keys():
        entries = sorted(pooled[label])  # (image, index) is unique, so tp lists are never compared
        sweeps[label] = ([[e[3][t] for e in entries] for t in range(len(thresholds))], num_gt[label])
    return sweeps


def per_threshold_sweeps(preds_by_image, gts_by_image, kind, conf_threshold, thresholds):
    """``class_sweeps`` with every image matched once at every threshold."""
    pooled, num_gt = {}, {}
    for img, (preds, gts) in enumerate(zip(preds_by_image, gts_by_image)):
        if conf_threshold is not None:
            preds = [p for p in preds if (p.confidence or 0.0) >= conf_threshold]
        for g in gts:
            num_gt[g.label] = num_gt.get(g.label, 0) + 1
        order = confidence_order(preds)
        candidates = match_candidates(preds, gts, kind)
        tps = [greedy_match(order, candidates, len(gts), thr) for thr in thresholds]
        for rank, i in enumerate(order):
            pooled.setdefault(preds[i].label, []).append(
                (-(preds[i].confidence or 0.0), img, i, [tp[rank] for tp in tps]))
    return {label: ([[e[3][t] for e in sorted(pooled.get(label, []))] for t in range(len(thresholds))],
                    num_gt.get(label, 0)) for label in pooled.keys() | num_gt.keys()}


def map_summary(preds_by_image, gts_by_image, iou_kind="box", conf_threshold=None) -> DetectionSummary:
    sweeps = class_sweeps(preds_by_image, gts_by_image, iou_kind, conf_threshold, COCO_THRESHOLDS)
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
