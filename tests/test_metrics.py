import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from foodcal import metrics
from foodcal.errors import DegenerateTarget, LengthMismatch, NoGroundTruth, ShapeMismatch
from foodcal.measurement import ClassLabel, DetectionInstance

import metric_oracles


def det(label, bbox, conf=None, mask=None):
    return DetectionInstance(label=label, bbox=bbox, confidence=conf, mask=mask)


# ---------------------------------------------------------------------------
# oracles: full-frame mask IoU, naive matcher + direct AP definition


def full_frame_mask_iou(a, b):
    """Both masks counted over the whole frame."""
    inter = int(np.count_nonzero((a != 0) & (b != 0)))
    union = int(np.count_nonzero((a != 0) | (b != 0)))
    return inter / union if union > 0 else 0.0


def oracle_ap(tp_sequence, num_gt):
    """Literal 101-point definition, plain loops."""
    precisions, recalls = [], []
    tp = fp = 0
    for flag in tp_sequence:
        if flag:
            tp += 1
        else:
            fp += 1
        precisions.append(tp / (tp + fp))
        recalls.append(tp / num_gt)
    total = 0.0
    for k in range(101):
        r = k / 100.0
        best = 0.0
        for p, rec in zip(precisions, recalls):
            if rec >= r - 1e-12 and p > best:
                best = p
        total += best
    return total / 101.0


def oracle_class_ap(preds_by_image, gts_by_image, label, thr, kind):
    """Single-class AP via an independent naive matcher over all images."""
    pool = []
    num_gt = 0
    for img_idx, (preds, gts) in enumerate(zip(preds_by_image, gts_by_image)):
        cls_preds = [(i, p) for i, p in enumerate(preds) if p.label is label]
        cls_gts = [g for g in gts if g.label is label]
        num_gt += len(cls_gts)
        used = [False] * len(cls_gts)
        cls_preds.sort(key=lambda t: (-(t[1].confidence or 0.0), t[0]))
        for rank, (i, p) in enumerate(cls_preds):
            best, best_j = 0.0, -1
            for j, g in enumerate(cls_gts):
                if used[j]:
                    continue
                if kind == "box":
                    iou = metrics.box_iou(p.bbox, g.bbox)
                else:
                    iou = full_frame_mask_iou(p.mask, g.mask)
                if iou >= thr and iou > best:
                    best, best_j = iou, j
            hit = best_j >= 0
            if hit:
                used[best_j] = True
            pool.append((-(p.confidence or 0.0), img_idx, i, hit))
    if num_gt == 0:
        return None
    pool.sort()
    return oracle_ap([t[3] for t in pool], num_gt)


def box_mask(rng, size, box, irregular):
    """The box filled; an irregular mask has holes inside the box and stray
    pixels anywhere in the frame."""
    x, y, w, h = box
    mask = np.zeros((size, size), np.uint8)
    mask[y : y + h, x : x + w] = 1
    if irregular:
        mask &= rng.random((size, size)) < 0.85
        mask |= rng.random((size, size)) < 0.01
    return mask


def random_scene(rng, with_masks=False, size=24, irregular=False):
    """A micro-scene: up to 6 GT boxes and up to 6 predictions."""
    labels = list(ClassLabel)
    gts, preds = [], []
    for _ in range(int(rng.integers(1, 7))):
        x, y = rng.integers(0, size - 6, 2)
        w, h = rng.integers(3, 7, 2)
        label = labels[rng.integers(0, len(labels))]
        box = (int(x), int(y), int(w), int(h))
        gts.append(det(label, box, mask=box_mask(rng, size, box, irregular) if with_masks else None))
    for g in gts:
        if rng.random() < 0.8:  # jittered true positive candidate
            dx, dy = rng.integers(-2, 3, 2)
            x = int(np.clip(g.bbox[0] + dx, 0, size - 3))
            y = int(np.clip(g.bbox[1] + dy, 0, size - 3))
            box = (x, y, g.bbox[2], g.bbox[3])
            mask = box_mask(rng, size, box, irregular) if with_masks else None
            label = g.label if rng.random() < 0.9 else labels[rng.integers(0, len(labels))]
            preds.append(det(label, box, conf=float(rng.random()), mask=mask))
    for _ in range(int(rng.integers(0, 3))):  # noise predictions
        x, y = rng.integers(0, size - 6, 2)
        w, h = rng.integers(3, 7, 2)
        box = (int(x), int(y), int(w), int(h))
        mask = box_mask(rng, size, box, irregular) if with_masks else None
        preds.append(det(labels[rng.integers(0, len(labels))], box, conf=float(rng.random()), mask=mask))
    return preds, gts


# ---------------------------------------------------------------------------
# regression metrics


def test_perfect_prediction():
    r = metrics.regression_metrics([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert r.mae == 0.0 and r.mse == 0.0 and r.rmse == 0.0 and r.r2 == 1.0


def test_unit_errors():
    r = metrics.regression_metrics([2.0, 4.0], [1.0, 3.0])
    assert r.mae == 1.0 and r.mse == 1.0 and r.rmse == 1.0 and r.r2 == 0.0


@pytest.mark.parametrize(
    "mse,expected",
    [(121.80, 11.04), (304.40, 17.45), (199.07, 14.11)],
)
def test_rmse_matches_reported_values(mse, expected):
    # build an error vector whose MSE is the requested value
    e = math.sqrt(mse)
    truth = [0.0, 1e3]
    r = metrics.regression_metrics([truth[0] + e, truth[1] - e], truth)
    assert r.mse == pytest.approx(mse, abs=1e-9)
    assert r.rmse == pytest.approx(expected, abs=0.01)
    assert r.rmse == math.sqrt(r.mse)


def test_mae_not_above_rmse_random():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        p = rng.normal(0, 10, n)
        t = rng.normal(0, 10, n)
        if np.all(t == t[0]):
            continue
        r = metrics.regression_metrics(p, t)
        assert r.mae <= r.rmse + 1e-12
        assert r.rmse == math.sqrt(r.mse)
        assert r.r2 <= 1.0


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        metrics.regression_metrics([1.0], [1.0, 2.0])


def test_degenerate_target():
    with pytest.raises(DegenerateTarget):
        metrics.regression_metrics([1.0, 2.0], [3.0, 3.0])


# ---------------------------------------------------------------------------
# IoU


def test_identical_boxes():
    assert metrics.box_iou((1, 2, 3, 4), (1, 2, 3, 4)) == 1.0


def test_disjoint_boxes():
    assert metrics.box_iou((0, 0, 2, 2), (5, 5, 2, 2)) == 0.0


def test_partial_overlap_boxes():
    assert metrics.box_iou((0, 0, 2, 2), (1, 0, 2, 2)) == pytest.approx(1 / 3)


def test_mask_iou_self_and_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = (rng.random((9, 9)) < 0.5).astype(np.uint8)
        b = (rng.random((9, 9)) < 0.5).astype(np.uint8)
        if a.any():
            assert metrics.mask_iou(a, a) == 1.0
        assert metrics.mask_iou(a, b) == metrics.mask_iou(b, a)


def test_mask_iou_dim_mismatch():
    with pytest.raises(ShapeMismatch):
        metrics.mask_iou(np.zeros((2, 2)), np.zeros((3, 3)))
    with pytest.raises(ShapeMismatch, match="2-D"):
        metrics.mask_iou(np.zeros(4), np.zeros(4))


def test_empty_union_is_zero():
    assert metrics.mask_iou(np.zeros((3, 3)), np.zeros((3, 3))) == 0.0


@st.composite
def mask_pairs(draw):
    """Two masks of one frame, each a random pattern inside a random box
    (empty, or touching the frame edges, or apart from the other's) plus
    stray pixels outside the box."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))

    def one():
        y0, x0 = draw(st.integers(0, h)), draw(st.integers(0, w))
        y1, x1 = draw(st.integers(y0, h)), draw(st.integers(x0, w))
        mask = np.zeros((h, w), np.uint8)
        mask[y0:y1, x0:x1] = draw(arrays(np.uint8, (y1 - y0, x1 - x0), elements=st.sampled_from([0, 1, 255])))
        for _ in range(draw(st.integers(0, 2))):
            mask[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = 1
        return mask

    return one(), one()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mask_pairs())
def test_window_mask_iou_equals_full_frame_count(pair):
    a, b = pair
    assert metrics.mask_iou(a, b) == full_frame_mask_iou(a, b)
    assert metrics.mask_iou(b, a) == full_frame_mask_iou(a, b)


# ---------------------------------------------------------------------------
# matching


def test_single_perfect_match():
    g = det(ClassLabel.PURI, (0, 0, 4, 4))
    p = det(ClassLabel.PURI, (0, 0, 4, 4), conf=0.9)
    r = metrics.match_detections([p], [g])
    assert r.tp == (True,) and r.gt_matched == (True,)


def test_duplicate_detection_second_is_fp():
    g = det(ClassLabel.PURI, (0, 0, 4, 4))
    p1 = det(ClassLabel.PURI, (0, 0, 4, 4), conf=0.9)
    p2 = det(ClassLabel.PURI, (0, 0, 4, 4), conf=0.5)
    r = metrics.match_detections([p2, p1], [g])
    assert r.order == (1, 0)
    assert r.tp == (True, False)


def test_iou_tie_goes_to_the_lower_ground_truth_index():
    # the partial overlap comes first, then two exact copies of the prediction
    gts = [det(ClassLabel.PURI, box) for box in ((2, 0, 4, 4), (0, 0, 4, 4), (0, 0, 4, 4))]
    r = metrics.match_detections([det(ClassLabel.PURI, (0, 0, 4, 4), conf=0.9)], gts)
    assert r.gt_matched == (False, True, False)


def test_wrong_class_is_fp():
    g = det(ClassLabel.PURI, (0, 0, 4, 4))
    p = det(ClassLabel.BEGUNI, (0, 0, 4, 4), conf=0.9)
    r = metrics.match_detections([p], [g])
    assert r.tp == (False,) and r.gt_matched == (False,)


# ---------------------------------------------------------------------------
# average precision


def test_ap_single_tp():
    assert metrics.average_precision([True], 1) == 1.0


def test_ap_fp_then_tp():
    assert metrics.average_precision([False, True], 1) == pytest.approx(0.5, abs=1e-3)


def test_ap_all_fp():
    assert metrics.average_precision([False, False, False], 2) == 0.0


def test_ap_requires_ground_truth():
    with pytest.raises(NoGroundTruth):
        metrics.average_precision([True], 0)


def test_ap_matches_direct_definition():
    rng = np.random.default_rng(2)
    for _ in range(100):
        num_gt = int(rng.integers(1, 8))
        n = int(rng.integers(0, 12))
        hits = 0
        seq = []
        for _ in range(n):
            flag = bool(rng.random() < 0.5) and hits < num_gt
            hits += flag
            seq.append(flag)
        assert metrics.average_precision(seq, num_gt) == pytest.approx(
            oracle_ap(seq, num_gt), abs=1e-12
        )


def test_ap_invariant_under_monotone_confidence_transform():
    rng = np.random.default_rng(3)
    scenes = [random_scene(rng) for _ in range(10)]
    preds = [s[0] for s in scenes]
    gts = [s[1] for s in scenes]
    base = metrics.map_summary(preds, gts)
    squashed = [
        [det(p.label, p.bbox, conf=float(1 / (1 + math.exp(-6 * (p.confidence - 0.5))))) for p in img]
        for img in preds
    ]
    after = metrics.map_summary(squashed, gts)
    assert after.map50 == pytest.approx(base.map50, abs=1e-12)
    assert after.map50_95 == pytest.approx(base.map50_95, abs=1e-12)


# ---------------------------------------------------------------------------
# map_summary


def test_perfect_two_class_summary():
    gts = [
        [det(ClassLabel.PURI, (0, 0, 4, 4)), det(ClassLabel.COIN, (8, 8, 4, 4))],
    ]
    preds = [
        [det(ClassLabel.PURI, (0, 0, 4, 4), conf=0.9), det(ClassLabel.COIN, (8, 8, 4, 4), conf=0.8)],
    ]
    s = metrics.map_summary(preds, gts)
    assert s.precision == 1.0 and s.recall == 1.0
    assert s.map50 == 1.0 and s.map50_95 == 1.0


def test_no_predictions_zero_recall():
    gts = [[det(ClassLabel.PURI, (0, 0, 4, 4))]]
    s = metrics.map_summary([[]], gts)
    assert s.recall == 0.0 and s.map50 == 0.0


def test_map50_95_never_exceeds_map50():
    rng = np.random.default_rng(4)
    for _ in range(30):
        scenes = [random_scene(rng) for _ in range(3)]
        s = metrics.map_summary([x[0] for x in scenes], [x[1] for x in scenes])
        assert s.map50_95 <= s.map50 + 1e-12


def test_map_summary_matches_bruteforce_oracle_boxes():
    rng = np.random.default_rng(5)
    scenes = [random_scene(rng) for _ in range(200)]
    preds = [s[0] for s in scenes]
    gts = [s[1] for s in scenes]
    summary = metrics.map_summary(preds, gts)
    for label_name, m in summary.per_class.items():
        label = ClassLabel.from_name(label_name)
        expected50 = oracle_class_ap(preds, gts, label, 0.5, "box")
        assert m.ap50 == pytest.approx(expected50, abs=1e-12)
        sweep = [oracle_class_ap(preds, gts, label, t, "box") for t in metrics.COCO_THRESHOLDS]
        assert m.ap50_95 == pytest.approx(sum(sweep) / len(sweep), abs=1e-12)


def test_map_summary_matches_bruteforce_oracle_masks():
    rng = np.random.default_rng(6)
    scenes = [random_scene(rng, with_masks=True) for _ in range(40)]
    preds = [s[0] for s in scenes]
    gts = [s[1] for s in scenes]
    summary = metrics.map_summary(preds, gts, iou_kind="mask")
    for label_name, m in summary.per_class.items():
        label = ClassLabel.from_name(label_name)
        assert m.ap50 == pytest.approx(oracle_class_ap(preds, gts, label, 0.5, "mask"), abs=1e-12)


def test_map_summary_matches_oracle_on_irregular_masks_at_every_threshold():
    rng = np.random.default_rng(9)
    scenes = [random_scene(rng, with_masks=True, irregular=True) for _ in range(60)]
    preds = [s[0] for s in scenes]
    gts = [s[1] for s in scenes]
    summary = metrics.map_summary(preds, gts, iou_kind="mask")
    for label_name, m in summary.per_class.items():
        label = ClassLabel.from_name(label_name)
        sweep = [oracle_class_ap(preds, gts, label, t, "mask") for t in metrics.COCO_THRESHOLDS]
        for thr, expected in zip(metrics.COCO_THRESHOLDS, sweep):
            (tps,), num_gt = metrics._class_sweeps(preds, gts, ["mask"], None, (thr,))["mask"][label]
            assert metrics.average_precision(tps, num_gt) == pytest.approx(expected, abs=1e-12)
        assert m.ap50 == pytest.approx(sweep[0], abs=1e-12)
        assert m.ap50_95 == pytest.approx(sum(sweep) / len(sweep), abs=1e-12)
    assert 0.0 < summary.map50_95 < summary.map50 < 1.0


@pytest.mark.parametrize("kind, kernel", [("box", "_box_ious"), ("mask", "_mask_ious")])
def test_map_summary_computes_each_pair_iou_once(monkeypatch, kind, kernel):
    # the 10 thresholds of the sweep all read one IoU per same-class pair,
    # and every pair of every image goes through one call
    rng = np.random.default_rng(10)
    scenes = [random_scene(rng, with_masks=True) for _ in range(20)]
    preds = [s[0] for s in scenes]
    gts = [s[1] for s in scenes]
    calls = []
    real = getattr(metrics, kernel)
    monkeypatch.setattr(metrics, kernel, lambda *args: calls.append(len(args[-1])) or real(*args))
    metrics.map_summary(preds, gts, iou_kind=kind)
    pairs = sum(p.label is g.label for ps, gs in zip(preds, gts) for p in ps for g in gs)
    assert pairs > 0
    assert calls == [pairs]


LABELS = (ClassLabel.PURI, ClassLabel.BEGUNI)


@st.composite
def straddling_scenes(draw):
    """Images whose box IoUs fall on the COCO thresholds and between them:
    a prediction (x, y, 20, h) on a ground truth (x, y, 20, 20) has IoU
    h / 20 exactly, and a shifted one an IoU in between."""
    preds_by_image, gts_by_image = [], []
    for _ in range(draw(st.integers(1, 4))):
        spots = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=0, max_size=4, unique=True))
        gts = [det(draw(st.sampled_from(LABELS)), (30 * x, 30 * y, 20, 20)) for x, y in spots]
        preds = []
        for _ in range(draw(st.integers(0, 6))):
            x, y = (30 * v for v in draw(st.sampled_from(spots))) if spots else (0, 0)
            dx = draw(st.sampled_from([0, 0, 0, 1, 2, 3, 5]))
            preds.append(det(draw(st.sampled_from(LABELS)), (x + dx, y, 20, draw(st.integers(8, 20))),
                             draw(st.sampled_from([0.3, 0.5, 0.5, 0.9]))))
        preds_by_image.append(preds)
        gts_by_image.append(gts)
    return preds_by_image, gts_by_image


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(straddling_scenes(), st.sampled_from([None, 0.5]))
def test_sweeps_equal_matching_at_every_threshold(scene, conf_threshold):
    preds, gts = scene
    expected = metric_oracles.per_threshold_sweeps(preds, gts, "box", conf_threshold, metrics.COCO_THRESHOLDS)
    got = metrics._class_sweeps(preds, gts, ["box"], conf_threshold, metrics.COCO_THRESHOLDS)["box"]
    assert {label: (tps.tolist(), n) for label, (tps, n) in got.items()} == {
        label: sweep for label, sweep in expected.items() if sweep[1]  # classes of the ground truth
    }


def scored_det(draw, label, box, conf):
    """A detection whose mask is its box filled, at the box's corner, with
    some pixels cleared or set to 255 now and then."""
    x, y, w, h = box
    mask = np.ones((h, w), np.uint8)
    for r, c, v in draw(st.lists(st.tuples(st.integers(0, h - 1), st.integers(0, w - 1), st.sampled_from([0, 255])),
                                 max_size=3)):
        mask[r, c] = v
    return DetectionInstance(label=label, bbox=box, confidence=conf, mask=mask, origin=(x, y))


@st.composite
def scored_scenes(draw):
    """Images to score two ways. Ground truths are 20x20 on a grid of step
    15, so neighbours overlap, boxes and masks alike. A prediction (x + dx,
    y, 20, h) on one of them has IoU h / 20, exactly a COCO threshold, when
    dx = 0 and its mask is whole. Confidences tie or are missing; SOMUSA is
    predicted but never in the ground truth; an image may be empty, or have
    ground truth but no predictions."""
    preds_by_image, gts_by_image = [], []
    for _ in range(draw(st.integers(0, 4))):
        spots = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4, unique=True))
        gts = [scored_det(draw, draw(st.sampled_from(LABELS)), (15 * x, 15 * y, 20, 20), None) for x, y in spots]
        preds = []
        for _ in range(draw(st.integers(0, 6))):
            x, y = (15 * v for v in draw(st.sampled_from(spots))) if spots else (0, 0)
            dx = draw(st.sampled_from([0, 0, 0, 1, 2, 3, 5]))
            label = draw(st.sampled_from(LABELS + (ClassLabel.SOMUSA,)))
            box = (x + dx, y, 20, draw(st.integers(8, 20)))
            preds.append(scored_det(draw, label, box, draw(st.sampled_from([None, 0.3, 0.5, 0.5, 0.9, 1.0]))))
        preds_by_image.append(preds)
        gts_by_image.append(gts)
    return preds_by_image, gts_by_image


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(scored_scenes(), st.sampled_from(["box", "mask"]), st.sampled_from([None, 0.5]))
def test_map_summary_equals_the_list_based_oracle(scene, kind, conf_threshold):
    preds, gts = scene
    got = metrics.map_summary(preds, gts, kind, conf_threshold)
    want = metric_oracles.map_summary(preds, gts, kind, conf_threshold)
    # repr tells a NumPy float from a Python one, and the class order apart
    assert repr(asdict(got)) == repr(asdict(want))


def test_ap_rows_equal_the_per_sequence_oracle():
    rng = np.random.default_rng(11)
    seqs = [[], [True] * 5, [False] * 4, [True], [False]]
    num_gts = [1, 5, 3, 1, 2]
    for n in rng.integers(0, 40, 300).tolist():  # some with more TPs than ground truth
        seqs.append((rng.random(n) < rng.random()).tolist())
        num_gts.append(int(rng.integers(1, 50)))
    rows = np.zeros((len(seqs), max(map(len, seqs))), dtype=bool)
    for row, seq in zip(rows, seqs):
        row[: len(seq)] = seq
    aps = metrics._average_precisions(rows, num_gts).tolist()
    for seq, num_gt, ap in zip(seqs, num_gts, aps):
        want = metric_oracles.average_precision(seq, num_gt)
        assert ap == want
        assert metrics.average_precision(seq, num_gt) == want


def test_sweeps_match_an_image_once_per_distinct_set_of_passing_pairs(monkeypatch):
    calls = []
    greedy = metrics._greedy_match
    monkeypatch.setattr(metrics, "_greedy_match", lambda *args: calls.append(args[3]) or greedy(*args))
    gt = [det(ClassLabel.PURI, (0, 0, 20, 20)), det(ClassLabel.PURI, (40, 0, 20, 20))]
    # IoUs 1.0 and 0.6: thresholds 0.5..0.6 pass both, 0.65..0.95 only the first, and 1.0 passes at every one
    metrics._class_sweeps([gt], [gt], ["box"], None, metrics.COCO_THRESHOLDS)
    assert calls == [0.5]
    pred = [det(ClassLabel.PURI, (0, 0, 20, 20), 0.9), det(ClassLabel.PURI, (40, 0, 20, 12), 0.8)]
    calls.clear()
    metrics._class_sweeps([pred], [gt], ["box"], None, metrics.COCO_THRESHOLDS)
    assert calls == [0.5, 0.65]


@pytest.mark.parametrize("kind", ["bogus", "Mask"])
def test_unknown_iou_kind_is_rejected_up_front(kind):
    gts = [[det(ClassLabel.PURI, (0, 0, 4, 4))]]
    with pytest.raises(ValueError, match="iou kind"):
        metrics.map_summary([[]], gts, iou_kind=kind)
    with pytest.raises(ValueError, match="iou kind"):
        metrics.match_detections([], gts[0], iou_kind=kind)


def test_detection_report_includes_mask_variant_only_with_masks():
    rng = np.random.default_rng(7)
    with_masks = [random_scene(rng, with_masks=True) for _ in range(3)]
    report = metrics.detection_report([s[0] for s in with_masks], [s[1] for s in with_masks])
    assert report.mask is not None
    boxes_only = [random_scene(rng) for _ in range(3)]
    report2 = metrics.detection_report([s[0] for s in boxes_only], [s[1] for s in boxes_only])
    assert report2.mask is None


def test_detection_report_ranks_and_pairs_once(monkeypatch):
    # box and mask share one ranking of each image and one list of pairs,
    # and each kernel reads every same-class pair in one call
    rng = np.random.default_rng(12)
    scenes = [random_scene(rng, with_masks=True) for _ in range(12)]
    preds = [s[0] for s in scenes]
    gts = [s[1] for s in scenes]
    calls = {"_confidence_order": [], "_box_ious": [], "_mask_ious": []}
    for name, seen in calls.items():
        real = getattr(metrics, name)
        monkeypatch.setattr(metrics, name,
                            lambda *args, real=real, seen=seen: seen.append(len(args[-1])) or real(*args))
    report = metrics.detection_report(preds, gts)
    pairs = sum(p.label is g.label for ps, gs in zip(preds, gts) for p in ps for g in gs)
    assert pairs > 0 and report.mask is not None
    assert calls == {"_confidence_order": [len(ps) for ps in preds], "_box_ious": [pairs], "_mask_ious": [pairs]}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(scored_scenes(), st.sampled_from([None, 0.5, 0.9]))
def test_detection_report_equals_one_map_summary_per_kind(scene, conf_threshold):
    # scored_scenes has images with no predictions and with no ground truth
    preds, gts = scene
    got = metrics.detection_report(preds, gts, conf_threshold)
    want = metrics.DetectionReport(*(metrics.map_summary(preds, gts, kind, conf_threshold) for kind in ("box", "mask")))
    assert repr(asdict(got)) == repr(asdict(want))


def test_summary_text_renders():
    gts = [[det(ClassLabel.PURI, (0, 0, 4, 4))]]
    preds = [[det(ClassLabel.PURI, (0, 0, 4, 4), conf=0.9)]]
    text = metrics.summary_text(metrics.map_summary(preds, gts))
    assert "Puri" in text and "mAP50" in text
