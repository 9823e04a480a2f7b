"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The oracles here are
intentionally self-contained (plain loops, no reuse of library internals).
"""

import ast
import itertools
import math
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from foodcal import maskgeom, measurement, metrics, preprocess, regress, synth
from foodcal.measurement import ClassLabel
from foodcal.nnblocks import blocks, flops
from foodcal.nnblocks.gradcheck import BLOCK_NAMES, gradcheck
from foodcal.regress import ModelSpec

from cli_child import run_foodcal


def _pass(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


# ---------------------------------------------------------------------------
# C1: paper-consistency of the regression metrics


def test_c1_metrics_paper_consistency():
    for mse, expected_rmse in ((121.80, 11.04), (304.40, 17.45), (199.07, 14.11)):
        e = math.sqrt(mse)
        truth = [0.0, 1000.0]
        report = metrics.regression_metrics([truth[0] + e, truth[1] - e], truth)
        assert report.mse == pytest.approx(mse, abs=1e-9)
        assert report.rmse == math.sqrt(report.mse)  # exact identity
        assert abs(report.rmse - expected_rmse) <= 0.01
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 50))
        t = rng.normal(0, 50, n)
        p = t + rng.normal(0, 10, n)
        r = metrics.regression_metrics(p, t)
        assert r.rmse == math.sqrt(r.mse)
    _pass("C1 metrics", "121.80->11.04, 304.40->17.45, 199.07->14.11; rmse==sqrt(mse)")


# ---------------------------------------------------------------------------
# C2: reference-coin scaling


def test_c2_scaling():
    cfg = synth.SceneConfig()
    worst = 0.0
    for seed in range(100):
        scene = synth.generate_scene(cfg, seed)
        assert scene.instances[0].bbox[2] >= 40  # coin diameter in pixels
        sf = measurement.scale_from_detections(scene.instances)
        worst = max(worst, abs(sf.s_f - scene.truth.mm_per_px) / scene.truth.mm_per_px)
    assert worst < 0.02
    assert measurement.scale_factor(100, 100).s_f == pytest.approx(0.255, abs=1e-12)
    sf = measurement.scale_factor(50, 102)
    assert sf.s_h == pytest.approx(0.51, abs=1e-12)
    assert sf.s_w == pytest.approx(0.25, abs=1e-12)
    assert sf.s_f == pytest.approx(0.38, abs=1e-12)
    _pass("C2 scaling", f"100 scenes, worst recovered-scale error {worst:.2e} < 2%")


# ---------------------------------------------------------------------------
# C3: contour geometry vs brute-force oracles


def _flood_components(mask):
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
    return sorted(comps, key=sorted)


def _shoelace_oracle(points):
    n = len(points)
    acc = 0.0
    perim = 0.0
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
        perim += math.hypot(x2 - x1, y2 - y1)
    return abs(acc) / 2.0, perim


def test_c3_geometry_oracle():
    checked = 0
    for bits in itertools.product((0, 1), repeat=9):
        m = np.array(bits, dtype=np.uint8).reshape(3, 3)
        comps = maskgeom.connected_components(m)
        got = sorted(
            (frozenset(zip(*np.nonzero(c)[::-1])) for c in comps), key=sorted
        )
        assert got == _flood_components(m)
        for comp in comps:
            pts = maskgeom.trace_contour(comp)
            st = maskgeom.shape_stats(pts)
            area, perim = _shoelace_oracle([tuple(p) for p in pts.tolist()])
            assert st.area_px == pytest.approx(area, abs=1e-12)
            assert st.perimeter_px == pytest.approx(perim, rel=1e-12)
            checked += 1
    rng = np.random.default_rng(1)
    for _ in range(1000):
        h, w = int(rng.integers(1, 33)), int(rng.integers(1, 33))
        m = (rng.random((h, w)) < rng.uniform(0.15, 0.85)).astype(np.uint8)
        comps = maskgeom.connected_components(m)
        if not comps:
            continue
        pts = maskgeom.trace_contour(comps[0])
        st = maskgeom.shape_stats(pts)
        area, perim = _shoelace_oracle([tuple(p) for p in pts.tolist()])
        assert st.area_px == pytest.approx(area, abs=1e-9)
        assert st.perimeter_px == pytest.approx(perim, rel=1e-12)
        checked += 1
    for w, h in ((2, 2), (5, 3), (10, 5), (31, 17)):
        m = np.zeros((h + 2, w + 2), np.uint8)
        m[1 : 1 + h, 1 : 1 + w] = 1
        st = maskgeom.shape_stats(maskgeom.trace_contour(m))
        assert st.area_px == (w - 1) * (h - 1)
        assert st.perimeter_px == 2 * (w - 1) + 2 * (h - 1)
    _pass("C3 geometry", f"all 512 3x3 masks + 1000 random masks, {checked} contours checked")


# ---------------------------------------------------------------------------
# C4: neural blocks


def test_c4_neural_blocks():
    worst = {}
    for block in BLOCK_NAMES:
        worst[block] = max(gradcheck(block, seed=seed) for seed in range(10))
        assert worst[block] < 1e-4, f"{block} gradcheck {worst[block]:.2e}"
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 6, 7, 7))
    assert np.array_equal(blocks.cbam(x, blocks.CbamParams.zeros(6)), 0.25 * x)
    for _ in range(25):
        cfg = flops.C2fConfig(
            c_in=int(rng.integers(1, 65)),
            c_out=2 * int(rng.integers(1, 33)),
            h=int(rng.integers(1, 41)),
            w=int(rng.integers(1, 41)),
            n=int(rng.integers(1, 4)),
            reduction=int(rng.integers(1, 17)),
        )
        assert flops.c2f_cd_flops(cfg) > flops.c2f_flops(cfg)
    detail = ", ".join(f"{b}={worst[b]:.1e}" for b in BLOCK_NAMES)
    _pass("C4 nnblocks", f"gradcheck worst over 10 seeds: {detail}; cbam(0)=0.25x; flops sweep")


# ---------------------------------------------------------------------------
# C5: regression benchmark


def _benchmark_seed(seed):
    cfg = synth.SceneConfig()
    records, _ = synth.generate_regression_dataset(cfg, 644, seed)
    ds = preprocess.RegressionDataset.from_records(records)
    train, _valid, test = preprocess.split(ds, seed=seed)
    train = preprocess.zscore_filter(train, 2.0)
    params = preprocess.minmax_fit(train)
    train_n = preprocess.minmax_apply(params, train)
    test_n = preprocess.minmax_apply(params, test)
    out = {}
    for algo in ("rforest", "linear"):
        model = regress.fit(ModelSpec(algo, seed=seed), train_n)
        out[algo] = metrics.regression_metrics(regress.predict_matrix(model, test_n.X), test_n.y)
    return out


def test_c5_regression_benchmark():
    good = 0
    rows = []
    for seed in range(10):
        r = _benchmark_seed(seed)
        ok = r["rforest"].r2 >= 0.95 and r["rforest"].mae < r["linear"].mae
        good += ok
        rows.append(
            f"seed {seed}: rf MAE {r['rforest'].mae:.2f} R2 {r['rforest'].r2:.3f} "
            f"vs lr MAE {r['linear'].mae:.2f} [{'ok' if ok else 'FAIL'}]"
        )
    print("\n".join(rows))
    assert good >= 9, f"only {good}/10 seeds satisfied the benchmark"
    _pass("C5 regression", f"{good}/10 seeds: rf R2>=0.95 and MAE(rf)<MAE(lr)")


# ---------------------------------------------------------------------------
# C6: detection metrics vs a brute-force matcher


def _naive_class_ap(preds_by_image, gts_by_image, label, thr):
    pool = []
    num_gt = 0
    for img_idx, (preds, gts) in enumerate(zip(preds_by_image, gts_by_image)):
        cls_preds = [(i, p) for i, p in enumerate(preds) if p.label is label]
        cls_gts = [g for g in gts if g.label is label]
        num_gt += len(cls_gts)
        used = [False] * len(cls_gts)
        cls_preds.sort(key=lambda t: (-(t[1].confidence or 0.0), t[0]))
        for i, p in cls_preds:
            best, best_j = 0.0, -1
            for j, g in enumerate(cls_gts):
                if used[j]:
                    continue
                iou = metrics.box_iou(p.bbox, g.bbox)
                if iou >= thr and iou > best:
                    best, best_j = iou, j
            if best_j >= 0:
                used[best_j] = True
            pool.append((-(p.confidence or 0.0), img_idx, i, best_j >= 0))
    if num_gt == 0:
        return None
    pool.sort()
    tp = fp = 0
    points = []
    for *_k, hit in pool:
        tp += hit
        fp += not hit
        points.append((tp / (tp + fp), tp / num_gt))
    total = 0.0
    for k in range(101):
        r = k / 100.0
        total += max((p for p, rec in points if rec >= r - 1e-12), default=0.0)
    return total / 101.0


def _random_micro_scene(rng):
    labels = list(ClassLabel)
    gts, preds = [], []
    for _ in range(int(rng.integers(1, 7))):
        x, y = (int(v) for v in rng.integers(0, 18, 2))
        w, h = (int(v) for v in rng.integers(3, 7, 2))
        gts.append(measurement.DetectionInstance(labels[rng.integers(0, 6)], (x, y, w, h)))
    for g in gts:
        if rng.random() < 0.75:
            dx, dy = (int(v) for v in rng.integers(-2, 3, 2))
            label = g.label if rng.random() < 0.85 else labels[rng.integers(0, 6)]
            preds.append(
                measurement.DetectionInstance(
                    label,
                    (max(0, g.bbox[0] + dx), max(0, g.bbox[1] + dy), g.bbox[2], g.bbox[3]),
                    confidence=float(rng.random()),
                )
            )
    for _ in range(int(rng.integers(0, 3))):
        x, y = (int(v) for v in rng.integers(0, 18, 2))
        w, h = (int(v) for v in rng.integers(3, 7, 2))
        preds.append(
            measurement.DetectionInstance(
                labels[rng.integers(0, 6)], (x, y, w, h), confidence=float(rng.random())
            )
        )
    return preds, gts


def test_c6_detection_metrics():
    assert metrics.average_precision([False, True], 1) == pytest.approx(0.5, abs=1e-3)
    rng = np.random.default_rng(3)
    scenes = [_random_micro_scene(rng) for _ in range(200)]
    preds = [s[0] for s in scenes]
    gts = [s[1] for s in scenes]
    summary = metrics.map_summary(preds, gts)
    assert summary.map50_95 <= summary.map50 + 1e-12
    compared = 0
    for label_name, m in summary.per_class.items():
        label = ClassLabel.from_name(label_name)
        for thr in metrics.COCO_THRESHOLDS:
            expected = _naive_class_ap(preds, gts, label, thr)
            (tps,), num_gt = metrics._class_sweeps(preds, gts, ["box"], None, (thr,))["box"][label]
            got = metrics.average_precision(tps, num_gt)
            assert got == pytest.approx(expected, abs=1e-12)
            compared += 1
        assert m.ap50 == pytest.approx(_naive_class_ap(preds, gts, label, 0.5), abs=1e-12)
    _pass("C6 detection", f"200 micro-scenes, {compared} class/threshold APs equal the naive matcher")


# ---------------------------------------------------------------------------
# C7: preprocessing


def test_c7_preprocessing():
    def column_dataset(col):
        X = np.zeros((len(col), preprocess.N_FEATURES))
        X[:, 0] = 1.0
        X[:, 5] = col
        X[:, 6:9] = 1.0
        return preprocess.RegressionDataset(X, np.ones(len(col)))

    kept = preprocess.zscore_filter(column_dataset([0, 0, 0, 0, 0, 12]))
    assert len(kept) == 5 and 12.0 not in kept.X[:, 5]  # z = 2.236 removed
    kept = preprocess.zscore_filter(column_dataset([0, 0, 0, 0, 10]))
    assert len(kept) == 5  # z = 2.0 exactly retained

    rng = np.random.default_rng(4)
    for _ in range(500):
        m = (rng.random((rng.integers(1, 24), rng.integers(1, 24))) < 0.5).astype(np.uint8)
        boxes = [(0, 0, 1, 1)]
        m2, b2 = preprocess.augment(*preprocess.augment(m, boxes, "hflip"), "hflip")
        assert np.array_equal(m2, m) and b2 == boxes
        cur, b = m, boxes
        for _ in range(4):
            cur, b = preprocess.augment(cur, b, "rot90")
        assert np.array_equal(cur, m) and b == boxes

    ds = column_dataset(list(range(101)))
    for seed in range(5):
        tr, va, te = preprocess.split(ds, seed=seed)
        vals = np.concatenate([tr.X[:, 5], va.X[:, 5], te.X[:, 5]])
        assert sorted(vals.tolist()) == list(map(float, range(101)))
    _pass("C7 preprocessing", "z-rule examples, 500 involution checks, 5 split partitions")


# ---------------------------------------------------------------------------
# C8: end-to-end determinism


def _run_cli(args):
    result = run_foodcal(*args, timeout=300)
    assert result.returncode == 0, f"{args}: {result.stderr}"
    return result.stdout


def _flow(base: Path, tag: str, threads: int):
    gen = base / f"gen_{tag}"
    _run_cli(["gen", "--seed", "11", "--records", "120", "--out", str(gen)])
    ext = base / f"ext_{tag}"
    _run_cli(["extract", "--annotations", str(gen / "annotations.json"), "--out", str(ext)])
    model = base / f"model_{tag}"
    _run_cli(
        [
            "train",
            "--data",
            str(ext / "features.csv"),
            "--model",
            "rf",
            "--seed",
            "5",
            "--threads",
            str(threads),
            "--out",
            str(model),
        ]
    )
    rep = base / f"eval_{tag}"
    _run_cli(
        ["eval", "--model", str(model / "model.json"), "--data", str(ext / "features.csv"),
         "--out", str(rep)]
    )
    return {
        "dataset.csv": (gen / "dataset.csv").read_bytes(),
        "features.csv": (ext / "features.csv").read_bytes(),
        "model.json": (model / "model.json").read_bytes(),
        "eval.json": (rep / "eval.json").read_bytes(),
    }


def test_c8_determinism(tmp_path):
    first = _flow(tmp_path, "a", threads=1)
    second = _flow(tmp_path, "b", threads=1)
    threaded = _flow(tmp_path, "c", threads=8)
    assert first == second, "repeated runs differ"
    assert first == threaded, "thread count changed the outputs"
    _pass("C8 determinism", "gen+extract+train+eval byte-identical across runs and threads 1/8")


# ---------------------------------------------------------------------------
# the oracle modules stay independent of the code they check


def _private_names(path: Path) -> list[str]:
    """The ``_``-prefixed names, dunders aside, that a module takes from
    ``foodcal``: imported by name, or read as an attribute of a name it
    imports from ``foodcal``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = lambda name: name.startswith("_") and not (name.startswith("__") and name.endswith("__"))  # noqa: E731
    found, bound = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "foodcal":
            found += [f"{node.module}.{alias.name}" for alias in node.names if private(alias.name)]
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names
                      if alias.name.split(".")[0] == "foodcal"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def test_oracles_take_no_private_name_from_foodcal():
    # an oracle that reuses the internals it checks agrees with them by construction
    oracles = sorted(Path(__file__).parent.glob("*oracle*.py"))
    assert len(oracles) >= 3
    assert {p.name: _private_names(p) for p in oracles} == {p.name: [] for p in oracles}
