import argparse
import contextlib
import io
import json
import re
import shutil
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodcal import cli, manifests, maskgeom, metrics, preprocess, regress, synth
from foodcal.cli import SCENE_OPTIONS, main
from foodcal.errors import DataError, write_json
from foodcal.measurement import FOOD_CLASSES, ClassLabel, DetectionInstance
from foodcal.nnblocks import blocks

import metric_oracles
from cli_child import run_foodcal
from pgm_manifests import paste, write_pgm_manifest

GEN_ARGS = ["gen", "--seed", "7", "--records", "24", "--views-per-item", "4"]


def run_cli(*args):
    return main(list(args))


def tree_bytes(root: Path, skip=("run_manifest.json",)):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name not in skip:
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    assert run_cli(*GEN_ARGS, "--out", str(out)) == 0
    return out


def test_gen_writes_expected_tree(gen_dir):
    assert (gen_dir / "dataset.csv").exists()
    assert (gen_dir / "annotations.json").exists()
    assert (gen_dir / "run_manifest.json").exists()
    assert not (gen_dir / "masks").exists()  # masks are inside annotations.json
    records = preprocess.read_csv(gen_dir / "dataset.csv")
    assert len(records) == 24


def test_gen_deterministic(gen_dir, tmp_path):
    again = tmp_path / "again"
    assert run_cli(*GEN_ARGS, "--out", str(again)) == 0
    assert tree_bytes(gen_dir) == tree_bytes(again)


def test_extract_reproduces_gen_dataset(gen_dir, tmp_path):
    out = tmp_path / "x"
    assert run_cli("extract", "--annotations", str(gen_dir / "annotations.json"), "--out", str(out)) == 0
    assert (out / "features.csv").read_bytes() == (gen_dir / "dataset.csv").read_bytes()


def test_extract_keeps_labels_when_a_mask_is_blank(gen_dir, tmp_path):
    # extract skips a food instance with an empty mask; the items after it in
    # the same image must keep their own calorie labels. The mask is blanked
    # in a version 2 copy, whose masks are PGM files.
    data = tmp_path / "data"
    write_pgm_manifest(data / "annotations.json", manifests.read_manifest(gen_dir / "annotations.json"))
    first_food = manifests.read_manifest(data / "annotations.json")[0].instances[1]
    maskgeom.write_pgm(data / "masks" / "scene_0000_i01.pgm", np.zeros_like(first_food.mask))
    out = tmp_path / "x"
    assert run_cli("extract", "--annotations", str(data / "annotations.json"), "--out", str(out)) == 0
    expected = (gen_dir / "dataset.csv").read_text().splitlines()
    del expected[1]  # the header stays; the blanked item's row goes
    assert (out / "features.csv").read_text().splitlines() == expected


def test_train_eval_flow(gen_dir, tmp_path, capsys):
    model_dir = tmp_path / "m"
    assert run_cli(
        "train", "--data", str(gen_dir / "dataset.csv"), "--model", "rf", "--seed", "3",
        "--out", str(model_dir),
    ) == 0
    assert run_cli(
        "eval", "--model", str(model_dir / "model.json"), "--data", str(gen_dir / "dataset.csv"),
        "--out", str(tmp_path / "e"),
    ) == 0
    out = capsys.readouterr().out
    assert "R2=" in out
    report = json.loads((tmp_path / "e" / "eval.json").read_text())
    assert set(report) >= {"mae", "mse", "rmse", "r2"}


def test_eval_on_perfect_predictions_reports_r2_one(tmp_path, capsys):
    # a k=1 nearest-neighbour model that memorized the whole CSV predicts it
    # exactly, so eval must report R2 = 1.0
    rng = np.random.default_rng(0)
    from foodcal.measurement import FOOD_CLASSES, FeatureRecord

    records = [
        FeatureRecord(
            label=FOOD_CLASSES[int(rng.integers(0, 5))],
            height_mm=float(rng.uniform(10, 50)),
            width_mm=float(rng.uniform(10, 50)),
            area_mm2=float(rng.uniform(500, 1500)),
            perimeter_mm=float(rng.uniform(50, 200)),
            calories_kcal=float(rng.uniform(30, 60)),
        )
        for _ in range(40)
    ]
    data = tmp_path / "d.csv"
    preprocess.write_csv(data, records)
    ds = preprocess.RegressionDataset.from_records(records)
    params = preprocess.minmax_fit(ds)
    model = regress.fit(
        regress.ModelSpec("knn", hyperparameters={"k": 1}), preprocess.minmax_apply(params, ds)
    )
    bundle = {
        "format": "foodcal-model-bundle",
        "version": 1,
        "preprocessing": {
            "normalization": {"mins": list(params.mins), "maxs": list(params.maxs)},
            "split": {"fractions": [0.8, 0.1, 0.1], "seed": 0},
            "zscore_threshold": 2.0,
        },
        "regressor": regress.to_dict(model),
    }
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(bundle))
    assert run_cli("eval", "--model", str(model_path), "--data", str(data), "--split", "all") == 0
    assert "R2=1.0000" in capsys.readouterr().out


@pytest.fixture(scope="module")
def gen_644(tmp_path_factory):
    """``gen --seed 7 --records 644`` and extract's ``x/features.csv`` of its
    manifest. On these rows lr rounds a few predictions differently in one
    batch and in one call per image."""
    root = tmp_path_factory.mktemp("gen644")
    assert run_cli("gen", "--seed", "7", "--records", "644", "--out", str(root)) == 0
    assert run_cli("extract", "--annotations", str(root / "annotations.json"), "--out", str(root / "x")) == 0
    return root


@pytest.mark.parametrize("model", sorted(cli.MODEL_NAMES))
def test_pipeline_matches_extract_then_predict(gen_644, tmp_path, capsys, model):
    # pipeline scores the whole manifest in one batch: its kcal equal, bit for
    # bit, one predict_matrix call over extract's rows normalised with the bundle
    bundle = tmp_path / "m" / "model.json"
    assert run_cli("train", "--data", str(gen_644 / "dataset.csv"), "--model", model,
                   "--out", str(bundle.parent)) == 0
    out = tmp_path / "p"
    assert run_cli("pipeline", "--annotations", str(gen_644 / "annotations.json"),
                   "--model", str(bundle), "--out", str(out)) == 0
    capsys.readouterr()
    estimates = json.loads((out / "estimates.json").read_text())

    regressor, params, _ = cli._load_bundle(bundle)
    ds = preprocess.minmax_apply(params, preprocess.read_csv(gen_644 / "x" / "features.csv"))
    assert [e["class"] for e in estimates] == [FOOD_CLASSES[j].value for j in ds.X[:, :5].argmax(axis=1)]
    assert [e["kcal"] for e in estimates] == regress.predict_matrix(regressor, ds.X).tolist()


def test_estimates_name_their_instance_past_an_empty_mask(gen_dir, tmp_path, capsys):
    # two Puris with an empty mask between them: without the instance field
    # the rows could not be told apart or joined to their detections
    block = np.zeros((40, 40), np.uint8)
    block[5:25, 8:30] = 1
    coin = np.zeros((40, 40), np.uint8)
    coin[30:36, 30:36] = 1
    instances = [
        DetectionInstance(ClassLabel.COIN, (30, 30, 6, 6), 0.99, coin),
        DetectionInstance(ClassLabel.PURI, (8, 5, 22, 20), 0.9, block),
        DetectionInstance(ClassLabel.PURI, (8, 5, 22, 20), 0.8, np.zeros_like(block)),
        DetectionInstance(ClassLabel.PURI, (8, 5, 22, 20), 0.7, block),
    ]
    images = [manifests.ImageAnnotations(name, 40, 40, instances) for name in ("a", "b")]
    path = manifests.write_manifest(tmp_path / "annotations.json", images)
    assert run_cli("train", "--data", str(gen_dir / "dataset.csv"), "--model", "lr",
                   "--out", str(tmp_path / "m")) == 0
    capsys.readouterr()
    assert run_cli("pipeline", "--annotations", str(path), "--model", str(tmp_path / "m" / "model.json"),
                   "--out", str(tmp_path / "p")) == 0
    rows = json.loads((tmp_path / "p" / "estimates.json").read_text())
    assert [(r["image"], r["instance"], r["class"]) for r in rows] == [
        ("a", 1, "Puri"), ("a", 3, "Puri"), ("b", 1, "Puri"), ("b", 3, "Puri")]
    assert list(rows[0]) == ["image", "instance", "class", "kcal"]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines] == [
        ["a", "instance", "1"], ["a", "instance", "3"], ["b", "instance", "1"], ["b", "instance", "3"]]


def test_pipeline_on_coin_only_images_estimates_nothing(gen_dir, tmp_path, capsys):
    coin = {"class": "Coin", "bbox": [0, 0, 4, 4]}
    path = tmp_path / "annotations.json"
    path.write_text(json.dumps({"format": "foodcal-annotations", "version": 1, "images": [
        {"image": f"scene_{i}", "width": 10, "height": 10, "instances": [coin]} for i in range(2)]}))
    assert run_cli("train", "--data", str(gen_dir / "dataset.csv"), "--model", "lr",
                   "--out", str(tmp_path / "m")) == 0
    assert run_cli("pipeline", "--annotations", str(path), "--model", str(tmp_path / "m" / "model.json"),
                   "--out", str(tmp_path / "p")) == 0
    assert json.loads((tmp_path / "p" / "estimates.json").read_text()) == []


def _drop_coin_of_second_image(gen_dir, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(gen_dir, data)
    doc = json.loads((data / "annotations.json").read_text())
    second = doc["images"][1]
    second["instances"] = [inst for inst in second["instances"] if inst["class"] != "Coin"]
    (data / "annotations.json").write_text(json.dumps(doc))
    return data / "annotations.json", second["image"]


@pytest.mark.parametrize("command", ["extract", "pipeline"])
def test_coinless_image_is_named_in_the_error(gen_dir, tmp_path, capsys, command):
    path, image = _drop_coin_of_second_image(gen_dir, tmp_path)
    model = []
    if command == "pipeline":
        assert run_cli("train", "--data", str(gen_dir / "dataset.csv"), "--model", "lr",
                       "--out", str(tmp_path / "m")) == 0
        model = ["--model", str(tmp_path / "m" / "model.json")]
    capsys.readouterr()
    assert run_cli(command, "--annotations", str(path), *model, "--out", str(tmp_path / "o")) == 2
    assert f"{path}: image {image}: no coin instance among detections" in _one_error_line(capsys)


@pytest.mark.parametrize("command", ["extract", "pipeline", "detmetrics"])
def test_a_manifest_that_names_an_image_twice_exits_2(gen_dir, lr_bundle, tmp_path, capsys, command):
    doc = json.loads((gen_dir / "annotations.json").read_text())
    name = doc["images"][0]["image"]
    doc["images"][2]["image"] = name
    path = tmp_path / "annotations.json"
    path.write_text(json.dumps(doc))
    args = {"extract": ["--annotations", str(path)],
            "pipeline": ["--annotations", str(path), "--model", str(lr_bundle)],
            "detmetrics": ["--pred", str(path), "--gt", str(path)]}[command]
    capsys.readouterr()
    assert run_cli(command, *args, "--out", str(tmp_path / "o")) == 2
    assert _one_error_line(capsys) == f"error: {path}: image {name}: images 0 and 2 have the same name\n"
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def lr_bundle(gen_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("lr")
    assert run_cli("train", "--data", str(gen_dir / "dataset.csv"), "--model", "lr", "--out", str(out)) == 0
    return out / "model.json"


def test_eval_negative_seed_is_a_usage_error(gen_dir, lr_bundle, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--model", str(lr_bundle), "--data", str(gen_dir / "dataset.csv"), "--seed", "-3"])
    assert exc.value.code == 1
    assert "--seed must be >= 0, got -3" in capsys.readouterr().err


def test_eval_records_the_seed_it_split_with(gen_dir, lr_bundle, tmp_path):
    args = ["eval", "--model", str(lr_bundle), "--data", str(gen_dir / "dataset.csv"), "--split", "train"]
    assert run_cli(*args, "--seed", "5", "--out", str(tmp_path / "e")) == 0
    assert json.loads((tmp_path / "e" / "run_manifest.json").read_text())["seed"] == 5
    assert run_cli(*args, "--out", str(tmp_path / "d")) == 0
    assert json.loads((tmp_path / "d" / "run_manifest.json").read_text())["seed"] == 0


def test_gen_stops_once_it_has_its_records(tmp_path):
    # gen once rendered no more scenes after the last record but still ran
    # through every remaining view, hence the child process and its timeout
    result = run_foodcal(
        "gen", "--records", "1", "--views-per-item", "1000000000", "--out", str(tmp_path), timeout=30
    )
    assert result.returncode == 0, result.stderr
    assert len(preprocess.read_csv(tmp_path / "dataset.csv")) == 1


def test_gen_writes_one_food_instance_per_row(gen_644, tmp_path):
    # gen once cut the rows to --records but kept every food instance of its
    # last scene in annotations.json, so extract found more rows than it wrote
    small = tmp_path / "small"
    assert run_cli("gen", "--seed", "1", "--records", "5", "--views-per-item", "2", "--out", str(small)) == 0
    assert run_cli("extract", "--annotations", str(small / "annotations.json"), "--out", str(small / "x")) == 0
    for root in (small, gen_644):
        assert (root / "x" / "features.csv").read_bytes() == (root / "dataset.csv").read_bytes()


def test_gradcheck_command(capsys):
    assert run_cli("gradcheck", "--block", "coordconv", "--seeds", "2") == 0
    assert "PASS" in capsys.readouterr().out


def test_a_failing_gradcheck_seed_names_its_worst_array(monkeypatch, capsys):
    right = blocks.c2f_cd_bwd

    def wrong(cache, gy):
        gx, grads = right(cache, gy)
        return gx, {**grads, "exit.weight": 3 * grads["exit.weight"] + 1}

    monkeypatch.setattr(blocks, "c2f_cd_bwd", wrong)
    assert run_cli("gradcheck", "--block", "c2fcd", "--seeds", "2") == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[0] for line in lines] == ["c2fcd seed 0", "c2fcd seed 1", "c2fcd"]
    assert all(line.endswith(" in exit.weight") for line in lines[:2])
    assert lines[2].endswith("-> FAIL") and " in " not in lines[2]


def test_a_passing_gradcheck_line_names_no_array(capsys):
    assert run_cli("gradcheck", "--block", "conv", "--seeds", "1") == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert re.fullmatch(r"conv seed 0: max relative error \d\.\d{3}e-\d\d", line)


def test_detmetrics_self_comparison(gen_dir, tmp_path, capsys):
    out = tmp_path / "dm"
    assert run_cli(
        "detmetrics", "--pred", str(gen_dir / "annotations.json"),
        "--gt", str(gen_dir / "annotations.json"), "--out", str(out),
    ) == 0
    text = capsys.readouterr().out
    assert "mAP50=1.0000" in text
    report = json.loads((out / "detmetrics.json").read_text())
    assert report["box"]["map50"] == 1.0
    assert report["mask"]["map50"] == 1.0


def _perturbed(images, rng):
    """Predictions made from ground truth: some dropped, some relabelled, the
    rest moved up to 3 px inside the frame with confidences that often tie."""
    out = []
    for img in images:
        preds = []
        for d in img.instances:
            if rng.random() < 0.15:
                continue
            (x, y), (h, w) = d.origin, d.mask.shape
            dx = int(np.clip(rng.integers(-3, 4), -x, img.width - x - w))
            dy = int(np.clip(rng.integers(-3, 4), -y, img.height - y - h))
            label = d.label if rng.random() < 0.9 else ClassLabel.SOMUSA
            conf = float(rng.choice([0.25, 0.5, 0.75, round(float(rng.random()), 3)]))
            bx, by, bw, bh = d.bbox
            preds.append(DetectionInstance(label, (bx + dx, by + dy, bw, bh), conf, d.mask, (x + dx, y + dy)))
        out.append(manifests.ImageAnnotations(name=img.name, width=img.width, height=img.height, instances=preds))
    return out


def test_detmetrics_writes_the_list_based_report_byte_for_byte(gen_dir, tmp_path):
    gt = gen_dir / "annotations.json"
    images = manifests.read_manifest(gt)
    perturbed = manifests.write_manifest(tmp_path / "pred" / "annotations.json",
                                         _perturbed(images, np.random.default_rng(5)))
    for name, pred in (("self", gt), ("perturbed", perturbed)):
        out = tmp_path / name
        assert run_cli("detmetrics", "--pred", str(pred), "--gt", str(gt), "--out", str(out)) == 0
        preds = [img.instances for img in manifests.read_manifest(pred)]
        gts = [img.instances for img in images]
        report = metrics.DetectionReport(*(metric_oracles.map_summary(preds, gts, kind) for kind in ("box", "mask")))
        write_json(out / "oracle.json", asdict(report), indent=1)
        assert (out / "detmetrics.json").read_bytes() == (out / "oracle.json").read_bytes()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "2", "1.0000001", "-1", "-0.5"])
def test_detmetrics_conf_threshold_outside_0_1_is_a_usage_error(gen_dir, capsys, value):
    # each of these once exited 0: nan, inf and 2 with an all-zero report,
    # -1 as though no threshold were set
    manifest = str(gen_dir / "annotations.json")
    with pytest.raises(SystemExit) as exc:
        main(["detmetrics", "--pred", manifest, "--gt", manifest, f"--conf-threshold={value}"])
    assert exc.value.code == 1
    assert f"--conf-threshold must be in [0, 1], got {float(value)}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "1", "0.5"])
def test_detmetrics_takes_conf_thresholds_from_0_to_1(gen_dir, capsys, value):
    manifest = str(gen_dir / "annotations.json")
    assert run_cli("detmetrics", "--pred", manifest, "--gt", manifest, f"--conf-threshold={value}") == 0


@pytest.mark.parametrize("with_masks", [False, True], ids=["boxes", "masks"])
def test_detmetrics_rejects_images_of_different_size(tmp_path, capsys, with_masks):
    def manifest(name, size):
        mask = np.zeros((size, size), np.uint8) if with_masks else None
        if mask is not None:
            mask[10:20, 10:20] = 1
        inst = DetectionInstance(label=ClassLabel.PURI, bbox=(10, 10, 10, 10), confidence=0.9, mask=mask)
        img = manifests.ImageAnnotations(name="scene_0004", width=size, height=size, instances=[inst])
        return manifests.write_manifest(tmp_path / name / "annotations.json", [img])

    pred, gt = manifest("pred", 300), manifest("gt", 320)
    assert run_cli("detmetrics", "--pred", str(pred), "--gt", str(gt), "--out", str(tmp_path / "dm")) == 2
    assert f"{pred}: image scene_0004 is 300x300, but 320x320 in {gt}" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "gt_names, message",
    [
        (["scene_0000", "scene_0002"], "image 1 is 'scene_0001', but 'scene_0002' in"),
        (["scene_0000"], "image 1 is 'scene_0001', but None in"),
        (["scene_0000", "scene_0001", "scene_0002"], "image 2 is None, but 'scene_0002' in"),
    ],
    ids=["renamed", "fewer", "more"],
)
def test_detmetrics_names_the_first_image_that_differs(tmp_path, capsys, gt_names, message):
    def manifest(name, images):
        inst = DetectionInstance(label=ClassLabel.PURI, bbox=(10, 10, 10, 10), confidence=0.9)
        imgs = [manifests.ImageAnnotations(name=n, width=64, height=64, instances=[inst]) for n in images]
        return manifests.write_manifest(tmp_path / name / "annotations.json", imgs)

    pred, gt = manifest("pred", ["scene_0000", "scene_0001"]), manifest("gt", gt_names)
    assert run_cli("detmetrics", "--pred", str(pred), "--gt", str(gt), "--out", str(tmp_path / "dm")) == 2
    assert f"error: {pred}: {message} {gt}\n" == _one_error_line(capsys)


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", "x.csv"])  # missing --model
    assert exc.value.code == 1


PARSER_ARGVS = [
    *([name, "--help"] for name in cli.COMMANDS),
    ["--help"],
    ["--version"],
    [],
    ["bogus"],
    ["--seed", "3"],
    ["gen", "--seed", "3"],  # no --out
    ["extract"],
    ["train", "--data", "x.csv"],
    ["eval", "--model", "m.json"],
    ["pipeline", "--annotations", "a.json"],
    ["gradcheck"],
    ["detmetrics", "--pred", "p.json"],
    ["gradcheck", "--block", "conv", "--seeds", "0"],
    ["detmetrics", "--pred", "p.json", "--gt", "g.json", "--conf-threshold", "2"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_one_command_parser_prints_what_the_full_parser_prints(argv, monkeypatch, capsys):
    monkeypatch.delenv("FOODCAL_OUT_DIR", raising=False)

    def run():
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code, *capsys.readouterr()

    one = run()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert run() == one


def test_data_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,valid,header\n1,2,3,4\n")
    assert run_cli("train", "--data", str(bad), "--model", "rf", "--out", str(tmp_path / "m")) == 2
    assert "error:" in capsys.readouterr().err


def test_too_few_rows_for_the_z_score_filter_names_the_csv(tmp_path, capsys):
    data = tmp_path / "header_only.csv"
    data.write_text("class,height_mm,width_mm,area_mm2,perimeter_mm,calories_kcal\n")
    assert run_cli("train", "--data", str(data), "--model", "lr", "--out", str(tmp_path / "m")) == 2
    line = _one_error_line(capsys)
    assert line.startswith(f"error: {data}: ") and "z-score filtering needs at least two rows" in line


@pytest.mark.parametrize("threshold", [0.1, 0, -1])
def test_a_z_score_filter_that_keeps_no_row_names_the_csv(tmp_path, capsys, threshold):
    # this once failed in minmax_fit, naming neither the CSV nor the threshold
    data = tmp_path / "gen"
    assert run_cli("gen", "--seed", "7", "--records", "60", "--out", str(data)) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"zscore_threshold": threshold}))
    capsys.readouterr()
    assert run_cli("train", "--data", str(data / "dataset.csv"), "--model", "lr", "--config", str(config),
                   "--out", str(tmp_path / "m")) == 2
    n_train = len(preprocess.split(preprocess.read_csv(data / "dataset.csv"))[0])
    assert _one_error_line(capsys) == (f"error: {data / 'dataset.csv'}: the z-score filter at threshold "
                                       f"{float(threshold)!r} keeps none of the {n_train} rows of the train split\n")


def test_non_finite_csv_exits_2(tmp_path, capsys):
    data = tmp_path / "nan.csv"
    data.write_text(
        "class,height_mm,width_mm,area_mm2,perimeter_mm,calories_kcal\n"
        "Puri,10.0,20.0,30.0,40.0,50.0\n"
        "Puri,nan,20.0,30.0,40.0,inf\n"
    )
    assert run_cli("train", "--data", str(data), "--model", "lr", "--out", str(tmp_path / "m")) == 2
    assert "line 3: non-finite height_mm, calories_kcal" in capsys.readouterr().err


def _unlabel(source, target, rows) -> int:
    """Copy the dataset CSV ``source`` to ``target`` with the calorie label
    of each of ``rows`` (0 is the first data row) emptied; returns the file
    line of the first."""
    lines = source.read_text().splitlines()
    for r in rows:
        lines[r + 1] = lines[r + 1].rsplit(",", 1)[0] + ","
    target.write_text("\n".join(lines) + "\n")
    return min(rows) + 2


def test_train_rejects_an_unlabelled_row(gen_dir, tmp_path, capsys):
    # an rf trained on NaN targets wrote a bundle that no reader accepts
    data = tmp_path / "unlabelled.csv"
    line = _unlabel(gen_dir / "dataset.csv", data, [17, 3, 9, 20, 11])
    assert run_cli("train", "--data", str(data), "--model", "rf", "--out", str(tmp_path / "m")) == 2
    assert _one_error_line(capsys) == f"error: {data}: line {line}: calories_kcal is empty\n"
    assert not (tmp_path / "m").exists()


def test_eval_of_all_rows_rejects_an_unlabelled_row(gen_dir, lr_bundle, tmp_path, capsys):
    # it scored NaN for the unlabelled row and wrote "mae": NaN into eval.json
    data = tmp_path / "unlabelled.csv"
    line = _unlabel(gen_dir / "dataset.csv", data, [6])
    capsys.readouterr()
    assert run_cli("eval", "--model", str(lr_bundle), "--data", str(data), "--split", "all",
                   "--out", str(tmp_path / "e")) == 2
    assert _one_error_line(capsys) == f"error: {data}: line {line}: calories_kcal is empty\n"
    assert not (tmp_path / "e" / "eval.json").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_csv_row_with_more_fields_than_the_header_exits_2(lr_bundle, tmp_path, capsys, command):
    # a decimal comma in "1,5" splits one field in two
    data = tmp_path / "comma.csv"
    data.write_text(",".join(preprocess.CSV_FIELDS) + "\nPuri,10.0,20.0,30.0,40.0,50.0\nPuri,10,1,5,20,30,40\n")
    argv = {
        "train": ["train", "--data", str(data), "--model", "lr", "--out", str(tmp_path / "m")],
        "eval": ["eval", "--model", str(lr_bundle), "--data", str(data), "--split", "all"],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv) == 2
    assert "comma.csv: line 3: 7 fields, but the header has 6" in _one_error_line(capsys)


def _set_split(**values):
    return lambda b: b["preprocessing"]["split"].update(values)


def _set_min(value):
    return lambda b: b["preprocessing"]["normalization"]["mins"].__setitem__(1, value)


def _set_regressor(**values):
    return lambda b: b["regressor"].update(values)


def _bool_feature(b):
    """Put the bool of the same value in place of the first split feature
    that is 0 or 1."""
    features = b["regressor"]["state"]["feature"]
    k = next(k for k, f in enumerate(features) if f in (0, 1))
    features[k] = bool(features[k])


def _v1_tree(key, k, value):
    """Swap in a v1 tree regressor of the feature layout, with ``value`` at
    node ``k`` of its ``key`` list."""
    def corrupt(b):
        tree = {"feature": [1, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
                "right": [2, -1, -1], "value": [0.0, 1.0, 2.0]}
        tree[key][k] = value
        b["regressor"] = {"format": "foodcal-regressor", "version": 1, "algorithm": "dtree", "seed": 0,
                          "hyperparameters": {}, "n_features": 9, "state": {"tree": tree}}
    return corrupt


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda b: b.pop("preprocessing"), "malformed model bundle: missing or bad 'preprocessing'"),
        (lambda b: b["regressor"].update(algorithm="xgb"), "unknown algorithm 'xgb'"),
        (lambda b: b["regressor"].update(algorithm=[]), "unknown algorithm []"),
        (lambda b: b["regressor"].update(version="2\n"), "unsupported model version '2\\n'"),
        (lambda b: b["preprocessing"]["normalization"]["mins"].pop(), "normalization mins must be 4 finite"),
        (_set_min("abc"), "normalization mins must be 4 finite numbers"),
        (_set_min([1.0]), "normalization mins must be 4 finite numbers"),
        (_set_min(True), "normalization mins must be 4 finite numbers"),
        (lambda b: b["preprocessing"]["normalization"]["maxs"].__setitem__(0, 10**400),
         "normalization maxs must be 4 finite numbers"),
        (_set_split(fractions=["0.8", "0.1", "0.1"]), "split fractions must be 3 finite numbers"),
        (_set_split(fractions=[0.5, 0.5]), "split fractions must be 3 finite numbers"),
        (_set_split(fractions=[1.5, -0.25, -0.25]), "split fractions must be non-negative and sum to 1"),
        (_set_split(fractions=[0.5, 0.25, 0.125]), "split fractions must be non-negative and sum to 1"),
        (_set_split(seed=1.5), "split seed must be an integer >= 0, got 1.5"),
        (_set_split(seed=-3), "split seed must be an integer >= 0, got -3"),
        (_set_split(seed=True), "split seed must be an integer >= 0, got True"),
        # each of these once loaded, except the bool right child: a bool read
        # as 1 or 0, a float as an int, a string as a number
        (lambda b: b.update(version=True), "bundle version must be an integer, got True"),
        (_set_regressor(version=True), "model version must be an integer, got True"),
        (_set_regressor(version=1.0), "model version must be an integer, got 1.0"),
        (_set_regressor(n_features=9.0), "n_features must be an integer >= 0, got 9.0"),
        (_set_regressor(n_features=10**30), f"n_features must be an integer >= 0, got {10**30}"),
        (_set_regressor(seed="abc"), "seed must be an integer >= 0, got 'abc'"),
        (_set_regressor(seed=[1]), "seed must be an integer >= 0, got [1]"),
        (_set_regressor(seed=-5), "seed must be an integer >= 0, got -5"),
        (_bool_feature, "feature must be a list of integers"),
        (_v1_tree("threshold", 0, "0.5"), "tree 0 threshold must be a list of finite numbers"),
        (_v1_tree("value", 1, True), "tree 0 value must be a list of finite numbers"),
        (_v1_tree("feature", 0, True), "tree 0 feature must be a list of integers"),
        (_v1_tree("left", 0, True), "tree 0 left must be a list of integers"),
        (_v1_tree("right", 1, True), "tree 0 right must be a list of integers"),
        (lambda b: b["preprocessing"].update(zscore_threshold="abc"), "zscore_threshold must be a finite number"),
        (lambda b: b["preprocessing"].pop("zscore_threshold"),
         "malformed model bundle: missing or bad 'zscore_threshold'"),
        # each of these once gave a message that named no field
        (lambda b: b["preprocessing"].update(split=5), "preprocessing.split must be an object, got 5"),
        (lambda b: b["preprocessing"].update(normalization=[]),
         "preprocessing.normalization must be an object, got []"),
        (lambda b: b.update(preprocessing=[]), "preprocessing must be an object, got []"),
        # a list of hyperparameters once ended in a traceback
        (_set_regressor(hyperparameters=[]), "malformed foodcal-regressor payload: AttributeError"),
        # a null value of an unknown name once loaded unchecked
        (lambda b: b["regressor"]["hyperparameters"].update(bogus=None),
         """malformed foodcal-regressor payload: ValueError("unknown hyperparameters for dtree: ['bogus']")"""),
        # a regressor of another width once loaded and failed only in predict,
        # with a message that named neither the bundle nor the cause
        (_set_regressor(n_features=10), "the regressor takes 10 features, not the 9 of the feature layout"),
    ],
    ids=["no-preprocessing", "unknown-algorithm", "list-algorithm", "line-break-version", "short-normalization",
         "string-min", "nested-min", "bool-min", "huge-max", "string-fractions", "two-fractions",
         "negative-fraction", "fractions-sum", "float-seed", "negative-seed", "bool-seed",
         "bool-bundle-version", "bool-model-version", "float-model-version", "float-n-features",
         "huge-n-features", "string-model-seed", "list-model-seed", "negative-model-seed", "bool-v2-feature",
         "string-v1-threshold", "bool-v1-value", "bool-v1-feature", "bool-v1-left", "bool-v1-right",
         "string-zscore-threshold", "no-zscore-threshold", "int-split", "list-normalization", "list-preprocessing",
         "list-hyperparameters", "null-unknown-hyperparameter", "other-feature-layout"],
)
def test_malformed_bundle_exits_2(gen_dir, tmp_path, capsys, corrupt, message):
    model = tmp_path / "m" / "model.json"
    assert run_cli("train", "--data", str(gen_dir / "dataset.csv"), "--model", "dt",
                   "--out", str(model.parent)) == 0
    bundle = json.loads(model.read_text())
    corrupt(bundle)
    model.write_text(json.dumps(bundle))
    capsys.readouterr()
    assert run_cli("eval", "--model", str(model), "--data", str(gen_dir / "dataset.csv")) == 2
    assert f"model.json: {message}" in _one_error_line(capsys)
    assert run_cli("pipeline", "--annotations", str(gen_dir / "annotations.json"), "--model", str(model)) == 2
    assert f"model.json: {message}" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "model, corrupt",
    [
        ("lr", lambda s: s.update(coef=s["coef"][:2])),
        ("knn", lambda s: s.update(X=[row[:2] for row in s["X"]])),
        ("knn", lambda s: s.update(k=0)),
        ("knn", lambda s: s.update(y=s["y"][:-1])),
        ("knn", lambda s: s.update(X=[], y=[])),
    ],
    ids=["linear-short-coef", "knn-narrow-X", "knn-k-0", "knn-short-y", "knn-no-rows"],
)
def test_bad_linear_or_knn_state_exits_2(gen_dir, tmp_path, capsys, model, corrupt):
    path = tmp_path / "m" / "model.json"
    assert run_cli("train", "--data", str(gen_dir / "dataset.csv"), "--model", model,
                   "--out", str(path.parent)) == 0
    bundle = json.loads(path.read_text())
    corrupt(bundle["regressor"]["state"])
    path.write_text(json.dumps(bundle))
    capsys.readouterr()
    assert run_cli("eval", "--model", str(path), "--data", str(gen_dir / "dataset.csv")) == 2
    assert "model.json: " in _one_error_line(capsys)


def test_adaboost_bundle_with_negative_weights_exits_2(gen_dir, tmp_path):
    # weights of -1 once loaded and then failed inside the weighted median
    # with a traceback, hence the child process
    path = tmp_path / "m" / "model.json"
    assert run_cli("train", "--data", str(gen_dir / "dataset.csv"), "--model", "ada",
                   "--out", str(path.parent)) == 0
    bundle = json.loads(path.read_text())
    state = bundle["regressor"]["state"]
    state["log_weights"] = [-1.0] * len(state["log_weights"])
    path.write_text(json.dumps(bundle))
    result = run_foodcal("eval", "--model", str(path), "--data", str(gen_dir / "dataset.csv"), timeout=60)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "log_weights" in result.stderr


def test_eval_on_an_empty_split_names_it(tmp_path, capsys):
    data, model = tmp_path / "d" / "dataset.csv", tmp_path / "m" / "model.json"
    assert run_cli("gen", "--seed", "2", "--records", "8", "--out", str(data.parent)) == 0
    assert run_cli("train", "--data", str(data), "--model", "rf", "--out", str(model.parent)) == 0
    capsys.readouterr()
    assert run_cli("eval", "--model", str(model), "--data", str(data)) == 2
    line = _one_error_line(capsys)
    assert "dataset.csv" in line and "test split" in line and "8 rows" in line


def test_missing_file_exits_2(tmp_path, capsys):
    assert run_cli("train", "--data", str(tmp_path / "nope.csv"), "--model", "rf",
                   "--out", str(tmp_path / "m")) == 2


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("FOODCAL_OUT_DIR", str(tmp_path / "envout"))
    assert run_cli("gen", "--seed", "1", "--records", "6", "--views-per-item", "2") == 0
    assert (tmp_path / "envout" / "dataset.csv").exists()


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"records": 6, "seed": 9, "views_per_item": 2}))
    out1 = tmp_path / "o1"
    assert run_cli("gen", "--config", str(cfg), "--out", str(out1)) == 0
    assert len(preprocess.read_csv(out1 / "dataset.csv")) == 6
    out2 = tmp_path / "o2"
    assert run_cli("gen", "--config", str(cfg), "--records", "9", "--out", str(out2)) == 0
    assert len(preprocess.read_csv(out2 / "dataset.csv")) == 9  # flag beats config


def test_manifest_round_trip(gen_dir):
    # every crop pasted at its origin is synth's full-frame mask of the instance
    _, scenes = synth.generate_regression_dataset(synth.SceneConfig(views_per_item=4), 24, 7)
    images = manifests.read_manifest(gen_dir / "annotations.json")
    assert len(images) == len(scenes)
    for img, scene in zip(images, scenes):
        assert len(img.instances) == len(scene.instances)
        for inst, truth in zip(img.instances, scene.instances):
            assert inst.mask.shape != (img.height, img.width)  # stored as a crop
            assert np.array_equal(paste(inst.mask, inst.origin, img.height, img.width), truth.mask)
            assert (inst.label, inst.bbox, inst.confidence) == (truth.label, truth.bbox, truth.confidence)


@pytest.mark.parametrize(
    "key, value",
    zip(SCENE_OPTIONS, (256, 288, 2, 3, 0.03, 0.04)),
    ids=SCENE_OPTIONS,
)
def test_scene_option_reaches_run_manifest(tmp_path, key, value):
    out = tmp_path / "o"
    flag = "--" + key.replace("_", "-")
    assert run_cli("gen", "--seed", "1", "--records", "3", flag, str(value), "--out", str(out)) == 0
    config = json.loads((out / "run_manifest.json").read_text())["config"]
    assert config[key] == value and type(config[key]) is type(value)


def test_run_manifest_contents(gen_dir):
    manifest = json.loads((gen_dir / "run_manifest.json").read_text())
    assert manifest["command"] == "gen"
    assert manifest["argv"] == GEN_ARGS + ["--out", str(gen_dir)]
    assert manifest["seed"] == 7
    assert manifest["version"]
    assert "dataset.csv" in manifest["outputs"]


def test_gen_stores_masks_inside_the_manifest(gen_644):
    # gen_644 also holds x/, the output of extract
    assert sorted(p.name for p in gen_644.iterdir() if p.name != "x") == [
        "annotations.json", "dataset.csv", "run_manifest.json"]
    assert (gen_644 / "annotations.json").stat().st_size <= 1_000_000
    manifest = json.loads((gen_644 / "run_manifest.json").read_text())
    assert manifest["outputs"] == ["annotations.json", "dataset.csv"]


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize(
    "content",
    [b'{"records": 6, "seed"', b'{"records": 6, "seed": "\xff"}', b'{"records": NaN}',
     b'{"records": 1e999}'],
    ids=["truncated", "not-utf8", "nan", "overflow"],
)
def test_bad_config_file_exits_2(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert run_cli("gen", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "cfg.json: invalid JSON config" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("gen", {"width": "abc"}, "width must be an integer, got 'abc'"),
        ("gen", {"records": 6.9}, "records must be an integer, got 6.9"),
        ("gen", {"records": 0}, "records must be >= 1, got 0"),
        ("gen", {"items_per_scene": 0}, "items_per_scene must be >= 1, got 0"),
        ("gen", {"views_per_item": -3}, "views_per_item must be >= 1, got -3"),
        ("gen", {"width": -5}, "width must be >= 1, got -5"),
        ("gen", {"seed": -1}, "seed must be >= 0, got -1"),
        ("gen", {"seed": True}, "seed must be an integer, got True"),
        ("gen", {"boundary_noise": "0.1"}, "boundary_noise must be a number, got '0.1'"),
        ("gen", {"weight_noise": 1}, "weight_noise must be in [0.0, 1.0), got 1.0"),
        ("gen", {"boundary_noise": 1.5}, "boundary_noise must be in [0.0, 1.0), got 1.5"),
        ("train", {"zscore_threshold": None}, "zscore_threshold must be a number, got None"),
        ("train", {"zscore_threshold": 10**400}, "zscore_threshold overflows a float"),
        ("train", {"seed": [1]}, "seed must be an integer, got [1]"),
        ("train", {"seed": 2**63}, f"seed overflows int64: {2**63}"),
        ("gen", {"seed": 3, "boundry_noise": 0.2}, "unknown key 'boundry_noise'"),
        ("train", {"zscore_treshold": 3.0}, "unknown key 'zscore_treshold'"),
    ],
    ids=["str-int", "float-int", "zero-records", "zero-items", "negative-views", "negative-width",
         "negative-seed", "bool-int", "str-float", "weight-noise-1", "boundary-noise-1.5", "null-float",
         "huge-float", "list-int", "past-int64", "misspelt-gen-key", "misspelt-train-key"],
)
def test_bad_config_value_exits_2(gen_dir, tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    data = ["--data", str(gen_dir / "dataset.csv"), "--model", "lr"] if command == "train" else []
    assert run_cli(command, *data, "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert f"cfg.json: {message}" in _one_error_line(capsys)


def test_one_config_serves_gen_and_train(tmp_path):
    cfg = tmp_path / "cfg.json"
    scene = synth.SceneConfig()
    cfg.write_text(json.dumps({"seed": 3, "records": 12, **{key: getattr(scene, key) for key in SCENE_OPTIONS},
                               "zscore_threshold": 2.5}))
    assert run_cli("gen", "--config", str(cfg), "--out", str(tmp_path / "g")) == 0
    assert len(preprocess.read_csv(tmp_path / "g" / "dataset.csv")) == 12
    assert run_cli("train", "--data", str(tmp_path / "g" / "dataset.csv"), "--model", "lr",
                   "--config", str(cfg), "--out", str(tmp_path / "m")) == 0
    bundle = json.loads((tmp_path / "m" / "model.json").read_text())
    assert bundle["preprocessing"]["zscore_threshold"] == 2.5
    assert bundle["preprocessing"]["split"]["seed"] == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--records", "0", "--out", "o"], "--records must be >= 1, got 0"),
        (["gen", "--seed", "-1", "--out", "o"], "--seed must be >= 0, got -1"),
        (["gen", "--height", "0", "--out", "o"], "--height must be >= 1, got 0"),
        (["gen", "--weight-noise", "1.5", "--out", "o"], "--weight-noise must be in [0.0, 1.0), got 1.5"),
        (["gen", "--boundary-noise", "1", "--out", "o"], "--boundary-noise must be in [0.0, 1.0), got 1.0"),
        (["gen", "--boundary-noise", "-0.1", "--out", "o"], "--boundary-noise must be in [0.0, 1.0), got -0.1"),
        (["gradcheck", "--block", "conv", "--seeds", "0"], "--seeds must be >= 1, got 0"),
        # a bundle's split seed is read back as an int64
        (["train", "--data", "d.csv", "--model", "lr", "--seed", str(2**63), "--out", "o"],
         f"--seed overflows int64: {2**63}"),
    ],
    ids=["records", "seed", "height", "weight-noise", "boundary-noise-1", "boundary-noise-negative",
         "gradcheck-seeds", "train-seed-past-int64"],
)
def test_out_of_range_flag_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert message in capsys.readouterr().err


_OPTION_DEFAULTS = {"seed": 0, "records": 100, "zscore_threshold": 2.0} | {
    key: getattr(synth.SceneConfig(), key) for key in SCENE_OPTIONS
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(_OPTION_DEFAULTS)), value=json_values)
def test_config_value_is_typed_in_range_or_a_data_error(key, value):
    default = _OPTION_DEFAULTS[key]
    args = argparse.Namespace(config="cfg.json", **{key: None})
    try:
        got = cli._option(args, cli.build_parser(), {key: value}, key, default)
    except DataError as exc:
        assert str(exc).startswith(f"cfg.json: {key} ")
        return
    low, high = cli._OPTION_RANGES.get(key, (-np.inf, np.inf))
    assert type(got) is type(default) and low <= got < high
    assert got == type(default)(value)


@settings(max_examples=40, deadline=None)
@given(config=st.dictionaries(st.sampled_from(["seed", "zscore_threshold", "records"]), json_values))
def test_train_config_never_ends_in_a_traceback(gen_dir, config):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli("train", "--data", str(gen_dir / "dataset.csv"), "--model", "lr",
                           "--config", str(cfg), "--out", str(Path(tmp) / "m"))
    assert code == 0 or (code == 2 and err.getvalue().startswith("error: ")
                         and err.getvalue().count("\n") == 1), err.getvalue()


def test_non_utf8_csv_exits_2(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_bytes(b"class,height_mm,width_mm,area_mm2,perimeter_mm,calories_kcal\nPuri,1\xff.0,2,3,4,5\n")
    assert run_cli("train", "--data", str(data), "--model", "lr", "--out", str(tmp_path / "m")) == 2
    assert "bad.csv: not UTF-8 CSV" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "flag", ["eval --model", "pipeline --model", "extract --annotations", "detmetrics --pred"]
)
def test_non_utf8_json_input_exits_2(gen_dir, tmp_path, capsys, flag):
    bad = str(tmp_path / "bad.json")
    ann = str(gen_dir / "annotations.json")
    args = {
        "eval --model": ["eval", "--model", bad, "--data", str(gen_dir / "dataset.csv")],
        "pipeline --model": ["pipeline", "--annotations", ann, "--model", bad],
        "extract --annotations": ["extract", "--annotations", bad, "--out", str(tmp_path / "x")],
        "detmetrics --pred": ["detmetrics", "--pred", bad, "--gt", ann],
    }[flag]
    (tmp_path / "bad.json").write_bytes(b'{"format": "foodcal-\xff"}')
    assert run_cli(*args) == 2
    assert "bad.json: invalid JSON" in _one_error_line(capsys)


def test_bundle_with_overflowing_number_exits_2(gen_dir, tmp_path, capsys):
    # 1e999 parses as inf, which gboost's init would carry into every prediction
    model = tmp_path / "m" / "model.json"
    assert run_cli("train", "--data", str(gen_dir / "dataset.csv"), "--model", "gb",
                   "--out", str(model.parent)) == 0
    bundle = json.loads(model.read_text())
    bundle["regressor"]["state"]["init"] = 12345.5
    model.write_text(json.dumps(bundle).replace("12345.5", "1e999"))
    capsys.readouterr()
    assert run_cli("eval", "--model", str(model), "--data", str(gen_dir / "dataset.csv")) == 2
    assert "model.json: invalid JSON" in _one_error_line(capsys)


def test_bundle_with_cyclic_tree_exits_2(gen_dir, tmp_path):
    # a v1 tree whose root is its own right child: every row above the root's
    # threshold once looped in predict for ever, hence the child process and
    # its timeout
    tree = {"feature": [5, -1, -1], "threshold": [0.5, 0.0, 0.0], "left": [1, -1, -1],
            "right": [0, -1, -1], "value": [0.0, 1.0, 2.0]}
    bundle = {
        "format": "foodcal-model-bundle",
        "version": 1,
        "preprocessing": {
            "normalization": {"mins": [0.0] * 4, "maxs": [1.0] * 4},
            "split": {"fractions": [0.8, 0.1, 0.1], "seed": 0},
            "zscore_threshold": 2.0,
        },
        "regressor": {"format": "foodcal-regressor", "version": 1, "algorithm": "dtree", "seed": 0,
                      "hyperparameters": {}, "n_features": 9, "state": {"tree": tree}},
    }
    model = tmp_path / "model.json"
    model.write_text(json.dumps(bundle))
    data = gen_dir / "dataset.csv"
    result = run_foodcal("eval", "--model", str(model), "--data", str(data), timeout=60)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert "right child 0" in result.stderr


@pytest.mark.parametrize(
    "bbox",
    [[1, 1, 0, 5], [1, 1, 5, -2], [1, 1, 5], [1, 1, 5, 5, 5], [1, 1, 5.9, 5.9], [1, 1, True, 5], "1 1 5 5"],
    ids=["zero-width", "negative-height", "three-values", "five-values", "fractional", "bool", "string"],
)
def test_manifest_rejects_degenerate_box(tmp_path, bbox):
    instances = [{"class": "Coin", "bbox": [0, 0, 4, 4]}, {"class": "Puri", "bbox": bbox}]
    path = tmp_path / "annotations.json"
    path.write_text(json.dumps({"format": "foodcal-annotations", "version": 1, "images": [
        {"image": "scene_0007", "width": 10, "height": 10, "instances": instances}]}))
    with pytest.raises(DataError, match="scene_0007"):
        manifests.read_manifest(path)


def test_manifest_with_non_list_images_exits_2(tmp_path, capsys):
    path = tmp_path / "annotations.json"
    path.write_text(json.dumps({"format": "foodcal-annotations", "version": 1, "images": 5}))
    assert run_cli("extract", "--annotations", str(path), "--out", str(tmp_path / "x")) == 2
    assert "images must be a list" in _one_error_line(capsys)


def test_manifest_rejects_non_list_instances(tmp_path):
    path = tmp_path / "annotations.json"
    path.write_text(json.dumps({"format": "foodcal-annotations", "version": 1, "images": [
        {"image": "scene_0003", "width": 10, "height": 10, "instances": {}}]}))
    with pytest.raises(DataError, match="scene_0003: instances must be a list"):
        manifests.read_manifest(path)


def _first_image_and_food(doc):
    return doc["images"][0], doc["images"][0]["instances"][1]


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("calories_kcal", "abc", "calories_kcal must be a finite number or null, got 'abc'"),
        ("calories_kcal", "12", "calories_kcal must be a finite number or null, got '12'"),
        ("calories_kcal", True, "calories_kcal must be a finite number or null, got True"),
        ("calories_kcal", 10**400, "calories_kcal must be a finite number or null"),
        ("confidence", True, "confidence must be a number in [0, 1], got True"),
        ("confidence", "0.9", "confidence must be a number in [0, 1], got '0.9'"),
        ("width", 320.7, "width and height must be integers, got 320.7, 320"),
        ("height", "320", "width and height must be integers, got 320, '320'"),
    ],
    ids=["string-kcal", "numeric-string-kcal", "bool-kcal", "huge-kcal", "bool-confidence",
         "string-confidence", "fractional-width", "string-height"],
)
def test_manifest_field_types_exit_2(gen_dir, tmp_path, capsys, field, value, message):
    data = tmp_path / "data"
    shutil.copytree(gen_dir, data)
    doc = json.loads((data / "annotations.json").read_text())
    image, food = _first_image_and_food(doc)
    (image if field in ("width", "height") else food)[field] = value
    (data / "annotations.json").write_text(json.dumps(doc))
    assert run_cli("extract", "--annotations", str(data / "annotations.json"), "--out", str(tmp_path / "x")) == 2
    line = _one_error_line(capsys)
    assert "annotations.json: image scene_0000: " in line and message in line


@pytest.mark.parametrize("width, height", [(0, -3), (0, 10), (10, -1)])
def test_image_size_below_one_pixel_exits_2(tmp_path, capsys, width, height):
    # box-only instances, so no mask check catches the size
    instances = [{"class": "Coin", "bbox": [0, 0, 4, 4], "confidence": 0.9},
                 {"class": "Puri", "bbox": [5, 5, 3, 3], "confidence": 0.8}]
    path = tmp_path / "annotations.json"
    path.write_text(json.dumps({"format": "foodcal-annotations", "version": 2, "images": [
        {"image": "scene_0002", "width": width, "height": height, "instances": instances}]}))
    assert run_cli("detmetrics", "--pred", str(path), "--gt", str(path), "--out", str(tmp_path / "dm")) == 2
    assert f"image scene_0002: width and height must be >= 1, got {width}, {height}" in _one_error_line(capsys)


def test_error_line_escapes_a_line_break_from_the_input(tmp_path, capsys):
    path = tmp_path / "annotations.json"
    path.write_text(json.dumps({"format": "foodcal-annotations", "version": 1, "images": [
        {"image": "scene\n7", "width": 10.5, "height": 10}]}))
    assert run_cli("extract", "--annotations", str(path), "--out", str(tmp_path / "x")) == 2
    assert "image scene\\n7: width and height must be integers" in _one_error_line(capsys)
