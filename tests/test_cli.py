import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodcal import cli, manifests, maskgeom, preprocess, regress, synth
from foodcal.cli import SCENE_OPTIONS, main
from foodcal.errors import DataError

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
    assert any((gen_dir / "masks").iterdir())
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
    # the same image must keep their own calorie labels
    data = tmp_path / "data"
    shutil.copytree(gen_dir, data)
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
    records = preprocess.read_csv(gen_644 / "x" / "features.csv")
    ds = preprocess.minmax_apply(params, preprocess.RegressionDataset.from_records(records))
    assert [e["class"] for e in estimates] == [r.label.value for r in records]
    assert [e["kcal"] for e in estimates] == regress.predict_matrix(regressor, ds.X).tolist()


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
    result = subprocess.run(
        [sys.executable, "-m", "foodcal.cli", "gen", "--records", "1", "--views-per-item", "1000000000",
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == 0, result.stderr
    assert len(preprocess.read_csv(tmp_path / "dataset.csv")) == 1


def test_gradcheck_command(capsys):
    assert run_cli("gradcheck", "--block", "coordconv", "--seeds", "2") == 0
    assert "PASS" in capsys.readouterr().out


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


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", "x.csv"])  # missing --model
    assert exc.value.code == 1


def test_data_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,valid,header\n1,2,3,4\n")
    assert run_cli("train", "--data", str(bad), "--model", "rf", "--out", str(tmp_path / "m")) == 2
    assert "error:" in capsys.readouterr().err


def test_non_finite_csv_exits_2(tmp_path, capsys):
    data = tmp_path / "nan.csv"
    data.write_text(
        "class,height_mm,width_mm,area_mm2,perimeter_mm,calories_kcal\n"
        "Puri,10.0,20.0,30.0,40.0,50.0\n"
        "Puri,nan,20.0,30.0,40.0,inf\n"
    )
    assert run_cli("train", "--data", str(data), "--model", "lr", "--out", str(tmp_path / "m")) == 2
    assert "line 3: non-finite height_mm, calories_kcal" in capsys.readouterr().err


def _set_split(**values):
    return lambda b: b["preprocessing"]["split"].update(values)


def _set_min(value):
    return lambda b: b["preprocessing"]["normalization"]["mins"].__setitem__(1, value)


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
    ],
    ids=["no-preprocessing", "unknown-algorithm", "list-algorithm", "line-break-version", "short-normalization",
         "string-min", "nested-min", "bool-min", "huge-max", "string-fractions", "two-fractions",
         "negative-fraction", "fractions-sum", "float-seed", "negative-seed", "bool-seed"],
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
    images = manifests.read_manifest(gen_dir / "annotations.json")
    assert images and images[0].instances[0].mask is not None
    assert images[0].instances[0].mask.shape == (images[0].height, images[0].width)


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
        ("train", {"zscore_threshold": None}, "zscore_threshold must be a number, got None"),
        ("train", {"zscore_threshold": 10**400}, "zscore_threshold overflows a float"),
        ("train", {"seed": [1]}, "seed must be an integer, got [1]"),
    ],
    ids=["str-int", "float-int", "zero-records", "zero-items", "negative-views", "negative-width",
         "negative-seed", "bool-int", "str-float", "weight-noise-1", "null-float", "huge-float",
         "list-int"],
)
def test_bad_config_value_exits_2(gen_dir, tmp_path, capsys, command, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    data = ["--data", str(gen_dir / "dataset.csv"), "--model", "lr"] if command == "train" else []
    assert run_cli(command, *data, "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert f"cfg.json: {message}" in _one_error_line(capsys)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--records", "0", "--out", "o"], "--records must be >= 1, got 0"),
        (["gen", "--seed", "-1", "--out", "o"], "--seed must be >= 0, got -1"),
        (["gen", "--height", "0", "--out", "o"], "--height must be >= 1, got 0"),
        (["gen", "--weight-noise", "1.5", "--out", "o"], "--weight-noise must be in [0.0, 1.0), got 1.5"),
        (["gradcheck", "--block", "conv", "--seeds", "0"], "--seeds must be >= 1, got 0"),
    ],
    ids=["records", "seed", "height", "weight-noise", "gradcheck-seeds"],
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
    result = subprocess.run(
        [sys.executable, "-m", "foodcal.cli", "eval", "--model", str(model), "--data", str(data)],
        capture_output=True,
        text=True,
        timeout=60,
    )
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


def test_error_line_escapes_a_line_break_from_the_input(tmp_path, capsys):
    path = tmp_path / "annotations.json"
    path.write_text(json.dumps({"format": "foodcal-annotations", "version": 1, "images": [
        {"image": "scene\n7", "width": 10.5, "height": 10}]}))
    assert run_cli("extract", "--annotations", str(path), "--out", str(tmp_path / "x")) == 2
    assert "image scene\\n7: width and height must be integers" in _one_error_line(capsys)
