"""Command-line entry point.

Subcommands:
  gen        synthetic scenes + regression dataset (masks, manifest, CSV)
  extract    annotation manifest + masks -> features CSV (coin scaling)
  train      features CSV -> model bundle JSON (split/filter/normalize/fit)
  eval       model bundle + CSV -> MAE/MSE/RMSE/R^2 report
  pipeline   scene manifest + model bundle -> per-item kcal estimates
  gradcheck  finite-difference check of a block's analytic gradients
  detmetrics prediction + ground-truth manifests -> detection report

Exit codes: 0 success, 1 usage error, 2 data/processing error. Every
file-writing run also emits ``run_manifest.json`` beside its outputs.
Option precedence: explicit flags > --config JSON file > built-in defaults.
The FOODCAL_OUT_DIR environment variable supplies a default --out directory.
"""

import argparse
import math
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import foodcal
from foodcal import manifests, measurement, metrics, preprocess, regress, synth
from foodcal.errors import DataError, FoodcalError, is_number, read_json, write_json
from foodcal.nnblocks.gradcheck import BLOCK_NAMES, gradcheck

MODEL_NAMES = {
    "lr": "linear",
    "knn": "knn",
    "dt": "dtree",
    "rf": "rforest",
    "gb": "gboost",
    "ada": "adaboost",
}

BUNDLE_FORMAT = "foodcal-model-bundle"
BUNDLE_VERSION = 1

GRADCHECK_TOLERANCE = 1e-4

# SceneConfig fields that gen takes as flags and --config keys, each of the
# type of its default; run_manifest.json records them
SCENE_OPTIONS = ("width", "height", "items_per_scene", "views_per_item", "boundary_noise", "weight_noise")

# [low, high) of the options whose other values fail a run; a weight noise
# of 1 or more can draw a negative weight
_OPTION_RANGES = {
    **dict.fromkeys(("records", "width", "height", "items_per_scene", "views_per_item"), (1, math.inf)),
    "seed": (0, math.inf),
    "weight_noise": (0.0, 1.0),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _record_run(args, out: Path, t0: float, *, config, seed, inputs, outputs) -> None:
    """Write ``run_manifest.json`` for the running subcommand into ``out``."""
    manifest = {
        "command": args.command,
        "argv": args.argv,
        "config": config,
        "seed": seed,
        "inputs": inputs,
        "outputs": outputs,
        "version": foodcal.__version__,
        "wall_clock_s": round(time.perf_counter() - t0, 3),
    }
    write_json(out / "run_manifest.json", manifest, indent=1)


def _write_report(args, t0: float, name: str, payload, *, config, seed, inputs, indent=None) -> None:
    """With ``--out``, write ``payload`` there as JSON file ``name``, then
    ``run_manifest.json``; without it, write nothing."""
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / name, payload, indent=indent)
        _record_run(args, out, t0, config=config, seed=seed, inputs=inputs, outputs=[name])


def _default_out():
    return os.environ.get("FOODCAL_OUT_DIR")


def _load_config(path):
    if path is None:
        return {}
    cfg = read_json(path, "config")
    if not isinstance(cfg, dict):
        raise DataError(f"{path}: config must be a JSON object")
    return cfg


def _option(args, parser, config, key, default):
    """Explicit flag > config file > default, of the type of ``default``.
    A config value must be a JSON integer for an int option and a JSON
    number for a float one, never a bool. A value out of range is a usage
    error from a flag and a ``DataError`` from the file."""
    value = getattr(args, key, None)
    if value is not None:
        where, fail = f"--{key.replace('_', '-')}", parser.error
    elif key in config:
        where, fail, value = f"{args.config}: {key}", _data_error, config[key]
        kinds = int if isinstance(default, int) else (int, float)
        if isinstance(value, bool) or not isinstance(value, kinds):
            fail(f"{where} must be {'an integer' if kinds is int else 'a number'}, got {value!r}")
        if kinds is not int and abs(value) > sys.float_info.max:
            fail(f"{where} overflows a float: {value!r}")
        value = type(default)(value)
    else:
        return default
    low, high = _OPTION_RANGES.get(key, (-math.inf, math.inf))
    if not low <= value < high:
        fail(f"{where} must be {f'>= {low}' if high == math.inf else f'in [{low}, {high})'}, got {value!r}")
    return value


def _data_error(message):
    raise DataError(message)


def _require_out(args, parser):
    out = args.out or _default_out()
    if out is None:
        parser.error("--out is required (or set FOODCAL_OUT_DIR)")
    return Path(out)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args, parser):
    config = _load_config(args.config)
    out = _require_out(args, parser)
    seed = _option(args, parser, config, "seed", 0)
    records = _option(args, parser, config, "records", 100)
    base = synth.SceneConfig()
    cfg = replace(base, **{key: _option(args, parser, config, key, getattr(base, key)) for key in SCENE_OPTIONS})
    t0 = time.perf_counter()
    recs, scenes = synth.generate_regression_dataset(cfg, records, seed)
    out.mkdir(parents=True, exist_ok=True)
    images = [
        manifests.ImageAnnotations(
            name=f"scene_{i:04d}",
            width=s.width,
            height=s.height,
            instances=s.instances,
            calories=[t.calories_kcal for t in s.truth.instances],
        )
        for i, s in enumerate(scenes)
    ]
    manifests.write_manifest(out / "annotations.json", images)
    preprocess.write_csv(out / "dataset.csv", recs)
    _record_run(
        args,
        out,
        t0,
        config={
            "records": records,
            **{key: getattr(cfg, key) for key in SCENE_OPTIONS},
            "coin_radius_range": list(cfg.coin_radius_range),
        },
        seed=seed,
        inputs=[],
        outputs=["annotations.json", "dataset.csv", "masks/"],
    )
    print(f"wrote {len(recs)} records from {len(scenes)} scenes to {out}")
    return 0


def _manifest_rows(path):
    """The images of a manifest and the (image name, feature record) of
    every food instance in them, in order. An image that cannot be measured,
    such as one without a coin, is a ``DataError`` naming the manifest and
    the image."""
    images = manifests.read_manifest(path)
    rows = []
    for img in images:
        try:
            records = measurement.image_records(img.instances, img.calories)
        except FoodcalError as exc:
            raise DataError(f"{path}: image {img.name}: {exc}") from exc
        rows.extend((img.name, rec) for rec in records)
    return images, rows


def cmd_extract(args, parser):
    out = _require_out(args, parser)
    t0 = time.perf_counter()
    images, rows = _manifest_rows(args.annotations)
    records = [rec for _, rec in rows]
    out.mkdir(parents=True, exist_ok=True)
    preprocess.write_csv(out / "features.csv", records)
    _record_run(
        args, out, t0, config={}, seed=None, inputs=[str(args.annotations)], outputs=["features.csv"]
    )
    print(f"extracted {len(records)} records from {len(images)} images to {out / 'features.csv'}")
    return 0


def cmd_train(args, parser):
    config = _load_config(args.config)
    out = _require_out(args, parser)
    seed = _option(args, parser, config, "seed", 0)
    threshold = _option(args, parser, config, "zscore_threshold", 2.0)
    t0 = time.perf_counter()
    dataset = preprocess.RegressionDataset.from_records(preprocess.read_csv(args.data))
    train, _, _ = preprocess.split(dataset, seed=seed)
    params, train_n = preprocess.minmax_fit_apply(preprocess.zscore_filter(train, threshold))
    algorithm = MODEL_NAMES[args.model]
    model = regress.fit(regress.ModelSpec(algorithm, seed=seed), train_n)
    bundle = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "preprocessing": {
            "normalization": {"mins": list(params.mins), "maxs": list(params.maxs)},
            "split": {"fractions": list(preprocess.SPLIT_FRACTIONS), "seed": seed},
            "zscore_threshold": threshold,
        },
        "regressor": regress.to_dict(model),
    }
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "model.json"
    write_json(model_path, bundle)
    _record_run(
        args,
        out,
        t0,
        config={"model": args.model, "zscore_threshold": threshold},
        seed=seed,
        inputs=[str(args.data)],
        outputs=["model.json"],
    )
    print(f"trained {algorithm} on {len(train_n)} rows -> {model_path}")
    return 0


def _numbers(path, what, values, count):
    """``values`` as a tuple of floats when it is a list of ``count`` finite
    JSON numbers, never bools; otherwise a ``DataError`` naming the file."""
    if not (isinstance(values, list) and len(values) == count and all(map(is_number, values))):
        raise DataError(f"{path}: {what} must be {count} finite numbers, got {values!r}")
    return tuple(float(v) for v in values)


def _load_bundle(path):
    """(regressor, normalization, (split fractions, split seed)) of a bundle.
    The normalization holds one finite min and max per numeric feature, the
    split three non-negative fractions summing to 1 and an integer seed
    >= 0."""
    bundle = read_json(path, "model bundle")
    if (
        not isinstance(bundle, dict)
        or bundle.get("format") != BUNDLE_FORMAT
        or bundle.get("version") != BUNDLE_VERSION
    ):
        raise DataError(f"{path}: not a {BUNDLE_FORMAT} v{BUNDLE_VERSION} file")
    try:
        pre = bundle["preprocessing"]
        mins, maxs = pre["normalization"]["mins"], pre["normalization"]["maxs"]
        fractions, seed = pre["split"]["fractions"], pre["split"]["seed"]
        regressor = bundle["regressor"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path}: malformed model bundle: missing or bad {exc}") from exc
    n_numeric = len(preprocess.NUMERIC_NAMES)
    params = preprocess.NormalizationParams(
        mins=_numbers(path, "normalization mins", mins, n_numeric),
        maxs=_numbers(path, "normalization maxs", maxs, n_numeric),
    )
    fractions = _numbers(path, "split fractions", fractions, 3)
    if min(fractions) < 0 or not math.isclose(sum(fractions), 1.0, abs_tol=1e-9):
        raise DataError(f"{path}: split fractions must be non-negative and sum to 1, got {list(fractions)}")
    if not is_number(seed, int) or seed < 0:
        raise DataError(f"{path}: split seed must be an integer >= 0, got {seed!r}")
    try:
        model = regress.from_dict(regressor)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    return model, params, (fractions, seed)


def cmd_eval(args, parser):
    t0 = time.perf_counter()
    seed = _option(args, parser, {}, "seed", None)
    model, params, (fractions, split_seed) = _load_bundle(args.model)
    seed = split_seed if seed is None else seed
    dataset = preprocess.RegressionDataset.from_records(preprocess.read_csv(args.data))
    if args.split == "all":
        part = dataset
    else:
        train, valid, test = preprocess.split(dataset, fractions=fractions, seed=seed)
        part = {"train": train, "valid": valid, "test": test}[args.split]
    part_n = preprocess.minmax_apply(params, part)
    pred = regress.predict_matrix(model, part_n.X)
    report = metrics.regression_metrics(pred, part_n.y)
    line = (
        f"n={len(part_n)} split={args.split} "
        f"MAE={report.mae:.4f} MSE={report.mse:.4f} RMSE={report.rmse:.4f} R2={report.r2:.4f}"
    )
    print(line)
    payload = {"n": len(part_n), "split": args.split, **asdict(report)}
    _write_report(args, t0, "eval.json", payload, config={"split": args.split}, seed=seed,
                  inputs=[str(args.model), str(args.data)])
    return 0


def cmd_pipeline(args, parser):
    t0 = time.perf_counter()
    model, params, _ = _load_bundle(args.model)
    _, scored = _manifest_rows(args.annotations)
    dataset = preprocess.RegressionDataset.from_records([rec for _, rec in scored])
    preds = regress.predict_matrix(model, preprocess.minmax_apply(params, dataset).X)
    rows = []
    for (name, rec), kcal in zip(scored, preds):
        rows.append({"image": name, "class": rec.label.value, "kcal": float(kcal)})
        print(f"{name}  {rec.label.value:<8} {kcal:8.2f} kcal")
    _write_report(args, t0, "estimates.json", rows, config={}, seed=None,
                  inputs=[str(args.annotations), str(args.model)], indent=1)
    return 0


def cmd_gradcheck(args, parser):
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    worst = 0.0
    for seed in range(args.seeds):
        err = gradcheck(args.block, seed=seed)
        worst = max(worst, err)
        print(f"{args.block} seed {seed}: max relative error {err:.3e}")
    status = "PASS" if worst < GRADCHECK_TOLERANCE else "FAIL"
    print(f"{args.block}: worst {worst:.3e} over {args.seeds} seeds -> {status}")
    return 0 if status == "PASS" else 2


def cmd_detmetrics(args, parser):
    t0 = time.perf_counter()
    preds = manifests.read_manifest(args.pred)
    gts = manifests.read_manifest(args.gt)
    names_p = [img.name for img in preds]
    names_g = [img.name for img in gts]
    if names_p != names_g:
        raise FoodcalError("prediction and ground-truth manifests list different images")
    report = metrics.detection_report(
        [img.instances for img in preds],
        [img.instances for img in gts],
        conf_threshold=args.conf_threshold,
    )
    print(metrics.summary_text(report.box, title="boxes"))
    if report.mask is not None:
        print(metrics.summary_text(report.mask, title="masks"))
    _write_report(args, t0, "detmetrics.json", asdict(report), config={"conf_threshold": args.conf_threshold},
                  seed=None, inputs=[str(args.pred), str(args.gt)], indent=1)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(prog="foodcal", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"foodcal {foodcal.__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen", help="generate synthetic scenes and a regression dataset")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--records", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None, help="JSON config file")
    scene = synth.SceneConfig()
    for key in SCENE_OPTIONS:
        p.add_argument(f"--{key.replace('_', '-')}", type=type(getattr(scene, key)), default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("extract", help="extract mm-scaled features from an annotation manifest")
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a regression model on a features CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=sorted(MODEL_NAMES), required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None, help="accepted for compatibility; has no effect")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model bundle on a features CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "valid", "test", "all"), default="test")
    p.add_argument("--seed", type=int, default=None, help="override the stored split seed")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="end-to-end kcal estimates for a scene manifest")
    p.add_argument("--annotations", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("gradcheck", help="finite-difference check of analytic gradients")
    p.add_argument("--block", choices=BLOCK_NAMES, required=True)
    p.add_argument("--seeds", type=int, default=10)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("detmetrics", help="detection metrics from manifests")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--conf-threshold", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_detmetrics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    args.argv = argv  # recorded in run_manifest.json
    try:
        return args.func(args, parser)
    except (FoodcalError, OSError) as exc:
        # one line, even when the message quotes a line break from a file
        print("error:", str(exc).translate({ord("\n"): "\\n", ord("\r"): "\\r"}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
