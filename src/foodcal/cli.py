"""Command-line entry point.

Subcommands:
  gen        synthetic scenes + regression dataset (manifest with masks, CSV)
  extract    annotation manifest -> features CSV (coin scaling)
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
from foodcal.errors import DataError, FoodcalError, TooFewRows, number_array, read_json, write_json
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

# the keys that gen and train read from a --config file
_CONFIG_KEYS = ("seed", "records", *SCENE_OPTIONS, "zscore_threshold")

# [low, high) of the options whose other values fail a run; a weight noise
# of 1 or more can draw a negative weight, and a boundary noise of 1 or more
# a radius of zero or less
_OPTION_RANGES = {
    **dict.fromkeys(("records", "width", "height", "items_per_scene", "views_per_item"), (1, math.inf)),
    "seed": (0, math.inf),
    **dict.fromkeys(("boundary_noise", "weight_noise"), (0.0, 1.0)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _record_run(args, out: Path, *, config, seed, inputs, outputs) -> None:
    """Write ``run_manifest.json`` for the running subcommand into ``out``,
    timed from the start of ``main``."""
    manifest = {
        "command": args.command,
        "argv": args.argv,
        "config": config,
        "seed": seed,
        "inputs": inputs,
        "outputs": outputs,
        "version": foodcal.__version__,
        "wall_clock_s": round(time.perf_counter() - args.t0, 3),
    }
    write_json(out / "run_manifest.json", manifest, indent=1)


def _write_report(args, name: str, payload, *, config, seed, inputs, indent=None) -> None:
    """With ``--out``, write ``payload`` there as JSON file ``name``, then
    ``run_manifest.json``; without it, write nothing."""
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / name, payload, indent=indent)
        _record_run(args, out, config=config, seed=seed, inputs=inputs, outputs=[name])


def _load_config(path):
    """The ``--config`` object. Every command that takes one accepts the
    keys of all of them, so one file serves both; any other key, such as a
    misspelt one, is a ``DataError``."""
    if path is None:
        return {}
    cfg = read_json(path, "config")
    if not isinstance(cfg, dict):
        raise DataError(f"{path}: config must be a JSON object")
    for key in cfg:
        if key not in _CONFIG_KEYS:
            raise DataError(f"{path}: unknown key {key!r}; the keys are {', '.join(_CONFIG_KEYS)}")
    return cfg


def _option(args, parser, config, key, default):
    """Explicit flag > config file > default. Either value goes through one
    number check: a float option (its default a float) takes any finite
    number, another option an integer that fits int64, and neither a bool.
    A value that fails it or its range is a usage error from a flag and a
    ``DataError`` from the file."""
    value = getattr(args, key, None)
    if value is not None:
        where, fail = f"--{key.replace('_', '-')}", parser.error
    elif key in config:
        where, fail, value = f"{args.config}: {key}", _data_error, config[key]
    else:
        return default
    kind = (int, float) if isinstance(default, float) else int
    try:
        value = number_array(value, where, kind, ndim=0).item()
    except DataError:
        fail(f"{where} overflows {'int64' if kind is int else 'a float'}: {value!r}" if type(value) is int
             else f"{where} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    low, high = _OPTION_RANGES.get(key, (-math.inf, math.inf))
    if not low <= value < high:
        fail(f"{where} must be {f'>= {low}' if high == math.inf else f'in [{low}, {high})'}, got {value!r}")
    return value


def _data_error(message):
    raise DataError(message)


def _require_out(args, parser):
    out = args.out or os.environ.get("FOODCAL_OUT_DIR")
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
    recs, scenes = synth.generate_regression_dataset(cfg, records, seed)
    out.mkdir(parents=True, exist_ok=True)
    images = [
        manifests.ImageAnnotations(name=f"scene_{i:04d}", width=s.width, height=s.height, instances=s.instances)
        for i, s in enumerate(scenes)
    ]
    manifests.write_manifest(out / "annotations.json", images)
    preprocess.write_csv(out / "dataset.csv", recs)
    _record_run(
        args,
        out,
        config={
            "records": records,
            **{key: getattr(cfg, key) for key in SCENE_OPTIONS},
            "coin_radius_range": list(cfg.coin_radius_range),
        },
        seed=seed,
        inputs=[],
        outputs=["annotations.json", "dataset.csv"],
    )
    print(f"wrote {len(recs)} records from {len(scenes)} scenes to {out}")
    return 0


def _manifest_rows(path):
    """The images of a manifest and the (image name, feature record) of
    every food instance in them, in order. Every image's scale comes first:
    an image without a coin is a ``DataError`` naming the manifest and the
    image. Then the food instances of all images are measured in one
    batch."""
    images = manifests.read_manifest(path)
    scales = []
    for img in images:
        try:
            scales.append(measurement.scale_from_detections(img.instances))
        except FoodcalError as exc:
            raise DataError(f"{path}: image {img.name}: {exc}") from exc
    per_image = measurement.extract_batch([(img.instances, scale) for img, scale in zip(images, scales)])
    rows = [(img.name, rec) for img, records in zip(images, per_image) for rec in records]
    return images, rows


def cmd_extract(args, parser):
    out = _require_out(args, parser)
    images, rows = _manifest_rows(args.annotations)
    records = [rec for _, rec in rows]
    out.mkdir(parents=True, exist_ok=True)
    preprocess.write_csv(out / "features.csv", records)
    _record_run(
        args, out, config={}, seed=None, inputs=[str(args.annotations)], outputs=["features.csv"]
    )
    print(f"extracted {len(records)} records from {len(images)} images to {out / 'features.csv'}")
    return 0


def cmd_train(args, parser):
    config = _load_config(args.config)
    out = _require_out(args, parser)
    seed = _option(args, parser, config, "seed", 0)
    threshold = _option(args, parser, config, "zscore_threshold", 2.0)
    dataset = preprocess.read_csv(args.data)
    train, _, _ = preprocess.split(dataset, seed=seed)
    try:
        kept = preprocess.zscore_filter(train, threshold)
    except TooFewRows as exc:
        raise DataError(f"{args.data}: {exc}; the train split of its {len(dataset)} rows has {len(train)}") from exc
    if len(kept) == 0:
        raise DataError(f"{args.data}: the z-score filter at threshold {threshold!r} keeps none of the "
                        f"{len(train)} rows of the train split")
    train = kept
    params = preprocess.minmax_fit(train)
    train_n = preprocess.minmax_apply(params, train)
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
        config={"model": args.model, "zscore_threshold": threshold},
        seed=seed,
        inputs=[str(args.data)],
        outputs=["model.json"],
    )
    print(f"trained {algorithm} on {len(train_n)} rows -> {model_path}")
    return 0


def _load_bundle(path):
    """(regressor, normalization, (split fractions, split seed)) of a bundle,
    with finite normalization mins and maxs and z-score threshold, three
    non-negative split fractions summing to 1, an integer split seed >= 0,
    and a regressor that takes the columns of the feature layout."""
    bundle = read_json(path, "model bundle")
    if (
        not isinstance(bundle, dict)
        or bundle.get("format") != BUNDLE_FORMAT
        or bundle.get("version") != BUNDLE_VERSION
    ):
        raise DataError(f"{path}: not a {BUNDLE_FORMAT} v{BUNDLE_VERSION} file")
    number_array(bundle["version"], f"{path}: bundle version", int, ndim=0)  # true and 1.0 equal 1
    try:
        pre = _object(bundle["preprocessing"], f"{path}: preprocessing")
        norm = _object(pre["normalization"], f"{path}: preprocessing.normalization")
        split = _object(pre["split"], f"{path}: preprocessing.split")
        mins, maxs, fractions, seed = norm["mins"], norm["maxs"], split["fractions"], split["seed"]
        number_array(pre["zscore_threshold"], f"{path}: zscore_threshold", ndim=0)  # recorded, not applied
        regressor = bundle["regressor"]
    except KeyError as exc:
        raise DataError(f"{path}: malformed model bundle: missing or bad {exc}") from exc
    n_numeric = len(preprocess.NUMERIC_NAMES)
    params = preprocess.NormalizationParams(
        mins=tuple(number_array(mins, f"{path}: normalization mins", count=n_numeric).tolist()),
        maxs=tuple(number_array(maxs, f"{path}: normalization maxs", count=n_numeric).tolist()),
    )
    fractions = tuple(number_array(fractions, f"{path}: split fractions", count=3).tolist())
    if min(fractions) < 0 or not math.isclose(sum(fractions), 1.0, abs_tol=1e-9):
        raise DataError(f"{path}: split fractions must be non-negative and sum to 1, got {list(fractions)}")
    seed = int(number_array(seed, f"{path}: split seed", int, ndim=0, least=0))
    try:
        model = regress.from_dict(regressor)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    if model.n_features != preprocess.N_FEATURES:
        raise DataError(f"{path}: the regressor takes {model.n_features} features, not the "
                        f"{preprocess.N_FEATURES} of the feature layout")
    return model, params, (fractions, seed)


def _object(value, name):
    if not isinstance(value, dict):
        raise DataError(f"{name} must be an object, got {value!r}")
    return value


def cmd_eval(args, parser):
    seed = _option(args, parser, {}, "seed", None)
    model, params, (fractions, split_seed) = _load_bundle(args.model)
    seed = split_seed if seed is None else seed
    dataset = preprocess.read_csv(args.data)
    if args.split == "all":
        part = dataset
    else:
        train, valid, test = preprocess.split(dataset, fractions=fractions, seed=seed)
        part = {"train": train, "valid": valid, "test": test}[args.split]
    if len(part) == 0:
        raise DataError(f"{args.data}: the {args.split} split of its {len(dataset)} rows is empty")
    part_n = preprocess.minmax_apply(params, part)
    pred = regress.predict_matrix(model, part_n.X)
    report = metrics.regression_metrics(pred, part_n.y)
    line = (
        f"n={len(part_n)} split={args.split} "
        f"MAE={report.mae:.4f} MSE={report.mse:.4f} RMSE={report.rmse:.4f} R2={report.r2:.4f}"
    )
    print(line)
    payload = {"n": len(part_n), "split": args.split, **asdict(report)}
    _write_report(args, "eval.json", payload, config={"split": args.split}, seed=seed,
                  inputs=[str(args.model), str(args.data)])
    return 0


def cmd_pipeline(args, parser):
    model, params, _ = _load_bundle(args.model)
    _, scored = _manifest_rows(args.annotations)
    dataset = preprocess.RegressionDataset.from_records([rec for _, rec in scored])
    preds = regress.predict_matrix(model, preprocess.minmax_apply(params, dataset).X)
    rows = []
    for (name, rec), kcal in zip(scored, preds):
        rows.append({"image": name, "instance": rec.instance, "class": rec.label.value, "kcal": float(kcal)})
        print(f"{name}  instance {rec.instance:<3} {rec.label.value:<8} {kcal:8.2f} kcal")
    _write_report(args, "estimates.json", rows, config={}, seed=None,
                  inputs=[str(args.annotations), str(args.model)], indent=1)
    return 0


def cmd_gradcheck(args, parser):
    if args.seeds < 1:
        parser.error(f"--seeds must be >= 1, got {args.seeds}")
    worst = 0.0
    for seed in range(args.seeds):
        err, array = gradcheck(args.block, seed=seed)
        worst = max(worst, err)
        where = "" if err < GRADCHECK_TOLERANCE else f" in {array}"
        print(f"{args.block} seed {seed}: max relative error {err:.3e}{where}")
    status = "PASS" if worst < GRADCHECK_TOLERANCE else "FAIL"
    print(f"{args.block}: worst {worst:.3e} over {args.seeds} seeds -> {status}")
    return 0 if status == "PASS" else 2


def cmd_detmetrics(args, parser):
    if args.conf_threshold is not None and not 0 <= args.conf_threshold <= 1:  # NaN fails both
        parser.error(f"--conf-threshold must be in [0, 1], got {args.conf_threshold}")
    preds = manifests.read_manifest(args.pred)
    gts = manifests.read_manifest(args.gt)
    names_p = [img.name for img in preds]
    names_g = [img.name for img in gts]
    if names_p != names_g:
        # the None ends make a list that runs out differ from the longer one
        k, p, g = next((k, p, g) for k, (p, g) in enumerate(zip(names_p + [None], names_g + [None])) if p != g)
        raise DataError(f"{args.pred}: image {k} is {p!r}, but {g!r} in {args.gt}")
    for pred, gt in zip(preds, gts):
        if (pred.width, pred.height) != (gt.width, gt.height):
            raise DataError(
                f"{args.pred}: image {pred.name} is {pred.width}x{pred.height}, "
                f"but {gt.width}x{gt.height} in {args.gt}"
            )
    report = metrics.detection_report(
        [img.instances for img in preds],
        [img.instances for img in gts],
        conf_threshold=args.conf_threshold,
    )
    print(metrics.summary_text(report.box, title="boxes"))
    if report.mask is not None:
        print(metrics.summary_text(report.mask, title="masks"))
    _write_report(args, "detmetrics.json", asdict(report), config={"conf_threshold": args.conf_threshold},
                  seed=None, inputs=[str(args.pred), str(args.gt)], indent=1)
    return 0


# ---------------------------------------------------------------------------
# parser


def _gen_options(p):
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--records", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None, help="JSON config file")
    scene = synth.SceneConfig()
    for key in SCENE_OPTIONS:
        p.add_argument(f"--{key.replace('_', '-')}", type=type(getattr(scene, key)), default=None)


def _extract_options(p):
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", default=None)


def _train_options(p):
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=sorted(MODEL_NAMES), required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None, help="accepted for compatibility; has no effect")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)


def _eval_options(p):
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "valid", "test", "all"), default="test")
    p.add_argument("--seed", type=int, default=None, help="override the stored split seed")
    p.add_argument("--out", default=None)


def _pipeline_options(p):
    p.add_argument("--annotations", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None)


def _gradcheck_options(p):
    p.add_argument("--block", choices=BLOCK_NAMES, required=True)
    p.add_argument("--seeds", type=int, default=10)


def _detmetrics_options(p):
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--conf-threshold", type=float, default=None)
    p.add_argument("--out", default=None)


# name -> (help, options, handler), in the order the usage line lists them
COMMANDS = {
    "gen": ("generate synthetic scenes and a regression dataset", _gen_options, cmd_gen),
    "extract": ("extract mm-scaled features from an annotation manifest", _extract_options, cmd_extract),
    "train": ("train a regression model on a features CSV", _train_options, cmd_train),
    "eval": ("evaluate a model bundle on a features CSV", _eval_options, cmd_eval),
    "pipeline": ("end-to-end kcal estimates for a scene manifest", _pipeline_options, cmd_pipeline),
    "gradcheck": ("finite-difference check of analytic gradients", _gradcheck_options, cmd_gradcheck),
    "detmetrics": ("detection metrics from manifests", _detmetrics_options, cmd_detmetrics),
}


def build_parser(command=None) -> _Parser:
    """The parser of every command, or with ``command`` one that parses that
    command alone. Its usage line still names every command, as
    ``parser.error`` prints it."""
    parser = _Parser(prog="foodcal", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"foodcal {foodcal.__version__}")
    # the metavar would also name the argument in an invalid-choice error,
    # which only the full parser can raise
    every = {} if command is None else {"metavar": "{" + ",".join(COMMANDS) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser, **every)
    for name in COMMANDS if command is None else (command,):
        help_text, add_options, func = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_options(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the full parser only for the top level's own help, version and errors
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    args.argv, args.t0 = argv, time.perf_counter()  # recorded in run_manifest.json
    try:
        return args.func(args, parser)
    except (FoodcalError, OSError) as exc:
        # one line, even when the message quotes a line break from a file
        print("error:", str(exc).translate({ord("\n"): "\\n", ord("\r"): "\\r"}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
