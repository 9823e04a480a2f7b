"""The benchmark's four workloads.

A workload builds its inputs from the seed in ``setup`` and then runs
passes. A pass is a fixed list of CLI stages, each a ``foodcal.cli.main``
call with stdout discarded, and each followed by a check of its output.

- ``estimate``: ``pipeline`` over 640x640 scenes, masks as PGM files, with
  an rf bundle trained in set-up on ``fit``'s dataset. The deployed path;
  maskgeom does most of the work, and the image is 4x the area of
  ``build``'s while objects keep their pixel size, so costs that grow with
  image area show here. The scenes are split over several short
  ``pipeline`` calls.
- ``build``: ``gen`` at the default 320x320. The write path: scene
  rendering plus PGM, manifest and CSV writes over the same maskgeom and
  measurement code as ``estimate``.
- ``fit``: ``train`` then ``eval --split test`` for all six regressors on
  the 644-record dataset ``gen`` makes (the paper's size). No mask work at
  all: the bypass case for maskgeom changes.
- ``audit``: ``detmetrics`` of ground truth against itself and against
  perturbed predictions, then ``gradcheck`` of each block. Covers metrics
  and nnblocks, which touch neither maskgeom nor regress.
"""

import contextlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from foodcal import cli, manifests, measurement, preprocess, synth
from foodcal.measurement import FOOD_CLASSES, ClassLabel, DetectionInstance

ESTIMATE_CHUNKS = 4
ESTIMATE_CHUNK_SCENES = 4  # even: each scene sits beside its 180-degree turn
ESTIMATE_SIZE = 640
BUILD_CHUNKS = 4
BUILD_RECORDS = 60  # per gen call: 6 items in 20 scenes
FIT_RECORDS = 644
FIT_MODELS = ("lr", "knn", "dt", "rf", "gb", "ada")
AUDIT_CHUNKS = 2
AUDIT_CHUNK_SCENES = 60
GRADCHECK_BLOCKS = ("conv", "coordconv", "cbam", "c2fcd")
HELD_OUT = 2**32  # added to the seed of images that no model was trained on

# Acceptance test C5 asks for rf R^2 >= 0.95 and an MAE below lr's on 9 of
# 10 seeds, so a single seed may miss it within spec (on gen's dataset, seed
# 210 gave R^2 0.946). A miss is reported; a pass fails only below
# RF_MIN_R2, which no working forest comes near.
RF_MIN_R2 = 0.80
C5_MIN_R2 = 0.95


class SetupError(RuntimeError):
    pass


@dataclass
class Stage:
    name: str
    argv: list
    check: Callable[[], str | None]  # None when the output is right, else why not
    model: Path | None = None  # bundle the stage loads, for regress.bundle_bytes


@dataclass
class StageResult:
    name: str
    wall_s: float
    probe_s: float  # the reference loop, averaged over just before and just after
    error: str | None


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop that does not touch foodcal.

    The machine's speed drifts by tens of percent from one second or minute
    to the next, and this loop slows down with it; dividing a stage's time
    by the loop's time measured beside it removes most of that drift."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def run_stage(stage: Stage, sink) -> StageResult:
    """Time one CLI call between two reference loops; check its output
    outside the timed region."""
    before = reference_loop_s()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            rc = cli.main([str(a) for a in stage.argv])
        error = None if rc == 0 else f"exit code {rc}"
    except (Exception, SystemExit) as exc:  # a crash is a failed stage
        error = f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    probe = (before + reference_loop_s()) / 2
    if error is None:
        try:
            error = stage.check()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            error = f"output check raised {type(exc).__name__}: {exc}"
    return StageResult(stage.name, wall, probe, error)


def run_quiet(argv) -> None:
    """A CLI call made during set-up; any failure aborts the benchmark."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise SetupError(f"set-up call {argv[0]} exited {rc}")


# ---------------------------------------------------------------------------
# inputs


def distinct_scenes(cfg: synth.SceneConfig, n_scenes: int, seed: int) -> list[synth.Scene]:
    """``n_scenes`` scenes of ``items_per_scene`` items each, no item seen
    twice: ``synth.generate_regression_dataset`` with one view per item,
    which also re-seeds a crowded draw that cannot be placed."""
    one_view = replace(cfg, views_per_item=1)
    scenes = synth.generate_regression_dataset(one_view, n_scenes * cfg.items_per_scene, seed)[1]
    if len(scenes) != n_scenes:
        raise SetupError(f"asked for {n_scenes} scenes, got {len(scenes)}")
    return scenes


def food_records(seed: int) -> list[measurement.FeatureRecord]:
    """The paper-sized regression dataset that ``foodcal gen --seed`` makes."""
    return synth.generate_regression_dataset(synth.SceneConfig(), FIT_RECORDS, seed)[0]


def write_scenes(path: Path, scenes) -> int:
    """Manifest plus PGM masks; returns the number of food instances."""
    images = [
        manifests.ImageAnnotations(name=f"scene_{i:04d}", width=s.width, height=s.height, instances=s.instances)
        for i, s in enumerate(scenes)
    ]
    manifests.write_manifest(path, images)
    return sum(d.label is not ClassLabel.COIN for s in scenes for d in s.instances)


def rotated_180(scene: synth.Scene) -> synth.Scene:
    """The scene photographed upside down.

    ``maskgeom.trace_contour`` scans rows from the top for its start pixel,
    so its cost depends on where an object sits. A scene and its turned
    copy together cost the same wherever the objects fell, which keeps the
    seed-to-seed spread of ``estimate`` down to what object shapes cause.
    """
    h, w = scene.height, scene.width
    turned = [
        replace(d, bbox=(w - d.bbox[0] - d.bbox[2], h - d.bbox[1] - d.bbox[3], d.bbox[2], d.bbox[3]),
                mask=np.ascontiguousarray(d.mask[::-1, ::-1]))
        for d in scene.instances
    ]
    return replace(scene, instances=turned)


def _shifted(mask: np.ndarray, dx: int, dy: int) -> np.ndarray:
    out = np.zeros_like(mask)
    h, w = mask.shape
    src = mask[max(0, -dy) : h - max(0, dy), max(0, -dx) : w - max(0, dx)]
    out[max(0, dy) : max(0, dy) + src.shape[0], max(0, dx) : max(0, dx) + src.shape[1]] = src
    return out


def perturbed(instances, rng, height: int, width: int) -> list[DetectionInstance]:
    """Predictions made from ground truth: instances dropped, masks and boxes
    shifted by up to 3 px, fresh confidences (so the ranking changes), and
    sometimes a spurious box."""
    preds = []
    for det in instances:
        if rng.random() < 0.1:
            continue
        x, y, w, h = det.bbox
        dx = int(np.clip(rng.integers(-3, 4), -x, width - x - w))
        dy = int(np.clip(rng.integers(-3, 4), -y, height - y - h))
        conf = round(float(rng.uniform(0.05, 1.0)), 6)
        preds.append(DetectionInstance(det.label, (x + dx, y + dy, w, h), conf, _shifted(det.mask, dx, dy)))
    if rng.random() < 0.5:
        w, h = (int(v) for v in rng.integers(8, 40, size=2))
        x, y = int(rng.integers(0, width - w)), int(rng.integers(0, height - h))
        mask = np.zeros((height, width), dtype=np.uint8)
        mask[y : y + h, x : x + w] = 1
        label = FOOD_CLASSES[int(rng.integers(len(FOOD_CLASSES)))]
        preds.append(DetectionInstance(label, (x, y, w, h), round(float(rng.uniform(0.05, 1.0)), 6), mask))
    return preds


def _read_json(path: Path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# workloads


class Estimate:
    name = "estimate"
    rate = ("pipeline_images_per_s", "1/s")

    def setup(self, work: Path, seed: int) -> None:
        cfg = synth.SceneConfig(width=ESTIMATE_SIZE, height=ESTIMATE_SIZE)
        scenes = []
        # the photos are of items drawn from a stream that no training seed uses
        for scene in distinct_scenes(cfg, ESTIMATE_CHUNKS * ESTIMATE_CHUNK_SCENES // 2, HELD_OUT + seed):
            scenes += [scene, rotated_180(scene)]
        # several short pipeline calls rather than one long one, so that the
        # per-stage median filters out bursts of contention on a shared machine
        self.chunks = []
        for k in range(ESTIMATE_CHUNKS):
            part = scenes[k * ESTIMATE_CHUNK_SCENES : (k + 1) * ESTIMATE_CHUNK_SCENES]
            annotations = work / "scenes" / f"chunk_{k}" / "annotations.json"
            self.chunks.append((annotations, write_scenes(annotations, part), work / f"estimates_{k}"))
        # the bundle a user deploys: rf trained on the paper's dataset
        preprocess.write_csv(work / "train.csv", food_records(seed))
        run_quiet(["train", "--data", work / "train.csv", "--model", "rf", "--seed", seed, "--out", work / "model"])
        self.model = work / "model" / "model.json"

    def stages(self) -> list[Stage]:
        return [
            Stage(
                f"pipeline.{k}",
                ["pipeline", "--annotations", annotations, "--model", self.model, "--out", out],
                lambda out=out, foods=foods: self._check(out, foods),
                self.model,
            )
            for k, (annotations, foods, out) in enumerate(self.chunks)
        ]

    @staticmethod
    def _check(out: Path, foods: int):
        rows = _read_json(out / "estimates.json")
        if len(rows) != foods:
            return f"{len(rows)} estimates for {foods} food instances"
        if not all(math.isfinite(r["kcal"]) for r in rows):
            return "non-finite estimate"
        return None

    def summary(self, wall: dict) -> dict:
        total = sum(wall[f"pipeline.{k}"] for k in range(ESTIMATE_CHUNKS))
        return {"pipeline_images_per_s": ESTIMATE_CHUNKS * ESTIMATE_CHUNK_SCENES / total}


class Build:
    name = "build"
    rate = ("gen_records_per_s", "1/s")
    FILES = ("dataset.csv", "annotations.json")

    def setup(self, work: Path, seed: int) -> None:
        # gen draws BUILD_RECORDS / views_per_item items per call, so several
        # calls with their own seeds give the pass enough distinct items
        self.chunks = []
        for k in range(BUILD_CHUNKS):
            chunk_seed = seed * BUILD_CHUNKS + k
            ref = work / f"reference_{k}"
            run_quiet(["gen", "--seed", chunk_seed, "--records", BUILD_RECORDS, "--out", ref])
            reference = {name: (ref / name).read_bytes() for name in self.FILES}
            self.chunks.append((chunk_seed, reference, work / f"gen_{k}"))

    def stages(self) -> list[Stage]:
        return [
            Stage(
                f"gen.{k}",
                ["gen", "--seed", chunk_seed, "--records", BUILD_RECORDS, "--out", out],
                lambda out=out, reference=reference: self._check(out, reference),
            )
            for k, (chunk_seed, reference, out) in enumerate(self.chunks)
        ]

    def _check(self, out: Path, reference: dict):
        for name in self.FILES:
            if (out / name).read_bytes() != reference[name]:
                return f"{name} differs from the set-up copy of the same seed"
        rows = reference["dataset.csv"].count(b"\n") - 1
        if rows != BUILD_RECORDS:
            return f"dataset.csv has {rows} rows, asked for {BUILD_RECORDS}"
        return None

    def summary(self, wall: dict) -> dict:
        return {"gen_records_per_s": BUILD_CHUNKS * BUILD_RECORDS / sum(wall.values())}


class Fit:
    name = "fit"
    rate = ("eval_rows_per_s", "1/s")

    def setup(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.data = work / "dataset.csv"
        preprocess.write_csv(self.data, food_records(seed))
        self.bundles = {}  # model -> bytes of the first bundle trained

    def stages(self) -> list[Stage]:
        stages = []
        for m in FIT_MODELS:
            model_dir = self.work / f"model_{m}"
            train = ["train", "--data", self.data, "--model", m, "--seed", self.seed, "--out", model_dir]
            stages.append(Stage(f"train.{m}", train, lambda m=m: self._check_bundle(m)))
            bundle = model_dir / "model.json"
            ev = ["eval", "--model", bundle, "--data", self.data, "--split", "test", "--out", self.work / f"eval_{m}"]
            stages.append(Stage(f"eval.{m}", ev, lambda m=m: self._check_eval(m), bundle))
        return stages

    def _check_bundle(self, m):
        data = (self.work / f"model_{m}" / "model.json").read_bytes()
        if self.bundles.setdefault(m, data) != data:
            return f"{m} bundle differs from the first pass"
        return None

    def _report(self, m) -> dict:
        return _read_json(self.work / f"eval_{m}" / "eval.json")

    def _check_eval(self, m):
        rep = self._report(m)
        if rep["n"] != int(FIT_RECORDS * 0.1):
            return f"{m}: evaluated {rep['n']} rows, the test split has {int(FIT_RECORDS * 0.1)}"
        if not all(math.isfinite(rep[k]) for k in ("mae", "mse", "rmse", "r2")):
            return f"{m}: non-finite metrics"
        if m == "rf":
            if rep["r2"] < RF_MIN_R2:
                return f"rf R2 {rep['r2']:.4f} is below {RF_MIN_R2}"
            lr = self._report("lr")
            if not (rep["r2"] >= C5_MIN_R2 and rep["mae"] < lr["mae"]):
                print(
                    f"perfbench: this seed misses the C5 bound: rf R2 {rep['r2']:.4f}, "
                    f"rf MAE {rep['mae']:.4f} vs lr MAE {lr['mae']:.4f}",
                    file=sys.stderr,
                )
        return None

    def summary(self, wall: dict) -> dict:
        rows = sum(self._report(m)["n"] for m in FIT_MODELS)
        return {
            "train_rf_s": wall["train.rf"],
            "train_others_s": sum(wall[f"train.{m}"] for m in FIT_MODELS if m != "rf"),
            "eval_rows_per_s": rows / sum(wall[f"eval.{m}"] for m in FIT_MODELS),
        }


class Audit:
    name = "audit"
    rate = ("detmetrics_images_per_s", "1/s")

    def setup(self, work: Path, seed: int) -> None:
        rng = np.random.default_rng((seed, 0xA0D1))
        every = distinct_scenes(synth.SceneConfig(), AUDIT_CHUNKS * AUDIT_CHUNK_SCENES, seed)
        self.chunks = []
        for k in range(AUDIT_CHUNKS):
            scenes = every[k * AUDIT_CHUNK_SCENES : (k + 1) * AUDIT_CHUNK_SCENES]
            gt = work / f"gt_{k}" / "annotations.json"
            write_scenes(gt, scenes)
            pred = work / f"pred_{k}" / "annotations.json"
            write_scenes(pred, [replace(s, instances=perturbed(s.instances, rng, s.height, s.width)) for s in scenes])
            self.chunks.append((gt, pred))
        self.work = work

    def stages(self) -> list[Stage]:
        stages = []
        for k, (gt, pred) in enumerate(self.chunks):
            for kind, exact, source in (("self", True, gt), ("perturbed", False, pred)):
                out = self.work / f"det_{kind}_{k}"
                stages.append(
                    Stage(
                        f"detmetrics.{kind}.{k}",
                        ["detmetrics", "--pred", source, "--gt", gt, "--out", out],
                        lambda out=out, exact=exact: self._check_det(out, exact),
                    )
                )
        for block in GRADCHECK_BLOCKS:
            # gradcheck exits non-zero when a block fails, so the exit code is the check
            stages.append(Stage(f"gradcheck.{block}", ["gradcheck", "--block", block, "--seeds", 1], lambda: None))
        return stages

    @staticmethod
    def _check_det(out: Path, exact: bool):
        rep = _read_json(out / "detmetrics.json")
        if rep["mask"] is None:
            return "no mask summary"
        for kind in ("box", "mask"):
            value = rep[kind]["map50_95"]
            if exact and value != 1.0:
                return f"ground truth against itself gives {kind} mAP50-95 {value!r}, not 1.0"
            if not 0.0 <= value <= 1.0:
                return f"{kind} mAP50-95 {value!r} outside [0, 1]"
        return None

    def summary(self, wall: dict) -> dict:
        det = sum(v for k, v in wall.items() if k.startswith("detmetrics."))
        return {
            "detmetrics_images_per_s": 2 * AUDIT_CHUNKS * AUDIT_CHUNK_SCENES / det,
            "gradcheck_s": sum(wall[f"gradcheck.{b}"] for b in GRADCHECK_BLOCKS),
        }


WORKLOADS = {w.name: w for w in (Estimate, Build, Fit, Audit)}
