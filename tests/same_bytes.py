"""Compare what two foodcal checkouts write, byte for byte.

    python tests/same_bytes.py BASE HEAD

BASE and HEAD are checkout roots. Each runs the same flows, every one in a
child process with that checkout's ``src`` at the front of ``PYTHONPATH``
(as ``cli_child.py`` runs the CLI), from its own work directory and with
relative paths, so that what a command prints does not name the side:

- ``gen --seed 7 --records 644`` and ``gen --seed 3 --records 300 --width
  256 --height 288 --views-per-item 3 --boundary-noise 0.03``;
- for each of them, ``extract`` of its manifest, ``train``, ``eval
  --split test`` and ``eval --split all`` of all six models on its CSV,
  ``pipeline`` with the rf bundle, and ``detmetrics`` of the manifest
  against itself, with and without ``--conf-threshold 0.5``;
- for each of them, a perturbed copy of its manifest, ``pred.json``, made
  with the standard library alone (``PERTURB``): about one instance in ten
  dropped, each kept one moved by a (dx, dy) in [-3, 3] that keeps its mask
  in the image, and a fresh confidence. ``detmetrics`` scores it against
  the manifest with and without ``--conf-threshold 0.5``, so misses, false
  positives and IoUs below 1 are scored too;
- ``gradcheck --seeds 10`` of every block, and, since it prints ``%.3e``,
  the same checks at full precision (``GRAD_DIGEST``): for each block at
  seeds 0-9, the ``repr`` of what ``gradcheck`` returns and a SHA-256 over
  every array of ``gradcheck._numeric_gradients`` (name, shape, dtype and
  bytes);
- a SHA-256 over every instance (label, bbox, confidence, origin, calorie
  label, mask shape, dtype and bytes) and every truth of
  ``synth.generate_scene`` and of ``synth._scene_with_retries`` for seeds
  0-149, under seven scene configs, each ``PlacementFailure`` message in
  place of its scene: one crowded enough to force retries, one at boundary
  noise 0.9, where the window's margin over the jittered shape is least,
  and one at 640x640, the frame of the ``estimate`` benchmark workload.

The standard output and exit status of every command are kept as files
too. Every file but ``run_manifest.json``, which holds timings, is compared
byte for byte. Each file that differs, or exists on one side only, is
printed, and the exit status is 1 if there is one. Pytest does not collect
this script.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

MODELS = ("lr", "knn", "dt", "rf", "gb", "ada")
BLOCKS = ("conv", "coordconv", "cbam", "c2fcd")
GENS = {
    "seed7": ("--seed", "7", "--records", "644"),
    "seed3": ("--seed", "3", "--records", "300", "--width", "256", "--height", "288",
              "--views-per-item", "3", "--boundary-noise", "0.03"),
}

SCENE_DIGEST = '''
import hashlib
from foodcal import synth
from foodcal.errors import PlacementFailure

configs = {
    "default": synth.SceneConfig(),
    "noiseless": synth.SceneConfig(boundary_noise=0.0),
    "noise-0.03": synth.SceneConfig(boundary_noise=0.03),
    "noise-0.3": synth.SceneConfig(boundary_noise=0.3),
    "noise-0.9": synth.SceneConfig(boundary_noise=0.9),
    "640x640": synth.SceneConfig(width=640, height=640),
    "crowded": synth.SceneConfig(width=150, height=90, items_per_scene=4, coin_radius_range=(8.0, 12.0),
                                 max_placement_tries=15, boundary_noise=0.05),
}
for name, cfg in configs.items():
    digest, failures = hashlib.sha256(), []
    for seed in range(150):
        for render in (synth.generate_scene, synth._scene_with_retries):
            try:
                scene = render(cfg, seed, None)
            except PlacementFailure as exc:
                failures.append(f"{render.__name__} seed {seed}: {exc}")
                digest.update(str(exc).encode())
                continue
            for det in scene.instances:
                digest.update(repr((det.label.value, tuple(map(int, det.bbox)), det.confidence,
                                    tuple(det.origin), det.calories_kcal, det.mask.shape,
                                    det.mask.dtype.str)).encode())
                digest.update(det.mask.tobytes())
            digest.update(repr(scene.truth).encode())
    print(name, digest.hexdigest(), len(failures), "placement failures")
    for line in failures:
        print(" ", line)
'''

GRAD_DIGEST = '''
import hashlib
import importlib

checker = importlib.import_module("foodcal.nnblocks.gradcheck")
for block in checker.BLOCK_NAMES:
    for seed in range(10):
        x, params, fwd, _ = checker._make_case(block, seed)
        numeric = checker._numeric_gradients(x, fwd(x)[0], params, fwd, checker._FD_STEP)
        digest = hashlib.sha256()
        for name, arr in numeric.items():
            digest.update(repr((name, arr.shape, arr.dtype.str)).encode())
            digest.update(arr.tobytes())
        print(block, seed, repr(checker.gradcheck(block, seed)), digest.hexdigest())
'''


PERTURB = '''
import json
import random
import sys

manifest, out, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
rng = random.Random(seed)
with open(manifest) as f:
    doc = json.load(f)
for image in doc["images"]:
    kept = []
    for inst in image["instances"]:
        if rng.random() < 0.1:
            continue
        dx, dy = rng.randint(-3, 3), rng.randint(-3, 3)
        if "mask" in inst:
            (x, y), (h, w) = inst["mask_origin"], inst["mask"]["size"]
            dx = min(max(dx, -x), image["width"] - w - x)
            dy = min(max(dy, -y), image["height"] - h - y)
            inst["mask_origin"] = [x + dx, y + dy]
        bx, by, bw, bh = inst["bbox"]
        inst["bbox"] = [bx + dx, by + dy, bw, bh]
        inst["confidence"] = round(rng.random(), 6)
        kept.append(inst)
    image["instances"] = kept
with open(out, "w") as f:
    json.dump(doc, f)
'''


def cli(*args):
    return ("-m", "foodcal.cli", *args)


def _steps():
    """(name, arguments of ``python``) of every flow, in order."""
    steps = []
    for name, options in GENS.items():
        manifest, data = f"{name}/annotations.json", f"{name}/dataset.csv"
        steps.append((f"{name}-gen", cli("gen", "--out", name, *options)))
        steps.append((f"{name}-extract", cli("extract", "--annotations", manifest, "--out", f"{name}/extract")))
        for model in MODELS:
            out = f"{name}/{model}"
            steps.append((f"{name}-train-{model}", cli("train", "--data", data, "--model", model, "--out", out)))
            steps.append((f"{name}-eval-{model}", cli("eval", "--model", f"{out}/model.json", "--data", data,
                                                      "--split", "test", "--out", f"{out}/eval")))
            steps.append((f"{name}-eval-all-{model}", cli("eval", "--model", f"{out}/model.json", "--data", data,
                                                          "--split", "all", "--out", f"{out}/eval-all")))
        steps.append((f"{name}-pipeline", cli("pipeline", "--annotations", manifest,
                                              "--model", f"{name}/rf/model.json", "--out", f"{name}/pipeline")))
        steps.append((f"{name}-detmetrics", cli("detmetrics", "--pred", manifest, "--gt", manifest,
                                                "--out", f"{name}/detmetrics")))
        steps.append((f"{name}-detmetrics-conf", cli("detmetrics", "--pred", manifest, "--gt", manifest,
                                                     "--conf-threshold", "0.5", "--out", f"{name}/detmetrics-conf")))
        pred = f"{name}/pred.json"
        steps.append((f"{name}-perturb", ("-c", PERTURB, manifest, pred, options[options.index("--seed") + 1])))
        steps.append((f"{name}-detmetrics-pred", cli("detmetrics", "--pred", pred, "--gt", manifest,
                                                     "--out", f"{name}/detmetrics-pred")))
        steps.append((f"{name}-detmetrics-pred-conf", cli("detmetrics", "--pred", pred, "--gt", manifest,
                                                          "--conf-threshold", "0.5",
                                                          "--out", f"{name}/detmetrics-pred-conf")))
    for block in BLOCKS:
        steps.append((f"gradcheck-{block}", cli("gradcheck", "--block", block, "--seeds", "10")))
    steps.append(("grad-digest", ("-c", GRAD_DIGEST)))
    steps.append(("scene-digest", ("-c", SCENE_DIGEST)))
    return steps


def run_flows(checkout: Path, work: Path) -> None:
    """Every step of ``_steps`` run with ``checkout``'s package, from
    ``work``; each step's exit status and standard output go to
    ``work/stdout/<step>.txt``, its error output too when it fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    (work / "stdout").mkdir(parents=True)
    for name, args in _steps():
        done = subprocess.run([sys.executable, *args], cwd=work, env=env, capture_output=True, text=True,
                              timeout=900)
        kept = f"exit {done.returncode}\n{done.stdout}"
        if done.returncode:
            kept += f"--- stderr\n{done.stderr}"
            print(f"{checkout}: {name} exited {done.returncode}", file=sys.stderr)
        (work / "stdout" / f"{name}.txt").write_text(kept)


def differing(base: Path, head: Path) -> tuple[int, list[str]]:
    """How many files the two trees hold, and a line for each that is not
    byte-identical on both sides; ``run_manifest.json`` is skipped."""

    def files(root):
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file() and p.name != "run_manifest.json"}

    a, b = files(base), files(head)
    lines = []
    for rel in sorted(a | b):
        if rel not in b:
            lines.append(f"only in BASE: {rel}")
        elif rel not in a:
            lines.append(f"only in HEAD: {rel}")
        elif (base / rel).read_bytes() != (head / rel).read_bytes():
            lines.append(f"differs: {rel}")
    return len(a | b), lines


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tests/same_bytes.py BASE HEAD", file=sys.stderr)
        return 2
    checkouts = [Path(p).resolve() for p in argv]
    for checkout in checkouts:
        if not (checkout / "src" / "foodcal").is_dir():
            print(f"{checkout}: not a foodcal checkout (no src/foodcal)", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        works = [Path(tmp) / side for side in ("base", "head")]
        for checkout, work in zip(checkouts, works):
            run_flows(checkout, work)
        total, lines = differing(*works)
    for line in lines:
        print(line)
    print(f"{total} files compared, {len(lines)} not byte-identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
