"""Corrupted inputs never end a command in a traceback.

Each property corrupts one input of a working run: the annotation manifest
(with its inline masks), a PGM mask that a version 2 manifest references,
the dataset CSV, a model bundle or the ``--config`` file of ``gen`` and
``train``. The corruptions are truncation, byte flips and, in JSON files, leaves swapped
for values of another type. A corrupted file either still holds a valid
input (a CSV cut at a row boundary, a flipped raster byte), and the command
succeeds, or the command exits 2 with one "error: " line on stderr.
Examples are derandomised, so every run tries the same inputs.
"""

import base64
import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodcal import manifests
from foodcal.cli import MODEL_NAMES, main

from pgm_manifests import write_pgm_manifest

FUZZ = settings(max_examples=120, deadline=None, derandomize=True)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _run(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A small gen output with one bundle per model trained on it."""
    root = tmp_path_factory.mktemp("fuzz")
    assert _run("gen", "--seed", "3", "--records", "20", "--views-per-item", "2", "--out", str(root))[0] == 0
    for model in MODEL_NAMES:
        assert _run("train", "--data", str(root / "dataset.csv"), "--model", model,
                    "--out", str(root / model))[0] == 0
    return root


def _leaf_paths(doc, path=()):
    if isinstance(doc, dict) and doc:
        for key, value in doc.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(doc, list) and doc:
        for i, value in enumerate(doc):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


@st.composite
def truncated(draw, data: bytes):
    return data[: draw(st.integers(0, len(data) - 1))]


@st.composite
def flipped(draw, data: bytes):
    # half the flips land in the first 64 bytes, where the headers are
    buf = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, min(63, len(buf) - 1)) | st.integers(0, len(buf) - 1))
        buf[i] ^= draw(st.integers(1, 255))
    return bytes(buf)


@st.composite
def swapped(draw, data: bytes):
    doc = json.loads(data)
    paths = list(_leaf_paths(doc))
    for _ in range(draw(st.integers(1, 3))):
        *parents, last = draw(st.sampled_from(paths))
        node = doc
        for key in parents:
            node = node[key]
        old = node[last]
        node[last] = draw(json_values.filter(lambda v, old=old: type(v) is not type(old)))
    return json.dumps(doc).encode()


def corrupted(data: bytes, json_file: bool):
    kinds = [truncated(data), flipped(data)] + ([swapped(data)] if json_file else [])
    return st.one_of(kinds)


def _assert_clean(code, err):
    assert code == 0 or (code == 2 and err.startswith("error: ") and err.count("\n") == 1), (code, err)


def _fuzz(base, target: str, json_file: bool, commands):
    """Check that one of ``commands``, run in a copy of ``base`` whose file
    ``target`` is corrupted, ends cleanly; each command is a function of
    that copy's directory returning the argv."""

    @FUZZ
    @given(data=st.data(), command=st.sampled_from(commands))
    def prop(data, command):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "in"
            shutil.copytree(base, root)
            (root / target).write_bytes(data.draw(corrupted((root / target).read_bytes(), json_file)))
            _assert_clean(*_run(*command(root), "--out", str(Path(tmp) / "out")))

    prop()


def test_corrupted_manifest_exits_cleanly(base):
    _fuzz(base, "annotations.json", True, [
        lambda r: ["extract", "--annotations", str(r / "annotations.json")],
        lambda r: ["pipeline", "--annotations", str(r / "annotations.json"), "--model", str(r / "dt" / "model.json")],
        lambda r: ["detmetrics", "--pred", str(r / "annotations.json"), "--gt", str(base / "annotations.json")],
    ])


@pytest.fixture(scope="module")
def base_v2(base, tmp_path_factory):
    """``base``'s manifest as version 2, its masks as PGM files."""
    root = tmp_path_factory.mktemp("fuzz_v2")
    write_pgm_manifest(root / "annotations.json", manifests.read_manifest(base / "annotations.json"))
    return root


def test_corrupted_mask_exits_cleanly(base_v2):
    # the first food instance of the first scene; instance 0 is its coin
    _fuzz(base_v2, "masks/scene_0000_i01.pgm", False, [
        lambda r: ["extract", "--annotations", str(r / "annotations.json")],
        lambda r: ["detmetrics", "--pred", str(r / "annotations.json"), "--gt", str(r / "annotations.json")],
    ])


def test_corrupted_dataset_csv_exits_cleanly(base):
    _fuzz(base, "dataset.csv", False, [
        lambda r: ["train", "--data", str(r / "dataset.csv"), "--model", "lr"],
        lambda r: ["eval", "--data", str(r / "dataset.csv"), "--model", str(r / "rf" / "model.json")],
    ])


@pytest.mark.parametrize("model", sorted(MODEL_NAMES))
def test_corrupted_bundle_exits_cleanly(base, model):
    _fuzz(base, f"{model}/model.json", True, [
        lambda r: ["eval", "--data", str(r / "dataset.csv"), "--model", str(r / model / "model.json"),
                   "--split", "all"],
        lambda r: ["pipeline", "--annotations", str(r / "annotations.json"),
                   "--model", str(r / model / "model.json")],
    ])


@pytest.fixture(scope="module")
def base_config(base, tmp_path_factory):
    """``base``'s dataset CSV next to a config that sets every key. The JSON
    is compact, so a flipped byte can change a digit but not add one: the
    largest run it can ask for is a few 999 x 999 scenes."""
    root = tmp_path_factory.mktemp("fuzz_config")
    shutil.copy(base / "dataset.csv", root / "dataset.csv")
    config = {"seed": 1, "records": 6, "width": 160, "height": 160, "items_per_scene": 2, "views_per_item": 2,
              "boundary_noise": 0.02, "weight_noise": 0.05, "zscore_threshold": 2.5}
    (root / "config.json").write_text(json.dumps(config, separators=(",", ":")))
    for argv in (["gen"], ["train", "--data", str(root / "dataset.csv"), "--model", "lr"]):
        assert _run(*argv, "--config", str(root / "config.json"), "--out", str(root / "out"))[0] == 0
    shutil.rmtree(root / "out")
    return root


def test_corrupted_config_exits_cleanly(base_config):
    _fuzz(base_config, "config.json", True, [
        lambda r: ["gen", "--config", str(r / "config.json")],
        lambda r: ["train", "--data", str(r / "dataset.csv"), "--model", "lr", "--config", str(r / "config.json")],
    ])


# v2 mask origins a reader must refuse, made from the valid (x, y), the
# width of the crop and the width of the frame; None drops the field
BAD_ORIGINS = {
    "missing": None,
    "negative": lambda x, y, crop_w, frame_w: [x, -1],
    "bool": lambda x, y, crop_w, frame_w: [True, y],
    "float": lambda x, y, crop_w, frame_w: [x, 3.0],
    "three-values": lambda x, y, crop_w, frame_w: [x, y, 0],
    "one-value": lambda x, y, crop_w, frame_w: [x],
    "object": lambda x, y, crop_w, frame_w: {"x": x, "y": y},
    "spills-past-frame": lambda x, y, crop_w, frame_w: [frame_w - crop_w + 1, y],
}


@pytest.mark.parametrize("case", BAD_ORIGINS)
@pytest.mark.parametrize("command", ["extract", "pipeline", "detmetrics"])
def test_bad_mask_origin_exits_2(base, tmp_path, case, command):
    root = tmp_path / "in"
    shutil.copytree(base, root)
    doc = json.loads((root / "annotations.json").read_text())
    image = doc["images"][0]
    rec = image["instances"][1]  # the first food; instance 0 is the coin
    x, y = rec.pop("mask_origin")
    if BAD_ORIGINS[case] is not None:
        rec["mask_origin"] = BAD_ORIGINS[case](x, y, rec["mask"]["size"][1], image["width"])
    (root / "annotations.json").write_text(json.dumps(doc))
    manifest = str(root / "annotations.json")
    argv = {
        "extract": ["extract", "--annotations", manifest],
        "pipeline": ["pipeline", "--annotations", manifest, "--model", str(root / "dt" / "model.json")],
        "detmetrics": ["detmetrics", "--pred", manifest, "--gt", str(base / "annotations.json")],
    }[command]
    code, err = _run(*argv, "--out", str(tmp_path / "out"))
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (code, err)
    assert "image scene_0000: mask" in err


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


# version 3 masks a reader must refuse, made from the valid mask object of the
# first food, and the message each must give; None drops the field
BAD_MASKS = {
    "size-missing": (lambda m: {"bits": m["bits"]}, "'size'"),
    "size-string": (lambda m: {**m, "size": "3x4"}, "mask size '3x4' is not [h, w] of integers >= 1"),
    "size-one-value": (lambda m: {**m, "size": m["size"][:1]}, "is not [h, w] of integers >= 1"),
    "size-three-values": (lambda m: {**m, "size": m["size"] + [1]}, "is not [h, w] of integers >= 1"),
    "size-zero": (lambda m: {**m, "size": [0, m["size"][1]]}, "is not [h, w] of integers >= 1"),
    "size-negative": (lambda m: {**m, "size": [m["size"][0], -1]}, "is not [h, w] of integers >= 1"),
    "size-float": (lambda m: {**m, "size": [m["size"][0], float(m["size"][1])]}, "is not [h, w] of integers >= 1"),
    "size-bool": (lambda m: {**m, "size": [True, m["size"][1]]}, "is not [h, w] of integers >= 1"),
    "bits-missing": (lambda m: {"size": m["size"]}, "'bits'"),
    "bits-number": (lambda m: {**m, "bits": 5}, "mask bits must be a base64 string"),
    "bits-list": (lambda m: {**m, "bits": [255, 0]}, "mask bits must be a base64 string"),
    "bits-bad-character": (lambda m: {**m, "bits": "!~" + m["bits"][2:]}, "mask bits: invalid base64"),
    "bits-not-ascii": (lambda m: {**m, "bits": "é" + m["bits"][1:]}, "mask bits: invalid base64"),
    "bits-cut-padding": (lambda m: {**m, "bits": m["bits"] + "A"}, "mask bits: invalid base64"),
    "bytes-too-few": (lambda m: {**m, "bits": _b64(base64.b64decode(m["bits"])[:-1])}, "mask bits hold"),
    "bytes-too-many": (lambda m: {**m, "bits": _b64(base64.b64decode(m["bits"]) + b"\0")}, "mask bits hold"),
    "bytes-of-another-size": (lambda m: {"size": [3, 3], "bits": m["bits"]}, "a 3x3 mask packs into 2"),
    "pad-bit-set": (lambda m: {"size": [3, 3], "bits": _b64(bytes([0xFF, 0x81]))},
                    "mask bits set past the last of its 9 pixels"),
    "string-mask": (lambda m: "masks/scene_0000_i01.pgm", "a version 3 mask is an object"),
    "null-mask": (lambda m: None, "a version 3 mask is an object"),
}


@pytest.mark.parametrize("case", BAD_MASKS)
@pytest.mark.parametrize("command", ["extract", "pipeline", "detmetrics"])
def test_bad_v3_mask_exits_2(base, tmp_path, case, command):
    doc = json.loads((base / "annotations.json").read_text())
    rec = doc["images"][0]["instances"][1]  # the first food; instance 0 is the coin
    make, message = BAD_MASKS[case]
    rec["mask"] = make(rec["mask"])
    manifest = tmp_path / "annotations.json"  # a version 3 manifest needs no other file
    manifest.write_text(json.dumps(doc))
    argv = {
        "extract": ["extract", "--annotations", str(manifest)],
        "pipeline": ["pipeline", "--annotations", str(manifest), "--model", str(base / "dt" / "model.json")],
        "detmetrics": ["detmetrics", "--pred", str(manifest), "--gt", str(base / "annotations.json")],
    }[command]
    code, err = _run(*argv, "--out", str(tmp_path / "out"))
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (code, err)
    assert "image scene_0000: " in err and message in err, err


def test_the_pad_bit_case_is_otherwise_a_valid_mask(base, tmp_path):
    doc = json.loads((base / "annotations.json").read_text())
    doc["images"][0]["instances"][1]["mask"] = {"size": [3, 3], "bits": _b64(bytes([0xFF, 0x80]))}
    (tmp_path / "annotations.json").write_text(json.dumps(doc))
    food = manifests.read_manifest(tmp_path / "annotations.json")[0].instances[1]
    assert food.mask.tolist() == [[1, 1, 1]] * 3


def test_object_mask_in_a_v2_manifest_exits_2(base, base_v2, tmp_path):
    root = tmp_path / "in"
    shutil.copytree(base_v2, root)
    doc = json.loads((root / "annotations.json").read_text())
    v3 = json.loads((base / "annotations.json").read_text())
    doc["images"][0]["instances"][1]["mask"] = v3["images"][0]["instances"][1]["mask"]
    (root / "annotations.json").write_text(json.dumps(doc))
    code, err = _run("extract", "--annotations", str(root / "annotations.json"), "--out", str(tmp_path / "out"))
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (code, err)
    assert "image scene_0000: a version 2 mask is a PGM path, not dict" in err
