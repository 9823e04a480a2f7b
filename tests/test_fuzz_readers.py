"""Corrupted inputs never end a command in a traceback.

Each property corrupts one input of a working run: the annotation manifest,
a PGM mask it references, the dataset CSV or a model bundle. The
corruptions are truncation, byte flips and, in JSON files, leaves swapped
for values of another type. A corrupted file either still holds a valid
input (a CSV cut at a row boundary, a flipped raster byte), and the command
succeeds, or the command exits 2 with one "error: " line on stderr.
Examples are derandomised, so every run tries the same inputs.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodcal import maskgeom
from foodcal.cli import MODEL_NAMES, main

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


def test_corrupted_mask_exits_cleanly(base):
    # the first food instance of the first scene; instance 0 is its coin
    _fuzz(base, "masks/scene_0000_i01.pgm", False, [
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
        rec["mask_origin"] = BAD_ORIGINS[case](x, y, maskgeom.read_pgm(root / rec["mask"]).shape[1], image["width"])
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
