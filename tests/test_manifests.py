"""Manifest v3 stores each mask inline as its packed foreground crop and
origin.

Oracles: a crop pasted at its origin is the frame that was written, and
every computation on crops (mask IoU, the detection report, the features)
equals the same computation on full frames. A v2 manifest of PGM crops and
a v1 manifest of full-size PGMs read to the same crops, and a v3 manifest
written again is the same bytes.
"""

import base64
import contextlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from foodcal import manifests, maskgeom, measurement, metrics
from foodcal.cli import main
from foodcal.errors import DataError
from foodcal.measurement import ClassLabel, DetectionInstance

from mask_oracles import nonzero_box
from pgm_manifests import paste, write_pgm_manifest

LABELS = (ClassLabel.PURI, ClassLabel.BEGUNI)  # two classes, so some pairs never match


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@st.composite
def frame_masks(draw, h, w):
    """A 0/1 frame: empty, one pixel, a pixel on every frame edge, a few
    separate blocks, or random pixels."""
    kind = draw(st.sampled_from(["empty", "pixel", "edges", "blocks", "random"]))
    m = np.zeros((h, w), np.uint8)
    if kind == "pixel":
        m[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = 1
    elif kind == "edges":
        m[0, draw(st.integers(0, w - 1))] = m[h - 1, draw(st.integers(0, w - 1))] = 1
        m[draw(st.integers(0, h - 1)), 0] = m[draw(st.integers(0, h - 1)), w - 1] = 1
    elif kind == "blocks":
        for _ in range(draw(st.integers(2, 4))):
            y0, x0 = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
            m[y0 : y0 + draw(st.integers(1, 4)), x0 : x0 + draw(st.integers(1, 4))] = 1
    elif kind == "random":
        m = draw(arrays(np.uint8, (h, w), elements=st.sampled_from([0, 1])))
    return m


def instances(draw, h, w, with_confidence):
    out = []
    for _ in range(draw(st.integers(1, 4))):
        m = draw(frame_masks(h, w))
        box = nonzero_box(m)
        bbox = (0, 0, 1, 1) if box is None else (
            box[1].start, box[0].start, box[1].stop - box[1].start, box[0].stop - box[0].start)
        conf = draw(st.floats(0.0, 1.0)) if with_confidence else None
        out.append(DetectionInstance(draw(st.sampled_from(LABELS)), bbox, conf, m))
    return out


@st.composite
def scenes(draw):
    """Images of 1..24 px sides, each with full-frame predictions and
    ground truth."""
    images = []
    for i in range(draw(st.integers(1, 3))):
        h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
        images.append((f"img_{i}", h, w, instances(draw, h, w, True), instances(draw, h, w, False)))
    return images


def write_read(path, images, which):
    anns = [manifests.ImageAnnotations(name, w, h, (preds, gts)[which]) for name, h, w, preds, gts in images]
    manifests.write_manifest(path, anns)
    return manifests.read_manifest(path)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(scenes())
def test_crops_give_the_full_frame_results(tmp_path_factory, images):
    root = tmp_path_factory.mktemp("crops")
    preds = write_read(root / "pred" / "annotations.json", images, 0)
    gts = write_read(root / "gt" / "annotations.json", images, 1)
    scale = measurement.ScaleFactor(0.5, 0.75, 0.625)
    for (name, h, w, full_preds, full_gts), pimg, gimg in zip(images, preds, gts):
        for full, read in ((full_preds, pimg.instances), (full_gts, gimg.instances)):
            for f, r in zip(full, read):
                assert np.array_equal(paste(r.mask, r.origin, h, w), f.mask)
                assert r.mask.dtype == np.uint8 and (r.mask.shape == (1, 1) or nonzero_box(
                    r.mask) == (slice(0, r.mask.shape[0]), slice(0, r.mask.shape[1])))  # tight
            assert measurement.extract_features(read, scale) == measurement.extract_features(full, scale)
        for p, fp in zip(pimg.instances, full_preds):
            for g, fg in zip(gimg.instances, full_gts):
                crop_iou = metrics._mask_ious([(p.origin, p.mask)], [(g.origin, g.mask)], [0], [0])[0]
                assert crop_iou == metrics.mask_iou(fp.mask, fg.mask)
    on_crops = metrics.detection_report([i.instances for i in preds], [i.instances for i in gts])
    on_frames = metrics.detection_report([i[3] for i in images], [i[4] for i in images])
    assert asdict(on_crops) == asdict(on_frames)
    # a manifest read and written again is the same bytes
    again = root / "again" / "annotations.json"
    manifests.write_manifest(again, preds)
    assert tree_bytes(again.parent) == tree_bytes(root / "pred")


def test_empty_mask_is_one_background_pixel_at_the_frame_corner(tmp_path):
    inst = DetectionInstance(ClassLabel.PURI, (3, 4, 2, 2), 0.5, np.zeros((9, 7), np.uint8), origin=(2, 1))
    path = manifests.write_manifest(tmp_path / "annotations.json", [manifests.ImageAnnotations("a", 20, 20, [inst])])
    rec = json.loads(path.read_text())["images"][0]["instances"][0]
    assert rec["mask_origin"] == [0, 0]
    assert rec["mask"] == {"size": [1, 1], "bits": "AA=="}


def test_calorie_labels_read_back_onto_their_own_instances(tmp_path):
    # a null label between two labelled foods, and a box-only food
    block = np.ones((2, 2), np.uint8)
    insts = [
        DetectionInstance(ClassLabel.COIN, (0, 0, 2, 2), None, block),
        DetectionInstance(ClassLabel.PURI, (3, 0, 2, 2), None, block, origin=(3, 0), calories_kcal=41.25),
        DetectionInstance(ClassLabel.PURI, (6, 0, 2, 2), None, block, origin=(6, 0)),
        DetectionInstance(ClassLabel.BEGUNI, (9, 0, 2, 2), None, block, origin=(9, 0), calories_kcal=0),
        DetectionInstance(ClassLabel.BEGUNI, (0, 4, 3, 2), calories_kcal=12.5),
    ]
    path = manifests.write_manifest(tmp_path / "annotations.json", [manifests.ImageAnnotations("a", 12, 8, insts)])
    recs = json.loads(path.read_text())["images"][0]["instances"]
    assert [rec.get("calories_kcal") for rec in recs] == [None, 41.25, None, 0, 12.5]
    assert ["calories_kcal" in rec for rec in recs] == [False, True, False, True, True]
    (img,) = manifests.read_manifest(path)
    assert [(i.bbox, i.calories_kcal) for i in img.instances] == [(i.bbox, i.calories_kcal) for i in insts]
    assert img.instances[-1].mask is None


def test_a_crop_with_an_origin_is_cut_to_its_window(tmp_path):
    crop = np.zeros((6, 8), np.uint8)
    crop[2:4, 3:7] = 1
    inst = DetectionInstance(ClassLabel.PURI, (8, 7, 4, 2), 0.5, crop, origin=(5, 5))
    path = manifests.write_manifest(tmp_path / "annotations.json", [manifests.ImageAnnotations("a", 20, 20, [inst])])
    (read,) = manifests.read_manifest(path)[0].instances
    assert read.origin == (8, 7) and read.mask.tolist() == [[1] * 4] * 2


@pytest.mark.parametrize("mask", [np.full((4, 4), 2, np.uint8), np.ones(4, np.uint8), np.zeros((0, 3), np.uint8)],
                         ids=["value-2", "1d", "no-pixels"])
def test_write_rejects_what_is_not_a_mask(tmp_path, mask):
    inst = DetectionInstance(ClassLabel.PURI, (0, 0, 1, 1), 0.5, mask)
    with pytest.raises(ValueError, match="exactly 0 or 1|2D and non-empty"):
        manifests.write_manifest(tmp_path / "annotations.json", [manifests.ImageAnnotations("a", 20, 20, [inst])])


def _block_at(y, x, h, w, size=30):
    m = np.zeros((size, size), np.uint8)
    m[y : y + h, x : x + w] = 1
    return m


# images that the reader would reject, and what the writer's error says
WRITE_FAULTS = {
    "foreground-past-the-image": (
        [("a", [DetectionInstance(ClassLabel.PURI, (3, 18, 2, 4), 0.5, _block_at(18, 3, 4, 2))])],
        r"image a: mask foreground is \(4, 2\) at \[3, 18\], image is \(20, 20\) \(instance 0\)"),
    "origin-becomes-negative": (
        [("a", [DetectionInstance(ClassLabel.PURI, (0, 0, 2, 2), 0.5, _block_at(1, 1, 2, 2, 4), origin=(-3, 0))])],
        r"image a: mask foreground is \(2, 2\) at \[-2, 1\], image is \(20, 20\) \(instance 0\)"),
    "bbox-of-no-area": (
        [("a", []), ("b", [DetectionInstance(ClassLabel.PURI, (0, 0, 1, 1)),
                           DetectionInstance(ClassLabel.PURI, (1, 2, 0, -3))])],
        r"image b: bbox \(1, 2, 0, -3\) is not \[x, y, w, h\] of integers with w, h > 0 \(instance 1\)"),
    "two-images-of-one-name": (
        [("a", []), ("b", []), ("a", [])], r"image a: images 0 and 2 have the same name"),
    "non-integral-bbox": (
        [("a", [DetectionInstance(ClassLabel.PURI, (1.7, 2.2, 3.9, 4.1))])],
        r"image a: bbox \(1.7, 2.2, 3.9, 4.1\) is not \[x, y, w, h\] of integers .* \(instance 0\)"),
    "bool-in-bbox": (
        [("a", [DetectionInstance(ClassLabel.PURI, (True, 2, 3, 4))])],
        r"image a: bbox \(True, 2, 3, 4\) is not \[x, y, w, h\] of integers .* \(instance 0\)"),
}


@pytest.mark.parametrize("images, message", WRITE_FAULTS.values(), ids=WRITE_FAULTS.keys())
def test_write_rejects_what_read_would_reject(tmp_path, images, message):
    path = tmp_path / "out" / "annotations.json"
    with pytest.raises(ValueError, match=message):
        manifests.write_manifest(path, [manifests.ImageAnnotations(name, 20, 20, insts) for name, insts in images])
    assert not path.parent.exists()  # nothing is written


def test_integral_values_of_any_number_type_write_as_json_integers(tmp_path):
    inst = DetectionInstance(ClassLabel.PURI, (np.int64(1), 2.0, np.float32(3), np.uint8(4)), 0.5,
                             np.ones((2, 2), bool), origin=(np.int32(5), 6))
    images = [manifests.ImageAnnotations("a", np.int16(20), 20.0, [inst])]
    path = manifests.write_manifest(tmp_path / "annotations.json", images)
    (img,) = json.loads(path.read_text())["images"]
    assert (img["width"], img["height"]) == (20, 20) and img["instances"][0]["bbox"] == [1, 2, 3, 4]
    assert img["instances"][0]["mask_origin"] == [5, 6]
    assert all(type(v) is int for v in [img["width"], img["height"], *img["instances"][0]["bbox"]])


@st.composite
def written_images(draw):
    """Images that the writer may accept or reject, with about one value in
    ten at fault: a name that an earlier image has, a side of 0, a bbox
    value that is fractional, a bool or a w or h of 0, a mask that lies
    partly or wholly outside the image. Integral values come as Python
    ints, floats or NumPy ints."""

    def at_fault():
        return draw(st.integers(0, 9)) == 9  # hypothesis draws the low end more often

    images = []
    for _ in range(draw(st.integers(1, 3))):
        name = f"img_{len(images)}"
        if images and at_fault():
            name = draw(st.sampled_from(images)).name
        height, width = (0 if at_fault() else draw(st.integers(1, 12)) for _ in range(2))
        insts = []
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from([int, float, np.int64]))
            bbox = [kind(draw(st.integers(lo, 20))) for lo in (0, 0, 1, 1)]
            if at_fault():
                bbox[draw(st.integers(0, 3))] = draw(st.sampled_from([1.5, True, 0, -1]))
            mask, origin = None, (0, 0)
            if draw(st.booleans()):
                h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
                mask = draw(frame_masks(h, w))
                if at_fault():
                    origin = (draw(st.integers(-3, 12)), draw(st.integers(-3, 12)))
                else:
                    origin = (draw(st.integers(0, max(0, width - w))), draw(st.integers(0, max(0, height - h))))
            conf = draw(st.one_of(st.none(), st.floats(0.0, 1.0)))
            kcal = draw(st.one_of(st.none(), st.floats(0.0, 1e6)))
            insts.append(DetectionInstance(draw(st.sampled_from(LABELS)), tuple(bbox), conf, mask, origin, kcal))
        images.append(manifests.ImageAnnotations(name, width, height, insts))
    return images


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(written_images())
def test_what_the_writer_accepts_reads_back_equal(tmp_path_factory, images):
    path = tmp_path_factory.mktemp("round") / "annotations.json"
    try:
        manifests.write_manifest(path, images)
    except ValueError:
        return
    read = manifests.read_manifest(path)
    assert [(i.name, i.width, i.height, len(i.instances)) for i in read] == [
        (i.name, i.width, i.height, len(i.instances)) for i in images]
    for a, b in zip((i for img in images for i in img.instances), (i for img in read for i in img.instances)):
        assert (a.label, a.bbox, a.confidence, a.calories_kcal) == (b.label, b.bbox, b.confidence, b.calories_kcal)
        assert (a.mask is None) == (b.mask is None)
        if a.mask is not None:
            assert (a.foreground is None) == (b.foreground is None)
            if a.foreground is not None:
                assert np.array_equal(a.foreground[0], b.foreground[0]) and a.foreground[1] == b.foreground[1]


# ---------------------------------------------------------------------------
# v1 and v2 manifests and byte-identical outputs


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(scenes(), st.sampled_from([1, 2]))
def test_pgm_manifests_read_as_the_v3_manifest(tmp_path_factory, images, version):
    root = tmp_path_factory.mktemp("versions")
    for which in (0, 1):  # predictions, then ground truth
        anns = [manifests.ImageAnnotations(name, w, h, (preds, gts)[which]) for name, h, w, preds, gts in images]
        v3 = manifests.read_manifest(manifests.write_manifest(root / f"v3_{which}" / "annotations.json", anns))
        old = manifests.read_manifest(write_pgm_manifest(root / f"v{version}_{which}" / "annotations.json", anns,
                                                         version))
        for a, b in zip(old, v3, strict=True):
            assert (a.name, a.width, a.height) == (b.name, b.width, b.height)
            for p, q in zip(a.instances, b.instances, strict=True):
                assert (p.label, p.bbox, p.confidence, p.origin, p.calories_kcal) == (
                    q.label, q.bbox, q.confidence, q.origin, q.calories_kcal)
                assert p.mask.dtype == q.mask.dtype == np.uint8
                assert p.mask.shape == q.mask.shape and p.mask.tobytes() == q.mask.tobytes()


@pytest.fixture(scope="module")
def gen_v3(tmp_path_factory):
    root = tmp_path_factory.mktemp("gen")
    assert main(["gen", "--seed", "5", "--records", "30", "--views-per-item", "3", "--out", str(root / "v3")]) == 0
    assert main(["train", "--data", str(root / "v3" / "dataset.csv"), "--model", "rf", "--out",
                 str(root / "model")]) == 0
    return root


def write_old(v3_dir: Path, out: Path, version: int) -> Path:
    """The v3 manifest in ``v3_dir`` as a v1 or v2 manifest with PGM masks."""
    return write_pgm_manifest(out / "annotations.json", manifests.read_manifest(v3_dir / "annotations.json"), version)


def test_v1_manifest_gives_the_same_outputs_as_v2(gen_v3, tmp_path):
    """And the same as v3: each version of one manifest reads to the same
    crops and gives the same detmetrics, pipeline and extract outputs."""
    paths = {"v3": gen_v3 / "v3" / "annotations.json"}
    for version in (1, 2):
        paths[f"v{version}"] = write_old(gen_v3 / "v3", tmp_path / f"v{version}", version)
    assert maskgeom.read_pgm(tmp_path / "v1" / "masks" / "scene_0000_i00.pgm").shape == (320, 320)
    assert maskgeom.read_pgm(tmp_path / "v2" / "masks" / "scene_0000_i00.pgm").shape != (320, 320)
    for name in ("v1", "v2"):
        for a, b in zip(manifests.read_manifest(paths[name]), manifests.read_manifest(paths["v3"])):
            for p, q in zip(a.instances, b.instances):
                assert p.origin == q.origin and np.array_equal(p.mask, q.mask)
    outputs = {}
    for name, manifest in paths.items():
        out = tmp_path / f"out_{name}"
        assert main(["detmetrics", "--pred", str(manifest), "--gt", str(manifest), "--out", str(out / "det")]) == 0
        assert main(["pipeline", "--annotations", str(manifest), "--model", str(gen_v3 / "model" / "model.json"),
                     "--out", str(out / "pipe")]) == 0
        assert main(["extract", "--annotations", str(manifest), "--out", str(out / "extract")]) == 0
        outputs[name] = [(out / f).read_bytes() for f in ("det/detmetrics.json", "pipe/estimates.json",
                                                         "extract/features.csv")]
    assert outputs["v1"] == outputs["v2"] == outputs["v3"]
    assert outputs["v3"][2] == (gen_v3 / "v3" / "dataset.csv").read_bytes()


def test_v3_manifest_read_and_written_again_is_byte_identical(gen_v3, tmp_path):
    again = tmp_path / "again" / "annotations.json"
    manifests.write_manifest(again, manifests.read_manifest(gen_v3 / "v3" / "annotations.json"))
    assert tree_bytes(again.parent) == {"annotations.json": (gen_v3 / "v3" / "annotations.json").read_bytes()}


def test_compact_manifest_reads_as_the_indented_one(gen_v3, tmp_path):
    # write_manifest encodes without indent; whitespace is all that differs
    compact = gen_v3 / "v3" / "annotations.json"
    text = compact.read_text(encoding="utf-8")
    assert "\n" not in text.rstrip("\n") and text.startswith('{"format": "foodcal-annotations", "version": 3')
    indented = tmp_path / "annotations.json"
    indented.write_text(json.dumps(json.loads(text), indent=1) + "\n", encoding="utf-8")
    for a, b in zip(manifests.read_manifest(compact), manifests.read_manifest(indented), strict=True):
        assert (a.name, a.width, a.height) == (b.name, b.width, b.height)
        for p, q in zip(a.instances, b.instances, strict=True):
            assert (p.label, p.bbox, p.confidence, p.origin, p.calories_kcal) == (
                q.label, q.bbox, q.confidence, q.origin, q.calories_kcal)
            assert p.mask.dtype == q.mask.dtype and np.array_equal(p.mask, q.mask)


def test_v1_mask_that_is_not_the_image_size_is_a_data_error(gen_v3, tmp_path):
    v1 = write_old(gen_v3 / "v3", tmp_path / "v1", 1)
    maskgeom.write_pgm(tmp_path / "v1" / "masks" / "scene_0000_i01.pgm", np.ones((10, 10), np.uint8))
    with pytest.raises(DataError, match=r"scene_0000: mask masks/scene_0000_i01.pgm is \(10, 10\)"):
        manifests.read_manifest(v1)


def _manifest_with(tmp_path, instances) -> Path:
    path = tmp_path / "annotations.json"
    path.write_text(json.dumps({"format": "foodcal-annotations", "version": 3, "images": [
        {"image": "a", "width": 8, "height": 8, "instances": instances}]}))
    return path


PURI = {"class": "Puri", "bbox": [1, 1, 2, 2]}


@pytest.mark.parametrize("record, kind", [(5, "int"), ([1, 2], "list"), ("Puri", "str"), (None, "NoneType")],
                         ids=["int", "list", "str", "null"])
def test_an_instance_record_that_is_not_an_object_is_a_data_error(tmp_path, record, kind):
    path = _manifest_with(tmp_path, [PURI, record])
    with pytest.raises(DataError) as err:
        manifests.read_manifest(path)
    assert str(err.value) == f"{path}: image a: an instance record must be an object, not {kind} (instance 1)"


@pytest.mark.parametrize("record, message", [
    ({"bbox": [1, 1, 2, 2]}, "image a: malformed entry: 'class' (instance 2)"),
    ({**PURI, "bbox": [1, 1, 0, 2]},
     "image a: bbox [1, 1, 0, 2] is not [x, y, w, h] of integers with w, h > 0 (instance 2)"),
    ({**PURI, "class": "Pizza"}, "image a: malformed entry: unknown class name 'Pizza' (instance 2)"),
    ({**PURI, "mask": {"size": [2, 2]}, "mask_origin": [0, 0]}, "image a: malformed entry: 'bits' (instance 2)"),
    ({**PURI, "mask": {"size": [2, 2], "bits": "8A=="}, "mask_origin": [7, 7]},
     "image a: mask is (2, 2) at [7, 7], image is (8, 8) (instance 2)"),
], ids=["no-class", "empty-bbox", "unknown-class", "no-bits", "mask-outside"])
def test_an_instance_error_names_the_instance(tmp_path, record, message):
    path = _manifest_with(tmp_path, [PURI, PURI, record])
    with pytest.raises(DataError) as err:
        manifests.read_manifest(path)
    assert str(err.value) == f"{path}: {message}"


# ---------------------------------------------------------------------------
# the whole-manifest reader against the per-instance oracle


@st.composite
def annotated_images(draw):
    """0..3 images, named "a", "b" and "c", of 1..10 px sides with 0..4
    instances each: any class, bbox, confidence and calorie label, and a
    mask crop at an origin inside the image, or no mask."""
    images = []
    for i in range(draw(st.integers(0, 3))):
        h, w = draw(st.integers(1, 10)), draw(st.integers(1, 10))
        insts = []
        for _ in range(draw(st.integers(0, 4))):
            mask, origin = None, (0, 0)
            if draw(st.integers(0, 3)):  # most instances have a mask
                mh, mw = draw(st.integers(1, h)), draw(st.integers(1, w))
                mask = draw(arrays(np.uint8, (mh, mw), elements=st.sampled_from([0, 1])))
                origin = (draw(st.integers(0, w - mw)), draw(st.integers(0, h - mh)))
            insts.append(DetectionInstance(
                draw(st.sampled_from(list(ClassLabel))),
                tuple(draw(st.integers(-5, 20)) for _ in range(2)) + tuple(draw(st.integers(1, 9)) for _ in range(2)),
                draw(st.none() | st.floats(0.0, 1.0)), mask, origin,
                draw(st.none() | st.floats(0.0, 500.0) | st.integers(0, 500))))
        images.append(manifests.ImageAnnotations("abc"[i], w, h, insts))
    return images


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


def _set(d, key, value):
    return {**d, key: value}


def _at(values, i, value):
    return values[:i] + [value] + values[i + 1 :]


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode()


# one fault each, applied to a valid image entry or instance record
IMAGE_FAULTS = {
    "entry-number": lambda e: 5, "entry-list": lambda e: [], "entry-null": lambda e: None,
    "name-number": lambda e: _set(e, "image", 3), "name-missing": lambda e: _without(e, "image"),
    "width-missing": lambda e: _without(e, "width"), "height-missing": lambda e: _without(e, "height"),
    "width-float": lambda e: _set(e, "width", 1.5), "width-bool": lambda e: _set(e, "width", True),
    "height-string": lambda e: _set(e, "height", "3"), "height-null": lambda e: _set(e, "height", None),
    "width-past-int64": lambda e: _set(e, "width", 2**63), "width-zero": lambda e: _set(e, "width", 0),
    "height-negative": lambda e: _set(e, "height", -1), "instances-object": lambda e: _set(e, "instances", {}),
    "name-of-the-first-image": lambda e: _set(e, "image", "a"),
}

# (the versions a fault applies to, whether it needs a mask, the fault of a
# record of image entry e)
INSTANCE_FAULTS = {
    "record-number": ((1, 2, 3), False, lambda r, e: 5), "record-list": ((1, 2, 3), False, lambda r, e: [1, 2]),
    "bbox-missing": ((1, 2, 3), False, lambda r, e: _without(r, "bbox")),
    "bbox-short": ((1, 2, 3), False, lambda r, e: _set(r, "bbox", r["bbox"][:3])),
    "bbox-long": ((1, 2, 3), False, lambda r, e: _set(r, "bbox", r["bbox"] + [1])),
    "bbox-string": ((1, 2, 3), False, lambda r, e: _set(r, "bbox", "1,1,2,2")),
    "bbox-float": ((1, 2, 3), False, lambda r, e: _set(r, "bbox", _at(r["bbox"], 0, 1.0))),
    "bbox-bool": ((1, 2, 3), False, lambda r, e: _set(r, "bbox", _at(r["bbox"], 1, True))),
    "bbox-null": ((1, 2, 3), False, lambda r, e: _set(r, "bbox", _at(r["bbox"], 1, None))),
    "bbox-past-int64": ((1, 2, 3), False, lambda r, e: _set(r, "bbox", _at(r["bbox"], 0, -(2**63) - 1))),
    "bbox-zero-width": ((1, 2, 3), False, lambda r, e: _set(r, "bbox", _at(r["bbox"], 2, 0))),
    "bbox-negative-height": ((1, 2, 3), False, lambda r, e: _set(r, "bbox", _at(r["bbox"], 3, -2))),
    "class-missing": ((1, 2, 3), False, lambda r, e: _without(r, "class")),
    "class-unknown": ((1, 2, 3), False, lambda r, e: _set(r, "class", "Pizza")),
    "class-list": ((1, 2, 3), False, lambda r, e: _set(r, "class", ["Puri"])),
    "confidence-above-1": ((1, 2, 3), False, lambda r, e: _set(r, "confidence", 1.5)),
    "confidence-bool": ((1, 2, 3), False, lambda r, e: _set(r, "confidence", True)),
    "calories-string": ((1, 2, 3), False, lambda r, e: _set(r, "calories_kcal", "12")),
    "calories-past-int64": ((1, 2, 3), False, lambda r, e: _set(r, "calories_kcal", 10**20)),
    "mask-number": ((1, 2, 3), True, lambda r, e: _set(r, "mask", 5)),
    "mask-null": ((1, 2, 3), True, lambda r, e: _set(r, "mask", None)),
    "mask-path-in-v3": ((3,), True, lambda r, e: _set(r, "mask", "masks/a.pgm")),
    "mask-object-in-v1-v2": ((1, 2), True, lambda r, e: _set(r, "mask", {"size": [1, 1], "bits": "gA=="})),
    "pgm-missing": ((1, 2), True, lambda r, e: _set(r, "mask", "masks/missing.pgm")),
    "origin-missing": ((2, 3), True, lambda r, e: _without(r, "mask_origin")),
    "origin-negative": ((2, 3), True, lambda r, e: _set(r, "mask_origin", [-1, 0])),
    "origin-float": ((2, 3), True, lambda r, e: _set(r, "mask_origin", [0, 0.5])),
    "origin-short": ((2, 3), True, lambda r, e: _set(r, "mask_origin", [0])),
    "origin-past-int64": ((2, 3), True, lambda r, e: _set(r, "mask_origin", [2**63, 0])),
    "origin-outside": ((2, 3), True, lambda r, e: _set(r, "mask_origin", [10, 10])),
    "origin-one-past-the-right": ((3,), True, lambda r, e: _set(r, "mask_origin", [
        e["width"] - r["mask"]["size"][1] + 1, 0])),
    "origin-one-past-the-bottom": ((3,), True, lambda r, e: _set(r, "mask_origin", [
        0, e["height"] - r["mask"]["size"][0] + 1])),
    "size-missing": ((3,), True, lambda r, e: _set(r, "mask", _without(r["mask"], "size"))),
    "size-zero": ((3,), True, lambda r, e: _set(r, "mask", _set(r["mask"], "size", [0, 1]))),
    "size-string": ((3,), True, lambda r, e: _set(r, "mask", _set(r["mask"], "size", "1x1"))),
    "size-bool": ((3,), True, lambda r, e: _set(r, "mask", _set(r["mask"], "size", [1, True]))),
    "size-past-int64": ((3,), True, lambda r, e: _set(r, "mask", _set(r["mask"], "size", [2**64, 1]))),
    "size-outside": ((3,), True, lambda r, e: _set(r, "mask", _set(r["mask"], "size", [11, 1]))),
    "bits-missing": ((3,), True, lambda r, e: _set(r, "mask", _without(r["mask"], "bits"))),
    "bits-number": ((3,), True, lambda r, e: _set(r, "mask", _set(r["mask"], "bits", 5))),
    "bits-bad-character": ((3,), True, lambda r, e: _set(r, "mask", _set(r["mask"], "bits",
                                                                           "!" + r["mask"]["bits"][1:]))),
    "bits-not-ascii": ((3,), True, lambda r, e: _set(r, "mask", _set(r["mask"], "bits", "é" + r["mask"]["bits"][1:]))),
    "bits-cut-padding": ((3,), True, lambda r, e: _set(r, "mask", _set(r["mask"], "bits", r["mask"]["bits"] + "A"))),
    "bytes-too-few": ((3,), True, lambda r, e: _set(r, "mask", _set(r["mask"], "bits", _b64(
        base64.b64decode(r["mask"]["bits"])[:-1])))),
    "bytes-too-many": ((3,), True, lambda r, e: _set(r, "mask", _set(r["mask"], "bits", _b64(
        base64.b64decode(r["mask"]["bits"]) + b"\0")))),
    "pad-bit-set": ((3,), True, lambda r, e: {**r, "mask_origin": [0, 0], "mask": {"size": [3, 3], "bits": _b64(
        b"\xff\xff")}}),
}


def _instance_faults(version, rec):
    return [name for name, (versions, needs_mask, _) in INSTANCE_FAULTS.items()
            if version in versions and (not needs_mask or "mask" in rec)]


def _outcome(read, path):
    """What ``read`` gives for ``path``: its images, or the type and text of
    what it raised."""
    try:
        images = read(path)
    except Exception as exc:  # whatever the oracle raises is the expectation
        return type(exc), str(exc)
    return [(img.name, img.width, img.height, [
        (i.label, i.bbox, [type(v) for v in i.bbox], i.confidence, i.origin, [type(v) for v in i.origin],
         i.calories_kcal, None if i.mask is None else (i.mask.dtype, i.mask.shape, i.mask.tobytes()))
        for i in img.instances]) for img in images]


def _write_version(root, images, version) -> Path:
    path = root / "annotations.json"
    if version == 3:
        return manifests.write_manifest(path, images)
    return write_pgm_manifest(path, images, version)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(annotated_images(), st.sampled_from([1, 2, 3]), st.integers(0, 3), st.data())
def test_reader_matches_the_per_instance_oracle(tmp_path_factory, images, version, faults, data):
    """The same images and instances on a valid manifest; on one with up to
    three faults, the error of the first in document order, as the oracle
    raises it, with the same message."""
    from manifest_oracle import read_manifest as oracle

    root = tmp_path_factory.mktemp("reader")
    path = _write_version(root, images, version)
    doc = json.loads(path.read_text())
    entries = doc["images"]
    # each fault goes to a record that no fault has touched yet
    records = [(entry, j) for entry in entries for j in range(len(entry["instances"]))]
    fresh = list(range(len(entries)))
    for _ in range(faults):
        if records and data.draw(st.sampled_from(["instance"] * 4 + ["image"])) == "instance":
            entry, j = records.pop(data.draw(st.integers(0, len(records) - 1)))
            rec = entry["instances"][j]
            entry["instances"][j] = INSTANCE_FAULTS[data.draw(st.sampled_from(_instance_faults(version, rec)))][2](
                rec, entry)
        elif fresh:
            i = fresh.pop(data.draw(st.integers(0, len(fresh) - 1)))
            records = [(entry, j) for entry, j in records if entry is not entries[i]]
            entries[i] = IMAGE_FAULTS[data.draw(st.sampled_from(list(IMAGE_FAULTS)))](entries[i])
    path.write_text(json.dumps(doc))
    expected = _outcome(oracle, path)
    assert _outcome(manifests.read_manifest, path) == expected
    if faults == 0:
        assert isinstance(expected, list)


def _two_images():
    block = np.ones((2, 3), np.uint8)  # 6 pixels: a packed mask with pad bits

    def instances():
        return [DetectionInstance(ClassLabel.COIN, (0, 0, 3, 2), None, block),
                DetectionInstance(ClassLabel.PURI, (4, 4, 3, 2), 0.5, block, origin=(4, 4), calories_kcal=40.0),
                DetectionInstance(ClassLabel.BEGUNI, (1, 5, 2, 2), 0.25, block, origin=(1, 5))]

    return [manifests.ImageAnnotations("a", 8, 8, instances()), manifests.ImageAnnotations("b", 9, 8, instances())]


FAULT_CASES = [(version, "image", name) for version in (1, 2, 3) for name in IMAGE_FAULTS] + [
    (version, "instance", name) for version in (1, 2, 3) for name in _instance_faults(version, {"mask": None})]


@pytest.mark.parametrize("version, level, fault", FAULT_CASES, ids=[f"v{v}-{name}" for v, _, name in FAULT_CASES])
def test_each_fault_gives_the_oracle_error(tmp_path, version, level, fault):
    """One fault in the second image, in its middle instance for an
    instance fault: an error, the oracle's."""
    from manifest_oracle import read_manifest as oracle

    path = _write_version(tmp_path, _two_images(), version)
    doc = json.loads(path.read_text())
    entry = doc["images"][1]
    if level == "image":
        doc["images"][1] = IMAGE_FAULTS[fault](entry)
    else:
        entry["instances"][1] = INSTANCE_FAULTS[fault][2](entry["instances"][1], entry)
    path.write_text(json.dumps(doc))
    expected = _outcome(oracle, path)
    assert not isinstance(expected, list)
    assert _outcome(manifests.read_manifest, path) == expected


FAULT_PAIRS = [("bbox-zero-width", "class-missing"), ("class-unknown", "bits-number"), ("size-zero", "origin-negative"),
               ("origin-outside", "bytes-too-few"), ("confidence-above-1", "class-unknown"),
               ("bits-missing", "size-string"), ("mask-number", "bbox-bool"), ("bbox-missing", "origin-float")]


@pytest.mark.parametrize("first, second", FAULT_PAIRS + [pair[::-1] for pair in FAULT_PAIRS])
def test_two_faults_of_one_instance_give_the_oracle_error(tmp_path, first, second):
    # the reader's passes check one instance in the oracle's order
    from manifest_oracle import read_manifest as oracle

    path = _write_version(tmp_path, _two_images(), 3)
    doc = json.loads(path.read_text())
    entry = doc["images"][1]
    entry["instances"][2] = INSTANCE_FAULTS[second][2](INSTANCE_FAULTS[first][2](entry["instances"][2], entry), entry)
    path.write_text(json.dumps(doc))
    expected = _outcome(oracle, path)
    assert not isinstance(expected, list)
    assert _outcome(manifests.read_manifest, path) == expected


@pytest.mark.parametrize("kcal", [2**63, -(2**63) - 1, 10**20, 10**300], ids=["2**63", "-2**63-1", "1e20", "1e300"])
def test_calories_past_int64_are_refused_by_reader_and_writer(tmp_path, kcal):
    # they read back as that integer, and extract wrote 1e+20 into features.csv
    path = _manifest_with(tmp_path, [PURI, {**PURI, "calories_kcal": 2**63 - 1}, {**PURI, "calories_kcal": kcal}])
    with pytest.raises(DataError) as err:
        manifests.read_manifest(path)
    assert str(err.value) == f"{path}: image a: calories_kcal must be a finite number, got {kcal!r:.50} (instance 2)"
    image = manifests.ImageAnnotations("a", 8, 8, [DetectionInstance(ClassLabel.PURI, (1, 1, 2, 2), calories_kcal=kcal)])
    with pytest.raises(ValueError) as err:
        manifests.write_manifest(tmp_path / "out.json", [image])
    assert str(err.value) == (f"{tmp_path / 'out.json'}: image a: calories_kcal must be a finite number, "
                              f"got {kcal!r:.50} (instance 0)")
    assert not (tmp_path / "out.json").exists()


def test_a_mask_of_2_to_the_64_pixels_is_a_byte_count_error(tmp_path):
    # h * w wraps to 0 in int64, and no bits is 0 bytes
    path = tmp_path / "annotations.json"
    path.write_text(json.dumps({"format": "foodcal-annotations", "version": 3, "images": [
        {"image": "a", "width": 2**40, "height": 2**40, "instances": [
            {**PURI, "mask": {"size": [2**32, 2**32], "bits": ""}, "mask_origin": [0, 0]}]}]}))
    with pytest.raises(DataError) as err:
        manifests.read_manifest(path)
    assert str(err.value) == (f"{path}: image a: mask bits hold 0 bytes, a {2**32}x{2**32} mask packs into {2**61} "
                              "(instance 0)")


def test_reader_masks_are_views_of_one_unpacked_array(gen_v3):
    images = manifests.read_manifest(gen_v3 / "v3" / "annotations.json")
    masks = [inst.mask for img in images for inst in img.instances if inst.mask is not None]
    assert len(masks) > 10 and len({id(m.base) for m in masks}) == 1
    assert all(m.flags.c_contiguous for m in masks)


def test_faults_of_two_instances_name_the_first_in_document_order(tmp_path):
    # the later instance's fault is found by an earlier pass over the manifest
    path = _manifest_with(tmp_path, [PURI, {**PURI, "class": "Pizza"}, {**PURI, "bbox": [1, 1, 0, 2]}])
    with pytest.raises(DataError) as err:
        manifests.read_manifest(path)
    assert str(err.value) == f"{path}: image a: malformed entry: unknown class name 'Pizza' (instance 1)"


@pytest.mark.parametrize("field, value, python", [
    ("confidence", np.float32(0.5), 0.5),
    ("confidence", np.int64(1), 1),
    ("calories_kcal", np.float32(200.0), 200.0),
    ("calories_kcal", np.int32(5), 5),
], ids=["confidence-float32", "confidence-int64", "calories-float32", "calories-int32"])
def test_numpy_scalars_construct_as_python_numbers_and_round_trip(tmp_path, field, value, python):
    # a detector's confidences are float32; each of these raised "must be a number"
    inst = DetectionInstance(ClassLabel.PURI, (0, 0, 2, 2), **{field: value})
    assert getattr(inst, field) == python and type(getattr(inst, field)) is type(python)
    path = manifests.write_manifest(tmp_path / "annotations.json", [manifests.ImageAnnotations("a", 4, 4, [inst])])
    assert manifests.read_manifest(path)[0].instances == [inst]


@pytest.mark.parametrize("field, value, message", [
    ("confidence", np.True_, "confidence must be a number in [0, 1], got np.True_"),
    ("confidence", 1.5, "confidence must be a number in [0, 1], got 1.5"),
    ("calories_kcal", np.True_, "calories_kcal must be a finite number or null, got np.True_"),
    # rounds to 1.0 as a float; only the NumPy numbers float() holds exactly are converted
    ("confidence", np.longdouble(1) + np.finfo(np.longdouble).eps,
     f"confidence must be a number in [0, 1], got {np.longdouble(1) + np.finfo(np.longdouble).eps!r}"),
], ids=["confidence-numpy-bool", "confidence-above-1", "calories-numpy-bool", "confidence-longdouble-above-1"])
def test_a_numpy_bool_or_an_out_of_range_confidence_is_still_refused(field, value, message):
    with pytest.raises(ValueError) as err:
        DetectionInstance(ClassLabel.PURI, (0, 0, 2, 2), **{field: value})
    assert str(err.value) == message
