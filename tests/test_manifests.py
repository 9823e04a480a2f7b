"""Manifest v3 stores each mask inline as its packed foreground crop and
origin.

Oracles: a crop pasted at its origin is the frame that was written, and
every computation on crops (mask IoU, the detection report, the features)
equals the same computation on full frames. A v2 manifest of PGM crops and
a v1 manifest of full-size PGMs read to the same crops, and a v3 manifest
written again is the same bytes.
"""

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
        box = maskgeom.foreground_slices(m)
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
                assert r.mask.dtype == np.uint8 and (r.mask.shape == (1, 1) or maskgeom.foreground_slices(
                    r.mask) == (slice(0, r.mask.shape[0]), slice(0, r.mask.shape[1])))  # tight
            assert measurement.extract_features(read, scale) == measurement.extract_features(full, scale)
        for p, fp in zip(pimg.instances, full_preds):
            for g, fg in zip(gimg.instances, full_gts):
                crop_iou = metrics._window_iou(metrics._MaskWindow.of(p.origin, p.mask),
                                               metrics._MaskWindow.of(g.origin, g.mask))
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
