import io
import json
from dataclasses import asdict

import numpy as np
import pytest

from foodcal import manifests, metrics, regress, synth
from foodcal.errors import write_json
from foodcal.preprocess import N_FEATURES, RegressionDataset

# floats whose text is easy to get wrong: a signed zero, the first float
# printed with an exponent, and the smallest subnormal
AWKWARD = {"zero": -0.0, "big": 1e16, "tiny": 5e-324, "nested": [[1.5, [-0.0, []]], {"é": [5e-324]}]}


def bundle():
    rng = np.random.default_rng(0)
    data = RegressionDataset(rng.random((40, N_FEATURES)), rng.random(40) * 300)
    model = regress.fit(regress.ModelSpec("dtree"), data)
    return {"format": "foodcal-model-bundle", "regressor": regress.to_dict(model), **AWKWARD}


def report():
    rep = metrics.regression_metrics(np.array([1.0, 2.5, -0.0]), np.array([1.5, 2.0, 1e16]))
    return {"n": 3, "split": "test", **asdict(rep), **AWKWARD}


def manifest(tmp_path):
    _, scenes = synth.generate_regression_dataset(synth.SceneConfig(), 6, 3)
    images = [
        manifests.ImageAnnotations(
            name=f"ছবি_{i} – Pūri", width=s.width, height=s.height, instances=s.instances,
            calories=[t.calories_kcal for t in s.truth.instances],
        )
        for i, s in enumerate(scenes)
    ]
    manifests.write_manifest(tmp_path / "annotations.json", images)
    return {**json.loads((tmp_path / "annotations.json").read_text(encoding="utf-8")), **AWKWARD}


@pytest.mark.parametrize("indent", [None, 1])
@pytest.mark.parametrize("make", [bundle, report, manifest], ids=["bundle", "report", "manifest"])
def test_write_json_writes_the_bytes_of_json_dump(tmp_path, make, indent):
    payload = make(tmp_path) if make is manifest else make()
    expected = io.StringIO()
    json.dump(payload, expected, indent=indent)
    expected.write("\n")
    write_json(tmp_path / "out.json", payload, indent=indent)
    assert (tmp_path / "out.json").read_bytes() == expected.getvalue().encode("utf-8")
