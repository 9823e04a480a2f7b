import io
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodcal import manifests, metrics, regress, synth
from foodcal.errors import DataError, is_number, number_array, write_json
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
        manifests.ImageAnnotations(name=f"ছবি_{i} – Pūri", width=s.width, height=s.height, instances=s.instances)
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


# ---------------------------------------------------------------------------
# number_array against the rule it states, one value at a time

INT64 = range(-(2**63), 2**63)
EDGE_INTS = [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 10**400, -(10**400)]
INTS = st.one_of(st.integers(-(2**70), 2**70), st.integers(-3, 3), st.sampled_from(EDGE_INTS))
NUMBERS = st.one_of(INTS, st.floats(-1e300, 1e300))
FLOATS = st.one_of(st.floats(-1e300, 1e300), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324]))
LEAVES = st.one_of(NUMBERS, FLOATS, st.booleans(), st.none(), st.text(max_size=2))


def _rows(elements):
    """Lists of one length each, a shape a 2-d array can take."""
    return st.integers(0, 3).flatmap(lambda n: st.lists(st.lists(elements, min_size=n, max_size=n), max_size=3))


@st.composite
def number_array_args(draw):
    """(values, kind, ndim, count, least), with values mostly of the shape
    ``ndim`` asks for and sometimes of any JSON shape."""
    kind, ndim = draw(st.sampled_from([int, (int, float)])), draw(st.sampled_from([0, 1, 2]))
    elements = draw(st.sampled_from([INTS, NUMBERS, FLOATS, LEAVES]))
    shaped = [elements, st.lists(elements, max_size=5), _rows(elements)][ndim]
    values = draw(st.one_of(shaped, shaped, st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=3))))
    sizes = [len(values)] if isinstance(values, list) else []
    count = draw(st.one_of(st.none(), st.sampled_from(sizes or [None]), st.integers(0, 4)))
    return values, kind, ndim, count, draw(st.sampled_from([None, None, -1, 0, 0.5]))


def accepted(values, kind, ndim, count, least) -> bool:
    """The rule of ``number_array``, one value at a time."""
    if ndim == 0:
        flat, length = [values], None
    elif ndim == 1:
        if type(values) is not list:
            return False
        flat, length = values, len(values)
    else:
        if not (type(values) is list and values and all(type(row) is list for row in values)):
            return False
        if len({len(row) for row in values}) != 1:
            return False
        flat, length = [v for row in values for v in row], len(values)
    return count in (None, length) and all(
        is_number(v, kind) and (type(v) is not int or v in INT64) and (least is None or v >= least) for v in flat
    )


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(number_array_args())
def test_number_array_accepts_exactly_the_values_of_its_rule(args):
    values, kind = args[:2]
    if not accepted(*args):
        with pytest.raises(DataError, match="^field x must be "):
            number_array(values, "field x", *args[1:])
        return
    a = number_array(values, "field x", *args[1:])
    assert a.dtype == (np.int64 if kind is int else np.float64)
    assert a.ndim == args[2] and np.array_equal(a, np.array(values, dtype=a.dtype))


@pytest.mark.parametrize(
    "values, kind, ndim, message",
    [
        (True, int, 0, "must be an integer, got True"),
        ([1, 2.5], int, 1, "must be a list of integers, got [1, 2.5]"),
        ([[1.0], [2.0, 3.0]], (int, float), 2, "must be a list of lists of finite numbers"),
        ([1.0, 2**63], (int, float), 1, "must be a list of finite numbers"),
    ],
    ids=["bool", "fraction", "ragged", "int-past-int64"],
)
def test_number_array_names_the_field_and_the_value(values, kind, ndim, message):
    with pytest.raises(DataError) as exc:
        number_array(values, "field x", kind, ndim)
    assert str(exc.value).startswith("field x " + message)
