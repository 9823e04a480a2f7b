import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foodcal import preprocess as pp
from foodcal.errors import CoinNotEncodable, DataError, EmptyDataset, TooFewRows
from foodcal.measurement import FOOD_CLASSES, ClassLabel, FeatureRecord


def make_dataset(numeric_col, target=None):
    """Dataset whose height_mm column carries the given values."""
    n = len(numeric_col)
    X = np.zeros((n, pp.N_FEATURES))
    X[:, 0] = 1.0  # all Singara
    X[:, 5] = numeric_col
    X[:, 6] = 1.0
    X[:, 7] = 1.0
    X[:, 8] = 1.0
    y = np.ones(n) if target is None else np.asarray(target, float)
    return pp.RegressionDataset(X, y)


def random_records(rng, n):
    recs = []
    for _ in range(n):
        recs.append(
            FeatureRecord(
                label=FOOD_CLASSES[rng.integers(0, 5)],
                height_mm=float(rng.uniform(10, 100)),
                width_mm=float(rng.uniform(10, 100)),
                area_mm2=float(rng.uniform(100, 5000)),
                perimeter_mm=float(rng.uniform(30, 400)),
                calories_kcal=float(rng.uniform(50, 400)),
            )
        )
    return recs


# ---------------------------------------------------------------------------
# one-hot class columns


def test_one_hot_declaration_order():
    records = [FeatureRecord(label, 1.0, 2.0, 3.0, 4.0) for label in FOOD_CLASSES]
    assert [label.value for label in FOOD_CLASSES] == ["Singara", "Somusa", "Puri", "Peaju", "Beguni"]
    assert pp.RegressionDataset.from_records(records).X[:, :5].tolist() == [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ]


def test_one_hot_rejects_coin():
    records = [FeatureRecord(ClassLabel.PURI, 1.0, 2.0, 3.0, 4.0), FeatureRecord(ClassLabel.COIN, 1.0, 2.0, 3.0, 4.0)]
    with pytest.raises(CoinNotEncodable):
        pp.RegressionDataset.from_records(records)


# ---------------------------------------------------------------------------
# min-max normalization


def test_minmax_simple_column():
    ds = make_dataset([0.0, 5.0, 10.0])
    out = pp.minmax_apply(pp.minmax_fit(ds), ds)
    assert out.X[:, 5].tolist() == [0.0, 0.5, 1.0]


def test_minmax_constant_column_maps_to_zero():
    ds = make_dataset([7.0, 7.0])
    out = pp.minmax_apply(pp.minmax_fit(ds), ds)
    assert out.X[:, 5].tolist() == [0.0, 0.0]


def test_minmax_no_clipping_beyond_train_range():
    train = make_dataset([0.0, 10.0])
    params = pp.minmax_fit(train)
    held_out = make_dataset([20.0, 10.0])
    out = pp.minmax_apply(params, held_out)
    assert out.X[0, 5] == 2.0


def test_minmax_leaves_one_hot_untouched():
    records = random_records(np.random.default_rng(0), 30)
    ds = pp.RegressionDataset.from_records(records)
    out = pp.minmax_apply(pp.minmax_fit(ds), ds)
    columns = {label: k for k, label in enumerate(FOOD_CLASSES)}
    hot = [[1.0 if k == columns[r.label] else 0.0 for k in range(5)] for r in records]
    assert out.X[:, :5].tolist() == hot
    assert out.X[:, pp.NUMERIC].min() >= 0.0
    assert out.X[:, pp.NUMERIC].max() <= 1.0


def test_minmax_empty_raises():
    ds = make_dataset([1.0]).take(np.zeros(0, dtype=int))
    with pytest.raises(EmptyDataset):
        pp.minmax_fit(ds)


# ---------------------------------------------------------------------------
# z-score filter


def test_zscore_removes_z_above_threshold():
    # column [0,0,0,0,0,12]: mean 2, population std sqrt(20), z = 2.236 > 2
    ds = make_dataset([0, 0, 0, 0, 0, 12])
    kept = pp.zscore_filter(ds)
    assert len(kept) == 5
    assert 12.0 not in kept.X[:, 5]


def test_zscore_strict_inequality_retains_exact_threshold():
    # column [0,0,0,0,10]: mean 2, population std 4, z = 2.0 exactly
    ds = make_dataset([0, 0, 0, 0, 10])
    assert len(pp.zscore_filter(ds)) == 5


def test_zscore_constant_column_removes_nothing():
    ds = make_dataset([3.0] * 8)
    assert len(pp.zscore_filter(ds)) == 8


def test_zscore_covers_target_column():
    ds = make_dataset([1.0] * 6, target=[0, 0, 0, 0, 0, 12])
    assert len(pp.zscore_filter(ds)) == 5


def test_zscore_requires_two_rows():
    with pytest.raises(TooFewRows):
        pp.zscore_filter(make_dataset([1.0]))


def test_zscore_output_is_subset_and_deterministic():
    rng = np.random.default_rng(9)
    ds = pp.RegressionDataset.from_records(random_records(rng, 200))
    a = pp.zscore_filter(ds)
    b = pp.zscore_filter(ds)
    assert np.array_equal(a.X, b.X)
    assert len(a) <= len(ds)
    rows = {tuple(r) for r in ds.X}
    assert all(tuple(r) in rows for r in a.X)


# ---------------------------------------------------------------------------
# split


def test_split_10_rows():
    ds = make_dataset(list(range(10)))
    tr, va, te = pp.split(ds, seed=1)
    assert (len(tr), len(va), len(te)) == (8, 1, 1)


def test_split_644_rows():
    ds = make_dataset(list(range(644)))
    tr, va, te = pp.split(ds, seed=3)
    assert (len(tr), len(va), len(te)) == (516, 64, 64)


def test_split_deterministic_per_seed():
    ds = make_dataset(list(range(50)))
    a = pp.split(ds, seed=5)
    b = pp.split(ds, seed=5)
    for x, y in zip(a, b):
        assert np.array_equal(x.X, y.X)


def test_split_disjoint_and_exhaustive():
    ds = make_dataset(list(range(37)))
    for seed in range(5):
        tr, va, te = pp.split(ds, seed=seed)
        vals = np.concatenate([tr.X[:, 5], va.X[:, 5], te.X[:, 5]])
        assert sorted(vals.tolist()) == list(map(float, range(37)))


def test_split_rejects_bad_fractions():
    with pytest.raises(ValueError):
        pp.split(make_dataset([1, 2, 3]), fractions=(0.5, 0.2, 0.2))


# ---------------------------------------------------------------------------
# augmentation


def test_hflip_is_involution():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = (rng.random((rng.integers(1, 20), rng.integers(1, 20))) < 0.5).astype(np.uint8)
        boxes = [(1, 0, 1, 1)] if m.shape[1] > 1 else [(0, 0, 1, 1)]
        m1, b1 = pp.augment(m, boxes, "hflip")
        m2, b2 = pp.augment(m1, b1, "hflip")
        assert np.array_equal(m2, m)
        assert b2 == boxes


def test_rot90_four_times_is_identity():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = (rng.random((rng.integers(1, 20), rng.integers(1, 20))) < 0.5).astype(np.uint8)
        boxes = [(0, 0, 1, 1)]
        cur, b = m, boxes
        for _ in range(4):
            cur, b = pp.augment(cur, b, "rot90")
        assert np.array_equal(cur, m)
        assert b == boxes


def test_hflip_bbox_formula():
    m = np.zeros((5, 10), np.uint8)
    _, boxes = pp.augment(m, [(2, 1, 3, 2)], "hflip")
    assert boxes == [(5, 1, 3, 2)]


def test_augment_preserves_foreground_count():
    rng = np.random.default_rng(6)
    for mode in ("hflip", "rot90"):
        m = (rng.random((11, 7)) < 0.4).astype(np.uint8)
        out, _ = pp.augment(m, [], mode)
        assert out.sum() == m.sum()


def test_rot90_pixel_mapping():
    # (x, y) -> (y, w-1-x), dims swap
    m = np.zeros((2, 3), np.uint8)
    m[0, 2] = 1  # pixel at x=2, y=0
    out, _ = pp.augment(m, [], "rot90")
    assert out.shape == (3, 2)
    assert out[3 - 1 - 2, 0] == 1


def test_hflip_preserves_maskgeom_area_perimeter():
    from foodcal import maskgeom

    rng = np.random.default_rng(8)
    for _ in range(20):
        m = (rng.random((15, 15)) < 0.5).astype(np.uint8)
        comps = maskgeom.connected_components(m)
        if len(comps) != 1:
            continue
        st = maskgeom.shape_stats(maskgeom.trace_contour(m))
        flipped, _ = pp.augment(m, [], "hflip")
        if len(maskgeom.connected_components(flipped)) != 1:
            continue
        stf = maskgeom.shape_stats(maskgeom.trace_contour(flipped))
        assert stf.area_px == pytest.approx(st.area_px, abs=1e-9)
        assert stf.perimeter_px == pytest.approx(st.perimeter_px, rel=1e-12)


# ---------------------------------------------------------------------------
# CSV round trip


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    recs = random_records(rng, 25)
    path = tmp_path / "d.csv"
    pp.write_csv(path, recs)
    back, ds = pp.read_csv(path), pp.RegressionDataset.from_records(recs)
    assert (back.X.tobytes(), back.y.tobytes()) == (ds.X.tobytes(), ds.y.tobytes())  # floats are written with repr


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DataError):
        pp.read_csv(path)


@pytest.mark.parametrize(
    "row, field",
    [
        ("Puri,nan,20.0,30.0,40.0,50.0", "height_mm"),
        ("Puri,10.0,20.0,-inf,40.0,50.0", "area_mm2"),
        ("Puri,10.0,20.0,30.0,40.0,inf", "calories_kcal"),
    ],
)
def test_csv_rejects_non_finite_values(tmp_path, row, field):
    path = tmp_path / "d.csv"
    path.write_text(",".join(pp.CSV_FIELDS) + "\nBeguni,1.0,2.0,3.0,4.0,5.0\n" + row + "\n")
    with pytest.raises(DataError, match=f"line 3: non-finite {field}"):
        pp.read_csv(path)


def test_csv_rejects_short_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(",".join(pp.CSV_FIELDS) + "\nPuri,10.0,20.0\n")
    with pytest.raises(DataError, match="line 2"):
        pp.read_csv(path)


def test_csv_rejects_long_row(tmp_path):
    # a decimal comma in "1,5" adds a field; read by name, the row would be
    # width 1, area 5, perimeter 20 and 30 kcal
    path = tmp_path / "d.csv"
    path.write_text(",".join(pp.CSV_FIELDS) + "\nPuri,10.0,20.0,30.0,40.0,50.0\nPuri,10,1,5,20,30,40\n")
    with pytest.raises(DataError, match="line 3: 7 fields, but the header has 6"):
        pp.read_csv(path)


@pytest.mark.parametrize("row, fields", [("Singara,1.0,2.0,3.0,4.0", 5), ("Singara,1.0,2.0,3.0", 4), ("Puri", 1)])
def test_csv_short_row_gives_its_field_count(tmp_path, row, fields):
    # read by name, a missing calorie field made an unlabelled row, and a
    # missing perimeter a float(None) error
    path = tmp_path / "d.csv"
    path.write_text(",".join(pp.CSV_FIELDS) + f"\nPuri,10.0,20.0,30.0,40.0,50.0\n{row}\n")
    with pytest.raises(DataError, match=f"line 3: {fields} fields, but the header has 6"):
        pp.read_csv(path)


def test_csv_skips_blank_lines_and_rejects_a_coin_row(tmp_path):
    # the coin has no one-hot column: its row is a fault of the file, on its line
    path = tmp_path / "d.csv"
    path.write_text(",".join(pp.CSV_FIELDS) + "\n\nPuri,10.0,20.0,30.0,40.0,50.0\n\nCoin,1.0,2.0,3.0,4.0,\n")
    with pytest.raises(DataError, match=f"^{path}: line 5: the coin is not a food class$"):
        pp.read_csv(path)
    path.write_text(",".join(pp.CSV_FIELDS) + "\n\nPuri,10.0,20.0,30.0,40.0,50.0\n\n")
    ds = pp.read_csv(path)
    assert ds.X.tolist() == [[0, 0, 1, 0, 0, 10.0, 20.0, 30.0, 40.0]] and ds.y.tolist() == [50.0]


def test_csv_empty_label_names_its_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(",".join(pp.CSV_FIELDS) + "\nPuri,10.0,20.0,30.0,40.0,50.0\nPeaju,1.0,2.0,3.0,4.0,\n")
    with pytest.raises(DataError, match=f"^{path}: line 3: calories_kcal is empty$"):
        pp.read_csv(path)


@pytest.mark.parametrize("rows, message", [
    (["Puri,1,2,3,4,", "Puri,x,2,3,4,5"], "line 2: calories_kcal is empty"),
    (["Puri,1,2,3,4,5", "Puri,x,2,3,4,5", "Coin,1,2,3,4,5"], "line 3: bad row"),
    (["Coin,1,2,3,4,5", "Puri,1,2,3"], "line 2: the coin is not a food class"),
    (["Puri,1,2,3,4,5", "Puri,1,2,nan,4,", "Puri,1,2"], "line 3: non-finite area_mm2"),
    (["Pizza,1,2,3,4,5", "Puri,inf,2,3,4,5"], "line 2: bad row .*unknown class name 'Pizza'"),
])
def test_csv_first_faulty_line_gives_the_error(tmp_path, rows, message):
    # the column pass finds a fault somewhere; the error is the first line's
    path = tmp_path / "d.csv"
    path.write_text("\n".join([",".join(pp.CSV_FIELDS)] + rows) + "\n")
    with pytest.raises(DataError, match=message):
        pp.read_csv(path)


def test_csv_row_before_a_decoding_fault_gives_the_error(tmp_path):
    # the bad byte lies chunks of text past the bad row, where a reader that
    # checks each row as it reads it stops
    path = tmp_path / "d.csv"
    good = b"Puri,10.0,20.0,30.0,40.0,50.0\n" * 2000
    path.write_bytes(",".join(pp.CSV_FIELDS).encode() + b"\nPuri,1,2,3,4,\n" + good + b"Puri,1\xff,2,3,4,5\n")
    with pytest.raises(DataError, match="line 2: calories_kcal is empty"):
        pp.read_csv(path)


# finite floats, with the extremes a writer's repr must carry: signed zeros,
# subnormals, the smallest normal and numbers near the top of the range
CSV_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308])


@st.composite
def labelled_records(draw):
    return [FeatureRecord(draw(st.sampled_from(FOOD_CLASSES)), *(draw(CSV_FLOATS) for _ in range(5)))
            for _ in range(draw(st.integers(0, 12)))]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(labelled_records(), st.booleans(), st.booleans(), st.booleans())
def test_read_csv_is_from_records_of_what_write_csv_wrote(tmp_path_factory, records, crlf, quote_all, blanks):
    """``read_csv`` by columns gives the bytes of ``from_records``, also when
    the file has LF line ends, every field quoted or blank lines between rows."""
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    pp.write_csv(path, records)
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    text = io.StringIO()
    writer = csv.writer(text, quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL,
                        lineterminator="\r\n" if crlf else "\n")
    for row in rows:
        writer.writerow(row)
        if blanks:
            text.write("\r\n" if crlf else "\n")
    expected = pp.RegressionDataset.from_records(records)
    for content in (path.read_text(encoding="utf-8"), text.getvalue()):
        path.write_bytes(content.encode("utf-8"))
        ds = pp.read_csv(path)
        assert (ds.X.tobytes(), ds.y.tobytes()) == (expected.X.tobytes(), expected.y.tobytes())
        assert ds.X.shape == (len(records), pp.N_FEATURES)


def test_csv_bad_number_names_the_line_and_its_fields(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(",".join(pp.CSV_FIELDS) + "\nPuri,10.0,x,30.0,40.0,50.0\n")
    with pytest.raises(DataError, match=r"line 2: bad row \{'class': 'Puri', 'height_mm': '10.0', 'width_mm': 'x'"):
        pp.read_csv(path)


def test_dataset_from_records_matches_one_hot_rows():
    rng = np.random.default_rng(4)
    records = random_records(rng, 25) + [FeatureRecord(ClassLabel.BEGUNI, 1.5, 2.5, 3.5, 4.5)]
    ds = pp.RegressionDataset.from_records(records)
    hot = {
        ClassLabel.SINGARA: [1, 0, 0, 0, 0],
        ClassLabel.SOMUSA: [0, 1, 0, 0, 0],
        ClassLabel.PURI: [0, 0, 1, 0, 0],
        ClassLabel.PEAJU: [0, 0, 0, 1, 0],
        ClassLabel.BEGUNI: [0, 0, 0, 0, 1],
    }
    for row, y, r in zip(ds.X, ds.y, records):
        assert row.tolist() == hot[r.label] + [r.height_mm, r.width_mm, r.area_mm2, r.perimeter_mm]
        assert y == r.calories_kcal or (np.isnan(y) and r.calories_kcal is None)
    empty = pp.RegressionDataset.from_records([])
    assert empty.X.shape == (0, pp.N_FEATURES) and empty.y.shape == (0,)


def test_dataset_from_records_layout():
    rec = FeatureRecord(ClassLabel.PURI, 10.0, 20.0, 30.0, 40.0, calories_kcal=50.0)
    ds = pp.RegressionDataset.from_records([rec])
    assert ds.X[0].tolist() == [0, 0, 1, 0, 0, 10.0, 20.0, 30.0, 40.0]
    assert ds.y[0] == 50.0
