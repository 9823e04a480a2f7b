import numpy as np
import pytest

from foodcal import regress
from foodcal.errors import DataError, DimensionMismatch, EmptyDataset, ZeroTotalWeight
from foodcal.preprocess import N_FEATURES, RegressionDataset
from foodcal.regress import ModelSpec


def toy_dataset(rng, n=120, noise=0.0):
    """Random 9-feature dataset with a smooth target."""
    X = rng.uniform(0, 1, size=(n, N_FEATURES))
    X[:, :5] = 0.0
    X[np.arange(n), rng.integers(0, 5, n)] = 1.0
    y = (
        40.0 * X[:, 5]
        + 25.0 * X[:, 6]
        + 60.0 * X[:, 7]
        + 10.0 * X[:, 8]
        + 15.0 * X[:, :5].argmax(axis=1)
        + noise * rng.standard_normal(n)
    )
    return RegressionDataset(X, y)


# ---------------------------------------------------------------------------
# cart_best_split


def test_split_none_when_targets_equal():
    X = np.array([[0.0], [1.0], [2.0]])
    assert regress.cart_best_split(X, [5.0, 5.0, 5.0]) is None


def test_split_midpoint_of_two_values():
    assert regress.cart_best_split(np.array([[0.0], [1.0]]), [0.0, 10.0]) == (0, 0.5)


def test_split_tie_prefers_lower_feature_index():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    f, thr = regress.cart_best_split(X, [0.0, 10.0])
    assert f == 0 and thr == 0.5


def test_split_tie_prefers_lower_threshold():
    # y symmetric around the middle: splitting at 0.5 or 1.5 gives equal SSE
    X = np.array([[0.0], [1.0], [2.0]])
    f, thr = regress.cart_best_split(X, [0.0, 5.0, 10.0])
    assert f == 0 and thr == 0.5


def test_split_constant_feature_gives_none():
    X = np.array([[3.0], [3.0], [3.0]])
    assert regress.cart_best_split(X, [0.0, 5.0, 9.0]) is None


# ---------------------------------------------------------------------------
# weighted_median


def test_weighted_median_equal_weights_is_median():
    assert regress.weighted_median([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]) == 2.0


def test_weighted_median_skewed_weights():
    assert regress.weighted_median([1.0, 2.0, 3.0], [0.1, 0.1, 0.8]) == 3.0


def test_weighted_median_single_value():
    assert regress.weighted_median([7.5], [0.2]) == 7.5


def test_weighted_median_zero_total_raises():
    with pytest.raises(ZeroTotalWeight):
        regress.weighted_median([1.0, 2.0], [0.0, 0.0])


def test_weighted_median_unordered_input():
    assert regress.weighted_median([3.0, 1.0, 2.0], [0.8, 0.1, 0.1]) == 3.0


# ---------------------------------------------------------------------------
# individual algorithms


def test_linear_recovers_exact_line():
    x = np.linspace(-3, 3, 20)
    model = regress.LinearModel.fit(x[:, None], 2.0 * x + 1.0)
    assert model.coef[0] == pytest.approx(2.0, abs=1e-9)
    assert model.intercept == pytest.approx(1.0, abs=1e-9)


def test_linear_handles_collinear_columns_via_ridge():
    # duplicated column makes the Gram matrix singular
    x = np.linspace(0, 1, 30)
    X = np.column_stack([x, x])
    model = regress.LinearModel.fit(X, 3.0 * x + 2.0)
    pred = model.predict(X)
    assert np.abs(pred - (3.0 * x + 2.0)).max() < 1e-5


def test_knn_k1_single_row():
    model = regress.KnnModel.fit(np.array([[0.3, 0.4]]), np.array([42.0]), k=1)
    assert model.predict(np.array([[100.0, -5.0]]))[0] == 42.0


def test_knn_mean_of_neighbors():
    X = np.array([[0.0], [1.0], [10.0]])
    model = regress.KnnModel.fit(X, np.array([1.0, 3.0, 100.0]), k=2)
    assert model.predict(np.array([[0.4]]))[0] == 2.0


def test_knn_distance_tie_lowest_index():
    X = np.array([[0.0], [2.0], [2.0]])
    model = regress.KnnModel.fit(X, np.array([0.0, 5.0, 9.0]), k=2)
    # query at 1.0: distances 1, 1, 1 -> rows 0 and 1 win
    assert model.predict(np.array([[1.0]]))[0] == 2.5


def test_dtree_two_value_split():
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    y = np.array([2.0, 4.0, 10.0, 14.0])
    model = regress.TreeModel.fit(X, y)
    assert model.tree.feature[0] == 0
    assert model.tree.threshold[0] == 0.5
    assert model.predict(np.array([[0.0]]))[0] == 3.0
    assert model.predict(np.array([[1.0]]))[0] == 12.0


def test_dtree_zero_training_error_on_distinct_rows():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(60, 4))
    y = rng.uniform(0, 100, size=60)
    model = regress.TreeModel.fit(X, y)
    assert np.abs(model.predict(X) - y).max() == 0.0


def test_dtree_respects_max_depth():
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(200, 3))
    y = rng.uniform(size=200)
    model = regress.TreeModel.fit(X, y, max_depth=2)
    # depth <= 2 means at most 7 nodes
    assert len(model.tree.feature) <= 7


def test_rforest_of_identical_trees_equals_single_tree():
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 10.0])
    tree = regress._grow_tree(X, y)
    forest = regress.ForestModel(1, [tree] * 25)
    q = np.array([[0.2], [0.9]])
    assert np.array_equal(forest.predict(q), tree.predict(q))


def test_gboost_zero_rounds_predicts_mean():
    X = np.array([[0.0], [1.0], [2.0]])
    y = np.array([1.0, 2.0, 6.0])
    model = regress.BoostModel.fit(X, y, n_rounds=0)
    assert model.predict(np.array([[5.0]]))[0] == y.mean()


def test_adaboost_single_learner_is_its_prediction():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(30, 2))
    y = 5.0 * X[:, 0] + rng.normal(0, 0.1, 30)
    model = regress.AdaBoostModel.fit(X, y, seed=0, max_rounds=1)
    assert len(model.trees) == 1
    assert np.array_equal(model.predict(X), model.trees[0].predict(X))


# ---------------------------------------------------------------------------
# facade + spec


@pytest.mark.parametrize("algorithm", regress.ALGORITHMS)
def test_fit_predict_all_algorithms(algorithm):
    rng = np.random.default_rng(10)
    ds = toy_dataset(rng, n=80, noise=0.5)
    model = regress.fit(ModelSpec(algorithm, seed=1), ds)
    pred = regress.predict(model, ds.X[0])
    assert np.isfinite(pred)
    preds = regress.predict_matrix(model, ds.X)
    assert preds.shape == (80,)
    assert np.all(np.isfinite(preds))


def test_fit_empty_dataset_raises():
    ds = RegressionDataset(np.zeros((0, N_FEATURES)), np.zeros(0))
    with pytest.raises(EmptyDataset):
        regress.fit(ModelSpec("linear"), ds)


def test_predict_dimension_mismatch():
    rng = np.random.default_rng(3)
    model = regress.fit(ModelSpec("knn"), toy_dataset(rng, n=10))
    with pytest.raises(DimensionMismatch):
        regress.predict(model, np.zeros(3))


def test_spec_rejects_unknown_algorithm():
    with pytest.raises(ValueError):
        ModelSpec("svm")


def test_spec_rejects_unknown_hyperparameter():
    with pytest.raises(ValueError):
        ModelSpec("knn", hyperparameters={"bogus": 3})


def test_fit_is_deterministic():
    rng = np.random.default_rng(4)
    ds = toy_dataset(rng, n=60, noise=1.0)
    for algorithm in regress.ALGORITHMS:
        spec = ModelSpec(algorithm, seed=7)
        a = regress.fit(spec, ds)
        b = regress.fit(spec, ds)
        assert np.array_equal(regress.predict_matrix(a, ds.X), regress.predict_matrix(b, ds.X))


def test_translation_consistency():
    rng = np.random.default_rng(5)
    ds = toy_dataset(rng, n=60, noise=1.0)
    shift = 123.0
    shifted = RegressionDataset(ds.X.copy(), ds.y + shift)
    q = ds.X[:10]
    for algorithm in regress.ALGORITHMS:
        spec = ModelSpec(algorithm, seed=2)
        base = regress.predict_matrix(regress.fit(spec, ds), q)
        moved = regress.predict_matrix(regress.fit(spec, shifted), q)
        assert np.abs(moved - base - shift).max() < 1e-9, algorithm


def test_rforest_thread_count_does_not_change_predictions():
    rng = np.random.default_rng(6)
    ds = toy_dataset(rng, n=60, noise=1.0)
    q = ds.X[:10]
    spec1 = ModelSpec("rforest", seed=3, hyperparameters={"n_trees": 12, "threads": 1})
    spec8 = ModelSpec("rforest", seed=3, hyperparameters={"n_trees": 12, "threads": 8})
    p1 = regress.predict_matrix(regress.fit(spec1, ds), q)
    p8 = regress.predict_matrix(regress.fit(spec8, ds), q)
    assert np.array_equal(p1, p8)


def test_rforest_depends_only_on_data_and_seed():
    rng = np.random.default_rng(7)
    ds = toy_dataset(rng, n=40)
    spec = ModelSpec("rforest", seed=11, hyperparameters={"n_trees": 8})
    a = regress.fit(spec, ds)
    b = regress.fit(spec, ds)
    for ta, tb in zip(a.trees, b.trees):
        assert np.array_equal(ta.threshold, tb.threshold)
        assert np.array_equal(ta.feature, tb.feature)


# ---------------------------------------------------------------------------
# persistence


@pytest.mark.parametrize("algorithm", regress.ALGORITHMS)
def test_round_trip_bit_identical_predictions(tmp_path, algorithm):
    rng = np.random.default_rng(8)
    ds = toy_dataset(rng, n=50, noise=2.0)
    spec = ModelSpec(
        algorithm,
        seed=9,
        hyperparameters={"n_trees": 10} if algorithm == "rforest" else {},
    )
    model = regress.fit(spec, ds)
    path = tmp_path / f"{algorithm}.json"
    regress.save_model(model, path)
    loaded = regress.load_model(path)
    q = rng.uniform(0, 1, size=(20, N_FEATURES))
    assert np.array_equal(regress.predict_matrix(model, q), regress.predict_matrix(loaded, q))


def test_model_file_layout(tmp_path):
    rng = np.random.default_rng(9)
    model = regress.fit(ModelSpec("linear", seed=0), toy_dataset(rng, n=20))
    path = tmp_path / "m.json"
    regress.save_model(model, path)
    import json

    payload = json.loads(path.read_text())
    assert payload["format"] == "foodcal-regressor"
    assert payload["version"] == 1
    assert payload["algorithm"] == "linear"
    assert "state" in payload and "hyperparameters" in payload


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: p.update(algorithm="xgb"),
        lambda p: p.pop("state"),
        lambda p: p["state"].pop("coef"),
    ],
    ids=["unknown-algorithm", "no-state", "no-coef"],
)
def test_from_dict_rejects_malformed_payload(corrupt):
    rng = np.random.default_rng(9)
    payload = regress.to_dict(regress.fit(ModelSpec("linear"), toy_dataset(rng, n=20)))
    corrupt(payload)
    with pytest.raises(DataError):
        regress.from_dict(payload)
