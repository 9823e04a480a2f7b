import base64
import copy
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
# per-node CART: the split search and growth that the batched kernel
# replaced, kept as its oracle


def _best_split(X, y, feat_ids, min_leaf):
    """(feature, threshold, split_sse, parent_sse) of one node's rows, a
    feature at a time; feature is -1 when no candidate satisfies the
    leaf-size constraint."""
    n = X.shape[0]
    best_feat = -1
    best_thr = 0.0
    best_score = np.inf
    parent_sse = np.inf
    nl = np.arange(1, n, dtype=np.int64)
    nr = n - nl
    for f in feat_ids:
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        vs = col[order]
        ys = y[order]
        cum = np.cumsum(ys)
        cumsq = np.cumsum(ys * ys)
        total = cum[-1]
        total_sq = cumsq[-1]
        parent_sse = total_sq - total * total / n
        tol = regress._TIE_REL * (1.0 + abs(parent_sse))
        valid = (vs[1:] > vs[:-1]) & (nl >= min_leaf) & (nr >= min_leaf)
        if not valid.any():
            continue
        sl = cum[:-1]
        sql = cumsq[:-1]
        sse_l = sql - sl * sl / nl
        sr = total - sl
        sqr = total_sq - sql
        sse_r = sqr - sr * sr / nr
        score = np.where(valid, sse_l + sse_r, np.inf)
        min_score = score.min()
        i = int(np.argmax(score <= min_score + tol))  # first tied candidate
        if score[i] < best_score - tol:
            best_score = float(score[i])
            best_feat = int(f)
            thr = (vs[i] + vs[i + 1]) / 2.0
            if thr == vs[i + 1]:
                thr = vs[i]
            best_thr = float(thr)
    return best_feat, best_thr, best_score, parent_sse


def _grow_tree(X, y, *, max_depth=None, min_samples_leaf=1, rng=None, n_subset=None):
    """One tree grown a node at a time in preorder, into a one-tree pack."""
    p = X.shape[1]
    all_feats = np.arange(p, dtype=np.int64)
    feature, split, right = [], [], []
    stack = [(np.arange(len(y), dtype=np.int64), 0, -1)]  # rows, depth, node whose right child this is
    while stack:
        idx, depth, right_of = stack.pop()
        ys = y[idx]
        node = len(feature)
        feature.append(-1)
        split.append(float(ys.mean()))
        right.append(-1)
        if right_of >= 0:
            right[right_of] = node
        if len(idx) < max(2, 2 * min_samples_leaf):
            continue
        if max_depth is not None and depth >= max_depth:
            continue
        if np.all(ys == ys[0]):
            continue
        if n_subset is None:
            feats = all_feats
        else:
            feats = np.sort(rng.choice(p, size=min(n_subset, p), replace=False)).astype(np.int64)
        f, thr, score, parent_sse = _best_split(X[idx], ys, feats, min_samples_leaf)
        if f < 0 or not parent_sse - score > 0:
            continue
        go_left = X[idx, f] <= thr
        li = idx[go_left]
        ri = idx[~go_left]
        if len(li) == 0 or len(ri) == 0:
            continue
        feature[node] = int(f)
        split[node] = float(thr)
        stack.append((ri, depth + 1, node))
        stack.append((li, depth + 1, -1))  # popped next, so it is node + 1
    return regress._Trees(feature, split, right, [0])


def oracle_grow(cols, y, rows=None, *, max_depth=None, min_samples_leaf=1, rngs=None, n_subset=None):
    """``regress._grow`` through the oracle: each tree grown alone, in turn."""
    X = cols[0][:-1]
    rows = np.arange(len(y))[None] if rows is None else rows
    return regress._Trees.concat([
        _grow_tree(X[line], y[line], max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                   rng=None if rngs is None else rngs[t], n_subset=n_subset)
        for t, line in enumerate(rows)
    ])


def packed_bytes(model):
    trees = model.tree if model.algorithm == "dtree" else model.trees
    return {key: getattr(trees, key).tobytes() for key in ("feature", "right", "roots", "split")}


VALUES = (-1.0, 0.0, 0.5, 1.0, 2.5, np.inf, np.nan)  # a small grid, so that values tie often
TARGETS = (0.0, 1.0, 3.0, -7.25, 10.0)


@st.composite
def cart_cases(draw):
    """A small dataset whose ties, duplicate rows, constant columns and
    constant targets are common, with growth settings and a few nodes."""
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 9))
    X = np.array(draw(st.lists(st.sampled_from(VALUES), min_size=n * p, max_size=n * p))).reshape(n, p)
    target = st.sampled_from(TARGETS) | st.floats(-100.0, 100.0, allow_nan=False)
    y = np.array(draw(st.lists(target, min_size=n, max_size=n)))
    growth = {
        "max_depth": draw(st.sampled_from([None, 0, 1, 2, 3, 4])),
        "min_samples_leaf": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2**16)),
        "n_trees": draw(st.integers(2, 5)),
        "rounds": draw(st.integers(1, 4)),
    }
    node = st.lists(st.integers(0, n - 1), min_size=2, max_size=max(2, n))  # rows may repeat, as in a bootstrap
    feats = st.lists(st.integers(0, p - 1), min_size=1, max_size=p, unique=True).map(sorted)
    nodes = draw(st.lists(st.tuples(node, feats), min_size=1, max_size=4))
    return X, y, growth, nodes


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cart_cases())
def test_batched_growth_matches_the_per_node_oracle(case):
    X, y, growth, nodes = case
    leaf, depth = growth["min_samples_leaf"], growth["max_depth"]
    fits = [
        lambda: regress.TreeModel.fit(X, y, max_depth=depth, min_samples_leaf=leaf),
        lambda: regress.ForestModel.fit(X, y, seed=growth["seed"], n_trees=growth["n_trees"], max_depth=depth,
                                        min_samples_leaf=leaf),
        lambda: regress.BoostModel.fit(X, y, n_rounds=growth["rounds"], max_depth=depth),
        lambda: regress.AdaBoostModel.fit(X, y, seed=growth["seed"], max_rounds=growth["rounds"],
                                          max_depth=depth),
    ]
    for fit in fits:
        batched = fit()
        with mock.patch.object(regress, "_grow", oracle_grow):
            assert packed_bytes(batched) == packed_bytes(fit())

    # the kernel on its own, for nodes of any sizes in one padded batch
    Xp, ranks = regress._columns(X)
    width = max(len(rows) for rows, _ in nodes)
    rows = np.full((len(nodes), width), len(X))
    for b, (node_rows, _) in enumerate(nodes):
        rows[b, : len(node_rows)] = node_rows
    n_rows = np.array([len(node_rows) for node_rows, _ in nodes])
    for n_feats in {1, min(len(f) for _, f in nodes)}:
        feats = np.array([f[:n_feats] for _, f in nodes])
        got = regress._split_search(Xp, ranks, np.append(y, 0.0), rows, n_rows, feats, leaf)
        for b, (node_rows, _) in enumerate(nodes):
            want = _best_split(X[node_rows], y[node_rows], feats[b], leaf)
            assert [np.float64(v[b]).tobytes() for v in got] == [np.float64(v).tobytes() for v in want]


@pytest.mark.parametrize("algorithm", ["dtree", "rforest", "gboost", "adaboost"])
def test_batched_growth_matches_the_oracle_on_larger_nodes(algorithm):
    # leaves of 8 rows and more take numpy's pairwise sum, and rounds of
    # many nodes take several chunks of padded rows
    rng = np.random.default_rng(19)
    ds = toy_dataset(rng, n=150, noise=1.0)
    spec = ModelSpec(algorithm, seed=3, hyperparameters={"n_trees": 20} if algorithm == "rforest" else {})
    batched = packed_bytes(regress.fit(spec, ds))
    with mock.patch.object(regress, "_grow", oracle_grow):
        assert batched == packed_bytes(regress.fit(spec, ds))


def test_forest_trees_do_not_depend_on_the_trees_beside_them():
    rng = np.random.default_rng(16)
    ds = toy_dataset(rng, n=80, noise=1.0)
    full = regress.ForestModel.fit(ds.X, ds.y, seed=5, n_trees=100).trees
    for k in (1, 7):
        first = regress.ForestModel(N_FEATURES, [full[t] for t in range(k)])
        assert packed_bytes(regress.ForestModel.fit(ds.X, ds.y, seed=5, n_trees=k)) == packed_bytes(first)


@pytest.mark.parametrize("algorithm", ["dtree", "rforest", "gboost", "adaboost"])
def test_trees_do_not_depend_on_the_chunk_size(algorithm, monkeypatch):
    rng = np.random.default_rng(17)
    ds = toy_dataset(rng, n=90, noise=1.0)
    spec = ModelSpec(algorithm, seed=2, hyperparameters={"n_trees": 12} if algorithm == "rforest" else {})
    whole = packed_bytes(regress.fit(spec, ds))
    monkeypatch.setattr(regress, "_CHUNK_CELLS", 1)  # one node per split search
    assert packed_bytes(regress.fit(spec, ds)) == whole


def test_forest_trees_do_not_depend_on_the_draw_block(monkeypatch):
    rng = np.random.default_rng(20)
    ds = toy_dataset(rng, n=90, noise=1.0)
    spec = ModelSpec("rforest", seed=4, hyperparameters={"n_trees": 12, "min_samples_leaf": 2})
    whole = packed_bytes(regress.fit(spec, ds))
    monkeypatch.setattr(regress, "_DRAW_BLOCK", 1)  # one subset per draw
    assert packed_bytes(regress.fit(spec, ds)) == whole


def _assert_subsets_are_choice_calls(seed, n, p, k, m):
    """A block of ``m`` subsets equals ``m`` sorted ``choice`` calls, drawn
    after an ``n``-row bootstrap as ``ForestModel.fit`` draws them, and
    leaves the generator where the calls leave it."""
    calls, blocks = ([np.random.default_rng((seed, t)) for t in range(2)] for _ in range(2))
    for rng in calls + blocks:
        rng.integers(0, n, size=n)
    want = [[np.sort(rng.choice(p, size=k, replace=False)) for _ in range(m)] for rng in calls]
    got = regress._feature_subsets(blocks, p, k, m)
    assert got.shape == (2, m, k)
    assert got.tolist() == np.array(want).tolist()
    assert [rng.integers(0, 2**40) for rng in blocks] == [rng.integers(0, 2**40) for rng in calls]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_feature_subsets_are_the_choice_calls_they_replace(data):
    p = data.draw(st.integers(1, 64))
    k = data.draw(st.integers(1, p))
    _assert_subsets_are_choice_calls(data.draw(st.integers(0, 2**16)), data.draw(st.integers(1, 700)), p, k,
                                     data.draw(st.integers(1, 9)))


@pytest.mark.parametrize("k", [1, 3, 500, 3333])
def test_feature_subsets_are_choice_calls_up_to_ten_thousand_features(k):
    # above 10000 items, choice shuffles a tail of arange(p) instead
    _assert_subsets_are_choice_calls(8, 644, 10000, k, 2)


def test_forest_fit_memory_stays_bounded():
    # 507 rows, as in the paper-sized training split; an uncapped batch of
    # every tree's frontier peaked near 24 MB
    rng = np.random.default_rng(18)
    ds = toy_dataset(rng, n=507, noise=1.0)
    tracemalloc.start()
    try:
        regress.ForestModel.fit(ds.X, ds.y, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# ---------------------------------------------------------------------------
# CART split search, seen through the root of a depth-1 tree


def root_split(X, y):
    """(feature, threshold) at the root of a depth-1 tree; feature -1 means
    the root is a leaf."""
    X = np.asarray(X, dtype=np.float64)
    tree = regress.TreeModel.fit(X, np.asarray(y, dtype=np.float64), max_depth=1).tree
    return int(tree.feature[0]), float(tree.threshold[0])


def test_split_none_when_targets_equal():
    X = np.array([[0.0], [1.0], [2.0]])
    assert root_split(X, [5.0, 5.0, 5.0])[0] == -1


def test_split_midpoint_of_two_values():
    assert root_split(np.array([[0.0], [1.0]]), [0.0, 10.0]) == (0, 0.5)


def test_split_tie_prefers_lower_feature_index():
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert root_split(X, [0.0, 10.0]) == (0, 0.5)


def test_split_tie_prefers_lower_threshold():
    # y symmetric around the middle: splitting at 0.5 or 1.5 gives equal SSE
    X = np.array([[0.0], [1.0], [2.0]])
    assert root_split(X, [0.0, 5.0, 10.0]) == (0, 0.5)


def test_split_threshold_never_rounds_onto_the_upper_value():
    # the midpoint of 1 + 2**-52 and 1 + 2**-51 rounds to the upper value,
    # which would send both rows left; the lower value splits them
    lo, hi = 1.0 + 2.0**-52, 1.0 + 2.0**-51
    assert root_split(np.array([[lo], [hi]]), [0.0, 10.0]) == (0, lo)


def test_split_constant_feature_gives_none():
    X = np.array([[3.0], [3.0], [3.0]])
    assert root_split(X, [0.0, 5.0, 9.0])[0] == -1


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


def test_weighted_median_negative_weight_raises():
    with pytest.raises(ValueError, match="non-negative"):
        regress.weighted_median([1.0, 2.0], [1.0, -0.5])


def _weighted_median_oracle(values, weights) -> float:
    """The per-row weighted median that ``weighted_medians`` replaced: a
    stable argsort, a cumsum and a searchsorted for half the total."""
    v, w = np.asarray(values, dtype=np.float64), np.asarray(weights, dtype=np.float64)
    order = np.argsort(v, kind="stable")
    i = int(np.searchsorted(np.cumsum(w[order]), 0.5 * w.sum()))
    return float(v[order[min(i, len(v) - 1)]])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 9).flatmap(lambda m: st.tuples(
    st.lists(st.lists(st.sampled_from([-1.5, 0.0, 2.0, 2.5, 7.0]), min_size=m, max_size=m), min_size=1, max_size=40),
    st.lists(st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0]), min_size=m, max_size=m).filter(any))),
    st.sampled_from([1, 5, 64, None]))
def test_weighted_medians_are_the_per_row_oracle(case, cells):
    # tied values, zero weights and blocks of one row up to all of them
    rows, weights = case
    expected = [_weighted_median_oracle(row, weights) for row in rows]
    with mock.patch.object(regress, "_PREDICT_CELLS", cells or regress._PREDICT_CELLS):
        assert regress.weighted_medians(np.array(rows), weights).tolist() == expected
    assert [regress.weighted_median(row, weights) for row in rows] == expected


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


def test_linear_predicts_each_row_alike_in_any_batch():
    # a BLAS gemv once gave some rows different last bits when they were
    # predicted one at a time rather than in one batch
    rng = np.random.default_rng(3)
    X = rng.uniform(-50.0, 500.0, size=(400, 9))
    model = regress.LinearModel.fit(X, X @ rng.normal(size=9) + rng.normal(size=400))
    batch = model.predict(X)
    singles = np.concatenate([model.predict(X[r : r + 1]) for r in range(len(X))])
    assert np.array_equal(batch, singles)


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


def _knn_oracle(model, X) -> np.ndarray:
    """The per-row knn prediction that the batched one replaced."""
    k = min(model.k, len(model.y))
    out = np.empty(X.shape[0])
    for r in range(X.shape[0]):
        d2 = ((model.X - X[r]) ** 2).sum(axis=1)
        order = np.argsort(d2, kind="stable")
        out[r] = model.y[order[:k]].mean()
    return out


@pytest.mark.parametrize("kind", ["tied", "real", "duplicated"])
@pytest.mark.parametrize("k", [1, 5, 12, 80])
def test_knn_batch_prediction_is_the_per_row_loop(kind, k):
    # 150 query rows over 70 training rows of 9 columns take several blocks;
    # on the grid many distances tie exactly, and ties go to the lowest row;
    # duplicated training rows tie at every distance, often at the k-th, and
    # half the queries sit on a training row
    rng = np.random.default_rng(k)
    if kind == "tied":
        draw = lambda *shape: rng.integers(0, 3, shape).astype(float)
    else:
        draw = lambda *shape: rng.uniform(-1e3, 1e3, shape)
    train = draw(70, N_FEATURES)
    X = draw(150, N_FEATURES)
    if kind == "duplicated":
        train = train[rng.integers(0, 20, 70)]
        X[::2] = train[rng.integers(0, 70, 75)]
    model = regress.KnnModel.fit(train, rng.uniform(0, 500, 70), k=k)
    assert regress._PREDICT_CELLS // model.X.size < len(X) // 2
    assert np.array_equal(model.predict(X), _knn_oracle(model, X))


def test_knn_nan_distances_rank_last_as_in_a_stable_argsort():
    # a NaN query column makes every distance of its row NaN; a NaN training
    # entry makes that training row's distance NaN for every query
    rng = np.random.default_rng(3)
    train = rng.uniform(0, 1, (40, 3))
    train[[4, 17, 30], 1] = np.nan
    model = regress.KnnModel.fit(train, rng.uniform(0, 500, 40), k=5)
    X = rng.uniform(0, 1, (12, 3))
    X[[2, 7], 0] = np.nan
    got = model.predict(X)
    assert np.array_equal(got, _knn_oracle(model, X)) and np.isfinite(got).all()
    model.k = 39  # more than the 37 finite distances of a row
    assert np.array_equal(model.predict(X), _knn_oracle(model, X))


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
    tree = _grow_tree(X, y)
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


def test_adaboost_batch_prediction_is_the_per_row_weighted_median():
    # 30 rounds that repeat 6 fitted trees, so the rounds' predictions of a
    # row tie, and every third round carries no weight
    data = toy_dataset(np.random.default_rng(6), n=900)
    fitted = regress.AdaBoostModel.fit(data.X, data.y, seed=3, max_rounds=6, max_depth=2)
    assert len(fitted.trees) == 6
    rounds = np.random.default_rng(7).integers(0, len(fitted.trees), 30)
    weights = np.resize(fitted.log_weights, 30)
    weights[::3] = 0.0
    model = regress.AdaBoostModel(N_FEATURES, [fitted.trees[t] for t in rounds], weights)
    preds = model.trees.leaves(data.X)
    assert len(data) > regress._PREDICT_CELLS // len(model.trees)  # more than one block
    expected = [_weighted_median_oracle(preds[:, r], weights) for r in range(len(data))]
    assert model.predict(data.X).tolist() == expected


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


OUT_OF_RANGE = [
    ("linear", "ridge", -1e-8), ("linear", "ridge", float("inf")), ("linear", "ridge", "0.1"),
    ("knn", "k", 0), ("knn", "k", True), ("knn", "k", 2.0),
    ("dtree", "max_depth", -1), ("dtree", "max_depth", 2.5), ("dtree", "min_samples_leaf", 0),
    ("rforest", "n_trees", 0), ("rforest", "n_trees", False), ("rforest", "min_samples_leaf", -3),
    ("gboost", "n_rounds", -1), ("gboost", "learning_rate", 0.0), ("gboost", "learning_rate", float("nan")),
    ("gboost", "learning_rate", True), ("gboost", "learning_rate", 10**400), ("adaboost", "max_rounds", 0),
    ("adaboost", "max_depth", "3"), ("rforest", "n_trees", 2**63), ("linear", "ridge", 2**64),
]


@pytest.mark.parametrize("algorithm, name, value", OUT_OF_RANGE, ids=[f"{a}-{n}-{v!r}" for a, n, v in OUT_OF_RANGE])
def test_hyperparameter_out_of_range_is_named_before_any_work(algorithm, name, value):
    with pytest.raises(ValueError, match=f"hyperparameter {name} must be"):
        ModelSpec(algorithm, hyperparameters={name: value})
    # no array is touched before the check: X and y are not arrays at all
    with pytest.raises(ValueError, match=f"hyperparameter {name} must be"):
        regress._MODEL_CLASSES[algorithm].fit(None, None, **{name: value})


def test_hyperparameters_in_range_fit():
    rng = np.random.default_rng(6)
    ds = toy_dataset(rng, n=30)
    for algorithm, hyper in [
        ("rforest", {"n_trees": np.int64(2), "max_depth": None, "min_samples_leaf": 1}),
        ("gboost", {"n_rounds": 0, "learning_rate": np.float32(0.5), "max_depth": 0}),
        ("linear", {"ridge": 0}),
        ("knn", {"k": 1}),
    ]:
        regress.fit(ModelSpec(algorithm, hyperparameters=hyper), ds)


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


def test_rforest_depends_only_on_data_and_seed():
    rng = np.random.default_rng(7)
    ds = toy_dataset(rng, n=40)
    spec = ModelSpec("rforest", seed=11, hyperparameters={"n_trees": 8})
    a = regress.fit(spec, ds)
    b = regress.fit(spec, ds)
    for ta, tb in zip(a.trees, b.trees):
        assert np.array_equal(ta.threshold, tb.threshold)
        assert np.array_equal(ta.feature, tb.feature)



@pytest.mark.parametrize("algorithm", ["rforest", "gboost", "adaboost"])
def test_tree_ensemble_row_predictions_do_not_depend_on_batch_size(algorithm):
    # one row alone, in twos and in the full batch must round alike
    rng = np.random.default_rng(8)
    ds = toy_dataset(rng, n=80, noise=1.0)
    model = regress.fit(ModelSpec(algorithm, seed=1), ds)
    batch = regress.predict_matrix(model, ds.X)
    single = np.array([regress.predict(model, x) for x in ds.X])
    pairs = np.concatenate([regress.predict_matrix(model, ds.X[i : i + 2]) for i in range(0, 80, 2)])
    assert np.array_equal(single, batch)
    assert np.array_equal(pairs, batch)

# ---------------------------------------------------------------------------
# persistence


@pytest.mark.parametrize("algorithm", regress.ALGORITHMS)
def test_round_trip_bit_identical_predictions(algorithm):
    rng = np.random.default_rng(8)
    ds = toy_dataset(rng, n=50, noise=2.0)
    spec = ModelSpec(
        algorithm,
        seed=9,
        hyperparameters={"n_trees": 10} if algorithm == "rforest" else {},
    )
    model = regress.fit(spec, ds)
    loaded = regress.from_dict(json.loads(json.dumps(regress.to_dict(model))))
    q = rng.uniform(0, 1, size=(20, N_FEATURES))
    assert np.array_equal(regress.predict_matrix(model, q), regress.predict_matrix(loaded, q))


def test_model_file_layout():
    rng = np.random.default_rng(9)
    model = regress.fit(ModelSpec("linear", seed=0), toy_dataset(rng, n=20))
    payload = json.loads(json.dumps(regress.to_dict(model)))
    assert payload["format"] == "foodcal-regressor"
    assert payload["version"] == 2
    assert payload["algorithm"] == "linear"
    assert "state" in payload and "hyperparameters" in payload


def _set_state(**values):
    return lambda p: p["state"].update(values)


def _map_state(key, convert):
    return lambda p: p["state"].update({key: convert(p["state"][key])})


def _bool_for_first_bit(values):
    """Put the bool of the same value in place of the first 0 or 1."""
    k = next(k for k, v in enumerate(values) if v in (0, 1))
    values[k] = bool(values[k])


# corruption of a fitted model's payload: the algorithm fitted, the edit,
# and text the error must contain
MALFORMED = {
    "unknown-algorithm": ("linear", lambda p: p.update(algorithm="xgb"), "unknown algorithm 'xgb'"),
    "no-state": ("linear", lambda p: p.pop("state"), "state must be an object"),
    "no-coef": ("linear", lambda p: p["state"].pop("coef"), "'coef'"),
    "linear-string-intercept": ("linear", _set_state(intercept="1"), "linear intercept"),
    "linear-bool-coef": ("linear", _map_state("coef", lambda c: [True] * len(c)), "linear coef"),
    "knn-string-k": ("knn", _set_state(k="3"), "knn k"),
    "knn-fractional-k": ("knn", _set_state(k=2.5), "knn k"),
    "knn-bool-k": ("knn", _set_state(k=True), "knn k"),
    "knn-string-X": ("knn", _map_state("X", lambda X: [[str(v) for v in row] for row in X]), "knn X"),
    "knn-bool-X": ("knn", _map_state("X", lambda X: [[bool(v) for v in row] for row in X]), "knn X"),
    "knn-string-y": ("knn", _map_state("y", lambda y: [str(v) for v in y]), "knn y"),
    "knn-bool-y": ("knn", _map_state("y", lambda y: [True] * len(y)), "knn y"),
    "gboost-string-rate": ("gboost", _set_state(learning_rate="0.1"), "gboost learning_rate"),
    "gboost-bool-rate": ("gboost", _set_state(learning_rate=True), "gboost learning_rate"),
    "gboost-bool-init": ("gboost", _set_state(init=False), "gboost init"),
    "adaboost-bool-weights": ("adaboost", _map_state("log_weights", lambda w: [True] * len(w)), "log_weights"),
    "adaboost-negative-weights": ("adaboost", _map_state("log_weights", lambda w: [-1.0] * len(w)), "log_weights"),
    "adaboost-zero-weights": ("adaboost", _map_state("log_weights", lambda w: [0.0] * len(w)), "log_weights"),
    # true and 1.0 equal 1; a tree model of version 1.0 went to the v1 reader
    "bool-version": ("linear", lambda p: p.update(version=True), "model version must be an integer"),
    "float-version": ("dtree", lambda p: p.update(version=1.0), "model version must be an integer"),
    "float-n-features": ("linear", lambda p: p.update(n_features=9.0), "n_features must be an integer"),
    "huge-n-features": ("rforest", lambda p: p.update(n_features=10**30), "n_features must be an integer"),
    "string-seed": ("linear", lambda p: p.update(seed="abc"), "seed must be an integer >= 0"),
    "list-seed": ("linear", lambda p: p.update(seed=[1]), "seed must be an integer >= 0"),
    "negative-seed": ("linear", lambda p: p.update(seed=-5), "seed must be an integer >= 0"),
    "list-hyperparameters": ("linear", lambda p: p.update(hyperparameters=[]), "malformed foodcal-regressor payload"),
    # a null value of an unknown name once loaded: it equals the None of a missing default
    "null-unknown-hyperparameter": ("knn", lambda p: p.update(hyperparameters={"k": 5, "bogus": None}),
                                    "unknown hyperparameters for knn: ['bogus']"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_from_dict_rejects_malformed_payload(case):
    algorithm, corrupt, message = MALFORMED[case]
    rng = np.random.default_rng(9)
    spec = ModelSpec(algorithm, hyperparameters={"n_trees": 3} if algorithm == "rforest" else {})
    payload = regress.to_dict(regress.fit(spec, toy_dataset(rng, n=20)))
    corrupt(payload)
    with pytest.raises(DataError, match=re.escape(message)):
        regress.from_dict(payload)


# ---------------------------------------------------------------------------
# packed trees: scalar-walk oracle, v1 compatibility, structure checks


def walk(tree: dict, x) -> float:
    """One row down one tree in the v1 per-tree layout, a node at a time:
    the per-row loop that the packed traversal replaced, kept as its oracle."""
    i = 0
    while tree["feature"][i] >= 0:
        if x[tree["feature"][i]] <= tree["threshold"][i]:
            i = tree["left"][i]
        else:
            i = tree["right"][i]
    return tree["value"][i]


def v1_tree(pack) -> dict:
    """The v1 per-tree node lists of a one-tree pack."""
    inner = pack.feature >= 0
    n = len(pack.feature)
    return {
        "feature": pack.feature.tolist(),
        "threshold": pack.threshold.tolist(),
        "left": np.where(inner, np.arange(n) + 1, -1).tolist(),
        "right": pack.right.tolist(),
        "value": np.where(inner, 0.0, pack.split).tolist(),
    }


def v1_payload(algorithm, n_features, state, hyperparameters=None) -> dict:
    return {
        "format": "foodcal-regressor",
        "version": 1,
        "algorithm": algorithm,
        "seed": 0,
        "hyperparameters": hyperparameters or {},
        "n_features": n_features,
        "state": state,
    }


def v1_state(model) -> dict:
    """The v1 state of a fitted tree model."""
    if model.algorithm == "dtree":
        return {"tree": v1_tree(model.tree)}
    state = {"trees": [v1_tree(t) for t in model.trees]}
    if model.algorithm == "gboost":
        state = {"init": model.init, "learning_rate": model.learning_rate, **state}
    if model.algorithm == "adaboost":
        state = {"log_weights": model.log_weights.tolist(), **state}
    return state


GRID = (-1.0, 0.0, 0.5, 1.0, 2.5)  # thresholds and row values, so rows tie with thresholds


@st.composite
def v1_trees(draw, n_features, max_depth=6):
    """A random tree in the v1 layout, from a single leaf to depth 6."""
    tree = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}

    def grow(depth):
        node = len(tree["feature"])
        tree["feature"].append(-1)
        tree["threshold"].append(0.0)
        tree["left"].append(-1)
        tree["right"].append(-1)
        tree["value"].append(draw(st.floats(-1e3, 1e3)))
        if depth < max_depth and draw(st.booleans()):
            tree["feature"][node] = draw(st.integers(0, n_features - 1))
            tree["threshold"][node] = draw(st.sampled_from(GRID))
            tree["left"][node] = grow(depth + 1)
            tree["right"][node] = grow(depth + 1)
        return node

    grow(0)
    return tree


@st.composite
def ensembles(draw):
    p = draw(st.integers(1, 4))
    trees = draw(st.lists(v1_trees(p), min_size=1, max_size=6))
    rows = draw(st.lists(st.lists(st.sampled_from(GRID), min_size=p, max_size=p), min_size=1, max_size=8))
    weights = draw(st.lists(st.floats(0.01, 5.0), min_size=len(trees), max_size=len(trees)))
    return p, trees, np.array(rows), weights


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(ensembles())
def test_packed_predictions_match_scalar_walk(case):
    p, trees, X, weights = case
    oracle = np.array([[walk(t, x) for x in X] for t in trees])  # (trees, rows)

    rf = regress.from_dict(v1_payload("rforest", p, {"trees": trees}))
    assert np.array_equal(rf.trees.leaves(X), oracle)
    assert np.array_equal(np.stack([t.predict(X) for t in rf.trees]), oracle)
    assert np.array_equal(rf.predict(X), oracle.mean(axis=0))

    gb = regress.from_dict(v1_payload("gboost", p, {"init": 3.0, "learning_rate": 0.1, "trees": trees}))
    expected = np.full(len(X), 3.0)
    for row in oracle:
        expected = expected + 0.1 * row
    assert np.array_equal(gb.predict(X), expected)

    ada = regress.from_dict(v1_payload("adaboost", p, {"log_weights": weights, "trees": trees}))
    medians = [regress.weighted_median(oracle[:, r], weights) for r in range(len(X))]
    assert np.array_equal(ada.predict(X), medians)

    dt = regress.from_dict(v1_payload("dtree", p, {"tree": trees[0]}))
    assert np.array_equal(dt.predict(X), oracle[0])

    for model in (rf, gb, ada, dt):
        again = regress.from_dict(regress.to_dict(model))
        assert np.array_equal(again.predict(X), model.predict(X))


# v1 payloads as the previous layout wrote them, with their predictions for
# V1_QUERY, for a 2-feature toy problem
V1_QUERY = [[0.5, 0.5], [2.0, 1.0], [3.5, 2.5], [6.0, 0.0]]
V1_WRITTEN = {
    "dtree": (
        {"tree": {"feature": [0, 1, -1, -1, 1, -1, -1], "threshold": [2.5, 0.5, 0.0, 0.0, 2.0, 0.0, 0.0],
                  "left": [1, 2, -1, -1, 5, -1, -1], "right": [4, 3, -1, -1, 6, -1, -1],
                  "value": [4.833333333333333, 2.3333333333333335, 4.0, 1.5, 7.333333333333333, 8.5, 5.0]}},
        [4.0, 1.5, 5.0, 8.5],
    ),
    "rforest": (
        {"trees": [{"feature": [1, -1, 1, -1, -1], "threshold": [0.5, 0.0, 2.5, 0.0, 0.0],
                    "left": [1, -1, 3, -1, -1], "right": [2, -1, 4, -1, -1],
                    "value": [4.333333333333333, 9.0, 3.4, 3.0, 5.0]},
                   {"feature": [1, 0, -1, -1, -1], "threshold": [1.5, 2.0, 0.0, 0.0, 0.0],
                    "left": [1, 2, -1, -1, -1], "right": [4, 3, -1, -1, -1],
                    "value": [6.333333333333333, 7.2, 4.0, 8.0, 2.0]}]},
        [6.5, 3.5, 2.5, 8.5],
    ),
    "gboost": (
        {"init": 4.833333333333333, "learning_rate": 0.1,
         "trees": [{"feature": [0, -1, -1], "threshold": [2.5, 0.0, 0.0], "left": [1, -1, -1],
                    "right": [2, -1, -1],
                    "value": [2.9605947323337506e-16, -2.4999999999999996, 2.5000000000000004]},
                   {"feature": [0, -1, -1], "threshold": [2.5, 0.0, 0.0], "left": [1, -1, -1],
                    "right": [2, -1, -1],
                    "value": [2.9605947323337506e-16, -2.2499999999999996, 2.2500000000000004]}]},
        [4.358333333333333, 4.358333333333333, 5.308333333333333, 5.308333333333333],
    ),
    "adaboost": (
        {"log_weights": [0.5596157879354223],
         "trees": [{"feature": [0, -1, -1], "threshold": [2.5, 0.0, 0.0], "left": [1, -1, -1],
                    "right": [2, -1, -1], "value": [5.5, 2.3333333333333335, 8.666666666666666]}]},
        [2.3333333333333335, 2.3333333333333335, 8.666666666666666, 8.666666666666666],
    ),
}


@pytest.mark.parametrize("algorithm", sorted(V1_WRITTEN))
def test_v1_written_payload_predicts_as_before(algorithm):
    state, expected = V1_WRITTEN[algorithm]
    model = regress.from_dict(v1_payload(algorithm, 2, state))
    assert regress.predict_matrix(model, V1_QUERY).tolist() == expected
    resaved = regress.to_dict(model)
    assert resaved["version"] == 2
    assert regress.predict_matrix(regress.from_dict(resaved), V1_QUERY).tolist() == expected


@pytest.mark.parametrize("algorithm", ["dtree", "rforest", "gboost", "adaboost"])
def test_v1_payload_loads_bit_identical_to_v2_resave(algorithm):
    rng = np.random.default_rng(12)
    ds = toy_dataset(rng, n=50, noise=2.0)
    hyper = {"n_trees": 10} if algorithm == "rforest" else {}
    model = regress.fit(ModelSpec(algorithm, seed=4, hyperparameters=hyper), ds)
    v1 = regress.from_dict(v1_payload(algorithm, N_FEATURES, v1_state(model), hyper))
    v2 = regress.from_dict(regress.to_dict(v1))
    q = rng.uniform(0, 1, size=(30, N_FEATURES))
    expected = regress.predict_matrix(model, q)
    assert np.array_equal(regress.predict_matrix(v1, q), expected)
    assert np.array_equal(regress.predict_matrix(v2, q), expected)
    assert regress.to_dict(v2)["state"] == regress.to_dict(model)["state"]


def test_v2_forest_state_lists_one_feature_per_node():
    rng = np.random.default_rng(13)
    model = regress.fit(ModelSpec("rforest", seed=1, hyperparameters={"n_trees": 7}), toy_dataset(rng, n=60))
    state = regress.to_dict(model)["state"]
    nodes = sum(len(t.feature) for t in model.trees)
    assert len(state["feature"]) == nodes == len(model.trees.feature)
    assert len(state["roots"]) == 7
    assert len(base64.b64decode(state["right"])) == 4 * nodes
    assert len(base64.b64decode(state["split"])) == 8 * nodes


def test_gboost_of_zero_rounds_round_trips():
    X = np.array([[0.0], [1.0], [2.0]])
    model = regress.BoostModel.fit(X, np.array([1.0, 2.0, 6.0]), n_rounds=0)
    again = regress.from_dict(regress.to_dict(model))
    assert again.predict(np.array([[5.0]]))[0] == 3.0


@pytest.mark.parametrize("algorithm", ["dtree", "rforest", "gboost", "adaboost"])
def test_predict_in_row_blocks_is_bit_identical(algorithm, monkeypatch):
    rng = np.random.default_rng(5)
    model = regress.fit(ModelSpec(algorithm, seed=3), toy_dataset(rng, n=60))
    X = rng.uniform(0, 1, size=(10, N_FEATURES))
    whole = model.predict(X)
    monkeypatch.setattr(regress, "_BLOCK_ROWS", 3)
    walk, blocks = regress._Trees._walk, []  # the rows of each block walked

    def counted_walk(self, X):
        blocks.append(X.shape[0])
        return walk(self, X)

    monkeypatch.setattr(regress._Trees, "_walk", counted_walk)
    assert np.array_equal(model.predict(X), whole)
    assert blocks == [3, 3, 3, 1]


def _recode(state, key, edit):
    dtype = {"right": "<i4", "split": "<f8"}[key]
    values = np.frombuffer(base64.b64decode(state[key]), dtype=dtype).copy()
    edit(values, state)
    state[key] = base64.b64encode(values.tobytes()).decode("ascii")


def _give_first_leaf_a_child(right, state):
    k = state["feature"].index(-1)
    right[k] = k + 1


def _set(a, k, v):
    a[k] = v


BAD_ROOTS = "roots must start at node 0"
BAD_RIGHT = "breaks the preorder layout"

# corruption of a v2 rforest state, and the error it must raise
V2_CORRUPTIONS = {
    "root-points-at-itself": (lambda s: _recode(s, "right", lambda a, s: _set(a, 0, 0)), BAD_RIGHT),
    "right-child-is-left-child": (lambda s: _recode(s, "right", lambda a, s: _set(a, 0, 1)), BAD_RIGHT),
    "right-child-in-next-tree": (
        lambda s: _recode(s, "right", lambda a, s: _set(a, 0, s["roots"][1])), BAD_RIGHT
    ),
    "right-child-past-end": (lambda s: _recode(s, "right", lambda a, s: _set(a, 0, 10**6)), BAD_RIGHT),
    "leaf-with-child": (lambda s: _recode(s, "right", _give_first_leaf_a_child), BAD_RIGHT),
    "feature-too-large": (lambda s: _set(s["feature"], 0, N_FEATURES), "feature index"),
    "feature-below-leaf": (lambda s: _set(s["feature"], s["feature"].index(-1), -2), "feature index"),
    "float-feature": (lambda s: _set(s["feature"], 0, 0.5), "list of integers"),
    "bool-feature": (lambda s: _bool_for_first_bit(s["feature"]), "feature must be a list of integers"),
    "nan-threshold": (lambda s: _recode(s, "split", lambda a, s: _set(a, 0, np.nan)), "non-finite"),
    "infinite-leaf": (
        lambda s: _recode(s, "split", lambda a, s: _set(a, s["feature"].index(-1), np.inf)), "non-finite"
    ),
    "short-feature": (lambda s: s["feature"].pop(), "nodes"),
    "short-split": (lambda s: s.update(split=s["split"][:-12]), "nodes"),
    "no-trees": (lambda s: s.update(roots=[], feature=[], right="", split=""), "0 trees"),
    "nodes-without-trees": (lambda s: s.update(roots=[]), "0 trees"),
    "roots-not-at-0": (lambda s: _set(s["roots"], 0, 1), BAD_ROOTS),
    "roots-not-rising": (lambda s: _set(s["roots"], 1, 0), BAD_ROOTS),
    "root-past-end": (lambda s: s["roots"].append(10**6), BAD_ROOTS),
    "invalid-base64": (lambda s: s.update(split=s["split"][:8] + "!~!~" + s["split"][8:]), "invalid base64"),
    "ragged-bytes": (lambda s: s.update(right=base64.b64encode(b"abc").decode("ascii")), "whole number"),
    "right-not-a-string": (lambda s: s.update(right=[-1]), "base64 string"),
}


@pytest.mark.parametrize("corruption", sorted(V2_CORRUPTIONS))
def test_from_dict_rejects_bad_packed_trees(corruption):
    rng = np.random.default_rng(14)
    model = regress.fit(ModelSpec("rforest", seed=2, hyperparameters={"n_trees": 3}), toy_dataset(rng, n=40))
    payload = regress.to_dict(model)
    corrupt, message = V2_CORRUPTIONS[corruption]
    corrupt(payload["state"])
    with pytest.raises(DataError, match=message):
        regress.from_dict(payload)


def _v1_rf():
    return v1_payload("rforest", 2, copy.deepcopy(V1_WRITTEN["rforest"][0]))


# corruption of the v1 rforest in V1_WRITTEN, and the error it must raise
V1_CORRUPTIONS = {
    # a right child of 0 sent the per-row loop round node 0 for ever
    "root-points-at-itself": (lambda s: _set(s["trees"][0]["right"], 0, 0), BAD_RIGHT),
    "right-child-past-tree": (lambda s: _set(s["trees"][0]["right"], 0, 5), "not a preorder tree"),
    "left-child-not-next": (lambda s: _set(s["trees"][1]["left"], 0, 4), "not a preorder tree"),
    "leaf-with-child": (lambda s: _set(s["trees"][0]["right"], 1, 2), BAD_RIGHT),
    "ragged-node-lists": (lambda s: s["trees"][0]["value"].pop(), "differ in length"),
    "feature-too-large": (lambda s: _set(s["trees"][0]["feature"], 0, 2), "feature index"),
    "no-trees": (lambda s: s.update(trees=[]), "0 trees"),
    # a string or a bool read as the number it spells: each of these loaded,
    # except a right child, which a bool turned into 1 or 0
    "string-threshold": (lambda s: _set(s["trees"][0]["threshold"], 0, "0.5"), "tree 0 threshold must be"),
    "bool-threshold": (lambda s: _set(s["trees"][1]["threshold"], 1, True), "tree 1 threshold must be"),
    "string-value": (lambda s: _set(s["trees"][0]["value"], 1, "9.0"), "tree 0 value must be"),
    "bool-value": (lambda s: _set(s["trees"][0]["value"], 1, True), "tree 0 value must be"),
    "bool-feature": (lambda s: _set(s["trees"][0]["feature"], 0, True), "tree 0 feature must be a list of int"),
    "bool-left": (lambda s: _set(s["trees"][0]["left"], 0, True), "tree 0 left must be a list of int"),
    "bool-right": (lambda s: _set(s["trees"][0]["right"], 1, False), "tree 0 right must be a list of int"),
}


@pytest.mark.parametrize("corruption", sorted(V1_CORRUPTIONS))
def test_from_dict_rejects_bad_v1_trees(corruption):
    payload = _v1_rf()
    corrupt, message = V1_CORRUPTIONS[corruption]
    corrupt(payload["state"])
    with pytest.raises(DataError, match=message):
        regress.from_dict(payload)


def test_from_dict_rejects_dtree_of_two_trees_and_unmatched_weights():
    rng = np.random.default_rng(15)
    ds = toy_dataset(rng, n=40)
    forest = regress.to_dict(regress.fit(ModelSpec("rforest", hyperparameters={"n_trees": 2}), ds))
    with pytest.raises(DataError, match="one tree"):
        regress.from_dict({**forest, "algorithm": "dtree", "hyperparameters": {}})
    ada = regress.to_dict(regress.fit(ModelSpec("adaboost", seed=1), ds))
    ada["state"]["log_weights"].append(1.0)
    with pytest.raises(DataError, match="log_weights"):
        regress.from_dict(ada)
