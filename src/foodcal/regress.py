"""Regression model zoo behind one fit/predict contract.

Six algorithms: ordinary least squares, k-nearest neighbours, CART decision
tree, random forest, gradient boosting, and AdaBoost.R2, all built on the
same CART split search. Fitting is deterministic given (spec, data, seed);
random-forest trees draw per-tree generators seeded by (seed, tree_index),
so results do not depend on the thread count used to fit them.

Trained models serialize to a versioned JSON layout; floats are written
with full round-trip precision so a reloaded model predicts bit-identically.
"""

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from foodcal.errors import (
    DataError,
    DimensionMismatch,
    EmptyDataset,
    SingularSystem,
    ZeroTotalWeight,
)
from foodcal.preprocess import RegressionDataset

ALGORITHMS = ("linear", "knn", "dtree", "rforest", "gboost", "adaboost")

DEFAULT_HYPERPARAMETERS = {
    "linear": {"ridge": 1e-8},
    "knn": {"k": 5},
    "dtree": {"max_depth": None, "min_samples_leaf": 1},
    "rforest": {"n_trees": 100, "max_depth": None, "min_samples_leaf": 1, "threads": 1},
    "gboost": {"n_rounds": 100, "learning_rate": 0.1, "max_depth": 3},
    "adaboost": {"max_rounds": 50, "max_depth": 3},
}

MODEL_FORMAT = "foodcal-regressor"
MODEL_VERSION = 1

# execution knobs that change nothing about the learned model; kept out of
# the persisted layout so files are byte-identical across thread counts
_RUNTIME_ONLY = {"threads"}


@dataclass(frozen=True)
class ModelSpec:
    """Algorithm tag, seed, and hyperparameter overrides."""

    algorithm: str
    seed: int = 0
    hyperparameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        unknown = set(self.hyperparameters) - set(DEFAULT_HYPERPARAMETERS[self.algorithm])
        if unknown:
            raise ValueError(f"unknown hyperparameters for {self.algorithm}: {sorted(unknown)}")

    def resolved(self) -> dict:
        return {**DEFAULT_HYPERPARAMETERS[self.algorithm], **self.hyperparameters}


# ---------------------------------------------------------------------------
# CART

# relative slack under which two candidate scores count as tied
_TIE_REL = 1e-10


def _best_split(X, y, feat_ids, min_leaf):
    """Split search over one node's rows: the (feature, threshold)
    minimizing the summed left/right squared error.

    Candidate thresholds sit at midpoints between consecutive distinct
    sorted values; ties resolve to the lowest feature index, then the lowest
    threshold. Scores within ``_TIE_REL`` of each other count as tied, so
    exact-arithmetic ties cannot be reordered by float rounding (this keeps
    tree structure stable under, e.g., target translation). Returns
    (feature, threshold, split_sse, parent_sse); feature is -1 when no
    candidate satisfies the leaf-size constraint.
    """
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
        tol = _TIE_REL * (1.0 + abs(parent_sse))
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


def cart_best_split(X, y, feature_subset=None, min_samples_leaf: int = 1):
    """Best (feature, threshold) by variance reduction, or None.

    Thresholds are midpoints between consecutive distinct sorted values;
    ties break to the lowest feature index, then the lowest threshold.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if len(y) < 2:
        raise ValueError("split search needs at least two rows")
    if np.all(y == y[0]):
        return None
    feats = (
        np.arange(X.shape[1], dtype=np.int64)
        if feature_subset is None
        else np.sort(np.asarray(feature_subset, dtype=np.int64))
    )
    f, thr, score, parent_sse = _best_split(X, y, feats, min_samples_leaf)
    if f < 0 or not parent_sse - score > 0:
        return None
    return int(f), float(thr)


class _Tree:
    """CART regression tree stored as parallel node arrays (feature -1 = leaf)."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        for r in range(X.shape[0]):
            i = 0
            while self.feature[i] >= 0:
                if X[r, self.feature[i]] <= self.threshold[i]:
                    i = self.left[i]
                else:
                    i = self.right[i]
            out[r] = self.value[i]
        return out

    def to_state(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "_Tree":
        return cls(state["feature"], state["threshold"], state["left"], state["right"], state["value"])


def _grow_tree(X, y, *, max_depth=None, min_samples_leaf=1, rng=None, n_subset=None) -> _Tree:
    """Iterative preorder CART growth (explicit stack, so depth is unbounded)."""
    p = X.shape[1]
    all_feats = np.arange(p, dtype=np.int64)
    feature, threshold, left, right, value = [], [], [], [], []
    stack = [(np.arange(len(y), dtype=np.int64), 0, -1, False)]
    while stack:
        idx, depth, parent, is_left = stack.pop()
        ys = y[idx]
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(ys.mean()))
        if parent >= 0:
            if is_left:
                left[parent] = node
            else:
                right[parent] = node
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
        threshold[node] = float(thr)
        stack.append((ri, depth + 1, node, False))
        stack.append((li, depth + 1, node, True))
    return _Tree(feature, threshold, left, right, value)


def weighted_median(values, weights) -> float:
    """Smallest value (in sorted order) whose cumulative weight reaches half
    the total."""
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ZeroTotalWeight("weights sum to zero")
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(w[order])
    i = int(np.searchsorted(cum, 0.5 * total))
    return float(v[order[min(i, len(v) - 1)]])


# ---------------------------------------------------------------------------
# models


class Regressor:
    """Common surface: predict on a feature matrix, serialize to a state dict."""

    algorithm = ""

    def __init__(self, n_features: int):
        self.n_features = n_features

    def predict(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_state(self) -> dict:
        raise NotImplementedError


class LinearModel(Regressor):
    algorithm = "linear"

    def __init__(self, n_features, coef, intercept):
        super().__init__(n_features)
        self.coef = np.asarray(coef, dtype=np.float64)
        self.intercept = float(intercept)

    @classmethod
    def fit(cls, X, y, *, ridge=1e-8, **_):
        A = np.column_stack([X, np.ones(len(y))])
        G = A.T @ A
        b = A.T @ y
        beta = None
        try:
            beta = np.linalg.solve(G, b)
        except np.linalg.LinAlgError:
            beta = None
        scale = max(1.0, float(np.abs(b).max()))
        if beta is None or not np.all(np.isfinite(beta)) or np.abs(G @ beta - b).max() > 1e-6 * scale:
            # penalize the feature block only: an unpenalized intercept keeps
            # the fit exactly equivariant under target translation
            damp = ridge * np.eye(G.shape[0])
            damp[-1, -1] = 0.0
            try:
                beta = np.linalg.solve(G + damp, b)
            except np.linalg.LinAlgError as exc:
                raise SingularSystem("normal equations singular even with ridge") from exc
            if not np.all(np.isfinite(beta)):
                raise SingularSystem("ridge fallback produced non-finite coefficients")
        return cls(X.shape[1], beta[:-1], beta[-1])

    def predict(self, X):
        return X @ self.coef + self.intercept

    def to_state(self):
        return {"coef": self.coef.tolist(), "intercept": self.intercept}

    @classmethod
    def from_state(cls, n_features, state):
        return cls(n_features, state["coef"], state["intercept"])


class KnnModel(Regressor):
    algorithm = "knn"

    def __init__(self, n_features, X, y, k):
        super().__init__(n_features)
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.k = int(k)

    @classmethod
    def fit(cls, X, y, *, k=5, **_):
        return cls(X.shape[1], X.copy(), y.copy(), k)

    def predict(self, X):
        k = min(self.k, len(self.y))
        out = np.empty(X.shape[0])
        for r in range(X.shape[0]):
            d2 = ((self.X - X[r]) ** 2).sum(axis=1)
            order = np.argsort(d2, kind="stable")  # distance ties: lowest row index
            out[r] = self.y[order[:k]].mean()
        return out

    def to_state(self):
        return {"k": self.k, "X": self.X.tolist(), "y": self.y.tolist()}

    @classmethod
    def from_state(cls, n_features, state):
        return cls(n_features, state["X"], state["y"], state["k"])


class TreeModel(Regressor):
    algorithm = "dtree"

    def __init__(self, n_features, tree: _Tree):
        super().__init__(n_features)
        self.tree = tree

    @classmethod
    def fit(cls, X, y, *, max_depth=None, min_samples_leaf=1, **_):
        return cls(X.shape[1], _grow_tree(X, y, max_depth=max_depth, min_samples_leaf=min_samples_leaf))

    def predict(self, X):
        return self.tree.predict(X)

    def to_state(self):
        return {"tree": self.tree.to_state()}

    @classmethod
    def from_state(cls, n_features, state):
        return cls(n_features, _Tree.from_state(state["tree"]))


class ForestModel(Regressor):
    algorithm = "rforest"

    def __init__(self, n_features, trees: list[_Tree]):
        super().__init__(n_features)
        self.trees = trees

    @classmethod
    def fit(cls, X, y, *, seed=0, n_trees=100, max_depth=None, min_samples_leaf=1, threads=1, **_):
        n, p = X.shape
        n_subset = max(1, p // 3)

        def fit_tree(t):
            rng = np.random.default_rng((seed, t))
            idx = rng.integers(0, n, size=n)
            return _grow_tree(
                X[idx],
                y[idx],
                max_depth=max_depth,
                min_samples_leaf=min_samples_leaf,
                rng=rng,
                n_subset=n_subset,
            )

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                trees = list(pool.map(fit_tree, range(n_trees)))
        else:
            trees = [fit_tree(t) for t in range(n_trees)]
        return cls(p, trees)

    def predict(self, X):
        preds = np.stack([t.predict(X) for t in self.trees])
        return preds.mean(axis=0)

    def to_state(self):
        return {"trees": [t.to_state() for t in self.trees]}

    @classmethod
    def from_state(cls, n_features, state):
        return cls(n_features, [_Tree.from_state(s) for s in state["trees"]])


class BoostModel(Regressor):
    algorithm = "gboost"

    def __init__(self, n_features, init, learning_rate, trees):
        super().__init__(n_features)
        self.init = float(init)
        self.learning_rate = float(learning_rate)
        self.trees = trees

    @classmethod
    def fit(cls, X, y, *, n_rounds=100, learning_rate=0.1, max_depth=3, **_):
        init = float(y.mean())
        current = np.full(len(y), init)
        trees = []
        for _round in range(n_rounds):
            residual = y - current
            tree = _grow_tree(X, residual, max_depth=max_depth)
            current = current + learning_rate * tree.predict(X)
            trees.append(tree)
        return cls(X.shape[1], init, learning_rate, trees)

    def predict(self, X):
        out = np.full(X.shape[0], self.init)
        for tree in self.trees:
            out = out + self.learning_rate * tree.predict(X)
        return out

    def to_state(self):
        return {
            "init": self.init,
            "learning_rate": self.learning_rate,
            "trees": [t.to_state() for t in self.trees],
        }

    @classmethod
    def from_state(cls, n_features, state):
        return cls(
            n_features, state["init"], state["learning_rate"], [_Tree.from_state(s) for s in state["trees"]]
        )


class AdaBoostModel(Regressor):
    """AdaBoost.R2 with linear loss and weighted-median aggregation."""

    algorithm = "adaboost"

    def __init__(self, n_features, trees, log_weights):
        super().__init__(n_features)
        self.trees = trees
        self.log_weights = np.asarray(log_weights, dtype=np.float64)

    @classmethod
    def fit(cls, X, y, *, seed=0, max_rounds=50, max_depth=3, **_):
        n = len(y)
        rng = np.random.default_rng(seed)
        w = np.full(n, 1.0 / n)
        trees = []
        log_weights = []
        for _round in range(max_rounds):
            idx = rng.choice(n, size=n, replace=True, p=w)
            tree = _grow_tree(X[idx], y[idx], max_depth=max_depth)
            err = np.abs(tree.predict(X) - y)
            err_max = err.max()
            loss = err / err_max if err_max > 0 else np.zeros(n)
            avg_loss = float((w * loss).sum())
            if avg_loss <= 0:  # perfect fit: keep it and stop
                trees.append(tree)
                log_weights.append(1.0)
                break
            if avg_loss >= 0.5:
                if not trees:  # ensemble must not be empty
                    trees.append(tree)
                    log_weights.append(1.0)
                break
            beta = avg_loss / (1.0 - avg_loss)
            trees.append(tree)
            log_weights.append(float(np.log(1.0 / beta)))
            w = w * beta ** (1.0 - loss)
            w = w / w.sum()
        return cls(X.shape[1], trees, log_weights)

    def predict(self, X):
        preds = np.stack([t.predict(X) for t in self.trees])
        return np.array([weighted_median(preds[:, r], self.log_weights) for r in range(X.shape[0])])

    def to_state(self):
        return {
            "log_weights": self.log_weights.tolist(),
            "trees": [t.to_state() for t in self.trees],
        }

    @classmethod
    def from_state(cls, n_features, state):
        return cls(n_features, [_Tree.from_state(s) for s in state["trees"]], state["log_weights"])


_MODEL_CLASSES = {
    cls.algorithm: cls for cls in (LinearModel, KnnModel, TreeModel, ForestModel, BoostModel, AdaBoostModel)
}


# ---------------------------------------------------------------------------
# facade


def fit(spec: ModelSpec, train: RegressionDataset) -> Regressor:
    if len(train) == 0:
        raise EmptyDataset("cannot fit on an empty dataset")
    params = spec.resolved()
    model = _MODEL_CLASSES[spec.algorithm].fit(train.X, train.y, seed=spec.seed, **params)
    model.spec = spec
    return model


def predict(model: Regressor, features) -> float:
    """Prediction for a single feature vector."""
    x = np.asarray(features, dtype=np.float64)
    if x.shape != (model.n_features,):
        raise DimensionMismatch(f"expected {model.n_features} features, got shape {x.shape}")
    return float(model.predict(x[None])[0])


def predict_matrix(model: Regressor, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise DimensionMismatch(f"expected (n, {model.n_features}) features, got shape {X.shape}")
    return model.predict(X)


def to_dict(model: Regressor) -> dict:
    spec: ModelSpec = getattr(model, "spec", ModelSpec(model.algorithm))
    hyper = {k: v for k, v in spec.resolved().items() if k not in _RUNTIME_ONLY}
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "algorithm": model.algorithm,
        "seed": spec.seed,
        "hyperparameters": hyper,
        "n_features": model.n_features,
        "state": model.to_state(),
    }


def from_dict(payload: dict) -> Regressor:
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise DataError(f"not a {MODEL_FORMAT} payload")
    if payload.get("version") != MODEL_VERSION:
        raise DataError(f"unsupported model version {payload.get('version')}")
    algorithm = payload.get("algorithm")
    if algorithm not in _MODEL_CLASSES:
        raise DataError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    try:
        model = _MODEL_CLASSES[algorithm].from_state(payload["n_features"], payload["state"])
        model.spec = ModelSpec(
            algorithm,
            seed=payload.get("seed", 0),
            hyperparameters={
                k: v
                for k, v in payload.get("hyperparameters", {}).items()
                if DEFAULT_HYPERPARAMETERS[algorithm].get(k) != v
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed {MODEL_FORMAT} payload: {exc!r}") from exc
    return model


def save_model(model: Regressor, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(to_dict(model), f)
        f.write("\n")


def load_model(path) -> Regressor:
    with open(path, encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: invalid JSON model file") from exc
    return from_dict(payload)
