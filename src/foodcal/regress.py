"""Regression model zoo behind one fit/predict contract.

Six algorithms: ordinary least squares, k-nearest neighbours, CART decision
tree, random forest, gradient boosting, and AdaBoost.R2, all built on the
same CART split search. Fitting is deterministic given (spec, data, seed):
random-forest trees draw per-tree generators seeded by (seed, tree_index).
Each tree's feature subsets are those of one sorted
``Generator.choice(p, k, replace=False)`` call per searched node, drawn in
blocks through one ``Generator.integers`` call with an array of bounds,
which makes the same Lemire-bounded draws as the calls it replaces. This
holds for up to 10000 features; the feature layout has 9.

Every tree model keeps its trees packed in one set of node arrays
(``_Trees``) that one level-by-level traversal walks for all rows at once.
Trained models are stored in a versioned JSON layout (``foodcal-regressor``
v2; v1 files still load) that stores floats exactly, as JSON reprs or as
the bytes of the packed arrays, so a reloaded model predicts bit-identically.
"""

import numbers
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from foodcal.errors import (
    DataError,
    DimensionMismatch,
    EmptyDataset,
    SingularSystem,
    ZeroTotalWeight,
    decode_array,
    encode_array,
    number_array,
)
from foodcal.preprocess import RegressionDataset

ALGORITHMS = ("linear", "knn", "dtree", "rforest", "gboost", "adaboost")

DEFAULT_HYPERPARAMETERS = {
    "linear": {"ridge": 1e-8},
    "knn": {"k": 5},
    "dtree": {"max_depth": None, "min_samples_leaf": 1},
    "rforest": {"n_trees": 100, "max_depth": None, "min_samples_leaf": 1},
    "gboost": {"n_rounds": 100, "learning_rate": 0.1, "max_depth": 3},
    "adaboost": {"max_rounds": 50, "max_depth": 3},
}

# The range of each hyperparameter: (int or float, the least value, whether the
# least value itself is allowed). A bool is neither; max_depth may also be None.
HYPERPARAMETER_RANGES = {
    "n_trees": (int, 1, True), "k": (int, 1, True), "max_rounds": (int, 1, True), "min_samples_leaf": (int, 1, True),
    "n_rounds": (int, 0, True), "max_depth": (int, 0, True),  # gboost's zero rounds predict the mean
    "learning_rate": (float, 0, False), "ridge": (float, 0, True),
}


def check_hyperparameters(**params) -> None:
    """Raise ``ValueError`` naming the first hyperparameter out of its range."""
    for name, value in params.items():
        kind, least, closed = HYPERPARAMETER_RANGES[name]
        if isinstance(value, numbers.Real) and not isinstance(value, bool):  # NumPy scalars as Python numbers
            value = int(value) if isinstance(value, numbers.Integral) else float(value)
        if name == "max_depth" and value is None:
            continue
        with suppress(DataError):
            if number_array(value, name, kind if kind is int else (int, float), ndim=0, least=least) > least or closed:
                continue
        what = ("None or " if name == "max_depth" else "") + ("an int" if kind is int else "a finite number")
        raise ValueError(f"hyperparameter {name} must be {what} {'>=' if closed else '>'} {least}, got {value!r}")


MODEL_FORMAT = "foodcal-regressor"
MODEL_VERSION = 2


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
        check_hyperparameters(**self.hyperparameters)

    def resolved(self) -> dict:
        return {**DEFAULT_HYPERPARAMETERS[self.algorithm], **self.hyperparameters}


# ---------------------------------------------------------------------------
# CART

# relative slack under which two candidate scores count as tied
_TIE_REL = 1e-10

# (node, feature, row) cells that one call of the split search scores at most
_CHUNK_CELLS = 2**13

# feature subsets that a forest tree draws at a time
_DRAW_BLOCK = 256


def _split_search(Xp, ranks, yp, rows, n_rows, feats, min_leaf):
    """Each node's (feature, threshold) minimizing the summed left/right
    squared error, for a batch of nodes: ``rows`` (nodes, R) lists each
    node's ``n_rows`` rows, then ``_columns``' padding row, and ``feats``
    (nodes, F) the features to search. Sorted (dense rank, position) keys
    order a node's rows as a stable sort of its values, padding last.

    Thresholds sit at midpoints between consecutive distinct values; ties
    go to the first feature in ``feats``, then the lowest threshold. Scores
    within ``_TIE_REL`` count as tied, so float rounding cannot reorder
    exact ties (tree structure stays stable under target translation).
    Returns (feature, threshold, split_sse, parent_sse) per node, parent_sse
    summed in the last feature's order; feature -1 means no valid split.
    """
    nodes, n_feats = feats.shape
    width = rows.shape[1]
    shift = width.bit_length()
    g = np.arange(nodes * n_feats)[:, None]  # one line per (node, feature)
    line_rows = rows[g[:, 0] // n_feats]
    f = feats.reshape(-1, 1)
    srt = np.sort((np.take(ranks, line_rows * ranks.shape[1] + f) << shift) | np.arange(width), axis=1)
    upper = srt[:, 1:] >> shift  # each candidate's upper rank; as a float comparison would, skip NaN
    valid = (upper > srt[:, :-1] >> shift) & (upper < ranks[-1, 0])
    srt = np.take(line_rows, g * width + (srt & ((1 << shift) - 1)))  # each line's rows in value order
    ys = yp[srt]
    cum, cumsq = np.cumsum(ys, 1), np.cumsum(ys * ys, 1)
    k = n_rows.repeat(n_feats)[:, None]
    total, total_sq = cum[:, -1:], cumsq[:, -1:]  # the padding row's target is 0.0
    parent_sse = total_sq - total * total / k
    tol = _TIE_REL * (1.0 + np.abs(parent_sse))
    nl = np.arange(1.0, width)  # float counts divide as the integers would
    valid &= (nl >= min_leaf) & (nl <= k - max(min_leaf, 1))
    sl, sql, sr = cum[:, :-1], cumsq[:, :-1], total - cum[:, :-1]
    with np.errstate(divide="ignore", invalid="ignore"):  # no rows right of the padding; -inf + inf
        score = np.where(valid, (sql - sl * sl / nl) + (total_sq - sql - sr * sr / (k - nl)), np.inf)
        i = np.argmax(score <= score.min(1, keepdims=True) + tol, 1)[:, None]  # first tied candidate
        lo, hi = Xp[srt[g, i], f], Xp[srt[g, i + 1], f]
        thr = (lo + hi) / 2.0
    thr = np.where(thr == hi, lo, thr).reshape(nodes, n_feats)
    best, pick = [], []  # score and column of each node's choice, picked over Python floats
    for scores, tols in zip(score[g, i].reshape(nodes, n_feats).tolist(), tol.reshape(nodes, n_feats).tolist()):
        low, col = np.inf, -1
        for j, (s, t) in enumerate(zip(scores, tols)):
            if s < low - t:
                low, col = s, j
        best.append(low)
        pick.append(col)
    pick = np.array(pick)
    at, found = (np.arange(nodes), np.maximum(pick, 0)), pick >= 0
    feature, threshold = np.where(found, feats[at], -1), np.where(found, thr[at], 0.0)
    return feature, threshold, np.array(best), parent_sse[n_feats - 1 :: n_feats, 0]


_BLOCK_ROWS = 1024  # rows that _Trees walks at once


class _Trees:
    """One or more CART trees packed into one set of node arrays.

    Trees lie one after another, each in preorder, so the left child of
    internal node ``i`` is node ``i + 1``. ``right[i]`` is its right child
    (-1 at a leaf) and ``roots[t]`` the first node of tree ``t``; indices
    are global. ``feature`` is -1 at a leaf. ``split`` holds the threshold
    of an internal node (a row goes left when ``x[feature] <= split``) and
    the value of a leaf.
    """

    __slots__ = ("feature", "split", "right", "roots")

    def __init__(self, feature, split, right, roots):
        self.feature = np.asarray(feature, dtype=np.intp)
        self.split = np.asarray(split, dtype=np.float64)
        self.right = np.asarray(right, dtype=np.intp)
        self.roots = np.asarray(roots, dtype=np.intp)

    @classmethod
    def concat(cls, packs) -> "_Trees":
        if len(packs) == 1:
            return packs[0]
        offsets = np.cumsum([0] + [len(p.feature) for p in packs])
        return cls(
            _cat([p.feature for p in packs]),
            _cat([p.split for p in packs]),
            _cat([np.where(p.right >= 0, p.right + o, -1) for p, o in zip(packs, offsets)]),
            _cat([p.roots + o for p, o in zip(packs, offsets)]),
        )

    def __len__(self) -> int:
        return len(self.roots)

    def __getitem__(self, t) -> "_Trees":
        """Tree ``t`` as a pack of its own."""
        start, stop = self.roots[t], np.append(self.roots[1:], len(self.feature))[t]
        right = self.right[start:stop]
        return _Trees(
            self.feature[start:stop], self.split[start:stop], np.where(right >= 0, right - start, -1), [0]
        )

    def __iter__(self):
        return (self[t] for t in range(len(self)))

    @property
    def threshold(self) -> np.ndarray:
        return np.where(self.feature >= 0, self.split, 0.0)

    def leaves(self, X) -> np.ndarray:
        """Leaf value of every tree for every row, shape (n_trees, n_rows).
        The rows are walked in blocks of at most ``_BLOCK_ROWS``, so the
        walk's work arrays stay bounded by n_trees x _BLOCK_ROWS however
        many rows ``X`` has."""
        out = np.empty((len(self.roots), X.shape[0]))
        for start in range(0, X.shape[0], _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            out[:, rows] = self._walk(X[rows])
        return out

    def _walk(self, X) -> np.ndarray:
        """Leaf values for ``X``, shape (n_trees, n_rows). All (tree, row)
        pairs descend together, one level per iteration, until each has
        reached a leaf."""
        n = X.shape[0]
        node = np.repeat(self.roots, n)
        row = np.tile(np.arange(n), len(self.roots))
        live = np.flatnonzero(self.feature[node] >= 0)
        while live.size:
            i = node[live]
            go_left = X[row[live], self.feature[i]] <= self.split[i]
            i = np.where(go_left, i + 1, self.right[i])
            node[live] = i
            live = live[self.feature[i] >= 0]
        return self.split[node].reshape(len(self.roots), n)

    def predict(self, X) -> np.ndarray:
        """Leaf values of the first tree: the prediction of a one-tree pack."""
        return self.leaves(X)[0]

    def to_state(self) -> dict:
        return {
            "roots": self.roots.tolist(),
            "feature": self.feature.tolist(),
            "right": encode_array(self.right, "<i4"),
            "split": encode_array(self.split, "<f8"),
        }

    @classmethod
    def from_state(cls, state: dict, n_features: int, min_trees: int = 1) -> "_Trees":
        """Packed trees of a v2 state, rejecting any tree that predict could
        not walk to a leaf."""
        trees = cls(
            number_array(state["feature"], "feature", int),
            decode_array(state["split"], "<f8", "split"),
            decode_array(state["right"], "<i4", "right"),
            number_array(state["roots"], "roots", int),
        )
        feature, right, roots = trees.feature, trees.right, trees.roots
        n = len(feature)
        if not len(trees.split) == len(right) == n:
            raise DataError(f"feature, right and split hold {n}, {len(right)} and {len(trees.split)} nodes")
        if len(roots) < min_trees:
            raise DataError(f"{len(roots)} trees, at least {min_trees} needed")
        sizes = np.diff(np.append(roots, n))
        starts_at_0 = roots[0] == 0 if len(roots) else n == 0
        if not starts_at_0 or np.any(sizes <= 0):
            raise DataError("roots must start at node 0 and rise strictly below the node count")
        if np.any((feature < -1) | (feature >= n_features)):
            raise DataError(f"feature index outside [-1, {n_features})")
        if not np.all(np.isfinite(trees.split)):
            raise DataError("non-finite threshold or leaf value")
        i = np.arange(n)
        end = np.repeat(roots + sizes, sizes)  # one past the last node of each node's tree
        bad = np.flatnonzero(np.where(feature >= 0, (i + 1 >= right) | (right >= end), right != -1))
        if bad.size:
            k = int(bad[0])
            t = int(np.searchsorted(roots, k, side="right")) - 1
            raise DataError(
                f"tree {t} node {k - roots[t]}: right child {right[k]} breaks the preorder layout"
            )
        return trees

    @classmethod
    def from_v1(cls, trees: list) -> "_Trees":
        """Pack v1 per-tree node lists (feature, threshold, left, right and
        value each); ``from_state`` checks the result."""
        packs = []
        for t, tree in enumerate(trees):
            feature, left, right = (number_array(tree[k], f"tree {t} {k}", int) for k in ("feature", "left", "right"))
            threshold, value = (number_array(tree[k], f"tree {t} {k}") for k in ("threshold", "value"))
            n = len(feature)
            if not len(left) == len(right) == len(threshold) == len(value) == n:
                raise DataError(f"tree {t}: node lists differ in length")
            inner = feature >= 0
            if np.any(left != np.where(inner, np.arange(n) + 1, -1)) or np.any((right < -1) | (right >= n)):
                raise DataError(f"tree {t}: not a preorder tree with children inside it")
            packs.append(cls(feature, np.where(inner, threshold, value), right, [0]))
        return cls.concat(packs)


def _cat(arrays):
    return np.concatenate(arrays) if arrays else np.zeros(0)


def _columns(X):
    """``X`` and the dense ranks of its values, each with a padding row
    that sorts after every other row: +inf and the highest rank, which NaN shares."""
    ranks = np.where(np.isnan(X), X.size, np.unique(X, return_inverse=True)[1].reshape(X.shape))
    return np.vstack([X, np.full(X.shape[1], np.inf)]), np.vstack([ranks, np.full(X.shape[1], X.size)])


def _feature_subsets(rngs, p, k, m):
    """``m`` sorted ``k``-of-``p`` feature subsets from each generator of
    ``rngs``, shape (len(rngs), m, k): for p <= 10000, the sorted results of
    ``m`` calls ``rng.choice(p, k, replace=False)``, after which each
    generator is where those calls would leave it.

    Such a call is Floyd's algorithm: for j = p-k, ..., p-1 it draws d in
    [0, j] and takes d, or j if d is taken already; then its shuffle of the
    k values draws in [0, i] for i = k-1, ..., 1. Each draw is one
    Lemire-bounded integer, as is each value of ``Generator.integers`` with
    an array of bounds, so one ``integers`` call with the bounds p-k+1, ...,
    p, k, ..., 2, repeated m times, makes the same draws in the same order.
    The shuffle's draws are consumed, and sorting drops its outcome. Above
    10000 items ``choice`` shuffles a tail of ``arange(p)`` instead, which
    this does not reproduce.
    """
    j = np.arange(p - k, p)
    highs = np.tile(np.concatenate([j + 1, np.arange(k, 1, -1)]), m)
    draws = np.empty((len(rngs), m, k), dtype=np.min_scalar_type(p))  # the shuffle's draws are not kept
    for kept, rng in zip(draws, rngs):
        kept[:] = rng.integers(0, highs).reshape(m, 2 * k - 1)[:, :k]
    draws = draws.reshape(-1, k)
    out = np.empty_like(draws)
    for i in range(k):  # a value taken already becomes j
        d = draws[:, i]
        out[:, i] = np.where((out[:, :i] == d[:, None]).any(1), j[i], d)
    out.sort(axis=1)
    return out.reshape(len(rngs), m, k)


def _grow(cols, y, rows=None, *, max_depth=None, min_samples_leaf=1, rngs=None, n_subset=None) -> _Trees:
    """CART trees on ``cols = _columns(X)`` and ``y``, one per line of
    ``rows`` (default: every row once), packed in preorder. A node's rows
    are a segment of its tree's line, split in place by a stable partition.
    Each round scores its nodes through one batched split search, in chunks
    of at most ``_CHUNK_CELLS`` cells. Without ``rngs`` a round takes every
    whole frontier. With them, each tree pops nodes off its preorder stack
    up to the next one that may be searched (the ones before it are leaves
    by size or depth), and each node it searches takes the next of the
    ``n_subset``-feature subsets that ``_feature_subsets`` draws from the
    tree's own generator, ``_DRAW_BLOCK`` at a time: the subsets of
    ``rng.choice`` per searched node in preorder, so a tree's draws do not
    depend on the trees grown beside it.
    """
    Xp, ranks = cols
    rows = np.arange(len(y))[None] if rows is None else rows
    n_trees, n = rows.shape
    p, pad = Xp.shape[1], len(Xp) - 1
    n_feats = p if rngs is None else min(n_subset, p)
    flat = rows.reshape(-1)  # tree t's rows are flat[t * n : t * n + n]
    yp = np.append(y, 0.0)
    min_rows, depth_cap = max(2, 2 * min_samples_leaf), np.inf if max_depth is None else max_depth
    stacks = [[(t * n, t * n + n, 0, -1, 0)] for t in range(n_trees)]  # start, stop, depth, parent, is right
    if rngs is not None:  # each tree's block of subsets, and how many of it are used
        subsets, used = np.empty((n_trees, _DRAW_BLOCK, n_feats), np.min_scalar_type(p)), np.full(n_trees, _DRAW_BLOCK)
    done, count = [], 0
    while any(stacks):
        if rngs is None:
            batch, stacks = [node for stack in stacks for node in stack], [[] for _ in stacks]
        else:
            batch = []
            for stack in stacks:
                while stack:
                    batch.append(node := stack.pop())
                    if node[1] - node[0] >= min_rows and node[2] < depth_cap:
                        break
        nodes = np.array(batch, dtype=np.int32)
        feature, value = np.full(len(nodes), -1, dtype=np.int32), np.zeros(len(nodes))
        start, stop, depth = nodes[:, :3].T
        size = stop - start
        todo = np.flatnonzero((size >= min_rows) & (depth < depth_cap))
        todo = todo[np.argsort(-size[todo], kind="stable")]
        while todo.size:
            k = max(1, _CHUNK_CELLS // (n_feats * int(size[todo[0]])))
            c, todo = todo[:k], todo[k:]
            m = size[c]
            real = np.arange(m[0]) < m[:, None]
            r = np.where(real, flat[np.minimum(start[c, None] + np.arange(m[0]), flat.size - 1)], pad)
            ys = yp[r]
            live = ~np.all((ys == ys[:, :1]) | ~real, axis=1)  # constant targets make a leaf
            c, m, real, r = c[live], m[live], real[live], r[live]
            if not c.size:
                continue
            if rngs is None:
                feats = np.arange(p)[None].repeat(len(c), 0)
            else:  # a round searches at most one node per tree
                t = start[c] // n
                spent = t[used[t] == _DRAW_BLOCK]
                if spent.size:
                    subsets[spent], used[spent] = _feature_subsets([rngs[i] for i in spent], p, n_feats, _DRAW_BLOCK), 0
                feats = subsets[t, used[t]].astype(np.intp)
                used[t] += 1
            f, thr, score, parent_sse = _split_search(Xp, ranks, yp, r, m, feats, min_samples_leaf)
            go_left = (Xp[r, f[:, None]] <= thr[:, None]) & real
            nl = go_left.sum(1)
            split = (f >= 0) & (parent_sse - score > 0) & (nl > 0) & (nl < m)
            c, real, r, nl = c[split], real[split], r[split], nl[split]
            feature[c], value[c] = f[split], thr[split]
            keys = np.where(real, ~go_left[split], np.uint8(2))  # left, right, padding: uint8 sorts by radix
            order = np.argsort(keys, axis=1, kind="stable")
            flat[(start[c, None] + np.arange(r.shape[1]))[real]] = r[np.arange(len(c))[:, None], order][real]
            kids = (start[c], start[c] + nl, stop[c], depth[c] + 1, count + c)
            for a, b, e, d, i in zip(*(v.tolist() for v in kids)):
                stacks[a // n] += [(b, e, d, i, 1), (a, b, d, i, 0)]  # the left child pops first
        done.append((nodes, feature, value))
        count += len(batch)
    nodes, feature, value = (np.concatenate(a) for a in zip(*done))
    del done
    start, stop, depth, parent, is_right = nodes.T
    leaves = np.flatnonzero(feature < 0)
    leaves = leaves[np.argsort(stop[leaves] - start[leaves], kind="stable")]
    for at in np.split(leaves, np.flatnonzero(np.diff(stop[leaves] - start[leaves])) + 1):
        # the row-wise means of equal-length rows are each row's ys.mean()
        value[at] = y[flat[start[at, None] + np.arange(stop[at[0]] - start[at[0]])]].mean(axis=1)
    size = np.ones(count, dtype=np.int32)  # of each node's subtree
    for d in range(depth.max(), 0, -1):
        kid = np.flatnonzero(depth == d)
        np.add.at(size, parent[kid], size[kid])
    roots = np.flatnonzero(parent < 0)
    pos = np.empty_like(size)  # in preorder
    pos[roots] = np.cumsum(size[roots]) - size[roots]
    for d in range(1, depth.max() + 1):  # a right child follows its left sibling's subtree
        kid = np.flatnonzero(depth == d)
        up = parent[kid]
        pos[kid] = pos[up] + 1 + is_right[kid] * (size[up] - 1 - size[kid])
    right, kid = np.full(count, -1), np.flatnonzero(is_right)
    right[pos[parent[kid]]] = pos[kid]
    packed_feature, packed_value = np.empty(count, dtype=np.intp), np.empty(count)
    packed_feature[pos], packed_value[pos] = feature, value
    return _Trees(packed_feature, packed_value, right, pos[roots])


# (row, column) cells that one block of a batched predict holds at most
_PREDICT_CELLS = 2**14


def weighted_medians(values, weights) -> np.ndarray:
    """The weighted median of each row of ``values`` (n, m) under the m
    ``weights``: the smallest value, in a stable sort of the row, whose
    cumulative weight reaches half the total. The rows are taken in blocks
    of at most ``_PREDICT_CELLS`` cells, each block one stable argsort, one
    cumsum of the weights and one count per row."""
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ZeroTotalWeight("weights sum to zero")
    n, m = v.shape
    out = np.empty(n)
    step = max(1, _PREDICT_CELLS // max(1, m))
    for start in range(0, n, step):
        block = v[start : start + step]
        order, rows = np.argsort(block, axis=1, kind="stable"), np.arange(len(block))
        # the count of cumulative weights short of half the total is searchsorted's index
        i = np.minimum((np.cumsum(w[order], axis=1) < 0.5 * total).sum(axis=1), m - 1)
        out[start : start + step] = block[rows, order[rows, i]]
    return out


def weighted_median(values, weights) -> float:
    """Smallest value (in sorted order) whose cumulative weight reaches half
    the total: the one-row case of ``weighted_medians``."""
    return float(weighted_medians(np.asarray(values, dtype=np.float64)[None], weights)[0])


# ---------------------------------------------------------------------------
# models


class Regressor:
    """Common surface: predict on a feature matrix, export a state dict."""

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
        check_hyperparameters(ridge=ridge)
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
        # an elementwise product summed per row, unlike a BLAS gemv, gives
        # each row the same bits whatever the batch it comes in
        return (X * self.coef).sum(axis=1) + self.intercept

    def to_state(self):
        return {"coef": self.coef.tolist(), "intercept": self.intercept}

    @classmethod
    def from_state(cls, n_features, state):
        intercept = number_array(state["intercept"], "linear intercept", ndim=0)
        return cls(n_features, number_array(state["coef"], "linear coef", count=n_features), intercept)


class KnnModel(Regressor):
    """k-nearest neighbours: the mean target of the k training rows nearest
    in squared distance, ties going to the lowest training row. Rows are
    predicted in blocks whose (row, training row, column) differences hold
    at most ``_PREDICT_CELLS`` cells. Each distance is the pairwise sum over
    the columns that a one-row call makes, so a row's prediction does not
    depend on the rows predicted with it."""

    algorithm = "knn"

    def __init__(self, n_features, X, y, k):
        super().__init__(n_features)
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.k = int(k)

    @classmethod
    def fit(cls, X, y, *, k=5, **_):
        check_hyperparameters(k=k)
        return cls(X.shape[1], X.copy(), y.copy(), k)

    def predict(self, X):
        k = min(self.k, len(self.y))
        out = np.empty(X.shape[0])
        step = max(1, _PREDICT_CELLS // max(1, self.X.size))
        for start in range(0, X.shape[0], step):
            rows = slice(start, start + step)
            d2 = ((self.X - X[rows, None]) ** 2).sum(axis=2)  # each row's pairwise sum over the columns
            # rows at or below the k-th distance (NaN too, as argsort puts it last) by (distance, row)
            r, c = np.nonzero(~(d2 > np.partition(d2, k - 1, axis=1)[:, k - 1, None]))
            c = c[np.lexsort((d2[r, c], r))]
            out[rows] = self.y[c[np.searchsorted(r, np.arange(len(d2)))[:, None] + np.arange(k)]].mean(axis=1)
        return out

    def to_state(self):
        return {"k": self.k, "X": self.X.tolist(), "y": self.y.tolist()}

    @classmethod
    def from_state(cls, n_features, state):
        X, y = number_array(state["X"], "knn X", ndim=2), number_array(state["y"], "knn y")
        model = cls(n_features, X, y, number_array(state["k"], "knn k", int, ndim=0, least=1))
        if not 1 <= len(y) == len(X) or X.shape[1] != n_features:
            raise DataError(f"knn X {X.shape} and y {y.shape} must be (m, {n_features}) and (m,), m >= 1")
        return model


class TreeModel(Regressor):
    algorithm = "dtree"

    def __init__(self, n_features, tree: _Trees):
        super().__init__(n_features)
        self.tree = tree

    @classmethod
    def fit(cls, X, y, *, max_depth=None, min_samples_leaf=1, **_):
        check_hyperparameters(max_depth=max_depth, min_samples_leaf=min_samples_leaf)
        return cls(X.shape[1], _grow(_columns(X), y, max_depth=max_depth, min_samples_leaf=min_samples_leaf))

    def predict(self, X):
        return self.tree.predict(X)

    def to_state(self):
        return self.tree.to_state()

    @classmethod
    def from_state(cls, n_features, state):
        tree = _Trees.from_state(state, n_features)
        if len(tree) != 1:
            raise DataError(f"a dtree holds one tree, not {len(tree)}")
        return cls(n_features, tree)


class ForestModel(Regressor):
    algorithm = "rforest"

    def __init__(self, n_features, trees: list[_Trees]):
        super().__init__(n_features)
        self.trees = _Trees.concat(trees)

    @classmethod
    def fit(cls, X, y, *, seed=0, n_trees=100, max_depth=None, min_samples_leaf=1, **_):
        """Tree t draws its bootstrap rows, then the k = ``max(1, p // 3)``
        features of each node it searches, from ``default_rng((seed, t))``.
        The features are drawn ``_DRAW_BLOCK`` subsets ahead; the generators
        live only in this call, so drawing ahead changes no tree, and each
        subset is the sorted ``choice(p, k, replace=False)`` that the node
        would have drawn itself (see ``_feature_subsets``; p <= 10000).
        """
        check_hyperparameters(n_trees=n_trees, max_depth=max_depth, min_samples_leaf=min_samples_leaf)
        n, p = X.shape
        rngs = [np.random.default_rng((seed, t)) for t in range(n_trees)]
        boot = np.array([rng.integers(0, n, size=n) for rng in rngs], dtype=np.int32).reshape(n_trees, n)
        trees = _grow(_columns(X), y, boot, max_depth=max_depth, min_samples_leaf=min_samples_leaf,
                      rngs=rngs, n_subset=max(1, p // 3))
        return cls(p, [trees])

    def predict(self, X):
        # cumsum adds the trees in order for any row count; mean's pairwise
        # sum would round a 1-row call differently from a batch
        return np.cumsum(self.trees.leaves(X), axis=0)[-1] / len(self.trees)

    def to_state(self):
        return self.trees.to_state()

    @classmethod
    def from_state(cls, n_features, state):
        return cls(n_features, [_Trees.from_state(state, n_features)])


class BoostModel(Regressor):
    algorithm = "gboost"

    def __init__(self, n_features, init, learning_rate, trees: list[_Trees]):
        super().__init__(n_features)
        self.init = float(init)
        self.learning_rate = float(learning_rate)
        self.trees = _Trees.concat(trees)

    @classmethod
    def fit(cls, X, y, *, n_rounds=100, learning_rate=0.1, max_depth=3, **_):
        check_hyperparameters(n_rounds=n_rounds, learning_rate=learning_rate, max_depth=max_depth)
        init = float(y.mean())
        current = np.full(len(y), init)
        cols = _columns(X)  # shared by every round's tree
        trees = []
        for _round in range(n_rounds):
            residual = y - current
            tree = _grow(cols, residual, max_depth=max_depth)
            current = current + learning_rate * tree.predict(X)
            trees.append(tree)
        return cls(X.shape[1], init, learning_rate, trees)

    def predict(self, X):
        # cumsum adds init, then each tree's step, in order for any row count, as rforest's predict does
        steps = self.learning_rate * self.trees.leaves(X)
        return np.cumsum(np.vstack([np.full(X.shape[0], self.init), steps]), axis=0)[-1]

    def to_state(self):
        return {"init": self.init, "learning_rate": self.learning_rate, **self.trees.to_state()}

    @classmethod
    def from_state(cls, n_features, state):
        trees = _Trees.from_state(state, n_features, min_trees=0)  # zero rounds predict the mean
        init, rate = (number_array(state[key], f"gboost {key}", ndim=0) for key in ("init", "learning_rate"))
        return cls(n_features, init, rate, [trees])


class AdaBoostModel(Regressor):
    """AdaBoost.R2 with linear loss and weighted-median aggregation: a row
    predicts the ``weighted_medians`` of its rounds' leaf values under
    ``log_weights``, taken for blocks of rows at once."""

    algorithm = "adaboost"

    def __init__(self, n_features, trees: list[_Trees], log_weights):
        super().__init__(n_features)
        self.trees = _Trees.concat(trees)
        self.log_weights = np.asarray(log_weights, dtype=np.float64)

    @classmethod
    def fit(cls, X, y, *, seed=0, max_rounds=50, max_depth=3, **_):
        check_hyperparameters(max_rounds=max_rounds, max_depth=max_depth)
        n = len(y)
        rng = np.random.default_rng(seed)
        w = np.full(n, 1.0 / n)
        cols = _columns(X)  # shared by every round's tree
        trees = []
        log_weights = []
        for _round in range(max_rounds):
            idx = rng.choice(n, size=n, replace=True, p=w)
            tree = _grow(cols, y, idx[None], max_depth=max_depth)
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
        return weighted_medians(self.trees.leaves(X).T, self.log_weights)

    def to_state(self):
        return {"log_weights": self.log_weights.tolist(), **self.trees.to_state()}

    @classmethod
    def from_state(cls, n_features, state):
        trees = _Trees.from_state(state, n_features)
        weights = number_array(state["log_weights"], "adaboost log_weights", count=len(trees), least=0)
        if not weights.sum() > 0:
            raise DataError(f"adaboost log_weights must have a positive sum, got {weights.tolist()!r:.50}")
        return cls(n_features, [trees], weights)


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
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "algorithm": model.algorithm,
        "seed": spec.seed,
        "hyperparameters": spec.resolved(),
        "n_features": model.n_features,
        "state": model.to_state(),
    }


def from_dict(payload: dict) -> Regressor:
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise DataError(f"not a {MODEL_FORMAT} payload")
    version = payload.get("version")
    if version not in (1, MODEL_VERSION):
        raise DataError(f"unsupported model version {version!r}")
    number_array(version, "model version", int, ndim=0)  # true and 1.0 equal 1
    algorithm = payload.get("algorithm")
    if not isinstance(algorithm, str) or algorithm not in _MODEL_CLASSES:
        raise DataError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    state = payload.get("state")
    if not isinstance(state, dict):
        raise DataError(f"malformed {MODEL_FORMAT} payload: state must be an object")
    try:
        if version == 1:
            state = _state_from_v1(algorithm, state)
        n_features = int(number_array(payload["n_features"], "n_features", int, ndim=0, least=0))
        model = _MODEL_CLASSES[algorithm].from_state(n_features, state)
        model.spec = ModelSpec(
            algorithm,
            seed=int(number_array(payload.get("seed", 0), "seed", int, ndim=0, least=0)),
            hyperparameters={
                k: v
                for k, v in payload.get("hyperparameters", {}).items()
                if DEFAULT_HYPERPARAMETERS[algorithm].get(k) != v
            },
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # AttributeError: hyperparameters not an object
        raise DataError(f"malformed {MODEL_FORMAT} payload: {exc!r}") from exc
    return model


# where a v1 tree model keeps its list of per-tree node lists
_V1_TREES = {"dtree": "tree", "rforest": "trees", "gboost": "trees", "adaboost": "trees"}


def _state_from_v1(algorithm: str, state: dict) -> dict:
    """The v2 state of a v1 one: a tree model's trees packed into one set
    of node arrays; every other state is the same in both versions."""
    key = _V1_TREES.get(algorithm)
    if key is None:
        return state
    trees = [state[key]] if algorithm == "dtree" else state[key]
    rest = {k: v for k, v in state.items() if k != key}
    return {**rest, **_Trees.from_v1(trees).to_state()}

