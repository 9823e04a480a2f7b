"""Regression-dataset preparation and mask augmentation.

Feature layout is fixed: five one-hot class columns (declaration order)
followed by height_mm, width_mm, area_mm2, perimeter_mm; the target is
calories_kcal. Z-score outlier removal uses the population standard
deviation with a strict threshold and covers the numeric features and the
target; min-max parameters are fit on training rows only. On disk the
dataset is a UTF-8 CSV with header
``class,height_mm,width_mm,area_mm2,perimeter_mm,calories_kcal``.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from foodcal.errors import CoinNotEncodable, DataError, EmptyDataset, TooFewRows
from foodcal.measurement import FOOD_CLASSES, ClassLabel, FeatureRecord

NUMERIC_NAMES = ("height_mm", "width_mm", "area_mm2", "perimeter_mm")
CSV_FIELDS = ("class",) + NUMERIC_NAMES + ("calories_kcal",)
N_FEATURES = len(FOOD_CLASSES) + len(NUMERIC_NAMES)
NUMERIC = slice(len(FOOD_CLASSES), N_FEATURES)
SPLIT_FRACTIONS = (0.8, 0.1, 0.1)  # train, valid, test


def _column(label: ClassLabel) -> int:
    """The one-hot column of a food class: its place in declaration order."""
    if label is ClassLabel.COIN:
        raise CoinNotEncodable("the coin is not a food class")
    return FOOD_CLASSES.index(label)


@dataclass
class RegressionDataset:
    """Feature matrix (n, 9) and calorie targets (n,), both float64."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2 or self.X.shape[1] != N_FEATURES:
            raise ValueError(f"X must be (n, {N_FEATURES}), got {self.X.shape}")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("y length must match X rows")

    def __len__(self):
        return self.X.shape[0]

    def take(self, idx) -> "RegressionDataset":
        return RegressionDataset(self.X[idx], self.y[idx])

    @classmethod
    def from_columns(cls, hot, numeric, y) -> "RegressionDataset":
        """Rows of one-hot class column ``hot[i]`` and the numeric features
        ``numeric[i]``, with targets ``y``."""
        X = np.zeros((len(hot), N_FEATURES))
        X[np.arange(len(hot)), hot] = 1.0
        X[:, NUMERIC] = np.reshape(numeric, (-1, len(NUMERIC_NAMES)))
        return cls(X, y)

    @classmethod
    def from_records(cls, records: list[FeatureRecord]) -> "RegressionDataset":
        hot = [_column(r.label) for r in records]
        numeric = [(r.height_mm, r.width_mm, r.area_mm2, r.perimeter_mm) for r in records]
        y = [np.nan if r.calories_kcal is None else r.calories_kcal for r in records]
        return cls.from_columns(hot, numeric, y)


def write_csv(path, records: list[FeatureRecord]) -> None:
    """Write records with full float round-trip precision."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_FIELDS)
        for r in records:
            cal = "" if r.calories_kcal is None else repr(float(r.calories_kcal))
            writer.writerow(
                [r.label.value]
                + [repr(float(v)) for v in (r.height_mm, r.width_mm, r.area_mm2, r.perimeter_mm)]
                + [cal]
            )


# the one-hot column of each food class name; the coin has none
_FOOD_COLUMNS = {label.value: j for j, label in enumerate(FOOD_CLASSES)}


def read_csv(path) -> RegressionDataset:
    """The dataset of a CSV that ``write_csv`` wrote, every row labelled.
    Text that is not UTF-8 CSV, a row with more or fewer fields than the
    header, a bad class name or number, a non-finite feature or target, an
    empty ``calories_kcal`` or a Coin row raises ``DataError`` naming the
    line. Blank lines are skipped.

    The rows are parsed by columns: the class names through one dict, each
    numeric column by one ``np.fromiter`` and finiteness by one array test.
    When that fails, the rows are walked again one at a time, and the first
    at fault gives the error."""
    rows, lines = [], []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            if next(reader, None) != list(CSV_FIELDS):
                raise DataError(f"{path}: expected header {','.join(CSV_FIELDS)}")
            for row in reader:
                if row:
                    rows.append(row)
                    lines.append(reader.line_num)
        except (UnicodeDecodeError, csv.Error) as exc:
            _raise_first_fault(path, rows, lines)  # a row read before the fault
            raise DataError(f"{path}: not UTF-8 CSV: {exc}") from exc
    n = len(rows)
    try:
        if any(len(row) != len(CSV_FIELDS) for row in rows):
            raise ValueError
        names, *columns = list(zip(*rows)) or [()] * len(CSV_FIELDS)
        hot = [_FOOD_COLUMNS[name] for name in names]
        values = np.array([np.fromiter(map(float, column), np.float64, n) for column in columns])
        if not np.isfinite(values).all():
            raise ValueError
    except (KeyError, ValueError):
        _raise_first_fault(path, rows, lines)
        raise
    return RegressionDataset.from_columns(hot, values[: len(NUMERIC_NAMES)].T, values[-1])


def _raise_first_fault(path, rows, lines) -> None:
    """Raise the ``DataError`` of the first of ``rows``, found on ``lines``,
    that ``read_csv`` rejects on its own."""
    for row, line in zip(rows, lines):
        where = f"{path}: line {line}"
        if len(row) != len(CSV_FIELDS):
            raise DataError(f"{where}: {len(row)} fields, but the header has {len(CSV_FIELDS)}")
        try:
            label = ClassLabel.from_name(row[0])
            values = [float(v) for v in row[1:-1]] + [float(row[-1]) if row[-1] else 0.0]
        except ValueError as exc:
            raise DataError(f"{where}: bad row {dict(zip(CSV_FIELDS, row))}: {exc}") from exc
        if label is ClassLabel.COIN:
            raise DataError(f"{where}: the coin is not a food class")
        if not all(map(math.isfinite, values)):
            bad = [name for name, v in zip(CSV_FIELDS[1:], values) if not math.isfinite(v)]
            raise DataError(f"{where}: non-finite {', '.join(bad)}")
        if not row[-1]:
            raise DataError(f"{where}: calories_kcal is empty")


@dataclass(frozen=True)
class NormalizationParams:
    """Per-numeric-feature (min, max) learned from training rows."""

    mins: tuple[float, ...]
    maxs: tuple[float, ...]


def minmax_fit(train: RegressionDataset) -> NormalizationParams:
    if len(train) == 0:
        raise EmptyDataset("cannot fit normalization on an empty dataset")
    cols = train.X[:, NUMERIC]
    return NormalizationParams(
        mins=tuple(float(v) for v in cols.min(axis=0)),
        maxs=tuple(float(v) for v in cols.max(axis=0)),
    )


def minmax_apply(params: NormalizationParams, data: RegressionDataset) -> RegressionDataset:
    """(x - min) / (max - min) on the numeric columns; a constant training
    column maps to 0. Values outside the training range are not clipped."""
    X = data.X.copy()
    mins = np.array(params.mins)
    span = np.array(params.maxs) - mins
    cols = X[:, NUMERIC]
    X[:, NUMERIC] = np.where(span > 0, (cols - mins) / np.where(span > 0, span, 1.0), 0.0)
    return RegressionDataset(X, data.y.copy())


def zscore_keep_mask(data: RegressionDataset, threshold: float = 2.0) -> np.ndarray:
    """Rows to retain: a row is dropped when any numeric feature or the
    target has |x - mean| / population_std strictly above the threshold.
    Zero-std columns contribute z = 0."""
    if len(data) < 2:
        raise TooFewRows("z-score filtering needs at least two rows")
    cols = np.column_stack([data.X[:, NUMERIC], data.y])
    mean = cols.mean(axis=0)
    std = cols.std(axis=0)  # population std (ddof=0)
    z = np.where(std > 0, np.abs(cols - mean) / np.where(std > 0, std, 1.0), 0.0)
    return ~(z > threshold).any(axis=1)


def zscore_filter(data: RegressionDataset, threshold: float = 2.0) -> RegressionDataset:
    return data.take(zscore_keep_mask(data, threshold))


def split(
    data: RegressionDataset,
    fractions: tuple[float, float, float] = SPLIT_FRACTIONS,
    seed: int = 0,
) -> tuple[RegressionDataset, RegressionDataset, RegressionDataset]:
    """Seeded uniform shuffle, then a contiguous train/valid/test split.

    Valid and test sizes are floored; leftover rows go to train. The same
    seed always yields identical partitions.
    """
    if not math.isclose(sum(fractions), 1.0, abs_tol=1e-9):
        raise ValueError(f"fractions must sum to 1, got {fractions}")
    n = len(data)
    perm = np.random.default_rng(seed).permutation(n)
    n_valid = int(n * fractions[1])
    n_test = int(n * fractions[2])
    n_train = n - n_valid - n_test
    return (
        data.take(perm[:n_train]),
        data.take(perm[n_train : n_train + n_valid]),
        data.take(perm[n_train + n_valid :]),
    )


def augment(
    mask: np.ndarray, boxes, mode: str
) -> tuple[np.ndarray, list[tuple[int, int, int, int]]]:
    """Flip or rotate a mask together with its (x, y, w, h) boxes.

    hflip maps pixel (x, y) to (w-1-x, y); rot90 rotates counter-clockwise,
    mapping (x, y) to (y, w-1-x) and swapping the image dimensions.
    """
    m = np.asarray(mask)
    h, w = m.shape
    boxes = [tuple(int(v) for v in b) for b in boxes]
    if mode == "hflip":
        out = m[:, ::-1].copy()
        new_boxes = [(w - x - bw, y, bw, bh) for x, y, bw, bh in boxes]
    elif mode == "rot90":
        out = np.rot90(m).copy()
        new_boxes = [(y, w - x - bw, bh, bw) for x, y, bw, bh in boxes]
    else:
        raise ValueError(f"unknown augmentation mode {mode!r}")
    return out, new_boxes

