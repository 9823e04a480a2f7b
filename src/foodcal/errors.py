"""Exception types raised across the toolkit, the JSON-file reader that
turns a file it cannot parse into a ``DataError``, the type test for the
numbers it returns, the one JSON-file writer, and the base64 codec for the
arrays that JSON files store as strings."""

import base64
import json
import math
import sys

import numpy as np


class FoodcalError(Exception):
    """Base class for all toolkit errors."""


class EmptyComponent(FoodcalError):
    """A mask operation received a component with no foreground pixels."""


class NoReferenceObject(FoodcalError):
    """No coin instance among the detections."""


class InvalidDimension(FoodcalError):
    """Non-positive pixel dimension passed to the scaling computation."""


class UnknownDensity(FoodcalError):
    """No calorie density available for the requested class."""


class CoinNotEncodable(FoodcalError):
    """The coin class has no one-hot slot in the regression feature layout."""


class EmptyDataset(FoodcalError):
    """An operation that fits parameters received zero rows."""


class TooFewRows(FoodcalError):
    """Outlier filtering needs at least two rows."""


class ShapeMismatch(FoodcalError):
    """Tensor or parameter shapes are inconsistent."""


class DimensionMismatch(FoodcalError):
    """Feature vector length does not match the trained layout."""


class SingularSystem(FoodcalError):
    """Normal equations unsolvable even with the ridge fallback."""


class ZeroTotalWeight(FoodcalError):
    """Weighted median of weights that sum to zero."""


class LengthMismatch(FoodcalError):
    """Prediction and truth vectors differ in length."""


class DegenerateTarget(FoodcalError):
    """R^2 undefined because the truth vector has zero variance."""


class NoGroundTruth(FoodcalError):
    """Average precision requested with zero ground-truth instances."""


class PlacementFailure(FoodcalError):
    """Could not place all scene items without overlap within the retry budget."""


class DataError(FoodcalError):
    """Malformed input file (mask, manifest, CSV, or model)."""


def _reject_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):  # 1e999 overflows to inf
        raise ValueError(f"{text} is not a finite number")
    return value


def read_json(path, what: str):
    """The JSON document in ``path``. A file that is not UTF-8, not JSON, or
    holds NaN, Infinity or a number that overflows a float raises
    ``DataError`` naming the file as ``what``."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f, parse_float=_finite_float, parse_constant=_reject_constant)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{path}: invalid JSON {what}: {exc}") from exc


def is_number(value, kind=(int, float)) -> bool:
    """Whether a value ``read_json`` returned is a number of ``kind`` (``int``
    for a JSON integer) that converts to a finite float. A bool is not."""
    return isinstance(value, kind) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def write_json(path, payload, indent=None) -> None:
    """Write ``payload`` to ``path`` as JSON with a trailing newline. The
    bytes are those of ``json.dump``, but ``json.dumps`` encodes without
    indent in C, where ``json.dump`` always runs the Python encoder."""
    text = json.dumps(payload, indent=indent) + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def encode_array(a, dtype) -> str:
    """The bytes of ``a`` as ``dtype``, base64-encoded for a JSON string."""
    return base64.b64encode(np.asarray(a, dtype=dtype).tobytes()).decode("ascii")


def decode_array(text, dtype, name) -> np.ndarray:
    """The read-only ``dtype`` array that ``encode_array`` made. What is not a
    base64 string of a whole number of values is a ``DataError`` naming
    ``name``."""
    if not isinstance(text, str):
        raise DataError(f"{name} must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise DataError(f"{name}: invalid base64") from exc
    if len(raw) % np.dtype(dtype).itemsize:
        raise DataError(f"{name}: {len(raw)} bytes is not a whole number of {np.dtype(dtype).name} values")
    return np.frombuffer(raw, dtype=dtype)
