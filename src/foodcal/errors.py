"""Exception types raised across the toolkit, the JSON-file reader that
turns a file it cannot parse into a ``DataError``, the checks of the
numbers it returns, the one JSON-file writer, and the base64 codec for the
arrays that JSON files store as strings."""

import base64
import json
import math
import sys
from contextlib import suppress
from itertools import chain

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


def number_array(values, name, kind=(int, float), ndim=1, count=None, least=None) -> np.ndarray:
    """``values`` as an int64 array for ``kind`` ``int``, else a float64 one:
    one number (``ndim`` 0), a list of them (1) or a list of such lists of
    one length (2), ``count`` long when given. Each number must pass
    ``is_number(value, kind)``, be ``>= least`` when given and, if a JSON
    integer, fit int64; anything else is a ``DataError`` naming ``name``.
    A list is checked by its set of types and converted by one
    ``np.fromiter``, not a call per value."""
    a, dtype = None, np.int64 if kind is int else np.float64
    if ndim == 0:
        if is_number(values, kind) and (type(values) is float or -2**63 <= values < 2**63) and count is None:
            a = np.array(values, dtype) if least is None or values >= least else None
    elif type(values) is list and (ndim == 1 or set(map(type, values)) == {list} and len(set(map(len, values))) == 1):
        flat = values if ndim == 1 else list(chain.from_iterable(values))
        types = set(map(type, flat))
        with suppress(OverflowError):  # raised by an int outside int64
            if types == {int, float}:  # a float64 conversion would not range-check the ints
                np.fromiter([v for v in flat if type(v) is int], np.int64)
            if types <= ({int} if kind is int else {int, float}) and count in (None, len(values)):
                b = np.fromiter(flat, np.float64 if float in types else np.int64, len(flat)).astype(dtype, copy=False)
                if (float not in types or np.isfinite(b).all()) and (least is None or not (b < least).any()):
                    a = b.reshape(len(values), len(values[0])) if ndim == 2 else b
    if a is None:
        one, many = ("an integer", "integers") if kind is int else ("a finite number", "finite numbers")
        what = [one, f"{count or 'a list of'} {many}", f"a list of lists of {many}"][ndim]
        raise DataError(f"{name} must be {what}{'' if least is None else f' >= {least}'}, got {values!r:.50}")
    return a


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
