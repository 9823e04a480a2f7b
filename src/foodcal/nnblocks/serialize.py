"""Versioned JSON layout for block parameters.

Arrays serialize as nested lists (row-major, full float precision via JSON
repr); field order follows the parameter dataclasses. The "kind" field
selects the parameter type: conv, cbam, or c2fcd.
"""

import numpy as np

from foodcal.errors import DataError, ShapeMismatch, read_json, write_json
from foodcal.nnblocks.blocks import C2fCdParams, CbamParams
from foodcal.nnblocks.ops import ConvParams

PARAMS_FORMAT = "foodcal-nnblock"
PARAMS_VERSION = 1


def _conv_dict(p: ConvParams) -> dict:
    return {
        "weight": p.weight.tolist(),
        "bias": p.bias.tolist(),
        "stride": p.stride,
        "padding": p.padding,
    }


def _conv_from(d: dict) -> ConvParams:
    return ConvParams(np.array(d["weight"]), np.array(d["bias"]), d["stride"], d["padding"])


def _cbam_dict(p: CbamParams) -> dict:
    return {
        "w1": p.w1.tolist(),
        "b1": p.b1.tolist(),
        "w2": p.w2.tolist(),
        "b2": p.b2.tolist(),
        "spatial": _conv_dict(p.spatial),
        "reduction": p.reduction,
    }


def _cbam_from(d: dict) -> CbamParams:
    return CbamParams(
        np.array(d["w1"]),
        np.array(d["b1"]),
        np.array(d["w2"]),
        np.array(d["b2"]),
        _conv_from(d["spatial"]),
        d["reduction"],
    )


def to_dict(params) -> dict:
    if isinstance(params, ConvParams):
        kind, body = "conv", _conv_dict(params)
    elif isinstance(params, CbamParams):
        kind, body = "cbam", _cbam_dict(params)
    elif isinstance(params, C2fCdParams):
        kind, body = "c2fcd", {
            "entry": _conv_dict(params.entry),
            "bottlenecks": [[_conv_dict(p1), _conv_dict(p2)] for p1, p2 in params.bottlenecks],
            "cbam": _cbam_dict(params.cbam),
            "exit": _conv_dict(params.exit),
        }
    else:
        raise TypeError(f"unsupported parameter object {type(params)!r}")
    return {"format": PARAMS_FORMAT, "version": PARAMS_VERSION, "kind": kind, "params": body}


def from_dict(payload: dict):
    if not isinstance(payload, dict) or payload.get("format") != PARAMS_FORMAT:
        raise DataError(f"not a {PARAMS_FORMAT} payload")
    if payload.get("version") != PARAMS_VERSION:
        raise DataError(f"unsupported block-params version {payload.get('version')}")
    kind = payload.get("kind")
    if kind not in ("conv", "cbam", "c2fcd"):
        raise DataError(f"unknown block kind {kind!r}")
    try:
        body = payload["params"]
        if kind == "conv":
            return _conv_from(body)
        if kind == "cbam":
            return _cbam_from(body)
        return C2fCdParams(
            entry=_conv_from(body["entry"]),
            bottlenecks=[(_conv_from(a), _conv_from(b)) for a, b in body["bottlenecks"]],
            cbam=_cbam_from(body["cbam"]),
            exit=_conv_from(body["exit"]),
        )
    except (KeyError, TypeError, ValueError, ShapeMismatch) as exc:
        raise DataError(f"malformed {PARAMS_FORMAT} {kind} payload: {exc!r}") from exc


def save_params(params, path) -> None:
    write_json(path, to_dict(params))


def load_params(path):
    return from_dict(read_json(path, "block-params file"))
