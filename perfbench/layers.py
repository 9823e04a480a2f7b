"""Per-layer tracing for the benchmark.

A traced pass rebinds the public module-level functions of each foodcal
layer to timing wrappers, runs the CLI stages, and restores the originals.
Nothing in foodcal itself changes. Every wrapper records a span: its
duration and its self time (duration minus the wrapped calls it makes).
Private helpers (``_mask_kernels``, ``_cart_kernels``, ``synth._rasterize``,
``_Tree.predict``) are not wrapped, so their cost lands in the self time of
the public function that calls them.

A function imported by name into another module (``cli.gradcheck``) is
rebound in every foodcal module that holds it, so the call is traced
wherever it is looked up.
"""

import functools
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

from foodcal.measurement import ClassLabel
from foodcal.nnblocks.flops import conv_flops

# (module, function) pairs; every name here is public and survives the
# planned removal of the numba backend and the test-only helpers.
TARGETS = {
    "foodcal.manifests": ("read_manifest", "write_manifest"),
    "foodcal.maskgeom": ("connected_components", "trace_contour", "shape_stats", "read_pgm", "write_pgm"),
    "foodcal.measurement": ("scale_from_detections", "extract_features"),
    "foodcal.synth": ("generate_regression_dataset", "generate_scene", "draw_item"),
    "foodcal.preprocess": (
        "read_csv",
        "write_csv",
        "split",
        "zscore_filter",
        "zscore_keep_mask",
        "minmax_fit",
        "minmax_apply",
    ),
    "foodcal.regress": ("fit", "predict", "predict_matrix", "to_dict", "from_dict"),
    "foodcal.metrics": (
        "regression_metrics",
        "box_iou",
        "mask_iou",
        "match_detections",
        "average_precision",
        "map_summary",
        "detection_report",
        "summary_text",
    ),
    "foodcal.nnblocks.gradcheck": ("gradcheck",),
    "foodcal.nnblocks.ops": ("conv2d_fwd", "conv2d_bwd", "coordconv_fwd", "coordconv_bwd"),
    "foodcal.nnblocks.blocks": (
        "cbam_channel_attention_fwd",
        "cbam_spatial_attention_fwd",
        "cbam_fwd",
        "cbam_bwd",
        "c2f_cd_fwd",
        "c2f_cd_bwd",
    ),
}


def _span_name(module: str, func: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{func}"


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self._stack = []  # [span name, time covered by wrapped children]
        self.spans = defaultdict(list)  # name -> [(duration_s, self_s)], failed calls too
        self.counts = defaultdict(float)
        self.errors = defaultdict(int)  # name -> calls that raised
        self.covered_s = 0.0  # time inside top-level spans, bookkeeping included

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def wrap(self, name, fn):
        tracer = self
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            tracer._stack.append([name, 0.0])
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter()
                _, child = tracer._stack.pop()
                tracer.spans[name].append((t1 - t0, t1 - t0 - child))
                if ok and hook is not None:
                    hook(tracer, args, kwargs, result)
                elif not ok:
                    tracer.errors[name] += 1
                # the hook's time is excluded from every enclosing span
                covered = time.perf_counter() - t0
                if tracer._stack:
                    tracer._stack[-1][1] += covered
                else:
                    tracer.covered_s += covered

        return functools.wraps(fn)(traced)

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def install(self):
        """Rebind every target in every loaded foodcal module; returns the
        list of (module, attribute, original) needed to undo it."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("foodcal") and m is not None]
        undo = []
        for mod_name, funcs in TARGETS.items():
            home = sys.modules[mod_name]
            for func in funcs:
                original = getattr(home, func)
                wrapper = self.wrap(_span_name(mod_name, func), original)
                for mod in modules:
                    if vars(mod).get(func) is original:
                        setattr(mod, func, wrapper)
                        undo.append((mod, func, original))
        return undo

    @staticmethod
    def uninstall(undo) -> None:
        for mod, func, original in undo:
            setattr(mod, func, original)

    # -- reductions -----------------------------------------------------

    def self_ms(self, *names) -> float:
        return 1e3 * sum(s for n in names for _, s in self.spans.get(n, ()))

    def calls(self, *names) -> int:
        return sum(len(self.spans.get(n, ())) for n in names)

    def duration_pct_ms(self, name, q) -> float:
        durations = [d for d, _ in self.spans.get(name, ())]
        if not durations:
            return 0.0
        return 1e3 * float(np.percentile(durations, q))


# -- counters recorded at the layer boundaries ---------------------------


def _count_read_images(tracer, args, kwargs, result):
    tracer.count("manifests.images", len(result))


def _count_written_images(tracer, args, kwargs, result):
    tracer.count("manifests.images", len(args[1] if len(args) > 1 else kwargs["images"]))


def _count_components(tracer, args, kwargs, result):
    tracer.count("maskgeom.components", len(result))


def _count_trace(tracer, args, kwargs, result):
    mask = np.asarray(args[0])
    tracer.count("maskgeom.contour_points", len(result))
    tracer.count("maskgeom.fg_pixels", int(np.count_nonzero(mask)))
    tracer.count("maskgeom.traced_pixels", mask.size)


def _count_pgm_read(tracer, args, kwargs, result):
    tracer.count("maskgeom.pgm_bytes_read", os.path.getsize(args[0]))


def _count_pgm_write(tracer, args, kwargs, result):
    tracer.count("maskgeom.pgm_bytes_written", os.path.getsize(args[0]))


def _count_extract(tracer, args, kwargs, result):
    detections = args[0] if args else kwargs["detections"]
    tracer.count("measurement.instances", sum(d.label is not ClassLabel.COIN for d in detections))
    tracer.count("measurement.records", len(result))


def _count_scene(tracer, args, kwargs, result):
    tracer.count("synth.scenes")


def _count_zscore(tracer, args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    tracer.count("preprocess.rows_dropped_zscore", len(data) - len(result))


def _count_fit(tracer, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    tracer.count(f"regress.fit_s.{spec.algorithm}", tracer.spans["regress.fit"][-1][1])


def _count_predict_matrix(tracer, args, kwargs, result):
    tracer.count("regress.predict_rows", len(result))


def _count_predict(tracer, args, kwargs, result):
    tracer.count("regress.predict_rows", 1)


def _tree_nodes(state) -> int:
    """Nodes of every tree in a serialized model: the length of each
    ``feature`` array."""
    if isinstance(state, dict):
        if isinstance(state.get("feature"), list):
            return len(state["feature"])
        return sum(_tree_nodes(v) for v in state.values())
    if isinstance(state, list) and state and isinstance(state[0], (dict, list)):
        return sum(_tree_nodes(v) for v in state)
    return 0


def _count_from_dict(tracer, args, kwargs, result):
    payload = args[0] if args else kwargs["payload"]
    tracer.count("regress.tree_nodes", _tree_nodes(payload.get("state")))


def _count_conv_fwd(tracer, args, kwargs, result):
    p = args[1] if len(args) > 1 else kwargs["p"]
    n, c_out, oh, ow = result[0].shape
    kh, kw = p.kernel
    tracer.count("nnblocks.conv_flop", n * conv_flops(p.c_in, c_out, kh, kw, oh, ow))
    _count_block_fwd(tracer, args, kwargs, result)


def _count_block_fwd(tracer, args, kwargs, result):
    # a forward called straight from the gradient checker is one evaluation
    # of the block under test; nested forwards are its parts
    if tracer.parent() == "gradcheck.gradcheck":
        tracer.count("nnblocks.block_fwd_calls")


_HOOKS = {
    "manifests.read_manifest": _count_read_images,
    "manifests.write_manifest": _count_written_images,
    "maskgeom.connected_components": _count_components,
    "maskgeom.trace_contour": _count_trace,
    "maskgeom.read_pgm": _count_pgm_read,
    "maskgeom.write_pgm": _count_pgm_write,
    "measurement.extract_features": _count_extract,
    "synth.generate_scene": _count_scene,
    "preprocess.zscore_filter": _count_zscore,
    "regress.fit": _count_fit,
    "regress.predict_matrix": _count_predict_matrix,
    "regress.predict": _count_predict,
    "regress.from_dict": _count_from_dict,
    "ops.conv2d_fwd": _count_conv_fwd,
    "ops.coordconv_fwd": _count_block_fwd,
    "blocks.cbam_fwd": _count_block_fwd,
    "blocks.c2f_cd_fwd": _count_block_fwd,
}

ALGORITHMS = ("linear", "knn", "dtree", "rforest", "gboost", "adaboost")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("cli.self_ms", "ms", "lower"),
    ("manifests.read_ms", "ms", "lower"),
    ("manifests.write_ms", "ms", "lower"),
    ("manifests.images", "count", "higher"),
    ("maskgeom.label_ms", "ms", "lower"),
    ("maskgeom.trace_ms", "ms", "lower"),
    ("maskgeom.trace_p50_ms", "ms", "lower"),
    ("maskgeom.trace_p90_ms", "ms", "lower"),
    ("maskgeom.stats_ms", "ms", "lower"),
    ("maskgeom.pgm_read_ms", "ms", "lower"),
    ("maskgeom.pgm_write_ms", "ms", "lower"),
    ("maskgeom.components", "count", "lower"),
    ("maskgeom.contour_points", "count", "lower"),
    ("maskgeom.fg_frac", "ratio", "higher"),
    ("maskgeom.pgm_bytes_read", "B", "lower"),
    ("maskgeom.pgm_bytes_written", "B", "lower"),
    ("measurement.extract_ms", "ms", "lower"),
    ("measurement.extract_p50_ms", "ms", "lower"),
    ("measurement.extract_p90_ms", "ms", "lower"),
    ("measurement.instances", "count", "higher"),
    ("measurement.records", "count", "higher"),
    ("measurement.skipped", "count", "lower"),
    ("synth.scene_ms", "ms", "lower"),
    ("synth.scenes", "count", "higher"),
    ("synth.placement_failures", "count", "lower"),
    ("synth.attempts_per_scene", "ratio", "lower"),
    ("preprocess.csv_read_ms", "ms", "lower"),
    ("preprocess.csv_write_ms", "ms", "lower"),
    ("preprocess.prepare_ms", "ms", "lower"),
    ("preprocess.rows_dropped_zscore", "count", "lower"),
    *[(f"regress.fit_ms.{a}", "ms", "lower") for a in ALGORITHMS],
    ("regress.predict_ms", "ms", "lower"),
    ("regress.predict_rows", "count", "higher"),
    ("regress.predict_us_per_row", "us", "lower"),
    ("regress.to_dict_ms", "ms", "lower"),
    ("regress.from_dict_ms", "ms", "lower"),
    ("regress.tree_nodes", "count", "lower"),
    ("regress.bundle_bytes", "B", "lower"),
    ("metrics.report_ms", "ms", "lower"),
    ("metrics.match_ms", "ms", "lower"),
    ("metrics.mask_iou_ms", "ms", "lower"),
    ("metrics.mask_iou_calls", "count", "lower"),
    ("metrics.box_iou_calls", "count", "lower"),
    ("metrics.regression_ms", "ms", "lower"),
    ("nnblocks.conv_fwd_ms", "ms", "lower"),
    ("nnblocks.conv_bwd_ms", "ms", "lower"),
    ("nnblocks.cbam_fwd_ms", "ms", "lower"),
    ("nnblocks.other_ms", "ms", "lower"),
    ("nnblocks.block_fwd_calls", "count", "lower"),
    ("nnblocks.conv_gflop", "GFLOP", "lower"),
    ("nnblocks.conv_gflops_per_s", "GFLOP/s", "higher"),
    ("trace.plain_ms", "ms", "lower"),
    ("trace.traced_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("probe.before_ms", "ms", "lower"),
    ("probe.after_ms", "ms", "lower"),
]

# counts that must repeat exactly between two traced passes of one seed
EXACT_COUNTS = (
    "maskgeom.components",
    "maskgeom.contour_points",
    "maskgeom.pgm_bytes_read",
    "maskgeom.pgm_bytes_written",
    "regress.tree_nodes",
    "regress.bundle_bytes",
    "nnblocks.block_fwd_calls",
    "nnblocks.conv_gflop",
)


def layer_metrics(tr: Tracer, stage_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose CLI stages took
    ``stage_wall_s`` in total (traced)."""
    c = tr.counts
    m = {"cli.self_ms": 1e3 * (stage_wall_s - tr.covered_s)}

    m["manifests.read_ms"] = tr.self_ms("manifests.read_manifest")
    m["manifests.write_ms"] = tr.self_ms("manifests.write_manifest")
    m["manifests.images"] = c["manifests.images"]

    m["maskgeom.label_ms"] = tr.self_ms("maskgeom.connected_components")
    m["maskgeom.trace_ms"] = tr.self_ms("maskgeom.trace_contour")
    m["maskgeom.trace_p50_ms"] = tr.duration_pct_ms("maskgeom.trace_contour", 50)
    m["maskgeom.trace_p90_ms"] = tr.duration_pct_ms("maskgeom.trace_contour", 90)
    m["maskgeom.stats_ms"] = tr.self_ms("maskgeom.shape_stats")
    m["maskgeom.pgm_read_ms"] = tr.self_ms("maskgeom.read_pgm")
    m["maskgeom.pgm_write_ms"] = tr.self_ms("maskgeom.write_pgm")
    m["maskgeom.components"] = c["maskgeom.components"]
    m["maskgeom.contour_points"] = c["maskgeom.contour_points"]
    traced_px = c["maskgeom.traced_pixels"]
    m["maskgeom.fg_frac"] = c["maskgeom.fg_pixels"] / traced_px if traced_px else 0.0
    m["maskgeom.pgm_bytes_read"] = c["maskgeom.pgm_bytes_read"]
    m["maskgeom.pgm_bytes_written"] = c["maskgeom.pgm_bytes_written"]

    m["measurement.extract_ms"] = tr.self_ms("measurement.extract_features", "measurement.scale_from_detections")
    m["measurement.extract_p50_ms"] = tr.duration_pct_ms("measurement.extract_features", 50)
    m["measurement.extract_p90_ms"] = tr.duration_pct_ms("measurement.extract_features", 90)
    m["measurement.instances"] = c["measurement.instances"]
    m["measurement.records"] = c["measurement.records"]
    m["measurement.skipped"] = c["measurement.instances"] - c["measurement.records"]

    m["synth.scene_ms"] = tr.self_ms("synth.generate_regression_dataset", "synth.generate_scene", "synth.draw_item")
    m["synth.scenes"] = c["synth.scenes"]
    m["synth.placement_failures"] = tr.errors.get("synth.generate_scene", 0)
    attempts = tr.calls("synth.generate_scene")
    m["synth.attempts_per_scene"] = attempts / c["synth.scenes"] if c["synth.scenes"] else 0.0

    m["preprocess.csv_read_ms"] = tr.self_ms("preprocess.read_csv")
    m["preprocess.csv_write_ms"] = tr.self_ms("preprocess.write_csv")
    m["preprocess.prepare_ms"] = tr.self_ms(
        "preprocess.split",
        "preprocess.zscore_filter",
        "preprocess.zscore_keep_mask",
        "preprocess.minmax_fit",
        "preprocess.minmax_apply",
    )
    m["preprocess.rows_dropped_zscore"] = c["preprocess.rows_dropped_zscore"]

    for a in ALGORITHMS:
        m[f"regress.fit_ms.{a}"] = 1e3 * c[f"regress.fit_s.{a}"]
    m["regress.predict_ms"] = tr.self_ms("regress.predict_matrix", "regress.predict")
    m["regress.predict_rows"] = c["regress.predict_rows"]
    rows = c["regress.predict_rows"]
    m["regress.predict_us_per_row"] = 1e3 * m["regress.predict_ms"] / rows if rows else 0.0
    m["regress.to_dict_ms"] = tr.self_ms("regress.to_dict")
    m["regress.from_dict_ms"] = tr.self_ms("regress.from_dict")
    m["regress.tree_nodes"] = c["regress.tree_nodes"]
    m["regress.bundle_bytes"] = c["regress.bundle_bytes"]

    m["metrics.report_ms"] = tr.self_ms(
        "metrics.detection_report", "metrics.map_summary", "metrics.average_precision", "metrics.summary_text"
    )
    m["metrics.match_ms"] = tr.self_ms("metrics.match_detections")
    m["metrics.mask_iou_ms"] = tr.self_ms("metrics.mask_iou")
    m["metrics.mask_iou_calls"] = tr.calls("metrics.mask_iou")
    m["metrics.box_iou_calls"] = tr.calls("metrics.box_iou")
    m["metrics.regression_ms"] = tr.self_ms("metrics.regression_metrics")

    m["nnblocks.conv_fwd_ms"] = tr.self_ms("ops.conv2d_fwd", "ops.coordconv_fwd")
    m["nnblocks.conv_bwd_ms"] = tr.self_ms("ops.conv2d_bwd", "ops.coordconv_bwd")
    m["nnblocks.cbam_fwd_ms"] = tr.self_ms(
        "blocks.cbam_fwd", "blocks.cbam_channel_attention_fwd", "blocks.cbam_spatial_attention_fwd"
    )
    m["nnblocks.other_ms"] = tr.self_ms(
        "gradcheck.gradcheck", "blocks.cbam_bwd", "blocks.c2f_cd_fwd", "blocks.c2f_cd_bwd"
    )
    m["nnblocks.block_fwd_calls"] = c["nnblocks.block_fwd_calls"]
    m["nnblocks.conv_gflop"] = c["nnblocks.conv_flop"] / 1e9
    fwd_s = m["nnblocks.conv_fwd_ms"] / 1e3
    m["nnblocks.conv_gflops_per_s"] = m["nnblocks.conv_gflop"] / fwd_s if fwd_s > 0 else 0.0
    return m


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}


def counts_repeat(passes: list[dict[str, float]]) -> list[str]:
    """Names of exact counts that differ between traced passes."""
    return [k for k in EXACT_COUNTS if any(p[k] != passes[0][k] for p in passes)]
