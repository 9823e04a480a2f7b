"""foodcal benchmark: end-to-end CLI stages and per-layer traces.

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 10 --trace 0

Run from the root of a foodcal checkout; the package is imported from its
``src/``. The seed makes the workload's inputs. With ``--trace 0`` the
stages run untraced and the end-to-end metrics are reported; with
``--trace 1`` plain and traced passes alternate and the per-layer metrics
are reported, with the tracing overhead. Stdout ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. See README.md.
"""

import argparse
import hashlib
import importlib.util
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# set-up runs up to SETUP_REPEATS times and stops early once the set-ups so
# far took SETUP_BUDGET_S; a long set-up is steady on its own, and repeating
# the 7-11 s set-up of fit or build would double or triple their runs
SETUP_REPEATS = 3
SETUP_BUDGET_S = 4.0
# the per-stage median over three passes or more drops a first-pass effect
MIN_PASSES = 3
# Times are reported at the machine speed where the reference loop takes
# this long (about its time on a 2-CPU x86-64 cloud VM with Python 3.11 when
# the VM's neighbours are quiet): each stage's wall time is scaled by
# REFERENCE_LOOP_S over the loop's time measured around that stage. Raw wall
# times are printed on the # lines.
REFERENCE_LOOP_S = 0.005
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_header(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "reference_loop_ms": 1e3 * REFERENCE_LOOP_S,
    }


def probe_ms() -> float:
    """Median of five reference loops, in ms: the machine's speed now."""
    from workloads import reference_loop_s

    return 1e3 * statistics.median(reference_loop_s() for _ in range(5))


class Runner:
    """Runs passes of one workload and tallies attempted and failed stages."""

    def __init__(self, workload, sink):
        self.workload = workload
        self.sink = sink
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None):
        from workloads import run_stage

        results = []
        undo = tracer.install() if tracer is not None else None
        try:
            for stage in self.workload.stages():
                res = run_stage(stage, self.sink)
                if tracer is not None and stage.model is not None:
                    tracer.count("regress.bundle_bytes", stage.model.stat().st_size)
                results.append(res)
        finally:
            if undo is not None:
                tracer.uninstall(undo)
        for res in results:
            self.attempted += 1
            if res.error is not None:
                self.failed += 1
                print(f"perfbench: stage {res.name} failed: {res.error}", file=sys.stderr)
        return results


def _setup_child(wl, work: Path, seed: int, conn) -> None:
    before = probe_ms()
    t0 = time.perf_counter()
    wl.setup(work, seed)
    raw = time.perf_counter() - t0
    conn.send((vars(wl), raw, (before + probe_ms()) / 2e3))
    conn.close()


def set_up(wl, work: Path, seed: int) -> tuple[float, float]:
    """Run ``wl.setup`` in a forked child and copy the state it made back.

    Set-up holds far more in memory than a pass (every scene of the
    workload, a training run), so it runs apart and this process's peak
    RSS covers only the passes. Returns the set-up's time and the reference
    loop's time around it, both measured in the child."""
    _fresh(work)
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    sys.stdout.flush()
    child = ctx.Process(target=_setup_child, args=(wl, work, seed, send))
    child.start()
    send.close()
    try:
        state, raw, probe = recv.recv()
    except EOFError:
        state = None
    finally:
        recv.close()
        child.join()
    if state is None or child.exitcode != 0:
        raise RuntimeError(f"set-up of {wl.name} failed (exit code {child.exitcode})")
    vars(wl).update(state)
    return raw, probe


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def stage_medians(passes, scaled=True) -> dict[str, float]:
    """Median time of each stage over the passes, at the reference machine
    speed unless ``scaled`` is false. Summing these rather than taking the
    median pass keeps a burst of contention in one stage from moving the
    whole pass."""

    def t(r):
        return r.wall_s * REFERENCE_LOOP_S / r.probe_s if scaled else r.wall_s

    return {r.name: statistics.median(t(p[i]) for p in passes) for i, r in enumerate(passes[0])}


def end_to_end(runner: Runner, work: Path, seed: int, seconds: float) -> tuple[dict, dict]:
    """Set up (repeatedly, see SETUP_REPEATS), then time untraced passes."""
    wl = runner.workload
    setups, setups_raw = [], []
    while len(setups) < SETUP_REPEATS and sum(setups_raw) < SETUP_BUDGET_S:
        raw, probe = set_up(wl, work, seed)
        setups_raw.append(raw)
        setups.append(raw * REFERENCE_LOOP_S / probe)
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(runner.run_pass())
    wall = stage_medians(passes)
    named = wl.summary(wall)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # this process only: set-up ran in children, which RUSAGE_SELF excludes
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "wall_s": (sum(wall.values()), "s"),
        "rate_per_s": (named[wl.rate[0]], wl.rate[1]),
    }
    raw = {
        "setups": len(setups),
        "passes": len(passes),
        "raw_setup_s": statistics.median(setups_raw),
        "raw_wall_s": sum(stage_medians(passes, scaled=False).values()),
        "stage_probe_ms": 1e3 * statistics.median(r.probe_s for p in passes for r in p),
    }
    return metrics, {**named, **raw}


def per_layer(runner: Runner, work: Path, seed: int, seconds: float) -> tuple[dict, bool]:
    """Alternate plain and traced passes (two pairs at least); per-layer
    metrics are medians over the traced passes."""
    from layers import PER_LAYER, Tracer, counts_repeat, layer_metrics, median_metrics

    set_up(runner.workload, work, seed)
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        plain.append(runner.run_pass())
        tracer = Tracer()
        traced.append(runner.run_pass(tracer))
        layers.append(layer_metrics(tracer, sum(r.wall_s for r in traced[-1])))
    values = median_metrics(layers)
    values["trace.plain_ms"] = 1e3 * sum(stage_medians(plain).values())
    values["trace.traced_ms"] = 1e3 * sum(stage_medians(traced).values())
    values["trace.overhead_ms"] = values["trace.traced_ms"] - values["trace.plain_ms"]
    drift = counts_repeat(layers)
    for name in drift:
        print(f"perfbench: count {name} differs between traced passes", file=sys.stderr)
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {k: (values[k], units[k]) for k in units if k in values}, not drift


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("estimate", "build", "fit", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "foodcal" / "__init__.py").is_file():
        print(f"perfbench: no foodcal sources under {ROOT / 'src'}; run from a foodcal checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    header = run_header(args)
    header["probe_before_ms"] = probe_ms()
    print(json.dumps({"header": header}), flush=True)

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    with open(os.devnull, "w") as sink:
        runner = Runner(WORKLOADS[args.workload](), sink)
        try:
            if args.trace:
                metrics, counts_ok = per_layer(runner, work, args.seed, args.seconds)
                named = {}
            else:
                metrics, named = end_to_end(runner, work, args.seed, args.seconds)
                counts_ok = True
        finally:
            shutil.rmtree(work, ignore_errors=True)
            if work.parent.is_dir() and not any(work.parent.iterdir()):
                work.parent.rmdir()
    probe_after = probe_ms()
    if args.trace:
        metrics["probe.before_ms"] = (header["probe_before_ms"], "ms")
        metrics["probe.after_ms"] = (probe_after, "ms")

    print(f"# {args.workload} seed {args.seed}: probe {header['probe_before_ms']:.3f} -> {probe_after:.3f} ms")
    failed_frac = runner.failed / runner.attempted
    for name, (value, unit) in [*metrics.items(), ("failed_frac", (failed_frac, "1"))]:
        print(f"#   {name:<34} {value:>14.6g} {unit}")
    for name, value in named.items():
        print(f"#   {name:<34} {value:>14.6g}")
    print(
        json.dumps(
            {
                "correct": runner.failed == 0 and counts_ok,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
