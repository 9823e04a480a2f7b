"""Tests of the benchmark itself.

The counts a later change may quote as evidence must repeat exactly
between two traced runs of one seed, each from its own set-up. Sizes are
cut down so the four workloads run in seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "ESTIMATE_CHUNKS": 1,
    "ESTIMATE_CHUNK_SCENES": 2,
    "BUILD_CHUNKS": 1,
    "BUILD_RECORDS": 6,
    "FIT_RECORDS": 200,
    "AUDIT_CHUNKS": 1,
    "AUDIT_CHUNK_SCENES": 3,
}


def _traced_counts(name, work, seed):
    wl = workloads.WORKLOADS[name]()
    work.mkdir()
    with open(os.devnull, "w") as sink:
        runner = run.Runner(wl, sink)
        wl.setup(work, seed)
        tracer = layers.Tracer()
        results = runner.run_pass(tracer)
    assert runner.failed == 0, [r.error for r in results if r.error]
    metrics = layers.layer_metrics(tracer, sum(r.wall_s for r in results))
    return {k: metrics[k] for k in layers.EXACT_COUNTS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_exact_counts_repeat(name, tmp_path, monkeypatch):
    for key, value in SMALL.items():
        monkeypatch.setattr(workloads, key, value)
    first = _traced_counts(name, tmp_path / "a", seed=3)
    second = _traced_counts(name, tmp_path / "b", seed=3)
    assert first == second


def test_tracing_restores_every_function():
    import foodcal.cli
    import foodcal.maskgeom

    before = (foodcal.maskgeom.trace_contour, foodcal.cli.gradcheck)
    tracer = layers.Tracer()
    undo = tracer.install()
    assert foodcal.maskgeom.trace_contour is not before[0]
    assert foodcal.cli.gradcheck is not before[1]
    tracer.uninstall(undo)
    assert (foodcal.maskgeom.trace_contour, foodcal.cli.gradcheck) == before


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
