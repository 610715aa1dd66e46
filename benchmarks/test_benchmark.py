"""Tests of the benchmark itself, on its smoke mode (about 50 objects).

    python -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
from densegaze import pipeline  # noqa: E402
from densegaze.core import BoundingBox, SceneExtent  # noqa: E402
from densegaze.gaze import DetectorAdapter, OracleDetector, run_gaze  # noqa: E402
from densegaze.merge import GlobalDetection  # noqa: E402
from densegaze.synth import SceneSpec  # noqa: E402

DECLARED = harness.declared_metrics()


def run_script(*args: str, script: Path = HERE / "run.py", cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, cwd=cwd, timeout=170
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_runs_every_workload_and_prints_every_metric(trace, kind):
    proc = run_script("--workload", "all", "--smoke", "--seconds", "0.5", "--seed", "3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    expected = {f"{w}.{m}" for w in bench_run.WORKLOAD_NAMES for m in DECLARED[kind]}
    assert set(result["metrics"]) == expected
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"]), name
        assert m["unit"] == DECLARED[kind][name.split(".", 1)[1]]["unit"]


def test_counts_and_digests_repeat_and_tracing_does_not_change_them():
    untraced = harness.run_workload("crowd_noisy", 5, 0.2, trace=False, is_smoke=True)
    traced = harness.run_workload("crowd_noisy", 5, 0.2, trace=True, is_smoke=True)
    assert untraced["failed"] == 0 and traced["failed"] == 0
    assert untraced["scenes"] == traced["scenes"]
    assert all(s["digest"] and s["counts"]["gaze.raw_dets"] > 0 for s in traced["scenes"])


def test_traced_run_writes_spans_and_restores_the_pipeline():
    report = harness.run_workload("gaze_pool", 1, 0.2, trace=True, is_smoke=True)
    spans = json.loads((ROOT / report["spans_file"]).read_text(encoding="utf-8"))["spans"]
    assert all(set(s) == {"id", "name", "op", "parent", "start", "end"} for s in spans)
    by_id = {s["id"]: s for s in spans}
    detects = [s for s in spans if s["name"] == "gaze.detect"]
    assert detects and all(by_id[s["parent"]]["name"] == "gaze.run_gaze" for s in detects)
    assert pipeline.run_gaze is run_gaze


def test_instrumented_adapter_keeps_the_detect_call_path():
    adapter = OracleDetector([])
    with tracing.Tracer().instrument(adapter, op=0):
        assert not hasattr(adapter, "detect_batch")
        assert "detect" in vars(adapter)
    assert "detect" not in vars(adapter)


def test_self_time_subtracts_the_union_of_children():
    parent = {"start": 0.0, "end": 10.0}
    children = [{"start": 1.0, "end": 3.0}, {"start": 2.0, "end": 4.0}, {"start": 8.0, "end": 12.0}]
    assert tracing.self_time(parent, children) == pytest.approx(5.0)


def test_detections_outside_the_scene_or_out_of_range_scores_are_flagged():
    extent = SceneExtent(100, 100)
    run = SimpleNamespace(
        detections=[
            GlobalDetection(BoundingBox(10.0, 10.0, 5.0, 5.0), 0.9),
            GlobalDetection(BoundingBox(98.0, 10.0, 5.0, 5.0), 0.9),
            GlobalDetection(BoundingBox(10.0, 10.0, 5.0, 5.0), 1.5),
        ]
    )
    problems = harness.detection_problems(run, extent)
    assert len(problems) == 2
    assert "outside" in problems[0] and "score" in problems[1]


class _Broken(DetectorAdapter):
    def detect(self, np_patch):
        raise RuntimeError("detector down")


def test_failed_operations_are_counted_not_fatal(tmp_path):
    workload = harness.smoke(harness.WORKLOADS["stock_oracle"])
    scenes = [harness.set_up(workload, 0, k, tmp_path, None) for k in range(workload.scenes)]
    for scene in scenes:
        scene.adapter = _Broken()
    loop = harness.measure(workload, scenes, 0.05, None)
    assert loop.attempted >= len(scenes) and loop.failed == loop.attempted
    assert "detector down" in loop.failures[0]


def test_changed_digest_is_a_failure(tmp_path):
    workload = harness.smoke(harness.WORKLOADS["stock_oracle"])
    scene = harness.set_up(workload, 0, 0, tmp_path, None)
    assert harness.check_repeat(scene, "a", {"merge.kept": 3}) == []
    assert harness.check_repeat(scene, "a", {"merge.kept": 3}) == []
    assert len(harness.check_repeat(scene, "b", {"merge.kept": 4})) == 2


def test_infeasible_scene_is_a_setup_failure(tmp_path):
    workload = replace(
        harness.smoke(harness.WORKLOADS["crowd_noisy"]),
        spec=SceneSpec(object_count=50, foreground_fraction_target=0.3),
    )
    with pytest.raises(harness.SetupError, match="infeasible"):
        harness.set_up(workload, 0, 0, tmp_path, None)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_script("--workload", "stock_oracle", "--smoke", "--seconds", "0.5",
                      script=tmp_path / "benchmarks" / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
