"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from natcmd.classifiers import GestureModel  # noqa: E402

TINY = workloads.Sizes(
    per_label=200, companion_per_label=200, frames=600, companion_frames=300,
    polls=120, poll_slice=60, companion_poll_slice=40, vocabulary=400,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _session(workload: str, tmp_path: Path) -> workloads.Session:
    session = workloads.Session(workload, seed=5, workdir=tmp_path, sizes=TINY)
    session.prepare()
    return session


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_named_with_units(workload, tmp_path):
    session = _session(workload, tmp_path)
    metrics = session.measure(0)
    assert {k: unit for k, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    assert session.attempted > 0 and session.failed == 0, session.problems
    stream, polls = session.input_counts["stream"], session.input_counts["polls"]
    assert stream["hold_frames"] + stream["flicker_frames"] + stream["rest_frames"] \
        == stream["frames"] == len(session.frames)
    assert sum(polls[k] for k in ("silence", "exact", "gibberish", "utterance")) \
        == polls["polls"] == TINY.polls


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_per_layer_metrics_named_with_units(workload, tmp_path):
    session = _session(workload, tmp_path)
    spans = tmp_path / "spans.ndjson"
    metrics = session.measure_traced(0, spans)
    assert {k: unit for k, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert session.attempted > 0 and session.failed == 0, session.problems
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    # the sink is not the runner's own work: encoding nests under its span
    assert {records[r[3]][0] for r in records if r[0] == "dispatch.encode_event"} \
        == {"bench.sink"}


def test_permuted_labels_fail_the_gesture_check(tmp_path):
    session = _session("gesture-replay", tmp_path)
    session.setup()
    model = session.models["svm"]
    permuted = GestureModel(model.kind, model.label_set[1:] + model.label_set[:1], model.params)
    session.gesture_pass("svm", model=permuted)
    assert session.failed > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "train-eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
