"""One frame rule for every entry point.

A frame is 63 finite numbers, and a coordinate is any token Python's
``float()`` reads. The dataset CSV and JSONL loaders and ``natcmd predict
--frame`` reject a bad frame with a ParseError naming its line; ``natcmd run
--frames`` skips it and counts it in ``frames_skipped``. A frame of finite
coordinates whose winning score overflows to inf or NaN is invalid too:
``natcmd predict`` exits 2 and ``natcmd run`` skips it.
"""

import json
import logging
from dataclasses import replace

import numpy as np
import pytest

import natcmd.classifiers
import natcmd.dispatch
from natcmd import (
    FRAME_SIZE,
    GestureModel,
    StabilityPolicy,
    as_frame,
    load_landmark_dataset,
    load_model,
    run_gesture_stream,
    save_model,
)
from natcmd.cli import run_cli
from natcmd.dataset import CSV_HEADER, as_frames, read_frame
from natcmd.errors import DatasetError, ParseError
from test_classifiers import overflowing_frame

FILL = "0.25"
GOOD_LINE = ",".join([FILL] * FRAME_SIZE)
ACCEPTED = ["1_0", " 1.5 ", "+1", ".5", "1e5"]
REJECTED = ["nan", "inf", "-inf", "1e400", "", "abc", "0x1"]

# (id, the coordinate fields of one line, the frame every entry point reads
# from them, or None where every entry point must reject them)
CASES = (
    [(repr(t), [t] + [FILL] * (FRAME_SIZE - 1), [float(t)] + [0.25] * (FRAME_SIZE - 1))
     for t in ACCEPTED]
    + [(repr(t), [t] + [FILL] * (FRAME_SIZE - 1), None) for t in REJECTED]
    + [("62 values", [FILL] * (FRAME_SIZE - 1), None),
       ("64 values", [FILL] * (FRAME_SIZE + 1), None)]
)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    weights = np.random.default_rng(0).normal(size=(2, FRAME_SIZE + 1))
    path = str(tmp_path_factory.mktemp("model") / "m.json")
    save_model(GestureModel(kind="svm", label_set=("a", "b"), params={"weights": weights}), path)
    return path


@pytest.fixture()
def scored(monkeypatch):
    """Every validated frame that reaches the SVM scoring kernel, in order."""
    frames = []
    kind = natcmd.classifiers.MODEL_KINDS["svm"]

    def record(operands, x):
        frames.append(x.copy())
        return kind.score(operands, x)

    monkeypatch.setitem(natcmd.classifiers.MODEL_KINDS, "svm", replace(kind, score=record))
    return frames


def write_lines(path, lines) -> str:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "fields, expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_every_entry_point_applies_one_frame_rule(
    tmp_path, model_path, scored, capsys, caplog, fields, expected
):
    line = ",".join(fields)
    # the frame under test sits on line 3 of each file
    readers = {
        "csv": lambda: load_landmark_dataset(write_lines(
            tmp_path / "d.csv", [",".join(CSV_HEADER), "a," + GOOD_LINE, "b," + line]
        )).frames[1],
        "jsonl": lambda: load_landmark_dataset(write_lines(
            tmp_path / "d.jsonl",
            [json.dumps({"label": "a", "coords": [0.25] * FRAME_SIZE}), "",
             json.dumps({"label": "b", "coords": fields})],
        )).frames[1],
        "frame file": lambda: read_frame(
            write_lines(tmp_path / "frame.txt", ["", "", line])
        ),
    }
    frame_path = write_lines(tmp_path / "predict.txt", ["", "", line])
    raw_path = write_lines(tmp_path / "raw.txt", [GOOD_LINE, line])
    with caplog.at_level(logging.WARNING, logger="natcmd.dispatch"):
        predict_code = run_cli(["predict", "--model", model_path, "--frame", frame_path])
        run_code = run_cli(["run", "--model", model_path, "--frames", raw_path, "--k", "1"])
    err = capsys.readouterr().err
    summary = json.loads(err.splitlines()[-1])["gesture"]
    assert run_code == 0

    if expected is not None:
        want = np.array(expected, dtype=np.float64).tobytes()
        for name, read in readers.items():
            assert read().tobytes() == want, name
        assert predict_code == 0
        assert len(scored) == 3  # predict --frame, then both frames of run
        assert scored[0].tobytes() == want
        assert scored[-1].tobytes() == want
        assert (summary["frames_processed"], summary["frames_skipped"]) == (2, 0)
        assert caplog.records == []
    else:
        for name, read in readers.items():
            with pytest.raises(ParseError) as info:
                read()
            assert info.value.line == 3, name
        assert predict_code == 2
        assert "error: line 3:" in err
        assert (summary["frames_processed"], summary["frames_skipped"]) == (1, 1)
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            "skipping invalid frame"
        ]


def test_stream_validates_each_frame_once(monkeypatch, model_path):
    calls = []

    def counting_as_frame(coords):
        calls.append(1)
        return as_frame(coords)

    monkeypatch.setattr(natcmd.dispatch, "as_frame", counting_as_frame)
    monkeypatch.setattr(natcmd.classifiers, "as_frame", counting_as_frame)
    frames = list(np.random.default_rng(3).uniform(0, 1, (40, FRAME_SIZE)))
    for i, bad in {3: [0.5] * (FRAME_SIZE - 1), 17: [np.nan] * FRAME_SIZE, 30: "abc"}.items():
        frames[i] = bad
    summary = run_gesture_stream(
        load_model(model_path), frames, StabilityPolicy(k=2), lambda ev: None,
        clock=lambda: 0,
    )
    assert (summary.frames_processed, summary.frames_skipped) == (37, 3)
    assert len(calls) == len(frames)


def test_integer_too_large_for_float64_is_a_bad_frame(tmp_path):
    # float() raises OverflowError here, not ValueError
    coords = [10**400] + [0.25] * (FRAME_SIZE - 1)
    with pytest.raises(DatasetError, match="not numeric"):
        as_frame(coords)
    with pytest.raises(DatasetError, match="not numeric"):
        as_frames([[0.25] * FRAME_SIZE, coords])
    path = write_lines(tmp_path / "big.jsonl", [json.dumps({"label": "a", "coords": coords})])
    with pytest.raises(ParseError) as info:
        load_landmark_dataset(path)
    assert info.value.line == 1


@pytest.fixture(scope="module", params=["svm", "mlp"])
def overflowing(request, tmp_path_factory):
    """(model path, path of six lines of a frame whose winning score is not finite)."""
    rng = np.random.default_rng(1)
    if request.param == "svm":
        params = {"weights": rng.normal(size=(3, FRAME_SIZE + 1))}
    else:
        params = {"w1": rng.normal(size=(FRAME_SIZE, 4)), "b1": rng.normal(size=4),
                  "w2": rng.normal(size=(4, 3)), "b2": rng.normal(size=3)}
    model = GestureModel(kind=request.param, label_set=("a", "b", "c"), params=params)
    directory = tmp_path_factory.mktemp(request.param)
    path = str(directory / "m.json")
    save_model(model, path)
    line = ",".join(map(repr, overflowing_frame(model).tolist()))
    return path, write_lines(directory / "frames.txt", [line] * 6)


def test_non_finite_winning_score_rejected_by_predict(overflowing, capsys):
    model_path, frames_path = overflowing
    assert run_cli(["predict", "--model", model_path, "--frame", frames_path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: frame gives a non-finite winning score\n"  # no numpy warning


def test_non_finite_winning_score_skipped_by_run(overflowing, capsys, caplog):
    model_path, frames_path = overflowing
    with caplog.at_level(logging.WARNING, logger="natcmd.dispatch"):
        code = run_cli(["run", "--model", model_path, "--frames", frames_path,
                        "--k", "1", "--suppress", "none"])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == ""
    assert err.splitlines() == [json.dumps({"gesture": {
        "events_emitted": 0, "frames_processed": 0, "frames_skipped": 6}})]
    assert [r.getMessage() for r in caplog.records] == [
        "skipping invalid frame: frame gives a non-finite winning score"] * 6
