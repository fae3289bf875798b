import json

import numpy as np
import pytest

from natcmd import SyntheticSpec, dispatch, synthetic_prototypes
from natcmd.cli import run_cli


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def small_data(tmp_path, capsys):
    path = str(tmp_path / "small.csv")
    code, out, _ = run(
        capsys, "gen-data", "--labels", "up,down,stop", "--per-label", "30",
        "--sigma", "0.01", "--seed", "3", "-o", path,
    )
    assert code == 0
    assert json.loads(out)["frames"] == 90
    return path


class TestGenData:
    def test_default15_counts(self, tmp_path, capsys):
        path = str(tmp_path / "d.csv")
        code, out, err = run(
            capsys, "gen-data", "--per-label", "2", "--seed", "7", "-o", path
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["frames"] == 30
        assert len(doc["labels"]) == 15

    def test_jsonl_output(self, tmp_path, capsys):
        path = str(tmp_path / "d.jsonl")
        code, out, _ = run(
            capsys, "gen-data", "--labels", "a,b", "--per-label", "2", "-o", path
        )
        assert code == 0
        with open(path) as fh:
            first = json.loads(fh.readline())
        assert set(first) == {"label", "coords"}


class TestTrainEvaluate:
    def test_train_then_evaluate_flow(self, small_data, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        code, out, _ = run(
            capsys, "train", "--kind", "svm", "--data", small_data,
            "--split", "0.8", "--seed", "3", "-o", model_path,
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["kind"] == "svm"
        assert summary["frames_trained"] == 72
        assert summary["training_time_ms"] > 0

        code, out, _ = run(
            capsys, "evaluate", "--model", model_path, "--data", small_data,
            "--split", "0.8", "--seed", "3",
        )
        assert code == 0
        report = json.loads(out)
        assert report["accuracy"] >= 0.99
        assert len(report["confusion"]) == 3

    def test_evaluate_table_goes_to_stderr(self, small_data, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        run(capsys, "train", "--kind", "svm", "--data", small_data, "-o", model_path)
        code, out, err = run(
            capsys, "evaluate", "--model", model_path, "--data", small_data, "--table"
        )
        assert code == 0
        json.loads(out)  # stdout stays pure JSON
        assert "confusion matrix" in err

    def test_mlp_training(self, small_data, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        code, out, _ = run(
            capsys, "train", "--kind", "mlp", "--data", small_data,
            "--lr", "0.1", "--epochs", "40", "-o", model_path,
        )
        assert code == 0
        assert json.loads(out)["kind"] == "mlp"

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "train", "--kind", "svm", "--data", str(tmp_path / "no.csv"),
            "-o", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "error" in err


class TestPredict:
    def test_predict_frame(self, small_data, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        run(capsys, "train", "--kind", "svm", "--data", small_data, "-o", model_path)
        spec = SyntheticSpec(label_set=("down", "stop", "up"), frames_per_label=1,
                             noise_sigma=0.01, seed=3)
        proto = synthetic_prototypes(spec)["up"]
        frame_path = str(tmp_path / "frame.txt")
        with open(frame_path, "w") as fh:
            fh.write(",".join(str(v) for v in proto) + "\n")
        code, out, _ = run(capsys, "predict", "--model", model_path, "--frame", frame_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["label"] == "up"
        assert set(doc["scores"]) == {"up", "down", "stop"}

    def test_62_values_exits_2(self, small_data, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        run(capsys, "train", "--kind", "svm", "--data", small_data, "-o", model_path)
        frame_path = str(tmp_path / "bad.txt")
        with open(frame_path, "w") as fh:
            fh.write(",".join(["0.5"] * 62) + "\n")
        code, _, err = run(capsys, "predict", "--model", model_path, "--frame", frame_path)
        assert code == 2
        assert "63" in err


@pytest.fixture()
def embeddings_file(tmp_path):
    from natcmd.voice import DEFAULT_COMMAND_PHRASES

    words = sorted({t for p in DEFAULT_COMMAND_PHRASES for t in p.split()})
    rng = np.random.default_rng(5)
    path = str(tmp_path / "emb.txt")
    with open(path, "w") as fh:
        for w in words:
            vec = rng.normal(0, 1, 8)
            fh.write(w + " " + " ".join(f"{v:.6f}" for v in vec) + "\n")
    return path


class TestMatch:
    def test_exact_match(self, embeddings_file, capsys):
        code, out, _ = run(
            capsys, "match", "--commands", "default19",
            "--embeddings", embeddings_file, "--text", "move forward",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["matched"]["action"] == "move_forward"
        assert len(doc["candidates"]) == 19

    def test_no_match_is_null(self, embeddings_file, capsys):
        code, out, _ = run(
            capsys, "match", "--commands", "default19",
            "--embeddings", embeddings_file, "--text", "xyzzy plugh",
        )
        assert code == 0
        assert json.loads(out)["matched"] is None

    def test_custom_command_file(self, embeddings_file, tmp_path, capsys):
        cmds = str(tmp_path / "cmds.tsv")
        with open(cmds, "w") as fh:
            fh.write("go_up\tlook up\n")
        code, out, _ = run(
            capsys, "match", "--commands", cmds,
            "--embeddings", embeddings_file, "--text", "look up",
        )
        assert code == 0
        assert json.loads(out)["matched"]["action"] == "go_up"


class TestRun:
    def make_frame_file(self, tmp_path, labels=("up",) * 6 + ("stop",) * 6):
        spec = SyntheticSpec(label_set=("down", "stop", "up"), frames_per_label=1,
                             noise_sigma=0.01, seed=3)
        protos = synthetic_prototypes(spec)
        path = str(tmp_path / "frames.txt")
        with open(path, "w") as fh:
            for label in labels:
                fh.write(",".join(str(v) for v in protos[label]) + "\n")
        return path

    def test_gesture_replay(self, small_data, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        run(capsys, "train", "--kind", "svm", "--data", small_data, "-o", model_path)
        frames = self.make_frame_file(tmp_path)
        code, out, err = run(
            capsys, "run", "--model", model_path, "--frames", frames, "--k", "5"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 2
        actions = [json.loads(l)["action"] for l in lines]
        assert actions == ["up", "stop"]
        summary = json.loads(err)
        assert summary["gesture"]["events_emitted"] == 2
        assert summary["gesture"]["frames_processed"] == 12

    def test_replay_is_byte_identical(self, small_data, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        run(capsys, "train", "--kind", "svm", "--data", small_data, "-o", model_path)
        frames = self.make_frame_file(tmp_path)
        outputs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "run", "--model", model_path, "--frames", frames, "--k", "3"
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_voice_replay(self, embeddings_file, tmp_path, capsys):
        transcripts = str(tmp_path / "polls.txt")
        with open(transcripts, "w") as fh:
            fh.write("move forward\n\nzzz qqq\nshow schedule\n")
        code, out, err = run(
            capsys, "run", "--transcripts", transcripts,
            "--commands", "default19", "--embeddings", embeddings_file,
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        actions = [json.loads(l)["action"] for l in lines]
        assert actions == ["move_forward", "show_schedule"]
        times = [json.loads(l)["ts_ms"] for l in lines]
        assert times == [3000, 12000]
        assert json.loads(err)["voice"]["polls_processed"] == 4

    def run_both_and_each(self, small_data, embeddings_file, tmp_path, capsys):
        """(merged, gesture-only, voice-only) runs of one 12 s frame replay
        and three polls. With k=5 the gesture events fall at frame 4, 75,
        154 and 254 (160, 3000, 6160 and 10160 ms); the polls at 3000, 6000
        (silent) and 9000 ms."""
        model_path = str(tmp_path / "m.json")
        run(capsys, "train", "--kind", "svm", "--data", small_data, "-o", model_path)
        frames = self.make_frame_file(
            tmp_path, ("up",) * 71 + ("stop",) * 79 + ("down",) * 100 + ("up",) * 50
        )
        transcripts = str(tmp_path / "polls.txt")
        with open(transcripts, "w") as fh:
            fh.write("move forward\n\nshow schedule\n")
        gesture = ["--model", model_path, "--frames", frames, "--k", "5"]
        voice = ["--transcripts", transcripts, "--embeddings", embeddings_file]
        results = [run(capsys, "run", *flags) for flags in (gesture + voice, gesture, voice)]
        assert [code for code, _, _ in results] == [0, 0, 0]
        return [(out, err) for _, out, err in results]

    def test_both_sources_share_one_timeline(
        self, small_data, embeddings_file, tmp_path, capsys
    ):
        (out, _), _, _ = self.run_both_and_each(small_data, embeddings_file, tmp_path, capsys)
        events = [json.loads(line) for line in out.splitlines()]
        assert [(e["source"], e["action"], e["ts_ms"]) for e in events] == [
            ("gesture", "up", 160),
            ("gesture", "stop", 3000),
            ("voice", "move_forward", 3000),
            ("gesture", "down", 6160),
            ("voice", "show_schedule", 9000),
            ("gesture", "up", 10160),
        ]
        times = [e["ts_ms"] for e in events]
        assert times == sorted(times)

    def test_merged_run_is_the_sorted_single_source_runs(
        self, small_data, embeddings_file, tmp_path, capsys
    ):
        (out, err), (g_out, g_err), (v_out, v_err) = self.run_both_and_each(
            small_data, embeddings_file, tmp_path, capsys
        )
        single = g_out.splitlines(keepends=True) + v_out.splitlines(keepends=True)
        assert out == "".join(sorted(single, key=lambda line: json.loads(line)["ts_ms"]))
        assert json.loads(err) == {**json.loads(g_err), **json.loads(v_err)}
        assert list(json.loads(err)) == ["gesture", "voice"]

    def test_run_without_sources_is_usage_error(self, capsys):
        code, _, err = run(capsys, "run")
        assert code == 1

    def test_k_zero_is_usage_error(self, small_data, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        run(capsys, "train", "--kind", "svm", "--data", small_data, "-o", model_path)
        frames = self.make_frame_file(tmp_path)
        code, out, err = run(
            capsys, "run", "--model", model_path, "--frames", frames, "--k", "0"
        )
        assert code == 1
        assert out == ""
        assert "stability window k must be >= 1" in err

    @pytest.mark.parametrize("line_end", [",\n", "\n", " , \n"])
    def test_predict_and_run_read_frame_lines_alike(
        self, small_data, tmp_path, capsys, line_end
    ):
        model_path = str(tmp_path / "m.json")
        run(capsys, "train", "--kind", "svm", "--data", small_data, "-o", model_path)
        spec = SyntheticSpec(label_set=("down", "stop", "up"), frames_per_label=1,
                             noise_sigma=0.01, seed=3)
        protos = synthetic_prototypes(spec)
        lines = [",".join(str(v) for v in protos[label]) + line_end
                 for label in ("up",) * 6 + ("down",) * 6]
        path = str(tmp_path / "frames.txt")
        with open(path, "w") as fh:
            fh.writelines(lines)
        predicted = []
        for i, line in enumerate(lines):
            one = str(tmp_path / f"frame{i}.txt")
            with open(one, "w") as fh:
                fh.write(line)
            code, out, _ = run(capsys, "predict", "--model", model_path, "--frame", one)
            assert code == 0
            predicted.append(json.loads(out)["label"])
        assert predicted == ["up"] * 6 + ["down"] * 6
        code, out, err = run(
            capsys, "run", "--model", model_path, "--frames", path, "--k", "5"
        )
        assert code == 0
        events = [json.loads(l) for l in out.splitlines()]
        assert [(e["action"], e["ts_ms"]) for e in events] == [("up", 160), ("down", 400)]
        summary = json.loads(err)["gesture"]
        assert summary["frames_processed"] == 12
        assert summary["frames_skipped"] == 0


class TestMissingVoiceFiles:
    """A missing voice input is a data error naming the path; ``run`` finds
    it before the gesture replay starts."""

    CASES = [
        ("match", "--embeddings", "embedding table not found"),
        ("match", "--commands", "command list not found"),
        ("run", "--embeddings", "embedding table not found"),
        ("run", "--commands", "command list not found"),
        ("run", "--transcripts", "transcript file not found"),
    ]

    @pytest.mark.parametrize("command, flag, message", CASES,
                             ids=[f"{c} {f}" for c, f, _ in CASES])
    def test_missing_file_exits_2_before_any_replay(
        self, small_data, embeddings_file, tmp_path, capsys, monkeypatch,
        command, flag, message,
    ):
        model_path = str(tmp_path / "m.json")
        run(capsys, "train", "--kind", "svm", "--data", small_data, "-o", model_path)
        transcripts = str(tmp_path / "polls.txt")
        with open(transcripts, "w") as fh:
            fh.write("move forward\n")
        inputs = {"--embeddings": embeddings_file, "--commands": "default19",
                  "--transcripts": transcripts}
        missing = str(tmp_path / "missing.txt")
        inputs[flag] = missing
        if command == "match":
            argv = ["match", "--embeddings", inputs["--embeddings"],
                    "--commands", inputs["--commands"], "--text", "move forward"]
        else:
            argv = ["run", "--model", model_path, "--frames", small_data,
                    *[v for item in inputs.items() for v in item]]
        replays = []
        monkeypatch.setattr(dispatch, "run_gesture_stream",
                            lambda *a, **kw: replays.append(a))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"error: {message}: {missing}" in err
        assert replays == []


class TestUsage:
    def test_unknown_subcommand_exits_1(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert err

    def test_unknown_flag_exits_1(self, capsys):
        code, _, _ = run(capsys, "gen-data", "--nonsense", "-o", "x.csv")
        assert code == 1

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NATCMD_SEED", "99")
        path_a = str(tmp_path / "a.csv")
        run(capsys, "gen-data", "--labels", "a,b", "--per-label", "2", "-o", path_a)
        monkeypatch.delenv("NATCMD_SEED")
        path_b = str(tmp_path / "b.csv")
        run(capsys, "gen-data", "--labels", "a,b", "--per-label", "2",
            "--seed", "99", "-o", path_b)
        assert open(path_a).read() == open(path_b).read()

    def test_bad_env_value_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NATCMD_SEED", "not-a-number")
        code, _, _ = run(capsys, "gen-data", "--labels", "a,b", "-o",
                         str(tmp_path / "x.csv"))
        assert code == 1


FLAG_RANGE_CASES = [
    ("gen-data", ["--per-label", "0"], "frames_per_label must be >= 1"),
    ("gen-data", ["--sigma", "-0.5"], "noise_sigma must be >= 0"),
    ("gen-data", ["--sigma", "nan"], "noise_sigma must be >= 0"),
    ("gen-data", ["--sigma", "inf"], "noise_sigma must be >= 0"),
    ("gen-data", ["--labels", "a,b,a"], "synthetic label_set contains duplicates"),
    ("train", ["--kind", "svm", "--c", "0"], "C must be > 0"),
    ("train", ["--kind", "svm", "--c", "nan"], "C must be > 0"),
    ("train", ["--kind", "svm", "--c", "inf"], "C must be > 0"),
    ("train", ["--kind", "svm", "--max-epochs", "0"], "max_epochs must be >= 1"),
    ("train", ["--kind", "svm", "--tolerance", "0"], "tolerance must be > 0"),
    ("train", ["--kind", "svm", "--tolerance", "inf"], "tolerance must be > 0"),
    ("train", ["--kind", "mlp", "--hidden", "0"], "hidden_units must be >= 1"),
    ("train", ["--kind", "mlp", "--lr", "-1"], "learning_rate must be > 0"),
    ("train", ["--kind", "mlp", "--lr", "inf"], "learning_rate must be > 0"),
    ("train", ["--kind", "mlp", "--batch-size", "0"], "batch_size must be >= 1"),
    ("train", ["--kind", "mlp", "--epochs", "0"], "epochs must be >= 1"),
    ("train", ["--kind", "svm", "--split", "1"], "train_fraction must be in (0, 1)"),
    ("evaluate", ["--split", "0"], "train_fraction must be in (0, 1)"),
    ("evaluate", ["--split", "nan"], "train_fraction must be in (0, 1)"),
]


class TestFlagRanges:
    @pytest.mark.parametrize("command, flags, message", FLAG_RANGE_CASES,
                             ids=[" ".join([c, *f]) for c, f, _ in FLAG_RANGE_CASES])
    def test_out_of_range_flag_is_usage_error(
        self, small_data, tmp_path, capsys, command, flags, message
    ):
        out_path = str(tmp_path / "out")
        model_path = str(tmp_path / "m.json")
        run(capsys, "train", "--kind", "svm", "--data", small_data, "-o", model_path)
        context = {
            "gen-data": ["--labels", "a,b", "-o", out_path],
            "train": ["--data", small_data, "-o", out_path],
            "evaluate": ["--model", model_path, "--data", small_data],
        }[command]
        code, out, err = run(capsys, command, *context, *flags)
        assert code == 1
        assert out == ""
        assert f"usage error: {message}" in err

    def test_split_of_unsplittable_data_is_data_error(self, tmp_path, capsys):
        data = str(tmp_path / "one.csv")
        run(capsys, "gen-data", "--labels", "a,b", "--per-label", "1", "-o", data)
        code, _, err = run(capsys, "train", "--kind", "svm", "--data", data,
                           "--split", "0.5", "-o", str(tmp_path / "m.json"))
        assert code == 2
        assert "needs at least 2 per label" in err
