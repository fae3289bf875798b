import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import natcmd.classifiers
import natcmd.dataset
from natcmd import SyntheticSpec, dispatch, synthetic_prototypes
from natcmd.cli import run_cli
from natcmd.errors import ModelError, NatcmdError, StreamError, VoiceError
from test_fuzz import reject_constant


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

    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys):
        # numpy refuses this 448 PiB array at once, without touching memory
        path = tmp_path / "x.csv"
        code, out, err = run(
            capsys, "gen-data", "--per-label", "1000000000000000", "-o", str(path)
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not path.exists()


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

    def test_svm_objective_overflow_exits_2_without_warnings(self, tmp_path, capsys):
        # coordinates of 1e300 overflow the margins and the objective
        data, model = tmp_path / "big.csv", tmp_path / "m.json"
        rows = [f"{label}," + ",".join([value] * 63)
                for label, value in (("a", "1e300"), ("b", "-1e300")) for _ in range(3)]
        data.write_text("\n".join([",".join(natcmd.dataset.CSV_HEADER), *rows]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # a warning prints as a line, not an error
            code, out, err = run(capsys, "train", "--kind", "svm", "--data", str(data),
                                 "-o", str(model))
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: svm objective is not finite after epoch 1"]
        assert not model.exists()

    def test_mlp_overflow_exits_2_without_warnings(self, tmp_path, capsys):
        # coordinates near 1e300 overflow the hidden layer, then the gradients
        data, model = tmp_path / "big.csv", tmp_path / "m.json"
        coords = np.random.default_rng(0).uniform(1e299, 1e300, (10, 63))
        rows = [f"{'ab'[i % 2]}," + ",".join(map(repr, row))
                for i, row in enumerate(coords.tolist())]
        data.write_text("\n".join([",".join(natcmd.dataset.CSV_HEADER), *rows]) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # a warning prints as a line, not an error
            code, out, err = run(capsys, "train", "--kind", "mlp", "--epochs", "3",
                                 "--data", str(data), "-o", str(model))
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: mlp parameters are not finite after epoch 2"]
        assert not model.exists()


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

    def test_non_finite_losing_score_prints_null(self, tmp_path, capsys):
        weights = np.zeros((2, 64))
        weights[1, :-1] = 1.0
        model_path = str(tmp_path / "m.json")
        natcmd.classifiers.save_model(natcmd.classifiers.GestureModel(
            kind="svm", label_set=("a", "b"), params={"weights": weights}), model_path)
        frame_path = str(tmp_path / "frame.txt")
        with open(frame_path, "w") as fh:
            fh.write(",".join(["-1.7e308"] * 63) + "\n")  # the margin of "b" is -inf
        code, out, _ = run(capsys, "predict", "--model", model_path, "--frame", frame_path)
        assert code == 0
        doc = json.loads(out, parse_constant=reject_constant)
        assert (doc["label"], doc["scores"]) == ("a", {"a": 0.0, "b": None})

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


    @pytest.mark.parametrize("token", ["nan", "1e400"])
    def test_non_finite_value_names_path_and_line(self, tmp_path, capsys, token):
        path = str(tmp_path / "emb.txt")
        with open(path, "w") as fh:
            fh.write(f"move 1 0\nforward 0 1\nlook {token} 1\n")
        code, out, err = run(capsys, "match", "--embeddings", path, "--text", "move forward")
        assert (code, out) == (2, "")
        assert err == f"error: {path} line 3: non-finite value\n"

    def test_overflowing_norms_exit_2_without_warnings(self, tmp_path, capsys):
        # finite values whose squares overflow the norms in resolve
        path = str(tmp_path / "emb.txt")
        with open(path, "w") as fh:
            fh.write("move 1e308 1e308 0\nforward 1e308 0 1e308\nlook 0 0 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # a warning prints as a line, not an error
            code, out, err = run(capsys, "match", "--embeddings", path, "--text", "move forward")
        assert (code, out) == (2, "")
        assert err == f"error: {path} line 1: value of magnitude over 1e+100\n"

    def test_underflowing_norms_exit_2_without_warnings(self, tmp_path, capsys):
        # nonzero values whose squares underflow: the norms in resolve would be 0
        path = str(tmp_path / "emb.txt")
        with open(path, "w") as fh:
            fh.write("move 1e-200 1e-200 0\nforward 1e-200 0 1e-200\nlook 0 0 1e-200\n")
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # a warning prints as a line, not an error
            code, out, err = run(capsys, "match", "--embeddings", path, "--text", "move forward")
        assert (code, out) == (2, "")
        assert err == f"error: {path} line 1: nonzero value of magnitude under 1e-100\n"

    @pytest.mark.parametrize("k", [1, 332, 657])
    def test_table_scaled_by_a_power_of_two_resolves_alike(self, tmp_path, capsys, k):
        """Cosine does not change when every vector is scaled by 2^-k: with
        values up to the bound and down to the floor (2^-657 takes this
        table's smallest value to 1.4e-100; 2^-658 would put it under), the
        scaled table gives the same bytes."""
        from natcmd.voice import DEFAULT_COMMAND_PHRASES

        words = sorted({t for p in DEFAULT_COMMAND_PHRASES for t in p.split()})
        values = np.ldexp(np.random.default_rng(3).uniform(-1, 1, (len(words), 6)), 332)
        values[:2, 0] = [1e100, -1e100]
        polls = tmp_path / "polls.txt"
        polls.write_text("move forward\nlook up\n\nzoom\ngo to the kitchen\nhide plan\n")
        outputs = []
        for scale in (0, k):
            path = tmp_path / f"emb{scale}.txt"
            path.write_text("".join(f"{w} " + " ".join(map(repr, row)) + "\n"
                                    for w, row in zip(words, np.ldexp(values, -scale).tolist())))
            outputs.append([run(capsys, "match", "--embeddings", str(path), "--text", text)
                            for text in ("move forward", "show floor", "xyzzy")])
            outputs[-1].append(run(capsys, "run", "--transcripts", str(polls),
                                   "--embeddings", str(path)))
        assert outputs[0] == outputs[1]
        assert [code for code, _, _ in outputs[0]] == [0] * 4
        assert json.loads(outputs[0][0][1])["matched"]["action"] == "move_forward"
        assert len(outputs[0][3][1].splitlines()) == 5  # every non-silent poll fires

    def test_duplicate_warning_is_one_line(self, embeddings_file, capsys):
        with open(embeddings_file, "a") as fh:
            fh.write("move 1 1 1 1 1 1 1 1\n")
        lines = sum(1 for _ in open(embeddings_file))
        code, out, err = run(capsys, "match", "--embeddings", embeddings_file,
                             "--text", "move forward")
        assert code == 0 and json.loads(out)["matched"]["action"] == "move_forward"
        assert err == (f"warning: {embeddings_file} line {lines}: duplicate embedding "
                       "for 'move'; keeping the last\n")


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


class TestClosedStdout:
    def test_closed_stdout_exits_141_without_traceback(self, embeddings_file):
        """A reader that closes the pipe early, as ``| head -c 10`` does: exit
        128 + SIGPIPE as a shell reports for a tool killed by it, and
        nothing on stderr."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "natcmd.cli", "match",
             "--embeddings", embeddings_file, "--text", "move forward"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert b"Traceback" not in err
        assert err == b""


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


@pytest.fixture()
def model_path(small_data, tmp_path, capsys):
    path = str(tmp_path / "m.json")
    code, _, _ = run(capsys, "train", "--kind", "svm", "--data", small_data, "-o", path)
    assert code == 0
    return path


class TestUnreadableDataFiles:
    """A dataset or frame file that cannot be read is a data error (exit 2)
    that names the path, or for bytes that are not UTF-8, the line."""

    COMMANDS = ["train", "evaluate", "run", "run raw lines"]

    @staticmethod
    def argv(command, data, model_path, tmp_path):
        if command == "train":
            return ["train", "--kind", "svm", "--data", data, "-o", str(tmp_path / "o.json")]
        if command == "evaluate":
            return ["evaluate", "--model", model_path, "--data", data]
        return ["run", "--model", model_path, "--frames", data]

    @staticmethod
    def data_lines(command, small_data):
        with open(small_data, "rb") as fh:
            lines = fh.read().split(b"\r\n")
        if command == "run raw lines":  # 63 numbers a line, no header
            return [b""] + [line.partition(b",")[2] for line in lines[1:]]
        return lines

    def test_bad_utf8_after_bom_names_the_line(self, model_path, tmp_path, capsys, small_data):
        lines = self.data_lines("train", small_data)
        lines[2] = b"\xff" + lines[2]
        data = tmp_path / "bad.csv"
        data.write_bytes(b"\xef\xbb\xbf" + b"\r\n".join(lines))
        code, out, err = run(capsys, *self.argv("train", str(data), model_path, tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: line 3: dataset file {data} is not valid UTF-8\n"

    def test_deeply_nested_jsonl_exits_2(self, model_path, tmp_path, capsys):
        # json raises RecursionError, not ValueError, past the recursion limit
        data = tmp_path / "nested.jsonl"
        valid = ", ".join(["0.5"] * 63)
        nested = ", ".join(["0.5"] * 62 + ["[" * 100_000 + "]" * 100_000])
        data.write_text('{"label": "a", "coords": [%s]}\n{"label": "b", "coords": [%s]}\n'
                        % (valid, nested), encoding="utf-8")
        code, out, err = run(capsys, *self.argv("train", str(data), model_path, tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2: invalid JSON: maximum recursion depth")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_directory_exits_2(self, command, model_path, tmp_path, capsys):
        data = tmp_path / "dir.csv"
        data.mkdir()
        code, out, err = run(capsys, *self.argv(command, str(data), model_path, tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read ")
        assert f"{data}: Is a directory" in err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_no_read_permission_exits_2(self, command, model_path, tmp_path, capsys,
                                        small_data, monkeypatch):
        def denied(path, *args, **kwargs):
            if path != small_data:
                return open(path, *args, **kwargs)
            raise PermissionError(13, "Permission denied", path)

        # the test may run as root, which chmod does not stop
        monkeypatch.setattr(natcmd.dataset, "open", denied, raising=False)
        code, out, err = run(capsys, *self.argv(command, small_data, model_path, tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read ")
        assert f"{small_data}: Permission denied" in err

    @pytest.mark.parametrize("command", ["train", "run"])
    def test_capitalised_header_is_a_bad_csv_header(self, command, model_path, tmp_path,
                                                    capsys, small_data):
        # the frame source sniff sends any "label" first field to the CSV reader
        with open(small_data, "rb") as fh:
            text = fh.read()
        data = tmp_path / "bad.csv"
        data.write_bytes(b"Label" + text[len(b"label"):])
        code, out, err = run(capsys, *self.argv(command, str(data), model_path, tmp_path))
        assert (code, out) == (2, "")
        assert err == "error: line 1: bad CSV header (unknown columns ['Label'])\n"

    # line 3 is in the first block the text layer decodes; line 60 is not
    @pytest.mark.parametrize("bad_line", [3, 60])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_bad_utf8_names_the_line(self, command, bad_line, model_path, tmp_path,
                                     capsys, small_data):
        lines = self.data_lines(command, small_data)
        lines[bad_line - 1] = b"\xff" + lines[bad_line - 1]
        data = tmp_path / "bad.csv"
        data.write_bytes(b"\n".join(lines))
        code, out, err = run(capsys, *self.argv(command, str(data), model_path, tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: line {bad_line}: ")
        assert f"{data} is not valid UTF-8" in err


class TestBadModelFiles:
    @staticmethod
    def predict_with(doc, tmp_path, capsys):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        frame = tmp_path / "frame.txt"
        frame.write_text(",".join(["0.5"] * 63) + "\n", encoding="utf-8")
        return run(capsys, "predict", "--model", str(path), "--frame", str(frame))

    @pytest.mark.parametrize("value", [None, "12", True, [1.0]],
                             ids=["null", "string", "bool", "list"])
    def test_training_time_not_a_number_exits_2(self, value, model_path, tmp_path, capsys):
        with open(model_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["training_time_ms"] = value
        code, out, err = self.predict_with(doc, tmp_path, capsys)
        assert (code, out) == (2, "")
        assert "training_time_ms must be a number" in err

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_training_time_not_finite_exits_2(self, value, model_path, tmp_path, capsys):
        with open(model_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["training_time_ms"] = float(value)  # json writes it back as the bare token
        code, out, err = self.predict_with(doc, tmp_path, capsys)
        assert (code, out) == (2, "")
        assert err.endswith("training_time_ms must be finite\n")

    @pytest.mark.parametrize("field", ["training_time_ms", "weights"])
    def test_int_too_large_for_float64_exits_2(self, field, model_path, tmp_path, capsys):
        with open(model_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if field == "weights":
            doc["params"]["weights"][0][0] = 10**400
        else:
            doc["training_time_ms"] = 10**400
        code, out, err = self.predict_with(doc, tmp_path, capsys)
        assert (code, out) == (2, "")
        assert "invalid model parameters" in err

    def test_int_past_digit_limit_exits_2(self, model_path, tmp_path, capsys):
        # json raises a plain ValueError for an int over sys.get_int_max_str_digits()
        with open(model_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["training_time_ms"] = "HUGE"
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc).replace('"HUGE"', "9" * 5000), encoding="utf-8")
        frame = tmp_path / "frame.txt"
        frame.write_text(",".join(["0.5"] * 63) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "predict", "--model", str(path), "--frame", str(frame))
        assert (code, out) == (2, "")
        assert f"error: {path}: corrupt model file (Exceeds the limit" in err

    @pytest.mark.parametrize("value", [{}, {"0": 1.0}, [[{}] * 64]],
                             ids=["empty object", "object", "object in list"])
    def test_param_as_object_exits_2(self, value, model_path, tmp_path, capsys):
        # np.asarray raises TypeError, not ValueError, for a dict
        with open(model_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["params"]["weights"] = value
        code, out, err = self.predict_with(doc, tmp_path, capsys)
        assert (code, out) == (2, "")
        assert "invalid model parameters" in err

    def test_deep_nesting_exits_2(self, tmp_path, capsys):
        # json raises RecursionError, not ValueError, past the recursion limit
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        frame = tmp_path / "frame.txt"
        frame.write_text(",".join(["0.5"] * 63) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "predict", "--model", str(path), "--frame", str(frame))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: corrupt model file (maximum recursion depth")

    def test_duplicate_labels_exit_2(self, model_path, tmp_path, capsys):
        with open(model_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["labels"] = ["a"] * 15
        doc["params"]["weights"] = np.zeros((15, 64)).tolist()
        code, out, err = self.predict_with(doc, tmp_path, capsys)
        assert (code, out) == (2, "")
        assert "label_set contains duplicates" in err


class TestUnreadableInputFiles:
    """Every other input -- model, frame file, embedding table, command list,
    transcripts -- that cannot be read is a data error (exit 2) that names
    the path, or for bytes that are not UTF-8, the line."""

    # "command --flag": (what the message calls the file, library reader, its error)
    READERS = {
        "predict --model": ("model file", natcmd.classifiers.load_model, ModelError),
        "predict --frame": ("frame file", natcmd.dataset.read_frame, NatcmdError),
        "match --embeddings": ("embedding table", natcmd.voice.load_embeddings, VoiceError),
        "match --commands": ("command list", natcmd.voice.load_command_list, VoiceError),
        "run --transcripts": ("transcript file", dispatch.read_transcripts, StreamError),
    }
    FLAGS = {"predict": ["--model", "--frame"],
             "match": ["--embeddings", "--commands", "--text"],
             "run": ["--transcripts", "--embeddings", "--commands"]}

    @pytest.fixture()
    def inputs(self, model_path, embeddings_file, tmp_path):
        files = {"--frame": ",".join(["0.5"] * 63) + "\n",
                 "--commands": "look_up\tlook up\nmove_forward\tmove forward\n",
                 "--transcripts": "move forward\n\nlook up\n"}
        for flag, text in files.items():
            (tmp_path / flag[2:]).write_text(text, encoding="utf-8")
        return {"--model": model_path, "--embeddings": embeddings_file, "--text": "move forward",
                **{flag: str(tmp_path / flag[2:]) for flag in files}}

    def run_with(self, capsys, reader, inputs, path):
        command, flag = reader.split()
        inputs = {**inputs, flag: str(path)}
        return run(capsys, command, *[v for f in self.FLAGS[command] for v in (f, inputs[f])])

    @staticmethod
    def bad_utf8_copy(src, where, tmp_path):
        """A copy of ``src`` padded with 10,000 blank lines, which every
        reader skips or allows, with byte 0xff put on line 1 or on the last
        line, which lies past the first block the text layer decodes.
        Returns its path and the bad line."""
        with open(src, "rb") as fh:
            lines = (fh.read() + b"\n" * 10_000).split(b"\n")
        line = 1 if where == "line 1" else len(lines) - 1
        lines[line - 1] = b"\xff" + lines[line - 1]
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\n".join(lines))
        return path, line

    @pytest.mark.parametrize("reader", READERS)
    def test_directory_exits_2(self, reader, inputs, tmp_path, capsys):
        path = tmp_path / "dir.txt"
        path.mkdir()
        code, out, err = self.run_with(capsys, reader, inputs, path)
        assert (code, out) == (2, "")
        what = self.READERS[reader][0]
        assert err.startswith(f"error: cannot read {what} {path}: Is a directory")

    @pytest.mark.parametrize("reader", READERS)
    def test_no_read_permission_exits_2(self, reader, inputs, capsys, monkeypatch):
        denied_path = inputs[reader.split()[1]]

        def denied(path, *args, **kwargs):
            if path != denied_path:
                return open(path, *args, **kwargs)
            raise PermissionError(13, "Permission denied", path)

        # the test may run as root, which chmod does not stop
        monkeypatch.setattr(natcmd.dataset, "open", denied, raising=False)
        code, out, err = self.run_with(capsys, reader, inputs, denied_path)
        assert (code, out) == (2, "")
        what = self.READERS[reader][0]
        assert err.startswith(f"error: cannot read {what} {denied_path}: Permission denied")

    @pytest.mark.parametrize("where", ["line 1", "past the first block"])
    @pytest.mark.parametrize("reader", READERS)
    def test_bad_utf8_names_the_line(self, reader, where, inputs, tmp_path, capsys):
        path, line = self.bad_utf8_copy(inputs[reader.split()[1]], where, tmp_path)
        code, out, err = self.run_with(capsys, reader, inputs, path)
        assert (code, out) == (2, "")
        what = self.READERS[reader][0]
        assert err == f"error: line {line}: {what} {path} is not valid UTF-8\n"

    @pytest.mark.parametrize("reader", READERS)
    def test_library_reader_raises_its_error(self, reader, inputs, tmp_path):
        what, read, error = self.READERS[reader]
        directory = tmp_path / "dir.txt"
        directory.mkdir()
        with pytest.raises(error, match=re.escape(f"cannot read {what} {directory}: ")):
            read(str(directory))
        path, line = self.bad_utf8_copy(inputs[reader.split()[1]], "past the first block",
                                        tmp_path)
        with pytest.raises(error, match=re.escape(f"line {line}: {what} {path} is not valid")):
            read(str(path))


class TestLineEndings:
    """Every reader parses a file with CRLF or CR line endings as it parses
    the same file with LF endings."""

    @staticmethod
    def files(tmp_path):
        """name: (file name, LF text, the reader's parse as plain data)."""
        ds = natcmd.generate_synthetic_dataset(
            SyntheticSpec(label_set=("a", "b"), frames_per_label=2, seed=4))
        natcmd.save_model(natcmd.train_linear_svm(ds, natcmd.SvmConfig(seed=1)),
                          str(tmp_path / "m.json"))
        with open(tmp_path / "m.json", encoding="utf-8") as fh:
            model_text = json.dumps(json.load(fh), indent=1) + "\n"
        frame_lines = "".join(",".join(map(repr, f)) + "\n\n" for f in ds.frames.tolist())
        texts = {}
        for fmt in ("csv", "jsonl"):
            natcmd.save_landmark_dataset(ds, str(tmp_path / f"d.{fmt}"))
            with open(tmp_path / f"d.{fmt}", encoding="utf-8") as fh:
                texts[fmt] = fh.read()  # universal newlines: LF

        def dataset(path):
            ds = natcmd.load_landmark_dataset(path)
            return ds.labels, ds.frames.tolist()

        def embeddings(path):
            table = natcmd.load_embeddings(path)
            return table.dimension, {w: v.tolist() for w, v in table.entries.items()}

        def model(path):
            m = natcmd.load_model(path)
            return m.kind, m.label_set, {k: v.tolist() for k, v in m.params.items()}

        return {
            "embeddings": ("e.txt", "3 2\nmove 1 0\n\nforward 0 1.5\nlook 1 1\n", embeddings),
            "command tsv": ("c.tsv", "look_up\tlook up\n\nmove_forward\t move forward \n",
                            lambda p: [(c.action_id, c.phrase) for c in
                                       natcmd.load_command_list(p)]),
            "transcripts": ("t.txt", "move forward\n\n\nlook up\n \n\n",
                            dispatch.read_transcripts),
            "model json": ("m2.json", model_text, model),
            "frame file": ("f.txt", "\n" + frame_lines,
                           lambda p: natcmd.dataset.read_frame(p).tolist()),
            "dataset csv": ("d2.csv", texts["csv"], dataset),
            "dataset jsonl": ("d2.jsonl", texts["jsonl"], dataset),
            "raw replay lines": ("r.txt", frame_lines, natcmd.read_frames),
        }

    NAMES = ["embeddings", "command tsv", "transcripts", "model json", "frame file",
             "dataset csv", "dataset jsonl", "raw replay lines"]

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["CRLF", "CR"])
    @pytest.mark.parametrize("name", NAMES)
    def test_same_parse_as_lf(self, name, ending, tmp_path):
        file_name, text, parse = self.files(tmp_path)[name]
        assert "\r" not in text
        lf, other = tmp_path / "lf", tmp_path / "other"
        lf.mkdir()
        other.mkdir()
        (lf / file_name).write_bytes(text.encode("utf-8"))
        (other / file_name).write_bytes(text.replace("\n", ending).encode("utf-8"))
        assert parse(str(other / file_name)) == parse(str(lf / file_name))


class TestByteOrderMark:
    """Every reader skips a leading UTF-8 byte-order mark: it parses the
    marked file as it parses the same file without one."""

    @pytest.mark.parametrize("name", TestLineEndings.NAMES + ["csv replay"])
    def test_same_parse_as_plain(self, name, tmp_path):
        files = TestLineEndings.files(tmp_path)
        files["csv replay"] = ("d3.csv", files["dataset csv"][1], lambda p: [
            row.tolist() for row in natcmd.read_frames(p)])
        file_name, text, parse = files[name]
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.mkdir()
        marked.mkdir()
        (plain / file_name).write_bytes(text.encode("utf-8"))
        (marked / file_name).write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert parse(str(marked / file_name)) == parse(str(plain / file_name))

    @pytest.mark.parametrize("command", TestUnreadableDataFiles.COMMANDS)
    def test_dataset_commands_same_output(self, command, model_path, small_data, tmp_path,
                                          capsys):
        lines = TestUnreadableDataFiles.data_lines(command, small_data)
        outputs = []
        for bom in (b"", b"\xef\xbb\xbf"):
            data = tmp_path / "data.csv"
            data.write_bytes(bom + b"\r\n".join(lines))
            argv = TestUnreadableDataFiles.argv(command, str(data), model_path, tmp_path)
            code, out, err = run(capsys, *argv)
            docs = [json.loads(line) for line in out.splitlines()]
            outputs.append((code, err, [{k: v for k, v in doc.items()
                                         if not k.endswith("time_ms")} for doc in docs]))
            if command == "train":
                outputs.append(natcmd.load_model(str(tmp_path / "o.json")).params["weights"]
                               .tolist())
        assert outputs[0][0] == 0 and outputs[0][2]
        assert outputs[: len(outputs) // 2] == outputs[len(outputs) // 2:]
        if command.startswith("run"):
            assert json.loads(outputs[0][1])["gesture"]["frames_skipped"] == 0
