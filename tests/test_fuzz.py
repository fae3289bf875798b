"""Seeded fuzz suite over every input file format.

Each case mutates a valid file once -- a byte flip, a truncation, a dropped
or duplicated field, a huge integer, a non-finite token, a BOM, CRLF or CR
line endings, or bytes that are not UTF-8; in the JSON formats also deep
nesting, in a model a parameter that is an object, in raw frame lines
coordinates of +-1.7e308, in a dataset to train on coordinates from 1e300
to 1.7e308, and in embeddings values near 1e100, 1e154 and 1e308 -- and
reads it through the library reader and every ``natcmd`` command that
reads that format.

Invariant: every entry point accepts the file and gives what the library
gives for the library's parse, or rejects it with a NatcmdError; on the
command line that is exit 2 and an ``error:`` line. Never another exception,
and never exit 1. What a command that exits 0 prints is strict JSON (no
NaN or Infinity), and each ``run`` line is an event that decodes and
encodes back to the same bytes; its stderr holds no numpy warning. Seeds
are fixed, so every case reproduces.
"""

import io
import json
import random
import re

import numpy as np
import pytest

from natcmd import (
    FRAME_SIZE,
    LabeledDataset,
    MlpConfig,
    ReplayClock,
    StabilityPolicy,
    SvmConfig,
    SyntheticSpec,
    decode_event,
    default_command_list,
    encode_event,
    evaluate_model,
    generate_synthetic_dataset,
    load_command_list,
    load_embeddings,
    load_landmark_dataset,
    load_model,
    predict,
    read_transcripts,
    resolve_command,
    run_gesture_stream,
    run_voice_stream,
    save_landmark_dataset,
    save_model,
    train_linear_svm,
    train_mlp,
)
from natcmd.cli import run_cli
from natcmd.dataset import frame_from_fields
from natcmd.dispatch import DEFAULT_POLL_INTERVAL_MS, REPLAY_FRAME_INTERVAL_MS, CommandEvent
from natcmd.errors import NatcmdError

NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
TEXT = "move forward"  # the transcript ``match`` resolves


def flip_byte(data, rng, sep):
    i = rng.randrange(len(data))
    return data[:i] + bytes([data[i] ^ 1 << rng.randrange(8)]) + data[i + 1:]


def truncate(data, rng, sep):
    return data[: rng.randrange(len(data))]


def drop_field(data, rng, sep):
    fields = data.split(sep)
    del fields[rng.randrange(len(fields))]
    return sep.join(fields)


def duplicate_field(data, rng, sep):
    fields = data.split(sep)
    i = rng.randrange(len(fields))
    return sep.join(fields[: i + 1] + fields[i:])


def _replace_number(data, rng, tokens):
    match = rng.choice(list(NUMBER.finditer(data)))
    return data[: match.start()] + rng.choice(tokens) + data[match.end():]


def huge_int(data, rng, sep):
    # 5000 digits is over Python's limit for int() of a string
    return _replace_number(data, rng, [b"9" * n for n in (20, 400, 5000)])


def non_finite(data, rng, sep):
    return _replace_number(data, rng, [b"nan", b"NaN", b"-inf", b"Infinity"])


def bom(data, rng, sep):
    return b"\xef\xbb\xbf" + data


def line_endings(data, rng, sep):
    return data.replace(b"\n", rng.choice([b"\r\n", b"\r"]))


def invalid_utf8(data, rng, sep):
    i = rng.randrange(len(data) + 1)
    return data[:i] + rng.choice([b"\xff", b"\xc3", b"\xed\xa0\x80"]) + data[i:]


MUTATIONS = [flip_byte, truncate, drop_field, duplicate_field, huge_int,
             non_finite, bom, line_endings, invalid_utf8]
SEEDS = range(3 * len(MUTATIONS))  # each mutation three times per format


def deep_nesting(data, rng, sep):
    # 70 deep parses, past numpy's dimension limit; 2000 and more is past
    # Python's recursion limit, which json raises as RecursionError
    depth = rng.choice([70, 2_000, 100_000])
    return _replace_number(data, rng, [b"[" * depth + b"]" * rng.choice([0, depth])])


def param_as_object(data, rng, sep):
    doc = json.loads(data)
    name = rng.choice(sorted(doc["params"]))
    value = rng.choice([{}, {"0": 1.0}])
    if rng.random() < 0.5:
        doc["params"][name] = value
    else:  # one row of the parameter
        rows = doc["params"][name]
        rows[rng.randrange(len(rows))] = value
    return json.dumps(doc, indent=1).encode("utf-8")


# mutations that only a JSON format has room for: (the formats, mutation)
JSON_MUTATIONS = {
    "deep nesting": (("dataset jsonl", "model json", "event ndjson"), deep_nesting),
    "param as object": (("model json",), param_as_object),
}
JSON_CASES = [(fmt, name, seed) for name, (fmts, _) in JSON_MUTATIONS.items()
              for fmt in fmts for seed in range(4)]


class Inputs:
    """Valid files of every format, and the model and dataset behind them."""

    def __init__(self, root):
        self.root = root
        self.ds = generate_synthetic_dataset(
            SyntheticSpec(label_set=("down", "stop", "up"), frames_per_label=3, seed=5))
        self.model = train_linear_svm(self.ds, SvmConfig(seed=1))
        self.model_path = root / "model.json"
        save_model(self.model, str(self.model_path))
        self.data_path = root / "data.csv"
        save_landmark_dataset(self.ds, str(self.data_path))
        self.frame_path = root / "frame.txt"
        self.frame_path.write_text(
            ",".join(map(repr, self.ds.frames[0].tolist())) + "\n", encoding="utf-8")
        words = ["move", "forward", "look", "up", "stop", "2"]
        rows = [f"{w} " + " ".join(f"{v:.4f}" for v in np.random.default_rng(i).normal(0, 1, 4))
                for i, w in enumerate(words)]
        self.embeddings = f"{len(words)} 4\n" + "\n".join(rows) + "\n"
        self.embeddings_path = root / "embeddings.txt"
        self.embeddings_path.write_text(self.embeddings, encoding="utf-8")
        self.table = load_embeddings(str(self.embeddings_path))
        self.commands = default_command_list()
        self.transcripts = "move forward\n\nlook up 2\nstop\n\n"
        self.transcripts_path = root / "polls.txt"
        self.transcripts_path.write_text(self.transcripts, encoding="utf-8")

    def dataset_bytes(self, fmt):
        path = self.root / f"valid.{fmt}"
        save_landmark_dataset(self.ds, str(path))
        return path.read_bytes()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return Inputs(tmp_path_factory.mktemp("fuzz"))


def outcome(read, *args):
    """(result, None), or (None, the NatcmdError ``read`` raised)."""
    try:
        return read(*args), None
    except NatcmdError as exc:
        return None, exc


def reject_constant(name):
    raise AssertionError(f"{name} is not JSON")


def check_stdout(command, out):
    """Each line is strict JSON; for ``run``, an event that round-trips."""
    for line in out.splitlines(keepends=True):
        json.loads(line, parse_constant=reject_constant)
        if command == "run":
            assert encode_event(decode_event(line)) == line


class Natcmd:
    """Runs ``natcmd`` in-process; records each exit code."""

    def __init__(self, capsys):
        self.capsys = capsys
        self.codes = []

    def expect(self, argv, error, wanted=None):
        """``natcmd argv`` must fail with ``error`` (a message, or the end of
        one) if that is set, else exit 0 with ``wanted`` as its stdout and
        stderr summary. Returns stdout on success."""
        code = run_cli([str(a) for a in argv])
        out, err = self.capsys.readouterr()
        self.codes.append(code)
        assert "encountered in" not in err, err  # a numpy RuntimeWarning
        if error is not None:
            assert (code, out) == (2, ""), err
            assert "error: " in err and err.endswith(f"{error}\n"), err
            return None
        assert code == 0, err
        check_stdout(argv[0], out)
        if wanted is not None:
            summary = json.loads(err.splitlines()[-1]) if argv[0] == "run" else None
            assert (out, summary) == wanted
        return out


def replay_frames(model, rows):
    """What ``natcmd run --frames`` writes for these rows: stdout, summary."""
    clock = ReplayClock()
    events = []
    summary = run_gesture_stream(model, clock.drive(rows, REPLAY_FRAME_INTERVAL_MS),
                                 StabilityPolicy(), events.append, clock=clock.now)
    return "".join(map(encode_event, events)), {"gesture": vars(summary)}


def replay_polls(transcripts_path, commands, table):
    """What ``natcmd run --transcripts`` writes: stdout, summary."""
    clock = ReplayClock(DEFAULT_POLL_INTERVAL_MS)
    polls = clock.drive(read_transcripts(str(transcripts_path)), DEFAULT_POLL_INTERVAL_MS)
    events = []
    summary = run_voice_stream(polls, commands, table, events.append, clock=clock.now)
    return "".join(map(encode_event, events)), {"voice": vars(summary)}


def raw_lines(path):
    """(line number, stripped text) of each non-blank line, or None if the
    file is not UTF-8."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return [(n, line.strip()) for n, line in enumerate(fh, 1) if line.strip()]
    except UnicodeDecodeError:
        return None


def fields(text):
    return [v for v in text.split(",") if v.strip()]


def check_run_frames(natcmd, path, model_path, model):
    """``run --frames`` reads a file whose first line starts with
    ``label,`` as CSV, one whose first line starts with ``{`` as JSONL, and
    anything else as raw frame lines, skipping the invalid ones."""
    argv = ["run", "--model", model_path, "--frames", path]
    first = next(iter(path.read_bytes().splitlines()), b"").decode("utf-8-sig", "replace")
    if first.startswith("label,") or first.lstrip().startswith("{"):
        fmt = "csv" if first.startswith("label,") else "jsonl"
        ds, error = outcome(load_landmark_dataset, str(path), fmt)
        if error is not None:
            return natcmd.expect(argv, str(error).replace("dataset file", "frame source"))
        rows = ds.frames
    else:
        lines = raw_lines(path)
        if lines is None:
            return natcmd.expect(argv, f"frame source {path} is not valid UTF-8")
        rows = [fields(text) for _, text in lines]
    natcmd.expect(argv, None, replay_frames(model, rows))


def check_dataset(natcmd, inputs, path):
    ds, error = outcome(load_landmark_dataset, str(path))
    model, train_error = (None, error) if error else outcome(
        train_linear_svm, ds, SvmConfig(max_epochs=2, seed=42))
    out = natcmd.expect(["train", "--kind", "svm", "--max-epochs", "2", "--data", path,
                          "-o", inputs.root / "trained.json"], train_error)
    if out is not None:
        doc = json.loads(out)
        assert (doc["labels"], doc["frames_trained"]) == (list(model.label_set), len(ds))
        trained = load_model(str(inputs.root / "trained.json"))
        for name, arr in model.params.items():
            np.testing.assert_array_equal(trained.params[name], arr)
    report, eval_error = (None, error) if error else outcome(evaluate_model, inputs.model, ds)
    out = natcmd.expect(["evaluate", "--model", inputs.model_path, "--data", path], eval_error)
    if out is not None:
        assert json.loads(out)["confusion"] == report.confusion.counts.tolist()
    check_run_frames(natcmd, path, inputs.model_path, inputs.model)


def check_raw_frames(natcmd, inputs, path):
    argv = ["predict", "--model", inputs.model_path, "--frame", path]
    lines = raw_lines(path)
    if lines is None:
        natcmd.expect(argv, f"frame file {path} is not valid UTF-8")
    elif not lines:
        natcmd.expect(argv, f"{path}: no frame line found")
    else:
        frame, error = outcome(frame_from_fields, fields(lines[0][1]), lines[0][0])
        pred, error = (None, error) if error else outcome(predict, inputs.model, frame)
        out = natcmd.expect(argv, error)
        if out is not None:
            assert json.loads(out)["label"] == pred.label
    check_run_frames(natcmd, path, inputs.model_path, inputs.model)


def check_model(natcmd, inputs, path):
    model, error = outcome(load_model, str(path))
    out = natcmd.expect(["predict", "--model", path, "--frame", inputs.frame_path], error)
    if out is not None:
        doc = json.loads(out)
        assert doc["label"] == predict(model, inputs.ds.frames[0]).label
        assert list(doc["scores"]) == list(model.label_set)
    report, eval_error = (None, error) if error else outcome(evaluate_model, model, inputs.ds)
    out = natcmd.expect(["evaluate", "--model", path, "--data", inputs.data_path], eval_error)
    if out is not None:
        assert json.loads(out)["confusion"] == report.confusion.counts.tolist()
    if error is None:
        check_run_frames(natcmd, inputs.data_path, path, model)
    else:
        natcmd.expect(["run", "--model", path, "--frames", inputs.data_path], error)


def check_match(natcmd, argv, commands, table, error):
    out = natcmd.expect(argv, error)
    if out is not None:
        result = resolve_command(TEXT, commands, table)
        doc = json.loads(out)
        assert [(c["phrase"], c["cosine"], c["jaro_winkler"]) for c in doc["candidates"]] == [
            (c.phrase, c.cosine, c.jaro_winkler) for c in result.per_candidate]


def check_run_polls(natcmd, argv, transcripts_path, commands, table, error):
    if error is not None:
        return natcmd.expect(argv, error)
    natcmd.expect(argv, None, replay_polls(transcripts_path, commands, table))


def check_embeddings(natcmd, inputs, path):
    table, error = outcome(load_embeddings, str(path))
    check_match(natcmd, ["match", "--embeddings", path, "--text", TEXT],
                inputs.commands, table, error)
    check_run_polls(natcmd, ["run", "--transcripts", inputs.transcripts_path, "--embeddings", path],
                    inputs.transcripts_path, inputs.commands, table, error)


def check_commands(natcmd, inputs, path):
    commands, error = outcome(load_command_list, str(path))
    check_match(natcmd, ["match", "--embeddings", inputs.embeddings_path, "--commands", path,
                         "--text", TEXT], commands, inputs.table, error)
    check_run_polls(natcmd, ["run", "--transcripts", inputs.transcripts_path, "--embeddings",
                             inputs.embeddings_path, "--commands", path],
                    inputs.transcripts_path, commands, inputs.table, error)


def check_transcripts(natcmd, inputs, path):
    _, error = outcome(read_transcripts, str(path))
    check_run_polls(natcmd, ["run", "--transcripts", path, "--embeddings", inputs.embeddings_path],
                    path, inputs.commands, inputs.table, error)


def check_events(natcmd, inputs, path):
    text = path.read_bytes().decode("utf-8", "replace")
    for line in io.StringIO(text, newline=""):
        event, _ = outcome(decode_event, line)
        natcmd.codes.append(0 if event else 2)
        if event is not None:
            assert decode_event(encode_event(event)) == event


def model_bytes(inputs):
    with open(inputs.model_path, encoding="utf-8") as fh:
        return json.dumps(json.load(fh), indent=1).encode("utf-8")


def events_bytes(inputs):
    events = [CommandEvent("gesture", "look_up", 0.75, 120),
              CommandEvent("voice", "move_forward", 0.5, 3000)]
    return "".join(map(encode_event, events)).encode("utf-8")


# name: (file suffix, field separator, valid bytes, check)
FORMATS = {
    "dataset csv": (".csv", b",", lambda i: i.dataset_bytes("csv"), check_dataset),
    "dataset jsonl": (".jsonl", b",", lambda i: i.dataset_bytes("jsonl"), check_dataset),
    "raw frame lines": (".txt", b",", lambda i: b"\n".join(
        ",".join(map(repr, f.tolist())).encode() for f in i.ds.frames) + b"\n\n",
        check_raw_frames),
    "embeddings": (".txt", b" ", lambda i: i.embeddings.encode(), check_embeddings),
    "command tsv": (".tsv", b"\t", lambda i: b"look_up\tlook up\nmove_2\tmove 2 forward\n"
                    b"stop\tstop\n", check_commands),
    "model json": (".json", b",", model_bytes, check_model),
    "transcripts": (".txt", b" ", lambda i: i.transcripts.encode(), check_transcripts),
    "event ndjson": (".ndjson", b",", events_bytes, check_events),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("fmt", list(FORMATS))
def test_mutated_input(fmt, seed, inputs, tmp_path, capsys):
    suffix, sep, valid, check = FORMATS[fmt]
    rng = random.Random(f"{fmt} {seed}")
    mutate = MUTATIONS[seed % len(MUTATIONS)]
    path = tmp_path / f"mutated{suffix}"
    path.write_bytes(mutate(valid(inputs), rng, sep))
    check(Natcmd(capsys), inputs, path)


@pytest.mark.parametrize("fmt,mutation,seed", JSON_CASES)
def test_mutated_json(fmt, mutation, seed, inputs, tmp_path, capsys):
    suffix, sep, valid, check = FORMATS[fmt]
    rng = random.Random(f"{fmt} {mutation} {seed}")
    path = tmp_path / f"mutated{suffix}"
    path.write_bytes(JSON_MUTATIONS[mutation][1](valid(inputs), rng, sep))
    check(Natcmd(capsys), inputs, path)


def overflowing_frame(data, rng, sep):
    """1, 2, 3, 4 or all 63 coordinates of the first frame line and of one
    other line become +-1.7e308: margins overflow, some to -inf in a losing
    score only."""
    lines = data.split(b"\n")
    for n in {0, rng.randrange(len(lines) - 2)}:  # the file ends in a blank line
        coords = lines[n].split(sep)
        for i in rng.sample(range(len(coords)), rng.choice([1, 2, 3, 4, len(coords)])):
            coords[i] = rng.choice([b"1.7e308", b"-1.7e308"])
        lines[n] = sep.join(coords)
    return b"\n".join(lines)


@pytest.mark.parametrize("seed", range(16))
def test_overflowing_frame(seed, inputs, tmp_path, capsys):
    suffix, sep, valid, check = FORMATS["raw frame lines"]
    path = tmp_path / f"overflowing{suffix}"
    path.write_bytes(overflowing_frame(valid(inputs), random.Random(f"overflow {seed}"), sep))
    check(Natcmd(capsys), inputs, path)


# Finite magnitudes from 1e300 to near the largest double: training on them
# overflows at some epoch, or (for a few seeded datasets) never.
TRAIN_MAGNITUDES = (1e300, 1e303, 1e306, 1e307, 1.7e308)
TRAIN_ERRORS = {"svm": r"svm objective is not finite after epoch \d+",
                "mlp": r"mlp parameters are not finite after epoch \d+"}


def huge_dataset_csv(path, rng, scale):
    """A seeded 12-frame dataset CSV in which one to three frames are scaled
    so their largest coordinate is +-``scale``, or get one coordinate of it."""
    ds = generate_synthetic_dataset(
        SyntheticSpec(label_set=("down", "stop", "up"), frames_per_label=4,
                      seed=rng.randrange(1000)))
    frames = ds.frames.copy()
    for i in rng.sample(range(len(frames)), rng.randint(1, 3)):
        value = rng.choice([scale, -scale])
        if rng.random() < 0.5:
            frames[i] = frames[i] / np.abs(frames[i]).max() * value
        else:
            frames[i, rng.randrange(FRAME_SIZE)] = value
    save_landmark_dataset(LabeledDataset(frames=frames, labels=ds.labels), str(path))


@pytest.mark.parametrize("scale", TRAIN_MAGNITUDES)
@pytest.mark.parametrize("kind", list(TRAIN_ERRORS))
def test_training_near_the_float64_limit(kind, scale, tmp_path, capsys):
    """``natcmd train`` exits 2 naming the epoch whose result is not finite,
    as the library raises it, or exits 0 with the library's model. A numpy
    warning would be an error here (pytest's RuntimeWarning filter)."""
    train, cfg = ((train_linear_svm, SvmConfig(seed=3)) if kind == "svm"
                  else (train_mlp, MlpConfig(seed=3)))
    natcmd = Natcmd(capsys)
    model_path = tmp_path / "trained.json"
    for seed in range(4):
        path = tmp_path / f"huge-{seed}.csv"
        huge_dataset_csv(path, random.Random(f"train {kind} {scale} {seed}"), scale)
        model, error = outcome(train, load_landmark_dataset(str(path)), cfg)
        if error is not None:
            assert re.fullmatch(TRAIN_ERRORS[kind], str(error)), error
        out = natcmd.expect(["train", "--kind", kind, "--seed", 3, "--data", path,
                             "-o", model_path], error and str(error))
        if out is not None:
            trained = load_model(str(model_path))
            for name, arr in model.params.items():
                assert trained.params[name].tobytes() == arr.tobytes(), name


# Embedding value tokens that float() reads and numpy does not (the first
# three), or that both or neither read; and Unicode separators both split on.
EMBEDDING_TOKENS = [t.encode() for t in ("1_0", "\u0661", "\u0663.\u0665", "nan", "inf",
                                         "1e400", "0x1")]
EMBEDDING_SEPARATORS = [t.encode() for t in ("\t", "\xa0", "\x85", "\x0b", "\x0c", "\x1c",
                                             "\x1f", "\u3000")]


# Values at the magnitude bound and floor (accepted) and past them: near 1e154
# a square overflows, near 1e308 the value itself nearly does; near 1e-200 a
# square underflows, and 5e-324 is the smallest subnormal.
EMBEDDING_MAGNITUDES = [t.encode() for t in ("1e100", "-1e100", "1.0000000000000002e100",
                                             "1e154", "-1.4e154", "1e308", "-1.7e308",
                                             "1e-100", "1e-200", "-1e-300", "5e-324")]


@pytest.mark.parametrize("token", EMBEDDING_TOKENS + EMBEDDING_SEPARATORS)
def test_embedding_tokens(token, inputs, tmp_path, capsys):
    rng = random.Random(token)
    data = inputs.embeddings.encode()
    if token in EMBEDDING_SEPARATORS:
        i = rng.choice([i for i, byte in enumerate(data) if byte == ord(" ")])
        data = data[:i] + token + data[i + 1:]
    else:
        data = _replace_number(data, rng, [token])
    path = tmp_path / "tokens.txt"
    path.write_bytes(data)
    check_embeddings(Natcmd(capsys), inputs, path)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("token", EMBEDDING_MAGNITUDES)
def test_embedding_magnitudes(token, seed, inputs, tmp_path, capsys):
    """One value of a command word's vector becomes ``token``."""
    lines = inputs.embeddings.encode().split(b"\n")
    rng = random.Random(f"{token} {seed}")
    n = rng.randrange(1, len(lines) - 1)  # an entry line, not the header
    word, values = lines[n].split(b" ", 1)
    lines[n] = word + b" " + _replace_number(values, rng, [token])
    path = tmp_path / "magnitudes.txt"
    path.write_bytes(b"\n".join(lines))
    check_embeddings(Natcmd(capsys), inputs, path)


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_valid_input_is_accepted_everywhere(fmt, inputs, tmp_path, capsys):
    suffix, _, valid, check = FORMATS[fmt]
    path = tmp_path / f"valid{suffix}"
    path.write_bytes(valid(inputs))
    natcmd = Natcmd(capsys)
    check(natcmd, inputs, path)
    assert natcmd.codes and set(natcmd.codes) == {0}
