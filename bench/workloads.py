"""Inputs, passes and reference checks of the natcmd benchmark.

Every workload runs the same three passes against natcmd's public API, each
in a closed loop from one client:

* train-eval: ``gen-data``, ``train --kind svm``, ``train --kind mlp`` and
  ``evaluate`` for both models through ``natcmd.cli.run_cli``, then
  ``metrics.evaluate_model`` timed from outside;
* gesture: a generated landmark stream replayed through
  ``dispatch.run_gesture_stream`` once per model kind;
* voice: mixed transcript polls through ``dispatch.run_voice_stream``.

The workload decides which pass runs at full size: the paper's regime of
15 gestures x 1000 frames, a 20k-frame stream, or 1000 polls in slices of
500. The other two passes run at companion size (200 frames per label, a
7000-frame stream, slices of 200 polls) so that every run reports every
end-to-end metric, as BENCHMARK.json requires. Inputs depend only on the seed.
BENCHMARK.json lists train-eval and gesture-replay only: with three workloads
its time budget allowed 35 s runs, too short for steady figures on a shared
host. voice-replay stays runnable by hand; the voice companion of the other
two reports every voice metric.

Inputs and references are built by :func:`write_inputs` in a child process
and read back from files, so the measuring process never holds the input
generator's or the reference trainer's memory and ``peak_rss_mb`` covers
only natcmd's set-up and the passes.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import logging
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

import natcmd.cli
import natcmd.dispatch
import natcmd.metrics
import natcmd.voice
from natcmd.classifiers import (
    MlpConfig, SvmConfig, load_model, save_model, train_linear_svm, train_mlp,
)
from natcmd.dataset import (
    DEFAULT_GESTURE_LABELS, LabeledDataset, SyntheticSpec, generate_synthetic_dataset,
    load_landmark_dataset, split_dataset, synthetic_prototypes,
)
from natcmd.dispatch import (
    DEFAULT_POLL_INTERVAL_MS, REPLAY_FRAME_INTERVAL_MS, ReplayClock, StabilityPolicy,
)
from natcmd.metrics import evaluate_model
from natcmd.voice import DEFAULT_COMMAND_PHRASES

from spans import Tracer, layer_metrics, traced, write_spans

# Calls the benchmark makes as a user of natcmd go through module attributes
# (natcmd.cli.run_cli, natcmd.dispatch.run_gesture_stream, ...) so that the
# traced run sees them; the names imported above are the untraced originals,
# used only to build inputs and references and to check outputs.

WORKLOADS = ("train-eval", "gesture-replay", "voice-replay")

SIGMA = 0.01
SPLIT = 0.8
K = 5
SUPPRESS = "neutral"
SVM_GATE = 0.99  # criterion 2 accuracy gates
MLP_GATE = 0.90
EMBED_DIM = 50
INVALID_SHARE = 0.01
CONFIDENCE_TOL = 1e-9
# SVM training stops on a tolerance, so its epoch count (3 to 24 across seeds)
# depends on the data. Companion passes cap it at the smallest count seen and
# rotate over several datasets derived from the seed, so that train_svm_s
# follows the code rather than the seed.
COMPANION_SVM_EPOCHS = 3
COMPANION_DATASETS = 4

# Traffic mix. No transcript or frame trace of real use is in the repository,
# so these shares are assumptions, not measurements; the record line reports
# what each seed drew, and a recorded trace, if one is ever added, should
# replace them.
# - Silence: a live microphone is silent in most 3 s polls, but a silent poll
#   returns before any resolve, so a realistic share would leave little
#   voice work to time; a fifth keeps the path covered and checked.
SILENCE_SHARE = 0.20
# - Exact phrases with surface noise: the usual command input, and the kind
#   whose answer is known (its command, total 2.0); the largest checked share.
EXACT_SHARE = 0.30
# - Out-of-vocabulary gibberish: known answer (ignored), short and cheap; the
#   smallest share that still gives about 150 checked polls in 1000.
GIBBERISH_SHARE = 0.15
# - The rest (35%) are 4-12-word utterances, 40% command words: the costliest
#   kind (Jaro-Winkler cost grows with length), so they set the poll tail.
UTTERANCE_COMMAND_WORDS = 0.4
# Gesture stream: each hold of 5-60 frames is followed, at even odds, by a
# flicker shorter than K and by a neutral rest, so that about half the hold
# boundaries test that flickers never fire and half that rests re-arm the
# no-repeat rule.
HOLD_FRAMES = (5, 60)
FLICKER_ODDS = 0.5
REST_ODDS = 0.5
REST_FRAMES = (3, 20)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the defaults are the benchmark's, the self-test shrinks them."""

    per_label: int = 1000           # the paper's regime: 15 gestures x 1000
    companion_per_label: int = 200
    frames: int = 20000
    companion_frames: int = 7000
    polls: int = 1000
    poll_slice: int = 500
    companion_poll_slice: int = 200
    vocabulary: int = 10000


def _logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _params_equal(a, b) -> bool:
    return (
        a.kind == b.kind and a.label_set == b.label_set and a.params.keys() == b.params.keys()
        and all(a.params[k].tobytes() == b.params[k].tobytes() for k in a.params)
    )


class _WarningCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


@contextlib.contextmanager
def _count_warnings(name: str):
    """Count a logger's warnings instead of letting them reach stderr."""
    logger = logging.getLogger(name)
    handler = _WarningCounter()
    propagate = logger.propagate
    logger.addHandler(handler)
    logger.propagate = False
    try:
        yield handler
    finally:
        logger.removeHandler(handler)
        logger.propagate = propagate


@contextlib.contextmanager
def _cpu_turns():
    """Give a function that moves the process to the next usable CPU.

    The scheduler keeps a single-threaded process on the CPU it started on,
    and the CPUs of a shared host run at different speeds for minutes at a
    time (per-CPU replay throughput was seen up to 45% apart on a shared
    2-vCPU x86_64 VM), so a run's figures would depend on where it landed.
    The process moves once per slot, between timed steps: moving on a timer,
    inside steps, put the cost of the moves into the poll tail (the spread of
    poll_p99_ms across runs rose from about 0.05 to 0.3-0.6).
    """
    cpus = sorted(os.sched_getaffinity(0))
    turn = itertools.cycle(cpus)
    try:
        yield lambda: os.sched_setaffinity(0, {next(turn)})
    finally:
        os.sched_setaffinity(0, cpus)


# ---------------------------------------------------------------------------
# Inputs and references
# ---------------------------------------------------------------------------


class Regime:
    """One train-eval regime: its dataset, test split, reference models and
    their accuracies.

    Only the paper's regime (``gated``) must pass the criterion 2 accuracy
    gates; the MLP underfits smaller companion datasets on some seeds, so
    every regime's reported accuracy must equal its reference model's.
    :meth:`build` trains the references in the input process, :meth:`save`
    and :meth:`load` carry them to the measuring process.
    """

    def __init__(self, per_label: int, seed: int, gated: bool, svm_epochs: int = 1000):
        self.per_label = per_label
        self.seed = seed
        self.gated = gated
        self.spec = SyntheticSpec(DEFAULT_GESTURE_LABELS, per_label, SIGMA, seed)
        self.svm = SvmConfig(c=1.0, max_epochs=svm_epochs, tolerance=1e-4, seed=seed)
        self.mlp = MlpConfig(hidden_units=30, learning_rate=1e-3, batch_size=32, epochs=50,
                             seed=seed)

    def build(self) -> Regime:
        self.dataset = generate_synthetic_dataset(self.spec)
        train, self.test = split_dataset(self.dataset, SPLIT, self.seed)
        self.models = {"svm": train_linear_svm(train, self.svm),
                       "mlp": train_mlp(train, self.mlp)}
        self.accuracy = {k: evaluate_model(m, self.test).accuracy
                         for k, m in self.models.items()}
        return self

    def save(self, directory: Path, name: str) -> None:
        np.savez(directory / f"{name}.npz",
                 frames=self.dataset.frames, labels=np.array(self.dataset.labels),
                 test_frames=self.test.frames, test_labels=np.array(self.test.labels))
        for kind, model in self.models.items():
            save_model(model, str(directory / f"{name}-{kind}.json"))
        (directory / f"{name}.json").write_text(json.dumps({
            "per_label": self.per_label, "seed": self.seed, "gated": self.gated,
            "svm_epochs": self.svm.max_epochs, "accuracy": self.accuracy}))

    @classmethod
    def load(cls, directory: Path, name: str) -> Regime:
        meta = json.loads((directory / f"{name}.json").read_text())
        regime = cls(meta["per_label"], meta["seed"], meta["gated"], meta["svm_epochs"])
        with np.load(directory / f"{name}.npz") as z:
            regime.dataset = LabeledDataset(z["frames"], tuple(z["labels"].tolist()))
            regime.test = LabeledDataset(z["test_frames"], tuple(z["test_labels"].tolist()))
        regime.models = {k: load_model(str(directory / f"{name}-{k}.json"))
                         for k in ("svm", "mlp")}
        regime.accuracy = meta["accuracy"]
        return regime

    def train_flags(self) -> list[str]:
        """Every ``natcmd train`` option, spelled out from the reference configs."""
        s, m = self.svm, self.mlp
        return ["--split", str(SPLIT), "--seed", str(self.seed),
                "--c", repr(s.c), "--max-epochs", str(s.max_epochs),
                "--tolerance", repr(s.tolerance), "--hidden", str(m.hidden_units),
                "--lr", repr(m.learning_rate), "--batch-size", str(m.batch_size),
                "--epochs", str(m.epochs)]


def gesture_stream(protos: dict, n_frames: int, seed: int):
    """Holds, flickers shorter than K, neutral rests, ~1% invalid frames.

    Returns (matrix, corruptions, segments): the clean frames, one row
    (position, NaN column or -1 for a dropped coordinate) per invalid frame,
    and {kind: [segments, frames]} for holds, flickers and rests.
    """
    rng = np.random.default_rng([seed, 1])
    gestures = [g for g in DEFAULT_GESTURE_LABELS if g != SUPPRESS]
    labels: list[str] = []
    segments = {"hold": [0, 0], "flicker": [0, 0], "rest": [0, 0]}

    def add(kind: str, label: str, length: int) -> None:
        take = min(length, n_frames - len(labels))
        if take > 0:
            labels.extend([label] * take)
            segments[kind][0] += 1
            segments[kind][1] += take

    last = None
    while len(labels) < n_frames:
        hold = rng.choice([g for g in gestures if g != last])
        add("hold", hold, int(rng.integers(HOLD_FRAMES[0], HOLD_FRAMES[1] + 1)))
        last = hold
        if rng.random() < FLICKER_ODDS:
            add("flicker", rng.choice(gestures), int(rng.integers(1, K)))
        if rng.random() < REST_ODDS:
            add("rest", SUPPRESS, int(rng.integers(REST_FRAMES[0], REST_FRAMES[1] + 1)))
    base = np.stack([protos[x] for x in labels])
    matrix = base + rng.normal(0.0, SIGMA, base.shape)
    n_invalid = max(1, round(INVALID_SHARE * n_frames))
    corruptions = [(int(pos), -1 if j % 2 else int(rng.integers(0, matrix.shape[1])))
                   for j, pos in enumerate(rng.choice(n_frames, n_invalid, replace=False))]
    return matrix, np.array(corruptions, dtype=np.int64).reshape(-1, 2), segments


def corrupted_frames(matrix: np.ndarray, corruptions: np.ndarray) -> list[np.ndarray]:
    """The replayed stream: rows of ``matrix`` with the invalid frames put in."""
    frames = list(matrix)
    for pos, col in corruptions.tolist():
        if col < 0:
            frames[pos] = matrix[pos][:-1]  # wrong arity
        else:
            bad = matrix[pos].copy()
            bad[col] = np.nan
            frames[pos] = bad
    return frames


def reference_events(model, frames) -> list[tuple[str, int, float]]:
    """(action, ts_ms, confidence) computed from the parameters directly:
    one batched forward pass, argmax with ties to the lowest index, then the
    k-run / suppress / no-repeat debounce."""
    index = [i for i, f in enumerate(frames) if f.shape == (63,) and np.all(np.isfinite(f))]
    x = np.stack([frames[i] for i in index])
    p = model.params
    if model.kind == "svm":
        scores = x @ p["weights"][:, :-1].T + p["weights"][:, -1]
    else:
        logits = np.maximum(0.0, x @ p["w1"] + p["b1"]) @ p["w2"] + p["b2"]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        scores = e / e.sum(axis=1, keepdims=True)
    winners = np.argmax(scores, axis=1)
    events = []
    current, run, last = None, 0, None
    for row, i in enumerate(index):
        label = model.label_set[winners[row]]
        run = run + 1 if label == current else 1
        current = label
        if run >= K and label != SUPPRESS and label != last:
            top = float(scores[row, winners[row]])
            conf = _logistic(top) if model.kind == "svm" else min(1.0, max(0.0, top))
            events.append((label, i * REPLAY_FRAME_INTERVAL_MS, conf))
            last = label
    return events


def _word(rng, lo: int, hi: int, letters: str) -> str:
    return "".join(rng.choice(list(letters), int(rng.integers(lo, hi + 1))))


def write_embeddings(path: Path, size: int, seed: int) -> list[str]:
    """word2vec text table: every command word plus random filler words.

    Returns the filler words.
    """
    rng = np.random.default_rng([seed, 2])
    command_words = sorted({t for p in DEFAULT_COMMAND_PHRASES for t in p.split()})
    filler: set[str] = set()
    while len(command_words) + len(filler) < size:
        w = _word(rng, 3, 9, "abcdefghijklmnopqrstuvwxyz")
        if w not in command_words:
            filler.add(w)
    words = command_words + sorted(filler)
    vectors = rng.normal(0.0, 1.0, (len(words), EMBED_DIM))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {EMBED_DIM}\n")
        for w, v in zip(words, vectors):
            fh.write(w + " " + " ".join(f"{x:.6f}" for x in v) + "\n")
    return sorted(filler)


def voice_polls(n_polls: int, filler: list[str], seed: int):
    """Mixed polls and what each must produce.

    Kinds: silence (None), an exact command phrase with surface noise (must
    match with total 2.0), out-of-vocabulary gibberish (must be ignored), and
    4-12-word utterances mixing command and filler words (unchecked, but must
    replay identically). Returns (polls, expectations, kinds) where an
    expectation is an action id, "" for "no event", or None for "not checked".
    """
    rng = np.random.default_rng([seed, 3])
    command_words = sorted({t for p in DEFAULT_COMMAND_PHRASES for t in p.split()})
    polls: list[str | None] = []
    expect: list[str | None] = []
    kinds: list[str] = []
    for _ in range(n_polls):
        draw = rng.random()
        if draw < SILENCE_SHARE:
            kinds.append("silence")
            polls.append(None)
            expect.append("")
        elif draw < SILENCE_SHARE + EXACT_SHARE:
            kinds.append("exact")
            phrase = DEFAULT_COMMAND_PHRASES[int(rng.integers(len(DEFAULT_COMMAND_PHRASES)))]
            tokens = []
            for t in phrase.split():
                t = (t.upper(), t.title(), t)[int(rng.integers(3))]
                if rng.random() < 0.3:
                    t += ",.!?;:"[int(rng.integers(6))]
                tokens.append(t)
            gaps = [" " * int(rng.integers(1, 4)) for _ in tokens]
            polls.append(" " * int(rng.integers(0, 3)) + "".join(
                t + g for t, g in zip(tokens, gaps)))
            expect.append("_".join(phrase.split()))
        elif draw < SILENCE_SHARE + EXACT_SHARE + GIBBERISH_SHARE:
            kinds.append("gibberish")
            # a digit keeps every token out of the letters-only vocabulary
            words = [_word(rng, 3, 7, "bcdfghjklmnpqrstvwxz") + str(int(rng.integers(10)))
                     for _ in range(int(rng.integers(1, 4)))]
            polls.append(" ".join(words))
            expect.append("")
        else:
            kinds.append("utterance")
            words = [
                command_words[int(rng.integers(len(command_words)))]
                if rng.random() < UTTERANCE_COMMAND_WORDS
                else filler[int(rng.integers(len(filler)))]
                for _ in range(int(rng.integers(4, 13)))
            ]
            polls.append(" ".join(words))
            expect.append(None)
    return polls, expect, kinds


def write_inputs(workload: str, seed: int, sizes: Sizes, directory: Path) -> None:
    """Build a session's inputs and references into ``directory``.

    Runs in a child process (see :meth:`Session.prepare`): training the
    references and generating the stream take far more memory than the
    measured passes do.
    """
    reference = Regime(sizes.per_label, seed, gated=True).build()
    if workload == "train-eval":
        regimes = [reference]
    else:
        regimes = [Regime(sizes.companion_per_label, seed * COMPANION_DATASETS + j,
                          gated=False, svm_epochs=COMPANION_SVM_EPOCHS).build()
                   for j in range(COMPANION_DATASETS)]
    for j, regime in enumerate(regimes):
        regime.save(directory, f"regime-{j}")

    n_frames = sizes.frames if workload == "gesture-replay" else sizes.companion_frames
    matrix, corruptions, segments = gesture_stream(
        synthetic_prototypes(reference.spec), n_frames, seed)
    np.savez(directory / "stream.npz", matrix=matrix, corruptions=corruptions)
    frames = corrupted_frames(matrix, corruptions)
    expected = {}
    for kind, model in reference.models.items():
        save_model(model, str(directory / f"replay-{kind}.json"))
        expected[kind] = reference_events(model, frames)

    filler = write_embeddings(directory / "embeddings.txt", sizes.vocabulary, seed)
    polls, expect, kinds = voice_polls(sizes.polls, filler, seed)
    utterances = [p for p, k in zip(polls, kinds) if k == "utterance"]
    inputs = {
        "stream": {"frames": n_frames, "invalid": len(corruptions),
                   **{f"{k}s": n for k, (n, _) in segments.items()},
                   **{f"{k}_frames": f for k, (_, f) in segments.items()}},
        "polls": {"polls": len(polls),
                  **{k: kinds.count(k) for k in ("silence", "exact", "gibberish", "utterance")},
                  "utterance_words_mean": (statistics.fmean(len(p.split()) for p in utterances)
                                           if utterances else 0.0)},
    }
    (directory / "inputs.json").write_text(json.dumps({
        "regimes": len(regimes), "expected_events": expected, "polls": polls,
        "expect": expect, "counts": inputs}))


def _input_process(job: str) -> None:
    """Entry point of the input process: ``job`` is the JSON of
    [workload, seed, sizes, directory]."""
    workload, seed, sizes, directory = json.loads(job)
    write_inputs(workload, seed, Sizes(**sizes), Path(directory))


# ---------------------------------------------------------------------------
# Closed-loop input sources owned by the benchmark
# ---------------------------------------------------------------------------


def _served(items, pulls: list[int], tracer: Tracer | None, span_name: str, before=None):
    """Yield items, stamping each pull after calling ``before``.

    Traced, an item's span opens just before the item is handed to the
    runner and closes as soon as the runner pulls again, so the runner's work
    on the item nests inside it under the item's index and the source's own
    work (``before``, the stamp, the sources this one reads) stays outside.
    """
    for i, item in enumerate(items):
        if before is not None:
            before()
        pulls.append(time.perf_counter_ns())
        if tracer is None:
            yield item
            continue
        tracer.input = i
        span = tracer.begin(span_name)
        yield item
        tracer.end(span)
    if tracer is not None:
        tracer.input = -1


def _sink(arrivals: list, wire: io.StringIO, tracer: Tracer | None):
    """Event sink: arrival stamp plus NDJSON encoding into ``wire``.

    Traced, the sink is a span of its own (``encode_event`` nests inside), so
    the benchmark's side of the sink is not counted as the runner's self time.
    """

    def sink(ev):
        arrivals.append((time.perf_counter_ns(), ev))
        wire.write(natcmd.dispatch.encode_event(ev))

    if tracer is None:
        return sink

    def traced_sink(ev):
        span = tracer.begin("bench.sink")
        sink(ev)
        tracer.end(span)

    return traced_sink


class PollSource:
    """Transcription provider replaying fixed polls on a replay clock."""

    poll_interval_ms = DEFAULT_POLL_INTERVAL_MS

    def __init__(self, polls, clock: ReplayClock, pulls: list[int], tracer: Tracer | None):
        self._polls = polls
        self._clock = clock
        self._pulls = pulls
        self._tracer = tracer

    def __iter__(self):
        return _served(self._polls, self._pulls, self._tracer, "dispatch.voice_poll",
                       lambda: self._clock.advance(self.poll_interval_ms))


# ---------------------------------------------------------------------------
# A benchmark session: one workload, one seed, one process
# ---------------------------------------------------------------------------


def _cycle(make_steps):
    while True:
        yield from make_steps()


def _new_counts() -> dict:
    return dict.fromkeys(("gesture_events", "frames_processed", "frames_skipped",
                          "voice_events", "nonsilent_polls", "wire_bytes"), 0)


@dataclass
class Session:
    workload: str
    seed: int
    workdir: Path
    sizes: Sizes = field(default_factory=Sizes)

    def __post_init__(self):
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.tracer: Tracer | None = None
        self.counts = _new_counts()

    # -- bookkeeping ---------------------------------------------------------

    def fail(self, n: int, why: str) -> None:
        if n:
            self.failed += n
            if len(self.problems) < 20:
                self.problems.append(why)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # -- inputs (not timed) --------------------------------------------------

    def prepare(self) -> None:
        """Build the inputs in a child process, then read them back."""
        job = json.dumps([self.workload, self.seed, asdict(self.sizes),
                          str(self.workdir)])
        import_path = [str(Path(natcmd.__file__).resolve().parent.parent),
                       str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH", "")]
        subprocess.run(
            [sys.executable, "-c", "import sys, workloads; workloads._input_process(sys.argv[1])",
             job],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, import_path))),
            check=True)
        d = self.workdir
        doc = json.loads((d / "inputs.json").read_text())
        self.input_counts = doc["counts"]
        self.regimes = [Regime.load(d, f"regime-{j}") for j in range(doc["regimes"])]
        self.regime = self.regimes[0]
        with np.load(d / "stream.npz") as z:
            self.frames = corrupted_frames(z["matrix"], z["corruptions"])
            self.n_invalid = len(z["corruptions"])
        self.model_paths = {k: d / f"replay-{k}.json" for k in ("svm", "mlp")}
        self.expected_events = {k: [tuple(ev) for ev in evs]
                                for k, evs in doc["expected_events"].items()}
        self.embeddings_path = d / "embeddings.txt"
        # A companion replays the polls in slices, so that over a run it
        # meets as many distinct utterances as the voice-replay workload.
        polls, expect = doc["polls"], doc["expect"]
        size = self.sizes.poll_slice if self.workload == "voice-replay" \
            else self.sizes.companion_poll_slice
        self.poll_slices = [(polls[i:i + size], expect[i:i + size])
                            for i in range(0, len(polls), size)]
        self.voice_wire: dict[int, bytes] = {}

    # -- program set-up (timed as setup_s) -----------------------------------

    def setup(self) -> None:
        self.models = {k: natcmd.classifiers.load_model(str(p))
                       for k, p in self.model_paths.items()}
        self.table = natcmd.voice.load_embeddings(str(self.embeddings_path))
        self.commands = natcmd.voice.default_command_list()

    # -- passes --------------------------------------------------------------

    def _cli(self, argv: list[str]) -> tuple[int, str, float]:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = natcmd.cli.run_cli(argv)
        elapsed = time.perf_counter() - t0
        self.attempted += 1
        if code != 0:
            self.fail(1, f"natcmd {argv[0]} exited {code}")
        return code, out.getvalue(), elapsed

    def train_eval_steps(self, regime: Regime):
        """The offline user's CLI sequence; each ``next()`` runs one command."""
        self.regime = regime
        d = self.workdir
        data, seed = str(d / "data.csv"), str(regime.seed)
        paths = {k: str(d / f"model-{k}.json") for k in ("svm", "mlp")}
        _, _, elapsed = self._cli(
            ["gen-data", "--labels", "default15", "--per-label", str(regime.per_label),
             "--sigma", str(SIGMA), "--seed", seed, "-o", data, "--format", "csv"])
        self.sample("gen_data_s", elapsed)
        self._check_csv(regime, data)
        yield
        for kind in ("svm", "mlp"):
            _, _, elapsed = self._cli(
                ["train", "--kind", kind, "--data", data, "-o", paths[kind]]
                + regime.train_flags())
            self.sample(f"train_{kind}_s", elapsed)
            if not _params_equal(load_model(paths[kind]), regime.models[kind]):
                self.fail(1, f"{kind} model reloaded from {paths[kind]} differs")
            yield
        evaluate_s = 0.0
        for kind in ("svm", "mlp"):
            code, out, elapsed = self._cli(
                ["evaluate", "--model", paths[kind], "--data", data,
                 "--split", str(SPLIT), "--seed", seed])
            evaluate_s += elapsed
            if code == 0:
                doc = json.loads(out)
                self._check_report(kind, regime, doc["accuracy"],
                                   sum(map(sum, doc["confusion"])))
            if kind == "mlp":
                self.sample("evaluate_s", evaluate_s)
            yield

    def evaluate_direct(self, regime: Regime) -> None:
        """``metrics.evaluate_model`` per model, timed from outside."""
        for kind, model in regime.models.items():
            t0 = time.perf_counter()
            report = natcmd.metrics.evaluate_model(model, regime.test)
            elapsed = time.perf_counter() - t0
            self.attempted += 1
            self._check_report(kind, regime, report.accuracy, report.confusion.total)
            self.sample(f"eval_{kind}_us_per_frame", elapsed / len(regime.test) * 1e6)

    def _check_csv(self, regime: Regime, path: str) -> None:
        reloaded = load_landmark_dataset(path)
        if (reloaded.frames.tobytes() != regime.dataset.frames.tobytes()
                or reloaded.labels != regime.dataset.labels):
            self.fail(1, "reloaded CSV frames differ from the generated ones")

    def _check_report(self, kind: str, regime: Regime, acc: float, total: int) -> None:
        gate = SVM_GATE if kind == "svm" else MLP_GATE
        if regime.gated and acc < gate:
            self.fail(1, f"{kind} accuracy {acc} below {gate}")
        if acc != regime.accuracy[kind]:
            self.fail(1, f"{kind} accuracy {acc} != reference {regime.accuracy[kind]}")
        if total != len(regime.test):
            self.fail(1, f"{kind} confusion total {total} != test size {len(regime.test)}")

    def gesture_pass(self, kind: str, model=None) -> None:
        """Replay the stream through one model; ``model`` overrides the loaded one."""
        model = model or self.models[kind]
        pulls: list[int] = []
        arrivals: list[tuple[int, object]] = []
        wire = io.StringIO()
        sink = _sink(arrivals, wire, self.tracer)
        clock = ReplayClock()
        frames = _served(clock.drive(self.frames, REPLAY_FRAME_INTERVAL_MS), pulls,
                         self.tracer, "dispatch.gesture_frame")
        policy = StabilityPolicy(k=K, suppress_label=SUPPRESS)
        with _count_warnings("natcmd.dispatch") as warned:
            t0 = time.perf_counter_ns()
            summary = natcmd.dispatch.run_gesture_stream(model, frames, policy, sink,
                                                         clock=clock.now)
            elapsed = time.perf_counter_ns() - t0

        n = len(self.frames)
        self.attempted += n
        self.sample(f"{kind}_frames_per_s", n / (elapsed / 1e9))
        for t, ev in arrivals:
            self.sample(f"{kind}_event_ns", t - pulls[ev.ts_ms // REPLAY_FRAME_INTERVAL_MS])
        got = [(ev.action_id, ev.ts_ms, ev.confidence) for _, ev in arrivals]
        want = self.expected_events[kind]
        wrong = sum(
            (a, ta) != (b, tb) or abs(ca - cb) > CONFIDENCE_TOL
            for (a, ta, ca), (b, tb, cb) in zip(got, want)
        ) + abs(len(got) - len(want))
        self.fail(wrong, f"{kind} replay: {wrong} events differ from the reference")
        for what, value in (("frames_skipped", summary.frames_skipped),
                            ("skip warnings", warned.count)):
            if value != self.n_invalid:
                self.fail(1, f"{kind} replay: {what} {value} != {self.n_invalid} injected")
        if summary.frames_processed != n - self.n_invalid:
            self.fail(1, f"{kind} replay: {summary.frames_processed} frames processed")
        self.counts["gesture_events"] += summary.events_emitted
        self.counts["frames_processed"] += summary.frames_processed
        self.counts["frames_skipped"] += summary.frames_skipped
        self.counts["wire_bytes"] += len(wire.getvalue().encode("utf-8"))

    def voice_pass(self, slice_no: int) -> None:
        pulls: list[int] = []
        arrivals: list[tuple[int, object]] = []
        wire = io.StringIO()
        sink = _sink(arrivals, wire, self.tracer)
        clock = ReplayClock()
        polls, expectations = self.poll_slices[slice_no]
        source = PollSource(polls, clock, pulls, self.tracer)
        t0 = time.perf_counter_ns()
        summary = natcmd.dispatch.run_voice_stream(source, self.commands, self.table, sink,
                                                   clock=clock.now)
        t_end = time.perf_counter_ns()

        n = len(polls)
        self.attempted += n
        self.sample("polls_per_s", n / ((t_end - t0) / 1e9))
        for service in np.diff(pulls + [t_end]).tolist():
            self.sample("poll_ns", service)
        events = {}
        for t, ev in arrivals:
            idx = ev.ts_ms // DEFAULT_POLL_INTERVAL_MS - 1
            self.sample("voice_event_ns", t - pulls[idx])
            events[idx] = ev
        wrong = 0
        for idx, want in enumerate(expectations):
            ev = events.get(idx)
            if want == "":
                wrong += ev is not None
            elif want is not None:
                wrong += (ev is None or ev.action_id != want
                          or abs(ev.confidence - 1.0) > CONFIDENCE_TOL / 2)
        self.fail(wrong, f"voice replay: {wrong} polls resolved wrongly")
        if summary.polls_processed != n or summary.failures or summary.aborted:
            self.fail(1, f"voice replay summary {summary}")
        data = wire.getvalue().encode("utf-8")
        if slice_no not in self.voice_wire:
            self.voice_wire[slice_no] = data
        elif data != self.voice_wire[slice_no]:
            self.fail(1, "voice NDJSON differs from the warm-up pass")
        self.counts["voice_events"] += summary.events_emitted
        self.counts["nonsilent_polls"] += sum(p is not None for p in polls)
        self.counts["wire_bytes"] += len(data)

    def gesture_steps(self):
        """A single step replays through both models: one replay's throughput
        moves by about 15% with the shared host, and a run holds only about
        ten slots, so each slot samples both kinds."""
        self.gesture_pass("svm")
        gc.collect()
        self.gesture_pass("mlp")
        yield

    def voice_steps(self):
        for slice_no in range(len(self.poll_slices)):
            self.voice_pass(slice_no)
            yield

    def round(self, regime: Regime) -> None:
        """Every pass once, in full: the unit of work of the traced run.

        As in a measured run, the heap is collected before every step.
        """
        gc.collect()
        self.setup()
        gc.collect()
        for _ in itertools.chain(self.train_eval_steps(regime), self.gesture_steps(),
                                 self.voice_steps()):
            gc.collect()
        self.evaluate_direct(regime)

    def warm_up(self) -> None:
        """Fill caches and lazy state; the voice output becomes the replay reference.

        The CLI commands are left out: each runs for a second or more.
        """
        self.setup()
        for _ in itertools.chain(self.gesture_steps(), self.voice_steps()):
            pass
        self.samples.clear()

    # -- runs ----------------------------------------------------------------

    def measure(self, seconds: float) -> dict[str, tuple[float, str]]:
        """Untraced run: end-to-end metrics as {name: (value, unit)}.

        The run is a sequence of slots, each on the next usable CPU in turn
        (see :func:`_cpu_turns`). A slot times one set-up, one step of
        the workload's primary pass, one step of each companion replay, the
        whole companion CLI sequence (its commands are short, and one per
        slot would sample each only four or five times a run), and
        ``evaluate_model`` once per model and regime (a companion test set
        takes only about 10 ms), so every metric is sampled all along the run
        and a slow spell of the host is shared by all of them.
        The heap is collected before every step, untimed, so that one
        step's garbage is not charged to the next.
        Times and throughputs are medians over the run's samples; latency
        percentiles pool every event or poll of the run. Gesture events take
        about 35 us, and stalls of the shared host hit about 1% of them, so
        their p99 moves by 20-50% between runs of the same code; their tail
        is reported at p95. Poll times are set by utterance length, so voice
        keeps p99.
        """
        regimes = itertools.cycle(self.regimes)
        passes = {
            "train-eval": lambda: self.train_eval_steps(next(regimes)),
            "gesture-replay": self.gesture_steps,
            "voice-replay": self.voice_steps,
        }
        primary = _cycle(passes[self.workload])
        replays = [_cycle(passes[w]) for w in ("gesture-replay", "voice-replay")
                   if w != self.workload]
        cli_companion = self.workload != "train-eval"
        self.warm_up()
        deadline = time.perf_counter() + seconds
        self.rounds = 0
        last = 0.0
        with _cpu_turns() as next_cpu:
            # five slots complete the longest cycle (the CLI sequence) once
            while self.rounds < 5 or time.perf_counter() + last <= deadline:
                next_cpu()
                start = time.perf_counter()
                gc.collect()
                t0 = time.perf_counter()
                self.setup()
                self.sample("setup_s", time.perf_counter() - t0)
                for steps in [primary] + replays:
                    gc.collect()
                    next(steps)
                if cli_companion:
                    gc.collect()
                    for _ in passes["train-eval"]():
                        gc.collect()
                gc.collect()
                for regime in self.regimes:
                    self.evaluate_direct(regime)
                self.rounds += 1
                last = time.perf_counter() - start

        def med(name):
            return statistics.median(self.samples[name])

        def tail(name, q, scale):
            return float(np.percentile(self.samples[name], q)) / scale

        return {
            "setup_s": (med("setup_s"), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "gen_data_s": (med("gen_data_s"), "s"),
            "train_svm_s": (med("train_svm_s"), "s"),
            "train_mlp_s": (med("train_mlp_s"), "s"),
            "evaluate_s": (med("evaluate_s"), "s"),
            "eval_svm_us_per_frame": (med("eval_svm_us_per_frame"), "us"),
            "eval_mlp_us_per_frame": (med("eval_mlp_us_per_frame"), "us"),
            "svm_frames_per_s": (med("svm_frames_per_s"), "1/s"),
            "mlp_frames_per_s": (med("mlp_frames_per_s"), "1/s"),
            "svm_event_p95_us": (tail("svm_event_ns", 95, 1e3), "us"),
            "mlp_event_p95_us": (tail("mlp_event_ns", 95, 1e3), "us"),
            "polls_per_s": (med("polls_per_s"), "1/s"),
            "poll_p99_ms": (tail("poll_ns", 99, 1e6), "ms"),
            "voice_event_p99_ms": (tail("voice_event_ns", 99, 1e6), "ms"),
        }

    def measure_traced(self, seconds: float, spans_path: Path) -> dict[str, tuple[float, str]]:
        """Traced run: per-layer metrics from the first traced set-up + round,
        and the tracing overhead as the median over untraced/traced pairs."""
        self.warm_up()
        deadline = time.perf_counter() + seconds
        overheads = []
        first = None
        last = 0.0
        with _cpu_turns() as next_cpu:
            while not overheads or time.perf_counter() + last <= deadline:
                next_cpu()  # both rounds of a pair on the same CPU
                start = t0 = time.perf_counter()
                self.round(self.regimes[0])
                plain = time.perf_counter() - t0
                tracer = Tracer()
                self.tracer, self.counts = tracer, _new_counts()
                with traced(tracer):
                    t0 = time.perf_counter()
                    self.round(self.regimes[0])
                    spanned = time.perf_counter() - t0
                self.tracer = None
                if first is None:
                    first = (tracer, dict(self.counts))
                overheads.append(spanned / plain - 1.0)
                last = time.perf_counter() - start
        self.rounds = len(overheads)
        metrics = layer_metrics(*first)
        metrics["trace_overhead_frac"] = (statistics.median(overheads), "ratio")
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        write_spans(first[0], spans_path)
        return metrics

    def sample_summary(self) -> dict[str, dict]:
        """Count and quartiles of every sample series behind the metrics."""
        out = {}
        for name, values in self.samples.items():
            q = np.percentile(values, [0, 10, 25, 50, 75, 90, 95, 99, 100]).tolist()
            out[name] = {"n": len(values), **dict(zip(
                ("min", "p10", "p25", "p50", "p75", "p90", "p95", "p99", "max"), q))}
        return out
