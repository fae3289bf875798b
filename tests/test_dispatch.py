import json
import logging
import math

import numpy as np
import pytest

from natcmd import (
    FRAME_SIZE,
    CommandEvent,
    GestureModel,
    MlpConfig,
    ReplayClock,
    StabilityPolicy,
    SvmConfig,
    SyntheticSpec,
    decode_event,
    encode_event,
    generate_synthetic_dataset,
    read_transcripts,
    run_gesture_stream,
    run_voice_stream,
    predict,
    synthetic_prototypes,
    train_linear_svm,
    train_mlp,
)
from natcmd import dispatch, voice
from natcmd.cli import run_cli
from natcmd.dispatch import GestureStreamSummary, VoiceStreamSummary, gesture_confidence
from natcmd.errors import DatasetError, StreamError, VoiceError
from natcmd.voice import (DEFAULT_COMMAND_PHRASES, Command, CommandList, EmbeddingTable,
                          default_command_list, jaro_winkler, load_command_list,
                          normalize_phrase)
from test_classifiers import overflowing_frame
from test_voice import fixture_table, oracle_transcripts, reference_jaro_winkler


@pytest.fixture(scope="module")
def gesture_setup():
    spec = SyntheticSpec(
        label_set=("look_up", "neutral", "three"), frames_per_label=20,
        noise_sigma=0.01, seed=15,
    )
    ds = generate_synthetic_dataset(spec)
    model = train_linear_svm(ds, SvmConfig(seed=15))
    return model, synthetic_prototypes(spec)


def collect():
    events = []
    return events, events.append


class TestGestureStream:
    def test_stable_run_emits_once(self, gesture_setup):
        model, protos = gesture_setup
        events, sink = collect()
        frames = [protos["look_up"]] * 10
        summary = run_gesture_stream(
            model, frames, StabilityPolicy(k=5), sink, clock=lambda: 0
        )
        assert summary.events_emitted == 1
        assert summary.frames_processed == 10
        assert events[0].action_id == "look_up"
        assert events[0].source == "gesture"

    def test_alternating_labels_never_fire(self, gesture_setup):
        model, protos = gesture_setup
        events, sink = collect()
        frames = [protos["look_up"], protos["three"]] * 10
        summary = run_gesture_stream(
            model, frames, StabilityPolicy(k=5), sink, clock=lambda: 0
        )
        assert summary.events_emitted == 0
        assert events == []

    def test_k1_emits_on_each_change(self, gesture_setup):
        model, protos = gesture_setup
        events, sink = collect()
        frames = [protos["look_up"]] * 3 + [protos["three"]] * 3
        summary = run_gesture_stream(
            model, frames, StabilityPolicy(k=1), sink, clock=lambda: 0
        )
        assert summary.events_emitted == 2
        assert [e.action_id for e in events] == ["look_up", "three"]

    def test_suppressed_label_never_fires(self, gesture_setup):
        model, protos = gesture_setup
        events, sink = collect()
        frames = [protos["neutral"]] * 20
        summary = run_gesture_stream(model, frames, StabilityPolicy(k=3), sink)
        assert summary.events_emitted == 0

    def test_no_repeat_without_intervening_label(self, gesture_setup):
        model, protos = gesture_setup
        events, sink = collect()
        # look_up stable, brief neutral, look_up stable again: only one event
        frames = (
            [protos["look_up"]] * 8 + [protos["neutral"]] * 8 + [protos["look_up"]] * 8
        )
        run_gesture_stream(model, frames, StabilityPolicy(k=3), sink)
        assert [e.action_id for e in events] == ["look_up"]

    def test_re_emits_after_different_stable_label(self, gesture_setup):
        model, protos = gesture_setup
        events, sink = collect()
        frames = (
            [protos["look_up"]] * 5 + [protos["three"]] * 5 + [protos["look_up"]] * 5
        )
        run_gesture_stream(model, frames, StabilityPolicy(k=3), sink)
        assert [e.action_id for e in events] == ["look_up", "three", "look_up"]

    def test_invalid_frames_skipped_and_counted(self, gesture_setup):
        model, protos = gesture_setup
        events, sink = collect()
        frames = [protos["look_up"]] * 4 + [np.zeros(10)] + [protos["look_up"]] * 4
        summary = run_gesture_stream(model, frames, StabilityPolicy(k=5), sink)
        assert summary.frames_skipped == 1
        assert summary.frames_processed == 8
        # the invalid frame does not break the run: 8 valid agreeing frames
        assert summary.events_emitted == 1

    def test_timestamps_non_decreasing(self, gesture_setup):
        model, protos = gesture_setup
        events, sink = collect()
        clock = ReplayClock()
        frames = clock.drive(
            [protos["look_up"]] * 5 + [protos["three"]] * 5, step_ms=40
        )
        run_gesture_stream(model, frames, StabilityPolicy(k=2), sink, clock=clock.now)
        times = [e.ts_ms for e in events]
        assert times == sorted(times)
        assert times[0] == 40  # second frame of the first stable pair

    def test_deterministic_replay(self, gesture_setup):
        model, protos = gesture_setup
        runs = []
        for _ in range(2):
            events, sink = collect()
            clock = ReplayClock()
            frames = clock.drive([protos["look_up"]] * 6, step_ms=40)
            run_gesture_stream(model, frames, StabilityPolicy(k=5), sink, clock=clock.now)
            runs.append([encode_event(e) for e in events])
        assert runs[0] == runs[1]

    def test_confidence_in_unit_interval(self, gesture_setup):
        model, protos = gesture_setup
        events, sink = collect()
        run_gesture_stream(model, [protos["three"]] * 5, StabilityPolicy(k=1), sink)
        assert all(0.0 <= e.confidence <= 1.0 for e in events)

    def test_policy_validation(self):
        with pytest.raises(StreamError):
            StabilityPolicy(k=0)


class TestVoiceStream:
    def test_exact_phrase_emits_event(self):
        events, sink = collect()
        summary = run_voice_stream(
            ["move forward"], default_command_list(), fixture_table(), sink, clock=lambda: 7
        )
        assert summary.events_emitted == 1
        ev = events[0]
        assert ev.source == "voice"
        assert ev.action_id == "move_forward"
        assert ev.confidence == pytest.approx(1.0)
        assert ev.ts_ms == 7

    def test_gibberish_emits_nothing(self):
        events, sink = collect()
        summary = run_voice_stream(
            ["zzz qqq"], default_command_list(), fixture_table(), sink
        )
        assert summary.events_emitted == 0
        assert summary.polls_processed == 1

    def test_silent_polls_skipped(self):
        events, sink = collect()
        summary = run_voice_stream(
            [None, "show schedule", None], default_command_list(), fixture_table(), sink
        )
        assert summary.events_emitted == 1
        assert summary.polls_processed == 3
        assert events[0].action_id == "show_schedule"

    def test_provider_failures_logged_then_abort(self):
        class FlakyProvider:
            def __iter__(self):
                class It:
                    count = 0

                    def __iter__(self):
                        return self

                    def __next__(self):
                        self.count += 1
                        if self.count == 1:
                            return "zoom in"
                        raise RuntimeError("microphone unplugged")

                return It()

        events, sink = collect()
        summary = run_voice_stream(
            FlakyProvider(), default_command_list(), fixture_table(), sink,
            max_consecutive_failures=3,
        )
        assert summary.events_emitted == 1
        assert summary.failures == 3
        assert summary.aborted is True

    def test_single_failure_continues(self):
        class Wrapper:
            def __iter__(self):
                state = {"i": 0}
                items = ["zoom in", RuntimeError("glitch"), "zoom out"]

                class It:
                    def __iter__(self):
                        return self

                    def __next__(self):
                        if state["i"] >= len(items):
                            raise StopIteration
                        item = items[state["i"]]
                        state["i"] += 1
                        if isinstance(item, Exception):
                            raise item
                        return item

                return It()

        events, sink = collect()
        summary = run_voice_stream(
            Wrapper(), default_command_list(), fixture_table(), sink,
            max_consecutive_failures=3,
        )
        assert summary.events_emitted == 2
        assert summary.failures == 1
        assert summary.aborted is False

    def test_file_provider_blank_lines_are_silence(self, tmp_path):
        path = str(tmp_path / "polls.txt")
        with open(path, "w") as fh:
            fh.write("\nshow schedule\n\n")
        assert read_transcripts(path) == [None, "show schedule", None]

    def test_replay_clock_advances_per_poll(self):
        clock = ReplayClock(3000)
        polls = clock.drive(["move forward", None, "zoom in"], 3000)
        events, sink = collect()
        run_voice_stream(
            polls, default_command_list(), fixture_table(), sink, clock=clock.now
        )
        assert [e.ts_ms for e in events] == [3000, 9000]

    def test_every_event_total_exceeds_threshold(self):
        # confidence = total/2, so any emitted event must encode total > 1
        events, sink = collect()
        polls = ["move forward", "zzz", "hide reality", "qqq www"]
        run_voice_stream(polls, default_command_list(), fixture_table(), sink)
        assert len(events) == 2
        assert all(e.confidence > 0.5 for e in events)


class TestClockClamp:
    """A clock that steps back (say, a system clock being corrected) never
    makes an event earlier than the one before it, on either runner."""

    def test_gesture_times_never_go_back(self, gesture_setup):
        model, protos = gesture_setup
        events, sink = collect()
        frames = [protos["look_up"]] * 2 + [protos["three"]] * 2 + [protos["look_up"]] * 2
        clock = iter([500, 300, 700]).__next__
        run_gesture_stream(model, frames, StabilityPolicy(k=2), sink, clock=clock)
        assert [e.ts_ms for e in events] == [500, 500, 700]

    def test_voice_times_never_go_back(self):
        events, sink = collect()
        polls = ["move forward", "zoom in", "move forward"]
        clock = iter([500, 300, 700]).__next__
        run_voice_stream(polls, default_command_list(), fixture_table(), sink, clock=clock)
        assert [e.ts_ms for e in events] == [500, 500, 700]


class TestWireProtocol:
    def test_encoded_shape(self):
        ev = CommandEvent(
            source="gesture", action_id="move_forward", confidence=0.75, ts_ms=123
        )
        line = encode_event(ev)
        assert line.endswith("\n")
        assert '"source":"gesture"' in line
        assert '"action":"move_forward"' in line
        doc = json.loads(line)
        assert list(doc.keys()) == ["type", "source", "action", "confidence", "ts_ms"]

    def test_roundtrip_random_events(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            ev = CommandEvent(
                source=("gesture", "voice")[int(rng.integers(0, 2))],
                action_id=f"action_{int(rng.integers(0, 1000))}",
                confidence=float(rng.uniform(0, 1)),
                ts_ms=int(rng.integers(0, 10**12)),
            )
            assert decode_event(encode_event(ev)) == ev

    def test_no_embedded_newline(self):
        ev = CommandEvent(
            source="voice", action_id="weird\naction", confidence=0.9, ts_ms=5
        )
        line = encode_event(ev)
        assert "\n" not in line[:-1]
        assert decode_event(line) == ev

    def test_decode_rejects_wrong_key_order(self):
        with pytest.raises(StreamError):
            decode_event('{"source":"voice","type":"command","action":"a","confidence":0.5,"ts_ms":1}')

    def test_decode_rejects_garbage(self):
        with pytest.raises(StreamError):
            decode_event("not json")

    def test_decode_rejects_bad_field_types(self):
        with pytest.raises(StreamError):
            decode_event('{"type":"command","source":"voice","action":"a","confidence":"hi","ts_ms":1}')
        with pytest.raises(StreamError):
            decode_event('{"type":"command","source":"voice","action":"a","confidence":0.5,"ts_ms":1.5}')

    def test_decode_rejects_int_past_digit_limit(self):
        with pytest.raises(StreamError, match="Exceeds the limit"):
            decode_event('{"type":"command","source":"voice","action":"a","confidence":0.5,'
                         '"ts_ms":%s}' % ("9" * 5000))

    def test_decode_rejects_deep_nesting(self):
        # json raises RecursionError, not ValueError, past the recursion limit
        with pytest.raises(StreamError, match="invalid event line: maximum recursion depth"):
            decode_event('{"type":"command","source":"voice","action":"a","confidence":%s,'
                         '"ts_ms":1}' % ("[" * 100_000 + "]" * 100_000))

    def test_event_validation(self):
        with pytest.raises(StreamError):
            CommandEvent(source="smoke", action_id="a", confidence=0.5, ts_ms=0)
        with pytest.raises(StreamError):
            CommandEvent(source="voice", action_id="a", confidence=1.5, ts_ms=0)


class TestConfidence:
    def test_mlp_confidence_is_top_probability(self):
        class FakeModel:
            kind = "mlp"

        assert gesture_confidence(FakeModel(), np.array([0.1, 0.7, 0.2])) == pytest.approx(0.7)

    def test_svm_confidence_is_logistic_of_margin(self):
        class FakeModel:
            kind = "svm"

        assert gesture_confidence(FakeModel(), np.array([0.0, -1.0])) == pytest.approx(0.5)
        assert gesture_confidence(FakeModel(), np.array([100.0])) == pytest.approx(1.0)
        assert 0.0 < gesture_confidence(FakeModel(), np.array([-100.0])) < 0.5


def reference_gesture_stream(model, frames, policy, sink, clock):
    """The runner loop before it scored frames itself, as the reference: one
    ``predict`` per frame and a debounce that compares label strings."""
    events = 0
    processed = 0
    skipped = 0
    run_length = 0
    current = None
    last_emitted = None
    emit = dispatch._emitter(dispatch.GESTURE_SOURCE, sink, clock)
    for raw in frames:
        try:
            pred = predict(model, raw)
        except DatasetError as exc:
            skipped += 1
            dispatch.logger.warning("skipping invalid frame: %s", exc)
            continue
        processed += 1
        if pred.label == current:
            run_length += 1
        else:
            current = pred.label
            run_length = 1
        if (
            run_length >= policy.k
            and current != policy.suppress_label
            and current != last_emitted
        ):
            emit(current, gesture_confidence(model, pred.scores))
            last_emitted = current
            events += 1
    return GestureStreamSummary(
        events_emitted=events, frames_processed=processed, frames_skipped=skipped
    )


STREAM_LABELS = ("fist", "neutral", "one", "palm", "two")


@pytest.fixture(scope="module")
def stream_models():
    """Trained models of both kinds, plus copies in which "neutral" and
    "palm" score one constant: exact ties, which win on their own frames."""
    spec = SyntheticSpec(label_set=STREAM_LABELS, frames_per_label=30,
                         noise_sigma=0.02, seed=21)
    ds = generate_synthetic_dataset(spec)
    svm = train_linear_svm(ds, SvmConfig(seed=21))
    mlp = train_mlp(ds, MlpConfig(learning_rate=0.1, epochs=5, seed=21))
    # zero weights: every frame scores exactly the bias, 0 for the SVM (the
    # other margins are negative on these frames) and 1.2 for the MLP (the
    # other logits stay under 1 on them, and over 2 on their own frames)
    weights = svm.params["weights"].copy()
    weights[[1, 3]] = 0.0
    mlp_tie = {name: arr.copy() for name, arr in mlp.params.items()}
    mlp_tie["w2"][:, [1, 3]] = 0.0
    mlp_tie["b2"][[1, 3]] = 1.2
    models = {
        "svm": svm,
        "mlp": mlp,
        "svm tie": GestureModel(kind="svm", label_set=STREAM_LABELS,
                                params={"weights": weights}),
        "mlp tie": GestureModel(kind="mlp", label_set=STREAM_LABELS, params=mlp_tie),
    }
    return models, synthetic_prototypes(spec)


def seeded_stream(seed, protos, model):
    """Holds of 1-8 frames of random labels, each frame an array, a list or
    a tuple of numeric strings; about one frame in twelve is invalid: a NaN,
    an inf, 62 or 64 values, text, or finite values whose winning score
    overflows."""
    rng = np.random.default_rng(seed)
    overflowing = overflowing_frame(model)
    frames = []
    while len(frames) < 300:
        label = STREAM_LABELS[rng.integers(len(STREAM_LABELS))]
        for _ in range(int(rng.integers(1, 9))):
            frame = protos[label] + rng.normal(0.0, 0.05, FRAME_SIZE)
            bad = int(rng.integers(72))
            if bad == 0:
                frame[rng.integers(FRAME_SIZE)] = np.nan
            elif bad == 1:
                frame[rng.integers(FRAME_SIZE)] = -np.inf
            elif bad == 2:
                frame = frame[:-1]
            elif bad == 3:
                frame = np.append(frame, 0.5)
            elif bad == 4:
                frame = ["x"] * FRAME_SIZE
            elif bad in (5, 6):
                frame = overflowing.copy()
            form = int(rng.integers(3))
            if isinstance(frame, np.ndarray) and form == 1:
                frame = frame.tolist()
            elif isinstance(frame, np.ndarray) and form == 2:
                frame = tuple(repr(v) for v in frame.tolist())
            frames.append(frame)
    return frames


class TestGestureStreamAgainstReference:
    """Differential: the runner that scores and debounces on label indices
    against the predict-based loop it replaced."""

    @staticmethod
    def replay(runner, model, frames, policy, caplog):
        caplog.clear()
        events, sink = collect()
        clock = ReplayClock()
        summary = runner(model, clock.drive(frames, 40), policy, sink, clock.now)
        wire = [(e.source, e.action_id, e.ts_ms, float(e.confidence).hex()) for e in events]
        return wire, summary, [r.getMessage() for r in caplog.records]

    @pytest.mark.parametrize("suppress", ["neutral", "absent"])
    @pytest.mark.parametrize("k", [1, 2, 5])
    @pytest.mark.parametrize("name", ["svm", "mlp", "svm tie", "mlp tie"])
    def test_same_events_summary_and_warnings(self, stream_models, caplog, name, k, suppress):
        models, protos = stream_models
        model = models[name]
        policy = StabilityPolicy(k=k, suppress_label=suppress)
        emitted = set()
        skipped = 0
        with caplog.at_level(logging.WARNING, logger="natcmd.dispatch"):
            for seed in range(4):
                frames = seeded_stream([seed, k], protos, model)
                got = self.replay(run_gesture_stream, model, frames, policy, caplog)
                want = self.replay(reference_gesture_stream, model, frames, policy, caplog)
                assert got == want
                emitted.update(action for _, action, _, _ in got[0])
                skipped += got[1].frames_skipped
        # the streams exercise what the test is for
        assert skipped > 0
        assert ("neutral" in emitted) == (suppress == "absent")
        # ties go to the lower index
        assert ("palm" in emitted) == (not name.endswith("tie"))


def reference_resolve(transcript, commands, table):
    """The resolver before the stream prepared its command side, with the
    textbook Jaro-Winkler and ``np.mean``: (index of the accepted command or
    None, best total)."""
    phrase = normalize_phrase(transcript)
    if len(table) == 0:
        raise VoiceError("embedding table is empty")
    vectors = [table.entries[t] for t in phrase.tokens if t in table.entries]
    tvec = np.mean(vectors, axis=0) if vectors else np.zeros(table.dimension)
    absent = np.zeros(table.dimension)
    token_vecs = np.array([table.entries.get(t, absent) for t in commands._tokens])
    sums = commands._token_owner @ token_vecs
    norms = np.linalg.norm(sums, axis=1) * np.linalg.norm(tvec)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosines = (sums @ tvec) / norms
    cosines[~(cosines > 0.0)] = 0.0
    best_idx, best_total = 0, float("-inf")
    for idx, (cmd, cos) in enumerate(zip(commands, cosines.tolist())):
        jw = reference_jaro_winkler(phrase.canonical, normalize_phrase(cmd.phrase).canonical)
        if cos + jw > best_total:
            best_idx, best_total = idx, cos + jw
    return (best_idx if best_total > 1.0 else None), best_total


def reference_voice_stream(provider, commands, table, sink, clock, max_consecutive_failures=5):
    """The voice runner loop before this one, as the reference: one resolve
    per poll, then the best total for the confidence."""
    events = polls = failures = consecutive = 0
    aborted = False
    emit = dispatch._emitter(dispatch.VOICE_SOURCE, sink, clock)
    it = iter(provider)
    while True:
        try:
            item = next(it)
        except StopIteration:
            break
        except Exception as exc:
            failures += 1
            consecutive += 1
            dispatch.logger.warning("transcription poll failed: %s", exc)
            if consecutive >= max_consecutive_failures:
                dispatch.logger.error(
                    "aborting voice stream after %d consecutive failures", consecutive)
                aborted = True
                break
            continue
        consecutive = 0
        polls += 1
        if item is None:
            continue
        best, total = reference_resolve(item, commands, table)
        if best is None:
            continue
        emit(commands.commands[best].action_id, min(1.0, total / 2.0))
        events += 1
    return VoiceStreamSummary(
        events_emitted=events, polls_processed=polls, failures=failures, aborted=aborted)


class ScriptedProvider:
    """Polls from a list; an exception in it is raised by that pull. Each
    pull advances the clock by one interval and is counted."""

    def __init__(self, items, clock):
        self.items, self.clock, self.pulls = items, clock, 0

    def __iter__(self):
        return self

    def __next__(self):
        if self.pulls == len(self.items):
            raise StopIteration
        item = self.items[self.pulls]
        self.pulls += 1
        self.clock.advance(dispatch.DEFAULT_POLL_INTERVAL_MS)
        if isinstance(item, Exception):
            raise item
        return item


# Shared prefixes; "halt now" has no token in the table and "zero zero" a
# zero vector, so their exact phrases total exactly 1.0; "run x" ties
# "run y" with "run z".
VOICE_TSV = (
    "look\tlook\n"
    "look_at\tlook at\n"
    "look_at_it\tlook at it\n"
    "look_up\tLook up!\n"
    "run_y\trun y\n"
    "run_z\trun z\n"
    "halt\thalt now\n"
    "zero\tzero zero\n"
    "move_forward\tmove forward\n"
)
PINNED_POLLS = ["run x", "halt now", "zero zero", "zero", "", "look at it", "RUN   X!"]


def voice_script(commands, seed, failures=False):
    """Seeded polls: silence, noisy exact phrases, gibberish, empty or
    punctuation-only text, 4-12-word utterances, non-ASCII text, the pinned
    polls, and with ``failures`` runs of 1-4 provider errors (too few to abort)."""
    rng = np.random.default_rng(seed)
    vocabulary = sorted({w for cmd in commands for w in cmd.phrase.split()}
                        | {"run", "x", "zero", "walk", "please", "the", "now", "xyzzy"})
    items = oracle_transcripts(commands, vocabulary, 150, seed) + PINNED_POLLS
    items = [items[i] for i in rng.permutation(len(items))]
    for i in sorted(rng.choice(len(items), 40, replace=False), reverse=True):
        items.insert(int(i), None)
    if failures:
        for i in sorted(rng.choice(len(items), 6, replace=False), reverse=True):
            n = int(rng.integers(1, 5))
            items[int(i):int(i)] = [RuntimeError(f"glitch {i}.{k}") for k in range(n)]
    return items


# Polls at the edges of the stream's pruning: the ties and exact-1.0 totals of
# VOICE_TSV, non-ASCII and repeated characters, lone surrogates (normalized
# away), empty canonical strings and the shared prefixes of look / look at /
# look at it.
EDGE_POLLS = ["run x", "RUN   X!", "halt now", "zero zero", "zero", "señal", "señal verde",
              "\ud800", "look \udfff up", "look look look", "ooooo", "lloook att itt", "",
              "?!", "look", "look at", "look at it", "look at i", "at it look", "日本 zoom",
              "ζoom in", "move forward", "walk", "ñ"]


def benchmark_style_polls(seed, n):
    """A table of every default command word and 1000 filler words (50
    values at 6 decimals), and polls drawn as the benchmark draws them:
    a fifth silent, exact phrases with case, punctuation and spacing noise,
    digit-marked gibberish, and 4-12-word utterances of 40% command words."""
    rng = np.random.default_rng(seed)
    word = lambda lo, hi, letters: "".join(rng.choice(list(letters), rng.integers(lo, hi + 1)))
    command_words = sorted({t for p in DEFAULT_COMMAND_PHRASES for t in p.split()})
    filler = sorted({word(3, 9, "abcdefghijklmnopqrstuvwxyz") for _ in range(1000)}
                    - set(command_words))
    words = command_words + filler
    table = EmbeddingTable(50, dict(zip(words, rng.normal(0, 1, (len(words), 50)).round(6))))
    polls = []
    for _ in range(n):
        draw = rng.random()
        if draw < 0.2:
            polls.append(None)
        elif draw < 0.5:
            phrase = DEFAULT_COMMAND_PHRASES[rng.integers(len(DEFAULT_COMMAND_PHRASES))]
            tokens = [(t.upper(), t.title(), t)[rng.integers(3)]
                      + ("" if rng.random() < 0.7 else ",.!?;:"[rng.integers(6)])
                      for t in phrase.split()]
            polls.append(" " * rng.integers(0, 3) + "".join(t + " " * rng.integers(1, 4)
                                                            for t in tokens))
        elif draw < 0.65:
            polls.append(" ".join(word(3, 7, "bcdfghjklmnpqrstvwxz") + str(rng.integers(10))
                                  for _ in range(rng.integers(1, 4))))
        else:
            polls.append(" ".join(command_words[rng.integers(len(command_words))]
                                  if rng.random() < 0.4 else filler[rng.integers(len(filler))]
                                  for _ in range(rng.integers(4, 13))))
    return table, polls


class TestVoiceStreamAgainstReference:
    """Differential: the runner that prepares the command side once and
    computes only the Jaro-Winkler values that can still win, against the
    resolve-per-poll loop that computes all of them."""

    @pytest.fixture(scope="class")
    def setup(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("voice") / "cmds.tsv"
        path.write_text(VOICE_TSV, encoding="utf-8")
        rng = np.random.default_rng(5)
        table = fixture_table(run=np.ones(16), zero=np.zeros(16), at=rng.normal(0, 1, 16),
                              walk=rng.normal(0, 1, 16), señal=rng.normal(0, 1, 16))
        non_ascii = CommandList(tuple(Command(p, f"a{i}") for i, p in enumerate(
            ["señal verde", "ζoom in", "日本", "señal", "look", "look at", "look at it", "ñ"])))
        return {"default": default_command_list(), "tsv": load_command_list(str(path)),
                "non-ascii": non_ascii}, table

    @staticmethod
    def replay(runner, items, commands, table, caplog, max_failures=5):
        caplog.clear()
        events, sink = collect()
        clock = ReplayClock()
        provider = ScriptedProvider(items, clock)
        try:
            outcome = runner(provider, commands, table, sink, clock.now, max_failures)
        except VoiceError as exc:
            outcome = str(exc)
        wire = [(e.source, e.action_id, e.ts_ms, float(e.confidence).hex()) for e in events]
        return wire, outcome, provider.pulls, [r.getMessage() for r in caplog.records]

    def check(self, items, commands, table, caplog, max_failures=5):
        with caplog.at_level(logging.WARNING, logger="natcmd.dispatch"):
            got = self.replay(run_voice_stream, items, commands, table, caplog, max_failures)
            want = self.replay(reference_voice_stream, items, commands, table, caplog,
                               max_failures)
        assert got == want
        return got

    @pytest.mark.parametrize("failures", [False, True])
    @pytest.mark.parametrize("name", ["default", "tsv"])
    def test_same_events_summary_and_warnings(self, setup, caplog, name, failures):
        lists, table = setup
        commands = lists[name]
        actions = set()
        for seed in range(3):
            wire, summary, _, logged = self.check(
                voice_script(commands, seed, failures), commands, table, caplog)
            actions.update(action for _, action, _, _ in wire)
            assert summary.failures == sum(m.startswith("transcription poll failed")
                                           for m in logged)
        # the polls exercise what the test is for
        assert len(actions) >= 5
        if name == "tsv":  # the pinned polls reach a tie and the threshold
            assert commands.commands[reference_resolve("run x", commands, table)[0]].action_id \
                == "run_y"
            assert reference_resolve("halt now", commands, table) == (None, 1.0)
            assert reference_resolve("zero zero", commands, table) == (None, 1.0)

    def test_abort_after_consecutive_failures(self, setup, caplog):
        lists, table = setup
        items = ["look up", None, RuntimeError("a"), "zoom in", RuntimeError("b"),
                 RuntimeError("c"), RuntimeError("d"), "zoom out"]
        wire, summary, pulls, logged = self.check(items, lists["default"], table, caplog,
                                                  max_failures=3)
        assert summary.aborted and pulls == 7 and len(wire) == 2
        assert logged[-1] == "aborting voice stream after 3 consecutive failures"

    def test_empty_table_raises_at_the_first_spoken_poll(self, setup, caplog):
        commands = setup[0]["default"]
        empty = EmbeddingTable(dimension=16, entries={})
        items = [None, RuntimeError("a"), None, "look up", "zoom in"]
        _, outcome, pulls, _ = self.check(items, commands, empty, caplog)
        assert (outcome, pulls) == ("embedding table is empty", 4)
        # a transcript that normalizes to nothing is a spoken poll too
        _, outcome, pulls, _ = self.check([None, "!!!", "look up"], commands, empty, caplog)
        assert (outcome, pulls) == ("embedding table is empty", 2)
        _, summary, pulls, _ = self.check([None] * 3, commands, empty, caplog)
        assert (summary.polls_processed, pulls) == (3, 3)

    def test_benchmark_style_polls(self, caplog, monkeypatch):
        commands = default_command_list()
        table, items = benchmark_style_polls(5, 600)
        calls = []
        jw = voice._jaro_winkler
        monkeypatch.setattr(voice, "_jaro_winkler", lambda *args: calls.append(1) or jw(*args))
        wire, summary, _, _ = self.check(items, commands, table, caplog)
        spoken = sum(item is not None for item in items)
        assert len(wire) > spoken // 3  # the exact phrases fire
        # the stream skips most of the 19 values a poll has (about 2 of them
        # are computed); the reference uses its own Jaro-Winkler
        assert len(calls) < 4 * spoken

    def test_zero_norms_and_a_cosine_that_underflows(self, caplog, tmp_path, capsys):
        """A word with a zero vector, a command with no token in the table,
        transcripts whose vectors cancel, and a cosine of -1e-200 / 1e200
        that underflows to -0.0: the same events as the reference's
        (0/0 -> NaN -> 0 and the clamp), and every cosine +0.0 in ``match``."""
        entries = {"zero": [0.0, 0.0, 0.0], "up": [1.0, 2.0, 0.0], "down": [-1.0, -2.0, 0.0],
                   "p": [1e-100, 1e100, 0.0], "q": [-1e-100, 0.0, 1e100]}
        table = EmbeddingTable(3, {w: np.array(v) for w, v in entries.items()})
        commands = CommandList(tuple(Command(p, p.replace(" ", "_")) for p in
                                     ["zero", "halt now", "up", "p", "up zero", "down q"]))
        polls = ["zero", "zero zero", "halt now", "halt", "up down", "down up up down", "q",
                 "p", "q q", "up", "upp", None, "p q", "down", "down qq", "zero up"]
        # the reference's cosines for "q": p's is -0.0 and halt now's 0/0 is NaN
        tvec = voice.phrase_vector(normalize_phrase("q"), table)
        sums = commands._token_owner @ np.array([entries.get(t, [0.0] * 3)
                                                 for t in commands._tokens])
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = (sums @ tvec) / (np.linalg.norm(sums, axis=1) * np.linalg.norm(tvec))
        assert raw[3] == 0.0 and math.copysign(1.0, raw[3]) == -1.0 and np.isnan(raw[1])

        wire, _, _, _ = self.check(polls, commands, table, caplog)
        # "zero" and "halt now" total exactly 1.0; "up down" has cosine 0
        assert [action for _, action, _, _ in wire] == ["p", "up", "p", "up_zero"]

        path = tmp_path / "emb.txt"
        path.write_text("".join(f"{w} {' '.join(map(repr, v))}\n" for w, v in entries.items()))
        tsv = tmp_path / "cmds.tsv"
        tsv.write_text("".join(f"{c.action_id}\t{c.phrase}\n" for c in commands))
        for text in polls[:11] + ["hi"]:
            assert run_cli(["match", "--commands", str(tsv), "--embeddings", str(path),
                            "--text", text]) == 0
            captured = capsys.readouterr()
            cosines = [c["cosine"] for c in json.loads(captured.out)["candidates"]]
            # halt now has no token in the table: its cosine is always 0
            assert cosines[1] == 0.0 and all(math.copysign(1.0, c) == 1.0 for c in cosines)
            assert "-0.0" not in captured.out and captured.err == ""

    @pytest.mark.parametrize("name", ["default", "tsv", "non-ascii"])
    def test_edge_polls(self, setup, caplog, name):
        lists, table = setup
        wire, _, _, _ = self.check(EDGE_POLLS, lists[name], table, caplog)
        assert wire

    @pytest.mark.parametrize("name", ["default", "tsv", "non-ascii"])
    def test_a_bound_that_is_reached_still_gives_ties_to_the_earlier_command(
            self, setup, caplog, monkeypatch, name):
        """With a bound exact for every even-indexed command and 0.5 over it
        for the others, a command's ceiling can equal the best total so far:
        it is still visited, and an equal total goes to the earlier command
        (``run x`` ties ``run y`` at index 4 with ``run z`` at index 5)."""
        lists, table = setup
        commands = lists[name]
        canonicals = [normalize_phrase(c.phrase).canonical for c in commands]
        monkeypatch.setattr(voice, "_jw_bounds", lambda s, counts, lengths: np.array(
            [jaro_winkler(s, c) + 0.5 * (i % 2) for i, c in enumerate(canonicals)]))
        self.check(EDGE_POLLS + voice_script(commands, 0), commands, table, caplog)
