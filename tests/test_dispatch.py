import json

import numpy as np
import pytest

from natcmd import (
    CannedTranscriptionProvider,
    CommandEvent,
    ReplayClock,
    StabilityPolicy,
    SvmConfig,
    SyntheticSpec,
    decode_event,
    encode_event,
    generate_synthetic_dataset,
    run_gesture_stream,
    run_voice_stream,
    synthetic_prototypes,
    train_linear_svm,
)
from natcmd.dispatch import gesture_confidence
from natcmd.errors import StreamError
from natcmd.voice import default_command_list
from test_voice import fixture_table


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
        provider = CannedTranscriptionProvider(["move forward"])
        summary = run_voice_stream(
            provider, default_command_list(), fixture_table(), sink, clock=lambda: 7
        )
        assert summary.events_emitted == 1
        ev = events[0]
        assert ev.source == "voice"
        assert ev.action_id == "move_forward"
        assert ev.confidence == pytest.approx(1.0)
        assert ev.ts_ms == 7

    def test_gibberish_emits_nothing(self):
        events, sink = collect()
        provider = CannedTranscriptionProvider(["zzz qqq"])
        summary = run_voice_stream(
            provider, default_command_list(), fixture_table(), sink
        )
        assert summary.events_emitted == 0
        assert summary.polls_processed == 1

    def test_silent_polls_skipped(self):
        events, sink = collect()
        provider = CannedTranscriptionProvider([None, "show schedule", None])
        summary = run_voice_stream(
            provider, default_command_list(), fixture_table(), sink
        )
        assert summary.events_emitted == 1
        assert summary.polls_processed == 3
        assert events[0].action_id == "show_schedule"

    def test_provider_failures_logged_then_abort(self):
        class FlakyProvider:
            poll_interval_ms = 3000

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
            poll_interval_ms = 3000

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
        provider = CannedTranscriptionProvider.from_file(path)
        polls = list(provider)
        assert polls == [None, "show schedule", None]

    def test_replay_clock_advances_per_poll(self):
        clock = ReplayClock()
        provider = CannedTranscriptionProvider(
            ["move forward", None, "zoom in"], clock=clock
        )
        events, sink = collect()
        run_voice_stream(
            provider, default_command_list(), fixture_table(), sink, clock=clock.now
        )
        assert [e.ts_ms for e in events] == [3000, 9000]

    def test_every_event_total_exceeds_threshold(self):
        # confidence = total/2, so any emitted event must encode total > 1
        events, sink = collect()
        provider = CannedTranscriptionProvider(
            ["move forward", "zzz", "hide reality", "qqq www"]
        )
        run_voice_stream(provider, default_command_list(), fixture_table(), sink)
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
        provider = CannedTranscriptionProvider(["move forward", "zoom in", "move forward"])
        clock = iter([500, 300, 700]).__next__
        run_voice_stream(provider, default_command_list(), fixture_table(), sink, clock=clock)
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
