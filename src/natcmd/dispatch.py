"""Streaming command dispatch for a CPS consumer.

Turns raw per-frame gesture predictions and periodic transcript polls into
discrete command events on an NDJSON wire protocol. Gesture predictions are
debounced: a command fires only after ``k`` consecutive frames agree on a
non-suppressed label that differs from the last emitted action. Voice polls
fire whenever the resolver accepts a transcript.

Both stream runners take a ``clock`` callable returning epoch milliseconds;
replays substitute :class:`ReplayClock`, ticked by :meth:`ReplayClock.drive`
as frames or polls are pulled, so output is reproducible.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .classifiers import MODEL_KINDS, GestureModel, _frame_classifier
# Unused here: bench/spans.py's traced() rebinds dispatch.predict, and fails
# with AttributeError without it.
from .classifiers import predict  # noqa: F401
from .dataset import _open_input, as_frame
from .errors import DatasetError, StreamError
from .voice import CommandList, EmbeddingTable, _best, _command_side, normalize_phrase
# Unused here: bench/spans.py's traced() rebinds dispatch.resolve_command, and
# fails with AttributeError without it.
from .voice import resolve_command  # noqa: F401

logger = logging.getLogger(__name__)

GESTURE_SOURCE = "gesture"
VOICE_SOURCE = "voice"

DEFAULT_POLL_INTERVAL_MS = 3000
#: Frame spacing used when replaying recorded frames (25 fps capture rate).
REPLAY_FRAME_INTERVAL_MS = 40


@dataclass(frozen=True)
class CommandEvent:
    source: str
    action_id: str
    confidence: float
    ts_ms: int

    def __post_init__(self):
        if self.source not in (GESTURE_SOURCE, VOICE_SOURCE):
            raise StreamError(f"unknown event source {self.source!r}")
        if not 0.0 <= self.confidence <= 1.0:
            raise StreamError(f"confidence {self.confidence} outside [0, 1]")
        object.__setattr__(self, "ts_ms", int(self.ts_ms))


@dataclass(frozen=True)
class StabilityPolicy:
    """Debounce settings: k agreeing frames arm a command; one label is muted."""

    k: int = 5
    suppress_label: str = "neutral"

    def __post_init__(self):
        if self.k < 1:
            raise StreamError("stability window k must be >= 1")


class ReplayClock:
    """Deterministic millisecond clock driven by the stream being replayed."""

    def __init__(self, start_ms: int = 0):
        self._now = int(start_ms)

    def now(self) -> int:
        return self._now

    def advance(self, delta_ms: int) -> None:
        self._now += int(delta_ms)

    def drive(self, items: Iterable, step_ms: int) -> Iterator:
        """Yield items, advancing the clock by step_ms between consecutive ones."""
        for i, item in enumerate(items):
            if i:
                self.advance(step_ms)
            yield item


def system_clock() -> int:
    return int(time.time() * 1000)


def read_transcripts(path: str) -> list[str | None]:
    """The polls of a transcript file: one per line, an empty line is silence
    (None)."""
    with _open_input(path, "transcript file", StreamError) as fh:
        return [line.rstrip("\r\n") or None for line in fh]


@dataclass(frozen=True)
class GestureStreamSummary:
    events_emitted: int
    frames_processed: int
    frames_skipped: int


@dataclass(frozen=True)
class VoiceStreamSummary:
    events_emitted: int
    polls_processed: int
    failures: int
    aborted: bool = False


def gesture_confidence(model: GestureModel, scores) -> float:
    """Map the winning score to [0, 1] with the model kind's confidence map:
    softmax wins pass through, margins go through the logistic function."""
    return MODEL_KINDS[model.kind].confidence(float(max(scores)))


def _emitter(
    source: str, sink: Callable[[CommandEvent], None], clock: Callable[[], int]
) -> Callable[[str, float], None]:
    """``emit(action_id, confidence)``: stamp an event with the clock, never
    earlier than the previous event's time, and pass it to the sink."""
    last_ts = None

    def emit(action_id: str, confidence: float) -> None:
        nonlocal last_ts
        ts = clock()
        last_ts = ts if last_ts is None else max(ts, last_ts)
        sink(CommandEvent(source, action_id, confidence, last_ts))

    return emit


def run_gesture_stream(
    model: GestureModel,
    frames: Iterable,
    policy: StabilityPolicy,
    sink: Callable[[CommandEvent], None],
    clock: Callable[[], int] = system_clock,
) -> GestureStreamSummary:
    """Classify frames in order and emit debounced command events.

    Each frame is classified by the function :func:`predict` uses, without
    building a ``Prediction`` or reading a timer. Frames that it rejects
    are skipped with a logged warning and counted in ``frames_skipped``.
    Numpy's overflow and invalid-value warnings are off while the stream
    runs, in the frame source and the sink too. An event fires when
    ``policy.k`` consecutive predictions agree on a label that is neither the
    suppressed label nor the action emitted last; the same action can fire
    again only after a different label has been emitted in between.
    """
    events = 0
    processed = 0
    skipped = 0
    run_length = 0
    k = policy.k
    classify, labels = _frame_classifier(model), model.label_set
    confidence = MODEL_KINDS[model.kind].confidence
    # the debounce compares label indices; None matches no index
    suppress = (labels.index(policy.suppress_label)
                if policy.suppress_label in labels else None)
    current: int | None = None
    last_emitted: int | None = None
    emit = _emitter(GESTURE_SOURCE, sink, clock)
    with np.errstate(over="ignore", invalid="ignore"):
        for raw in frames:
            try:
                s, idx = classify(as_frame(raw))
            except DatasetError as exc:
                skipped += 1
                logger.warning("skipping invalid frame: %s", exc)
                continue
            processed += 1
            if idx == current:
                run_length += 1
            else:
                current = idx
                run_length = 1
            if run_length >= k and idx != suppress and idx != last_emitted:
                # = gesture_confidence: a NaN or +inf in s would be the argmax
                emit(labels[idx], confidence(float(s[idx])))
                last_emitted = idx
                events += 1
    return GestureStreamSummary(
        events_emitted=events, frames_processed=processed, frames_skipped=skipped
    )


def run_voice_stream(
    transcripts: Iterable[str | None],
    commands: CommandList,
    table: EmbeddingTable,
    sink: Callable[[CommandEvent], None],
    clock: Callable[[], int] = system_clock,
    max_consecutive_failures: int = 5,
) -> VoiceStreamSummary:
    """Resolve each polled transcript; accepted matches emit one event.

    Each poll gets :func:`resolve_command`'s match and total, with no
    ``MatchResult`` and no Jaro-Winkler value for a command that cannot win.
    The command side (each command's summed token vectors and their norms) is
    read from ``table`` once; transcript words are looked up per poll.
    An error raised by ``transcripts`` is logged and polling continues; after
    ``max_consecutive_failures`` errors in a row the stream aborts and the
    summary says so. Silent polls (None) are counted but emit nothing.
    """
    events = 0
    polls = 0
    failures = 0
    consecutive = 0
    aborted = False
    emit = _emitter(VOICE_SOURCE, sink, clock)
    sums, sum_norms = _command_side(commands, table)
    it = iter(transcripts)
    while True:
        try:
            item = next(it)
        except StopIteration:
            break
        except Exception as exc:
            failures += 1
            consecutive += 1
            logger.warning("transcription poll failed: %s", exc)
            if consecutive >= max_consecutive_failures:
                logger.error(
                    "aborting voice stream after %d consecutive failures", consecutive
                )
                aborted = True
                break
            continue
        consecutive = 0
        polls += 1
        if item is None:
            continue
        best, total = _best(normalize_phrase(item), commands, table, sums, sum_norms)
        if best is None:
            continue
        emit(commands.commands[best].action_id, min(1.0, total / 2.0))
        events += 1
    return VoiceStreamSummary(
        events_emitted=events, polls_processed=polls, failures=failures, aborted=aborted
    )


# ---------------------------------------------------------------------------
# NDJSON wire protocol
# ---------------------------------------------------------------------------

_EVENT_KEYS = ("type", "source", "action", "confidence", "ts_ms")


def encode_event(ev: CommandEvent) -> str:
    """One newline-terminated JSON object with fixed key order."""
    doc = {
        "type": "command",
        "source": ev.source,
        "action": ev.action_id,
        "confidence": ev.confidence,
        "ts_ms": ev.ts_ms,
    }
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":")) + "\n"


def decode_event(line: str) -> CommandEvent:
    try:
        doc = json.loads(line)
    except (ValueError, RecursionError) as exc:  # bad JSON, a huge int, deep nesting
        raise StreamError(f"invalid event line: {getattr(exc, 'msg', exc)}") from exc
    if not isinstance(doc, dict) or tuple(doc.keys()) != _EVENT_KEYS:
        raise StreamError(f"event object must have keys {_EVENT_KEYS} in order")
    if doc["type"] != "command":
        raise StreamError(f"unknown event type {doc['type']!r}")
    if not isinstance(doc["source"], str) or not isinstance(doc["action"], str):
        raise StreamError("event source and action must be strings")
    if not isinstance(doc["confidence"], (int, float)) or isinstance(doc["confidence"], bool):
        raise StreamError("event confidence must be a number")
    if not isinstance(doc["ts_ms"], int) or isinstance(doc["ts_ms"], bool):
        raise StreamError("event ts_ms must be an integer")
    return CommandEvent(
        source=doc["source"],
        action_id=doc["action"],
        confidence=doc["confidence"],
        ts_ms=doc["ts_ms"],
    )
