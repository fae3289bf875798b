"""Streaming command dispatch for a CPS consumer.

Turns raw per-frame gesture predictions and periodic transcript polls into
discrete command events on an NDJSON wire protocol. Gesture predictions are
debounced: a command fires only after ``k`` consecutive frames agree on a
non-suppressed label that differs from the last emitted action. Voice polls
fire whenever the resolver accepts a transcript.

Both stream runners take a ``clock`` callable returning epoch milliseconds;
replays substitute :class:`ReplayClock` so output is reproducible.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Protocol, runtime_checkable

from .classifiers import MODEL_KINDS, GestureModel, predict
from .dataset import as_frame  # noqa: F401 -- unused; bench/spans.py rebinds it by name
from .errors import DatasetError, StreamError
from .voice import CommandList, EmbeddingTable, resolve_command

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


@runtime_checkable
class TranscriptionProvider(Protocol):
    """Periodic transcript source: yields one optional string per poll.

    ``None`` means silence during that interval; iteration ends when the
    underlying audio source is exhausted. A poll must not block much longer
    than ``poll_interval_ms``.
    """

    poll_interval_ms: int

    def __iter__(self) -> Iterator[str | None]: ...


class CannedTranscriptionProvider:
    """Replays a fixed poll sequence, e.g. from a transcript file.

    In the file form, each line is one poll; an empty line means no speech
    during that interval. When given a clock, each poll advances it by one
    interval so replayed events carry window-aligned timestamps.
    """

    def __init__(
        self,
        polls: Iterable[str | None],
        poll_interval_ms: int = DEFAULT_POLL_INTERVAL_MS,
        clock: "ReplayClock | None" = None,
    ):
        self._polls = list(polls)
        self.poll_interval_ms = poll_interval_ms
        self._clock = clock

    @classmethod
    def from_file(
        cls,
        path: str,
        poll_interval_ms: int = DEFAULT_POLL_INTERVAL_MS,
        clock: "ReplayClock | None" = None,
    ) -> "CannedTranscriptionProvider":
        if not os.path.exists(path):
            raise StreamError(f"transcript file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            polls = [line.rstrip("\n") or None for line in fh]
        return cls(polls, poll_interval_ms=poll_interval_ms, clock=clock)

    def __iter__(self) -> Iterator[str | None]:
        for item in self._polls:
            if self._clock is not None:
                self._clock.advance(self.poll_interval_ms)
            yield item


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
    """Predict frames in order and emit debounced command events.

    Frames that :func:`predict` rejects are skipped with a logged warning
    and counted in ``frames_skipped``. An event fires when
    ``policy.k`` consecutive predictions agree on a label that is neither the
    suppressed label nor the action emitted last; the same action can fire
    again only after a different label has been emitted in between.
    """
    events = 0
    processed = 0
    skipped = 0
    run_length = 0
    current: str | None = None
    last_emitted: str | None = None
    emit = _emitter(GESTURE_SOURCE, sink, clock)
    for raw in frames:
        try:
            pred = predict(model, raw)
        except DatasetError as exc:
            skipped += 1
            logger.warning("skipping invalid frame: %s", exc)
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


def run_voice_stream(
    provider: TranscriptionProvider,
    commands: CommandList,
    table: EmbeddingTable,
    sink: Callable[[CommandEvent], None],
    clock: Callable[[], int] = system_clock,
    max_consecutive_failures: int = 5,
) -> VoiceStreamSummary:
    """Resolve each polled transcript; accepted matches emit one event.

    Provider errors are logged and polling continues; after
    ``max_consecutive_failures`` errors in a row the stream aborts and the
    summary says so. Silent polls (None) are counted but emit nothing.
    """
    events = 0
    polls = 0
    failures = 0
    consecutive = 0
    aborted = False
    emit = _emitter(VOICE_SOURCE, sink, clock)
    it = iter(provider)
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
        result = resolve_command(item, commands, table)
        if result.matched is None:
            continue
        action_id, _ = result.matched
        total = max(c.total for c in result.per_candidate)
        emit(action_id, min(1.0, total / 2.0))
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
    except json.JSONDecodeError as exc:
        raise StreamError(f"invalid event line: {exc.msg}") from exc
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
