"""Walkthrough: from raw streams to NDJSON command events.

Per-frame predictions are debounced (k agreeing frames, one label muted)
before anything reaches the consumer; transcript polls pass through the
resolver. Both streams share one wire format: newline-delimited JSON.
"""

import numpy as np

from natcmd import (
    ReplayClock,
    StabilityPolicy,
    SvmConfig,
    SyntheticSpec,
    encode_event,
    generate_synthetic_dataset,
    run_gesture_stream,
    run_voice_stream,
    synthetic_prototypes,
    train_linear_svm,
)
from natcmd.voice import DEFAULT_COMMAND_PHRASES, EmbeddingTable, default_command_list

labels = ("look_up", "move_forward", "neutral", "three")
spec = SyntheticSpec(label_set=labels, frames_per_label=100, noise_sigma=0.01, seed=5)
model = train_linear_svm(generate_synthetic_dataset(spec), SvmConfig(seed=5))
protos = synthetic_prototypes(spec)

# a mock camera feed: hold look_up, rest, hold move_forward, flicker, rest
feed = (
    [protos["look_up"]] * 12
    + [protos["neutral"]] * 6
    + [protos["move_forward"]] * 12
    + [protos["look_up"], protos["three"]] * 3   # unstable, never 5 in a row
    + [protos["neutral"]] * 5
)

print("gesture stream (k=5, neutral suppressed):")
clock = ReplayClock()
summary = run_gesture_stream(
    model,
    clock.drive(feed, step_ms=40),  # 25 fps replay timing
    StabilityPolicy(k=5, suppress_label="neutral"),
    sink=lambda ev: print("  " + encode_event(ev), end=""),
    clock=clock.now,
)
print(f"  {summary.frames_processed} frames -> {summary.events_emitted} events "
      f"(flicker and neutral never fire)")

# a mock 3-second transcription loop; blank polls are silent intervals
rng = np.random.default_rng(1)
words = sorted({t for p in DEFAULT_COMMAND_PHRASES for t in p.split()})
table = EmbeddingTable(dimension=16, entries={w: rng.normal(0, 1, 16) for w in words})

print("\nvoice stream (3 s polls):")
clock = ReplayClock(3000)  # each poll is heard at the end of its interval
summary = run_voice_stream(
    clock.drive(["show schedule", None, "blah blah", "zoom in"], step_ms=3000),
    default_command_list(),
    table,
    sink=lambda ev: print("  " + encode_event(ev), end=""),
    clock=clock.now,
)
print(f"  {summary.polls_processed} polls -> {summary.events_emitted} events "
      f"(silence and unmatched input are ignored)")
