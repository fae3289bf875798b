"""Walkthrough: landmark datasets.

A frame is 63 numbers: the (x, y, z) of 21 hand landmarks. This demo
generates a synthetic dataset (a stand-in for recorded gesture videos),
writes it to disk, reads it back, splits it for training, and shows the
one-hot label encoding the classifiers consume.
"""

import tempfile
from pathlib import Path

import numpy as np

from natcmd import (
    DEFAULT_GESTURE_LABELS,
    SyntheticSpec,
    generate_synthetic_dataset,
    load_landmark_dataset,
    one_hot_encode,
    save_landmark_dataset,
    split_dataset,
    synthetic_prototypes,
)

# Every label gets a deterministic prototype pose; frames are jittered
# copies. With 15 labels at 1000 frames each this mirrors the full corpus;
# a desk-scale 50 per label keeps the demo instant.
spec = SyntheticSpec(
    label_set=DEFAULT_GESTURE_LABELS,
    frames_per_label=50,
    noise_sigma=0.01,
    seed=42,
)
ds = generate_synthetic_dataset(spec)
print(f"generated {len(ds)} frames over {len(ds.label_set)} labels")
print(f"labels: {', '.join(ds.label_set)}")

protos = synthetic_prototypes(spec)
gap = min(
    np.linalg.norm(protos[a] - protos[b])
    for a in protos for b in protos if a < b
)
print(f"closest prototype pair is {gap:.2f} apart ({gap / spec.noise_sigma:.0f} sigma)")

with tempfile.TemporaryDirectory() as tmp:
    path = str(Path(tmp) / "gestures.csv")
    save_landmark_dataset(ds, path)
    back = load_landmark_dataset(path)
    assert back.labels == ds.labels and np.array_equal(back.frames, ds.frames)
    print(f"wrote and re-read {path!r} losslessly")

train, test = split_dataset(ds, train_fraction=0.8, seed=42)
print(f"stratified 80/20 split: {len(train)} train / {len(test)} test")
print(f"per-label test counts: {sorted(set(test.label_counts().values()))}")

onehot = one_hot_encode(train.labels[:5], train.label_set)
print("first five training labels, one-hot encoded:")
for label, row in zip(train.labels[:5], onehot):
    print(f"  {label:12s} -> {row.tolist()}")
assert tuple(train.label_set[j] for j in onehot.argmax(axis=1)) == train.labels[:5]
