"""Hand-landmark datasets: frames, labels, file I/O, splitting, synthesis.

A frame is one observation of a right hand: 63 values, the (x, y, z)
coordinates of 21 landmarks in normalized image space. Frames are plain
float64 numpy arrays of length 63; :func:`as_frame` is the validating
constructor and the one place that decides whether a frame is valid, for
dataset files, single-frame files and streams alike. Datasets pair an
(N, 63) frame matrix with per-frame string labels and carry the sorted
label vocabulary.

Three on-disk formats are supported:

* CSV with header ``label,x0,y0,z0,...,x20,y20,z20`` (64 columns), one
  frame per row.
* JSONL with one ``{"label": ..., "coords": [63 numbers]}`` object per line.
* Raw frame lines of 63 comma-separated numbers, unlabeled, for replays and
  single frames; :func:`read_frames` tells the three apart by the first line.

Because the original recordings are not distributable, a deterministic
synthetic generator stands in: each label gets a pseudo-random prototype
pose and frames are the prototype plus Gaussian jitter.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DatasetError, NatcmdError, ParseError

N_LANDMARKS = 21
FRAME_SIZE = 3 * N_LANDMARKS  # x, y, z per landmark

#: Default gesture vocabulary: view rotation (look_*), view translation
#: (move_*), palm-side digits two/three/four toggling floor plan, reality
#: points and schedule on, their back-of-hand counterparts (reverse_*)
#: toggling them off, and a resting pose.
DEFAULT_GESTURE_LABELS: tuple[str, ...] = (
    "look_up",
    "look_down",
    "look_left",
    "look_right",
    "move_forward",
    "move_back",
    "move_left",
    "move_right",
    "two",
    "three",
    "four",
    "reverse_two",
    "reverse_three",
    "reverse_four",
    "neutral",
)

CSV_HEADER: tuple[str, ...] = ("label",) + tuple(
    f"{axis}{i}" for i in range(N_LANDMARKS) for axis in ("x", "y", "z")
)


def as_frame(coords) -> np.ndarray:
    """Validate and return one landmark frame as a float64 array of length 63.

    Raises DatasetError if the input has the wrong arity, contains
    non-numeric values, or contains NaN/Inf.
    """
    try:
        arr = np.asarray(coords, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"frame is not numeric: {exc}") from exc
    if arr.shape != (FRAME_SIZE,):
        raise DatasetError(
            f"frame must have exactly {FRAME_SIZE} coordinates, got shape {arr.shape}"
        )
    # NaN and +-inf carry into the sum of squares; only when a finite frame's
    # sum overflows (np.vdot, unlike @, does not warn) is every value tested.
    if not math.isfinite(np.vdot(arr, arr)) and not np.isfinite(arr).all():
        raise DatasetError("frame contains non-finite values")
    return arr


def frame_from_fields(fields, lineno: int) -> np.ndarray:
    """:func:`as_frame` for the coordinate fields of one file line; an
    invalid frame raises ParseError naming the line."""
    try:
        return as_frame(fields)
    except DatasetError as exc:
        raise ParseError(lineno, str(exc)) from None


def as_frames(rows) -> np.ndarray:
    """Validate a frame sequence at once and return it as an (N, 63) array.

    A well-formed batch is checked in one pass; otherwise every row goes
    through :func:`as_frame`, so the first invalid row raises the same
    DatasetError it would raise alone.
    """
    try:
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim == 2 and arr.shape[1] == FRAME_SIZE and np.isfinite(arr).all():
            return arr
    except (TypeError, ValueError, OverflowError):
        pass
    frames = [as_frame(row) for row in rows]
    return np.array(frames).reshape(len(frames), FRAME_SIZE)


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Immutable collection of labeled landmark frames.

    ``label_set`` is the sorted, duplicate-free vocabulary of ``labels``.
    """

    frames: np.ndarray
    labels: tuple[str, ...]
    label_set: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        # one copy, read-only, so the caller's array is never aliased
        self._set(np.array(self.frames, dtype=np.float64), self.labels)

    @classmethod
    def _owned(cls, frames: np.ndarray, labels) -> "LabeledDataset":
        """The dataset of a fresh float64 matrix the caller hands over: checked
        as the constructor checks, made read-only, not copied."""
        ds = object.__new__(cls)
        ds._set(frames, labels)
        return ds

    def _set(self, frames: np.ndarray, labels) -> None:
        if frames.ndim != 2 or frames.shape[1] != FRAME_SIZE:
            raise DatasetError(
                f"frames must be (N, {FRAME_SIZE}), got shape {frames.shape}"
            )
        if not np.all(np.isfinite(frames)):
            raise DatasetError("dataset contains non-finite coordinates")
        labels = tuple(labels)
        if len(labels) != frames.shape[0]:
            raise DatasetError(
                f"{frames.shape[0]} frames but {len(labels)} labels"
            )
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "label_set", tuple(sorted(set(labels))))

    def __len__(self) -> int:
        return self.frames.shape[0]

    def label_counts(self) -> dict[str, int]:
        counts = {label: 0 for label in self.label_set}
        for label in self.labels:
            counts[label] += 1
        return counts


def one_hot_encode(labels, label_set) -> np.ndarray:
    """Encode labels as a read-only (N, K) int64 array: row i has a single 1
    at the index of ``labels[i]`` in ``label_set``."""
    label_set = tuple(label_set)
    index = {label: j for j, label in enumerate(label_set)}
    rows = np.zeros((len(labels), len(label_set)), dtype=np.int64)
    for i, label in enumerate(labels):
        try:
            rows[i, index[label]] = 1
        except KeyError:
            raise DatasetError(f"unknown label {label!r} (not in label_set)") from None
    rows.setflags(write=False)
    return rows


def split_dataset(
    ds: LabeledDataset, train_fraction: float, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic stratified split.

    Per label, floor(train_fraction * n) frames go to train and the rest to
    test, after a seed-driven shuffle within the label. Together the two
    parts contain every frame of ``ds`` exactly once.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DatasetError(f"train_fraction must be in (0, 1), got {train_fraction}")
    if len(ds) == 0:
        raise DatasetError("cannot split an empty dataset")
    rng = np.random.default_rng(_nonneg_seed(seed))
    code = {label: j for j, label in enumerate(ds.label_set)}
    codes = np.fromiter(map(code.__getitem__, ds.labels), np.intp, len(ds))
    # the stable sort cuts into each label's indices, ascending, in label_set order
    groups = np.split(np.argsort(codes, kind="stable"), np.cumsum(np.bincount(codes))[:-1])
    train_idx, test_idx = [], []
    for label, idx in zip(ds.label_set, groups):
        if idx.size < 2:
            raise DatasetError(
                f"label {label!r} has {idx.size} frame(s); stratified splitting "
                "needs at least 2 per label"
            )
        perm = rng.permutation(idx)
        n_train = math.floor(train_fraction * idx.size)
        train_idx.extend(perm[:n_train].tolist())
        test_idx.extend(perm[n_train:].tolist())

    def subset(indices: list[int]) -> LabeledDataset:
        # the gather is a fresh matrix: no second copy
        return LabeledDataset._owned(ds.frames[indices], [ds.labels[i] for i in indices])

    return subset(train_idx), subset(test_idx)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic landmark dataset."""

    label_set: tuple[str, ...]
    frames_per_label: int = 1000
    noise_sigma: float = 0.01
    seed: int = 42

    def __post_init__(self):
        object.__setattr__(self, "label_set", tuple(self.label_set))
        if len(set(self.label_set)) != len(self.label_set):
            raise DatasetError("synthetic label_set contains duplicates")
        if not self.label_set:
            raise DatasetError("synthetic label_set is empty")
        if self.frames_per_label < 1:
            raise DatasetError("frames_per_label must be >= 1")
        if not 0 <= self.noise_sigma < math.inf:
            raise DatasetError("noise_sigma must be >= 0")


# Prototypes must sit at least this many noise standard deviations apart so a
# nearest-prototype rule (and hence a linear classifier) can separate labels.
PROTOTYPE_SEPARATION_FACTOR = 10.0


def _nonneg_seed(seed: int) -> int:
    return int(seed) & 0xFFFFFFFFFFFFFFFF


def _label_rng(seed: int, label: str) -> np.random.Generator:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return np.random.default_rng(
        [_nonneg_seed(seed), int.from_bytes(digest[:8], "big")]
    )


def synthetic_prototypes(spec: SyntheticSpec) -> dict[str, np.ndarray]:
    """Per-label prototype poses used by :func:`generate_synthetic_dataset`.

    Each prototype is drawn from a hash of (seed, label name), so it does not
    depend on the other labels in the set; when noise is enabled, all
    prototypes are rescaled together so their minimum pairwise distance is at
    least ``PROTOTYPE_SEPARATION_FACTOR * noise_sigma``.
    """
    protos = {
        label: _label_rng(spec.seed, label).uniform(0.0, 1.0, FRAME_SIZE)
        for label in spec.label_set
    }
    if spec.noise_sigma > 0 and len(protos) > 1:
        mat = np.stack(list(protos.values()))
        diffs = mat[:, None, :] - mat[None, :, :]
        dists = np.sqrt((diffs**2).sum(axis=-1))
        min_dist = dists[np.triu_indices(len(mat), k=1)].min()
        required = PROTOTYPE_SEPARATION_FACTOR * spec.noise_sigma
        if min_dist <= 0:
            raise DatasetError("prototype collision; choose different labels or seed")
        scale = max(1.0, required / min_dist)
        protos = {label: proto * scale for label, proto in protos.items()}
    return protos


def generate_synthetic_dataset(spec: SyntheticSpec) -> LabeledDataset:
    """Generate ``frames_per_label`` jittered copies of each label's prototype.

    Fully deterministic given ``spec.seed``; with ``noise_sigma == 0`` every
    frame equals its prototype exactly.
    """
    protos = synthetic_prototypes(spec)
    n = spec.frames_per_label
    frames = np.empty((len(spec.label_set) * n, FRAME_SIZE))
    for i, label in enumerate(spec.label_set):
        rng = _label_rng(spec.seed, label)
        rng.uniform(0.0, 1.0, FRAME_SIZE)  # skip past the prototype draw
        np.add(protos[label], rng.normal(0.0, spec.noise_sigma, (n, FRAME_SIZE)),
               out=frames[i * n : (i + 1) * n])
    return LabeledDataset._owned(frames, [label for label in spec.label_set for _ in range(n)])


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------


def infer_format(path: str) -> str:
    """Map a file extension to a dataset format name (csv or jsonl)."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".csv":
        return "csv"
    if ext in (".jsonl", ".ndjson", ".json"):
        return "jsonl"
    raise DatasetError(f"cannot infer dataset format from {path!r}; pass format=")


def load_landmark_dataset(path: str, format: str | None = None) -> LabeledDataset:
    """Read a dataset file; frames keep file order, label_set is derived.

    Malformed rows raise ParseError naming the line; an empty file (or one
    with no data rows) raises DatasetError.
    """
    fmt = format or infer_format(path)
    if fmt not in _READERS:
        raise DatasetError(f"unknown dataset format {fmt!r}")
    with _open_input(path, "dataset file", DatasetError) as fh:
        return _read_dataset(fh, fmt, path)


def save_landmark_dataset(ds: LabeledDataset, path: str, format: str | None = None) -> None:
    """Write a dataset in the given (or inferred) format; inverse of the loader."""
    fmt = format or infer_format(path)
    if fmt == "csv":
        # the bytes csv.writer writes: every label quoted by it once, and
        # floats in repr, which never need quoting
        prefix = {label: _csv_field(label) + "," for label in ds.label_set}
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerow(CSV_HEADER)
            fh.writelines(
                prefix[label] + ",".join(map(repr, frame.tolist())) + "\r\n"
                for label, frame in zip(ds.labels, ds.frames)
            )
    elif fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for label, frame in zip(ds.labels, ds.frames):
                fh.write(json.dumps({"label": label, "coords": frame.tolist()}))
                fh.write("\n")
    else:
        raise DatasetError(f"unknown dataset format {fmt!r}")


def read_frames(path: str) -> list:
    """Every frame of a frame source. A first line whose first comma-separated
    field is ``label`` in any case makes it a dataset CSV and one starting
    ``{`` a dataset JSONL; otherwise each non-blank line is one frame's list
    of fields, empty fields dropped, left for :func:`as_frame` to check."""
    with _open_input(path, "frame source", DatasetError) as fh:
        first = fh.readline()
        fh.seek(0)
        if first.split(",")[0].strip().lower() == "label":
            return list(_read_dataset(fh, "csv", path).frames)
        if first.lstrip().startswith("{"):
            return list(_read_dataset(fh, "jsonl", path).frames)
        return [fields for _, fields in _frame_lines(fh)]


def read_frame(path: str) -> np.ndarray:
    """The frame on the first non-blank line of ``path``; the whole file must be UTF-8."""
    with _open_input(path, "frame file", NatcmdError) as fh:
        for lineno, fields in list(_frame_lines(fh)):
            return frame_from_fields(fields, lineno)
    raise NatcmdError(f"{path}: no frame line found")


def _frame_lines(fh):
    """(line number, fields) for each non-blank line; empty fields are dropped."""
    for lineno, line in enumerate(fh, start=1):
        if line.strip():
            yield lineno, [v for v in line.strip().split(",") if v.strip()]


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it when other fields follow."""
    buf = io.StringIO()
    csv.writer(buf).writerow((text, ""))
    return buf.getvalue()[: -len(",\r\n")]


@contextlib.contextmanager
def _open_input(path: str, what: str, error: type[NatcmdError]):
    """Open the text input ``path`` as UTF-8, line endings as written (the csv
    module needs them), skipping a leading byte-order mark (again after a
    ``seek(0)``). A file that cannot be opened is an ``error`` naming it;
    bytes that are not UTF-8 a ParseError naming their line, if ``error``
    admits one, else an ``error`` with the same text."""
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError:
            exc = ParseError(_first_undecodable_line(path), f"{what} {path} is not valid UTF-8")
            raise (exc if isinstance(exc, error) else error(str(exc))) from None


def _first_undecodable_line(path: str) -> int:
    """The line (split at LF, CRLF or CR) of the first byte that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return len(data[: exc.start + 1].splitlines())


def _read_dataset(fh, fmt: str, path: str) -> LabeledDataset:
    """The dataset in the open file ``fh``, in format ``fmt``."""
    frames, labels = _READERS[fmt](fh, path)
    if not labels:
        raise DatasetError(f"{path}: empty dataset (no frames)")
    # the numpy pass's matrix as it is, or one matrix of the per-row frames
    return LabeledDataset._owned(np.asarray(frames, dtype=np.float64), labels)


def _read_csv(fh, path: str):
    """Parse a plain CSV file in one numpy pass; any file that pass does
    not read exactly goes to the per-row reader, which names the bad line."""
    rows = _csv_rows(fh)
    header = next(rows, None)
    if header is None:
        raise DatasetError(f"{path}: empty dataset file")
    if tuple(header) != CSV_HEADER:
        unknown = [c for c in header if c not in CSV_HEADER]
        detail = f"unknown columns {unknown}" if unknown else "wrong column order or count"
        raise ParseError(1, f"bad CSV header ({detail})")
    labels: list[str] = []
    try:
        frames = np.loadtxt(
            _coordinate_text(fh, labels),
            delimiter=",", comments=None, dtype=np.float64, ndmin=2,
        )
        if frames.shape == (len(labels), FRAME_SIZE) and np.isfinite(frames).all():
            return frames, labels
    except ValueError:
        pass
    fh.seek(0)
    rows = _csv_rows(fh)
    next(rows)
    frames, labels = [], []
    for lineno, row in enumerate(rows, start=2):
        if row:
            labels.append(row[0])
            frames.append(frame_from_fields(row[1:], lineno))
    return frames, labels


def _csv_rows(fh):
    """csv.reader(fh), raising a ParseError for a line the csv module rejects."""
    rows = csv.reader(fh)
    try:
        yield from rows
    except csv.Error as exc:
        raise ParseError(rows.line_num, str(exc)) from None


def _coordinate_text(lines, labels: list[str]):
    """The coordinate text of each line, its label appended to ``labels``.

    Raises ValueError at a line a plain split could misread: one with no
    coordinate text (numpy skips empty lines), a quote (csv quoting), or one
    of \\x1c-\\x1f, which numpy's parser skips as whitespace where float()
    rejects it.
    """
    for line in lines:
        label, _, coords = line.partition(",")
        if (not coords.strip() or '"' in line or "\x1c" in line or "\x1d" in line
                or "\x1e" in line or "\x1f" in line):
            raise ValueError("line needs the csv module")
        labels.append(label)
        yield coords
    if not labels:
        raise ValueError("no data rows")  # numpy would warn


def _read_jsonl(fh, path: str) -> tuple[list[np.ndarray], list[str]]:
    frames: list[np.ndarray] = []
    labels: list[str] = []
    for lineno, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:  # bad JSON, a huge int, deep nesting
            raise ParseError(lineno, f"invalid JSON: {getattr(exc, 'msg', exc)}") from exc
        if not isinstance(obj, dict) or set(obj) != {"label", "coords"}:
            raise ParseError(lineno, 'object must have exactly "label" and "coords"')
        if not isinstance(obj["label"], str):
            raise ParseError(lineno, "label must be a string")
        labels.append(obj["label"])
        frames.append(frame_from_fields(obj["coords"], lineno))
    return frames, labels


_READERS = {"csv": _read_csv, "jsonl": _read_jsonl}
