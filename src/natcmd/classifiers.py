"""Gesture classifiers trained on landmark frames.

Two model families, both operating directly on the 63 landmark coordinates:

* a one-vs-rest linear SVM (one hinge-loss problem per label, bias folded in
  as a constant 64th feature), trained by deterministic per-sample primal
  subgradient descent with the Pegasos step size 1/(lambda * t),
  lambda = 1/(C * N);
* a single-hidden-layer network, 63 -> hidden (ReLU) -> K (softmax), trained
  by seeded mini-batch SGD on mean cross-entropy with Glorot-uniform init.

Trained models are immutable value objects and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .dataset import FRAME_SIZE, LabeledDataset, _open_input, as_frame, as_frames, one_hot_encode
from .errors import DatasetError, ModelError, TrainingError

SVM_KIND = "svm"
MLP_KIND = "mlp"
MODEL_FILE_VERSION = 1

# Samples whose margins are precomputed per vectorized block of the SVM
# pass (a speed knob only; the update sequence it produces is the plain
# per-sample one).
_SVM_CHUNK = 256

# Rows scored per matrix product (a speed knob only). Products this small
# stay on the calling thread: a (576, 63) x (63, 30) product already went to
# OpenBLAS worker threads, and waking them took 8-15 ms on a shared 2-vCPU
# x86_64 VM, against about 0.1 ms for 256 rows on one thread.
_SCORE_BLOCK = 256


@dataclass(frozen=True)
class SvmConfig:
    c: float = 1.0
    max_epochs: int = 1000
    tolerance: float = 1e-4
    seed: int = 42

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise TrainingError("C must be > 0")
        if self.max_epochs < 1:
            raise TrainingError("max_epochs must be >= 1")
        if not 0 < self.tolerance < math.inf:
            raise TrainingError("tolerance must be > 0")


@dataclass(frozen=True)
class MlpConfig:
    hidden_units: int = 30
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 50
    seed: int = 42

    def __post_init__(self):
        if self.hidden_units < 1:
            raise TrainingError("hidden_units must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise TrainingError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1")
        if self.epochs < 1:
            raise TrainingError("epochs must be >= 1")


@dataclass(frozen=True, eq=False)
class GestureModel:
    """A trained classifier: kind, label vocabulary, and parameter arrays.

    SVM parameters: ``weights`` of shape (K, 64), one augmented weight vector
    per label (last component is the bias). MLP parameters: ``w1`` (63, H),
    ``b1`` (H,), ``w2`` (H, K), ``b2`` (K,).
    """

    kind: str
    label_set: tuple[str, ...]
    params: dict[str, np.ndarray]
    training_time_ms: float = 0.0
    # what the kind's score function takes, derived from params once per model
    _operands: object = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "label_set", tuple(self.label_set))
        if len(set(self.label_set)) != len(self.label_set):
            raise ModelError("label_set contains duplicates")
        params = {k: np.asarray(v, dtype=np.float64) for k, v in self.params.items()}
        _check_param_shapes(self.kind, params, len(self.label_set))
        for name, arr in params.items():
            if not np.all(np.isfinite(arr)):
                raise ModelError(f"parameter {name!r} contains non-finite values")
            arr.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_operands", MODEL_KINDS[self.kind].prepare(params))

    @property
    def n_classes(self) -> int:
        return len(self.label_set)


def _check_param_shapes(kind: str, params: dict[str, np.ndarray], k: int) -> None:
    spec = MODEL_KINDS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise ModelError(f"unsupported model kind {kind!r}")
    if set(params) != set(spec.param_names):
        raise ModelError(f"{kind} params must be {spec.param_names}, got {sorted(params)}")
    for name, shape in spec.shapes(params, k).items():
        if params[name].shape != shape:
            raise ModelError(
                f"{kind} parameter {name!r} must have shape {shape}, "
                f"got {params[name].shape}"
            )


@dataclass(frozen=True, eq=False)
class Prediction:
    """One classified frame: winning label, per-label scores, inference time.

    SVM scores are raw margins; MLP scores are softmax probabilities. The
    label is the argmax with ties broken toward the lowest label index.
    ``elapsed_ms`` is the frame's scoring time, or from :func:`predict_batch`
    the batch's scoring time divided by its size.
    """

    label: str
    scores: np.ndarray
    elapsed_ms: float


def _augment(frames: np.ndarray) -> np.ndarray:
    ones = np.ones((frames.shape[0], 1), dtype=np.float64)
    return np.hstack([frames, ones])


def _check_trainable(train: LabeledDataset) -> None:
    if len(train.label_set) < 2:
        raise TrainingError("training needs at least 2 distinct labels")
    if len(train) == 0:
        raise TrainingError("training dataset is empty")


def svm_objective(weights: np.ndarray, x_aug: np.ndarray, y_signs: np.ndarray, c: float) -> float:
    """Sum over classes of 0.5*||w_k||^2 + C * sum_i max(0, 1 - y_ik w_k.x_i)."""
    margins = x_aug @ weights.T
    hinge = np.maximum(0.0, 1.0 - y_signs * margins)
    return float(0.5 * np.sum(weights * weights) + c * hinge.sum())


@np.errstate(over="ignore", invalid="ignore")
def train_linear_svm(
    train: LabeledDataset,
    cfg: SvmConfig = SvmConfig(),
    objective_log: list[float] | None = None,
) -> GestureModel:
    """Fit one-vs-rest linear SVMs over the dataset's label_set.

    Deterministic given (dataset, cfg): every epoch shuffles the samples with
    the seeded generator and runs one per-sample subgradient pass. At sample
    step t the iterate is w_t = (1 - 1/t) w_{t-1} + eta_t * [violation] y x
    with eta_t = 1/(lambda t); writing w_t = U_t / t turns that into an
    accumulator U that changes only on margin violations (U_c += y x / lambda),
    which is how the pass is computed: per-chunk margins come from one matrix
    product and only violating samples are touched individually.

    Training stops at max_epochs or when the best objective measured at an
    epoch end improves by less than ``tolerance`` (relative) over the previous
    epoch; the best-objective weights are returned. Pass a list as
    ``objective_log`` to capture the (non-increasing) epoch-end measurements.
    """
    _check_trainable(train)
    t0 = time.perf_counter()

    x_aug = _augment(train.frames)
    n, dim = x_aug.shape
    k = len(train.label_set)
    onehot = one_hot_encode(train.labels, train.label_set)
    y_signs = onehot.astype(np.float64) * 2.0 - 1.0  # (N, K) in {-1, +1}

    inv_lam = cfg.c * n  # 1/lambda
    rng = np.random.default_rng(cfg.seed & 0xFFFFFFFFFFFFFFFF)
    u = np.zeros((k, dim))  # w_t = u / t
    best_weights = u.copy()
    best_obj = svm_objective(best_weights, x_aug, y_signs, cfg.c)
    prev_best = None
    t = 0
    for epoch in range(cfg.max_epochs):
        perm = rng.permutation(n)
        for start in range(0, n, _SVM_CHUNK):
            chunk = perm[start : start + _SVM_CHUNK]
            xc = x_aug[chunk]
            yc = y_signs[chunk]
            m = chunk.size
            # margin test y (u.x)/(t-1) < 1 done as y (u.x) < t-1; the first
            # step (t=1) starts from w=0, where every sample violates
            pre = xc @ u.T
            thresh = np.arange(t, t + m, dtype=np.float64)
            viol = yc * pre < thresh[:, None]
            if t == 0:
                viol[0, :] = True
            i = 0
            while True:
                rows = np.flatnonzero(viol[i:].any(axis=1))
                if rows.size == 0:
                    break
                i += int(rows[0])
                classes = np.flatnonzero(viol[i])
                x = xc[i]
                coef = inv_lam * yc[i, classes]
                u[classes] += coef[:, None] * x
                i += 1
                if i >= m:
                    break
                # refresh precomputed margins of the samples still ahead
                pre[i:, classes] += np.outer(xc[i:] @ x, coef)
                viol[i:, classes] = yc[i:, classes] * pre[i:, classes] < thresh[i:, None]
            t += m
        weights = u / t
        obj = svm_objective(weights, x_aug, y_signs, cfg.c)
        if not math.isfinite(obj):
            raise TrainingError(f"svm objective is not finite after epoch {epoch + 1}")
        if obj < best_obj:
            best_obj = obj
            best_weights = weights
        if objective_log is not None:
            objective_log.append(best_obj)
        if prev_best is not None:
            rel_decrease = (prev_best - best_obj) / prev_best
            if rel_decrease < cfg.tolerance:
                break
        prev_best = best_obj

    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return GestureModel(
        kind=SVM_KIND,
        label_set=train.label_set,
        params={"weights": best_weights},
        training_time_ms=elapsed_ms,
    )


def _glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


def _mlp_layout(hidden: int, k: int) -> dict[str, tuple[int, ...]]:
    return {"w1": (FRAME_SIZE, hidden), "b1": (hidden,), "w2": (hidden, k), "b2": (k,)}


def _flat_views(layout: dict[str, tuple[int, ...]]):
    """One zeroed float64 buffer, and a named view of it per shape in ``layout``."""
    flat = np.zeros(sum(math.prod(shape) for shape in layout.values()))
    views, start = {}, 0
    for name, shape in layout.items():
        stop = start + math.prod(shape)
        views[name] = flat[start:stop].reshape(shape)
        start = stop
    return flat, views


def _mlp_workspace(batch: int, hidden: int, k: int) -> tuple[np.ndarray, ...]:
    """The scratch arrays :func:`_mlp_step` fills for a batch of this size."""
    return (np.empty((batch, hidden)), np.empty((batch, hidden), dtype=bool),
            np.empty((batch, k)), np.empty((batch, 1)), np.empty((batch, k)),
            np.empty((batch, hidden)))


def _mlp_step(params, grads, x, targets, work) -> np.ndarray:
    """Gradients of the mean cross-entropy of batch ``x``, written into
    ``grads``; returns the batch's (B, K) log-probabilities.

    Every array is filled in place (``work`` from :func:`_mlp_workspace`),
    and the arithmetic is, operation for operation:
      z1 = x @ w1 + b1;  h = max(0, z1);  logits = h @ w2 + b2
      shifted = logits - max(logits);  log_probs = shifted - log(sum(exp(shifted)))
      dlogits = (exp(log_probs) - targets) / B
      gw2 = h.T @ dlogits;  gb2 = sum(dlogits);  dz1 = (dlogits @ w2.T) * (z1 > 0)
      gw1 = x.T @ dz1;  gb1 = sum(dz1)
    """
    h, active, logits, col, dlogits, dz1 = work
    w2 = params["w2"]
    np.matmul(x, params["w1"], out=h)
    h += params["b1"]
    np.greater(h, 0.0, out=active)
    np.maximum(0.0, h, out=h)
    np.matmul(h, w2, out=logits)
    logits += params["b2"]
    np.maximum.reduce(logits, axis=1, keepdims=True, out=col)
    logits -= col
    np.add.reduce(np.exp(logits, out=dlogits), axis=1, keepdims=True, out=col)
    np.log(col, out=col)
    logits -= col  # now the log-probabilities
    np.exp(logits, out=dlogits)
    dlogits -= targets
    dlogits /= x.shape[0]
    np.matmul(h.T, dlogits, out=grads["w2"])
    np.add.reduce(dlogits, axis=0, out=grads["b2"])
    np.matmul(dlogits, w2.T, out=dz1)
    dz1 *= active
    np.matmul(x.T, dz1, out=grads["w1"])
    np.add.reduce(dz1, axis=0, out=grads["b1"])
    return logits


def train_mlp(train: LabeledDataset, cfg: MlpConfig = MlpConfig()) -> GestureModel:
    """Train the 63 -> hidden -> K softmax network with seeded mini-batch SGD.

    The parameters are views of one flat buffer and the gradients views of
    another, so each step updates all four with two in-place operations.
    """
    _check_trainable(train)
    t0 = time.perf_counter()

    x = train.frames
    n = x.shape[0]
    k = len(train.label_set)
    hidden, size = cfg.hidden_units, cfg.batch_size
    targets = one_hot_encode(train.labels, train.label_set).astype(np.float64)

    rng = np.random.default_rng(cfg.seed & 0xFFFFFFFFFFFFFFFF)
    layout = _mlp_layout(hidden, k)
    flat, params = _flat_views(layout)
    params["w1"][...] = _glorot_uniform(rng, FRAME_SIZE, hidden)
    params["w2"][...] = _glorot_uniform(rng, hidden, k)
    flat_grads, grads = _flat_views(layout)
    # each batch's bounds in the epoch's permutation, and scratch for its size
    work = {m: _mlp_workspace(m, hidden, k) for m in {min(size, n), n % size} if m}
    batches = [(start, min(start + size, n), work[min(size, n - start)])
               for start in range(0, n, size)]
    for _epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        for start, stop, scratch in batches:
            batch = perm[start:stop]
            _mlp_step(params, grads, x[batch], targets[batch], scratch)
            flat_grads *= cfg.learning_rate
            flat -= flat_grads

    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return GestureModel(
        kind=MLP_KIND,
        label_set=train.label_set,
        params={name: view.copy() for name, view in params.items()},
        training_time_ms=elapsed_ms,
    )


def compute_mlp_gradients(model: GestureModel, frames, targets):
    """Mean cross-entropy loss of a batch and its exact parameter gradients.

    Returns ``(loss, grads)`` where grads has the same keys and shapes as
    ``model.params``. The batch must be non-empty and shaped (B, 63) with
    one-hot targets of shape (B, K).
    """
    if model.kind != MLP_KIND:
        raise ModelError("gradients are only defined for mlp models")
    x = np.asarray(frames, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != FRAME_SIZE or x.shape[0] == 0:
        raise ModelError(f"batch frames must be (B, {FRAME_SIZE}) with B >= 1")
    if t.shape != (x.shape[0], model.n_classes):
        raise ModelError(
            f"targets must be ({x.shape[0]}, {model.n_classes}), got {t.shape}"
        )
    hidden, batch = model.params["b1"].shape[0], x.shape[0]
    _, grads = _flat_views(_mlp_layout(hidden, model.n_classes))
    log_probs = _mlp_step(model.params, grads, x, t,
                          _mlp_workspace(batch, hidden, model.n_classes))
    return float(-(t * log_probs).sum() / batch), grads


# ---------------------------------------------------------------------------
# Scoring: one kernel, model kinds as data
# ---------------------------------------------------------------------------


def _logistic(x: float) -> float:
    # split by sign to avoid overflow in exp
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _svm_operands(params):
    # (63, K) weights and (K,) bias, split off the augmented matrix once
    weights = params["weights"]
    wt = np.ascontiguousarray(weights[:, :-1].T)
    bias = weights[:, -1].copy()
    wt.setflags(write=False)
    bias.setflags(write=False)
    return wt, bias


def _mlp_score(params, x: np.ndarray) -> np.ndarray:
    """Softmax probabilities of a (63,) frame or an (N, 63) batch: the
    operations of ``softmax(max(0, x @ w1 + b1) @ w2 + b2)`` in their plain
    order, each written over the array before it, so bit-identical to it."""
    z = x @ params["w1"]
    z += params["b1"]
    np.maximum(0.0, z, out=z)
    logits = z @ params["w2"]
    logits += params["b2"]
    logits -= np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=-1, keepdims=True)
    return logits


def _mlp_shapes(params, k):
    return _mlp_layout(params["b1"].shape[0] if params["b1"].ndim == 1 else -1, k)


@dataclass(frozen=True)
class ModelKind:
    """What one model family is, as data rather than branches.

    ``shapes(params, K)`` gives the required shape of every parameter;
    ``prepare(params)`` builds, once per model, the operands that
    ``score(operands, x)`` takes; ``score`` maps a (63,) frame to (K,) scores
    and an (N, 63) batch to (N, K); ``confidence`` maps a winning score to
    [0, 1].
    """

    param_names: tuple[str, ...]
    shapes: Callable[[dict, int], dict[str, tuple[int, ...]]]
    prepare: Callable[[dict], object]
    score: Callable[[object, np.ndarray], np.ndarray]
    confidence: Callable[[float], float]


MODEL_KINDS: dict[str, ModelKind] = {
    # raw one-vs-rest margins; confidence is the logistic of the winning margin
    SVM_KIND: ModelKind(
        param_names=("weights",),
        shapes=lambda params, k: {"weights": (k, FRAME_SIZE + 1)},
        prepare=_svm_operands,
        score=lambda ops, x: x @ ops[0] + ops[1],
        confidence=_logistic,
    ),
    # softmax probabilities; confidence is the winning probability
    MLP_KIND: ModelKind(
        param_names=("w1", "b1", "w2", "b2"),
        shapes=_mlp_shapes,
        prepare=lambda params: params,
        score=_mlp_score,
        confidence=lambda top: min(1.0, max(0.0, top)),
    ),
}


# a frame of finite coordinates that overflows the model is invalid too
_NON_FINITE_SCORE = "frame gives a non-finite winning score"


def scores(model: GestureModel, x: np.ndarray) -> np.ndarray:
    """(N, K) scores of a validated (N, 63) batch: SVM margins or MLP softmax
    probabilities.

    A frame of huge coordinates can overflow to inf or NaN scores; numpy's
    warnings for that are silenced, and :func:`_winners` rejects the frame.
    """
    score = MODEL_KINDS[model.kind].score
    with np.errstate(over="ignore", invalid="ignore"):
        if len(x) > _SCORE_BLOCK:
            blocks = range(0, len(x), _SCORE_BLOCK)
            return np.concatenate(
                [score(model._operands, x[i : i + _SCORE_BLOCK]) for i in blocks]
            )
        return score(model._operands, x)


def _winners(s: np.ndarray) -> np.ndarray:
    """Argmax of each row of (N, K) scores, ties to the lowest index; raises
    DatasetError if any winning score is not finite."""
    idx = s.argmax(axis=1)
    # all scores finite is the common case, and cheaper to test than a gather
    if not np.isfinite(s).all() and not np.isfinite(
            np.take_along_axis(s, idx[:, None], axis=1)).all():
        raise DatasetError(_NON_FINITE_SCORE)
    return idx


def _frame_classifier(model: GestureModel) -> Callable[[np.ndarray], tuple[np.ndarray, int]]:
    """``classify(x) -> (scores, idx)`` for a validated (63,) frame: the (K,)
    scores and the winning index, ties to the lowest. A non-finite winning
    score raises DatasetError. The caller silences numpy's overflow warnings."""
    score, operands = MODEL_KINDS[model.kind].score, model._operands

    def classify(x: np.ndarray) -> tuple[np.ndarray, int]:
        s = score(operands, x)
        idx = int(s.argmax())
        if not math.isfinite(s[idx]):
            raise DatasetError(_NON_FINITE_SCORE)
        return s, idx

    return classify


def predict(model: GestureModel, frame) -> Prediction:
    """Classify one frame; ties in the scores resolve to the lowest index.
    An invalid frame, or one whose winning score is not finite, raises
    DatasetError."""
    x = as_frame(frame)
    classify = _frame_classifier(model)
    start = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        s, idx = classify(x)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return Prediction(label=model.label_set[idx], scores=s, elapsed_ms=elapsed_ms)


def predict_batch(model: GestureModel, frames) -> list[Prediction]:
    """Classify a frame sequence in one product, preserving input order.

    Raises the DatasetError that :func:`predict` raises for the first
    invalid frame. Every prediction carries the same ``elapsed_ms``: the
    batch's scoring time divided by its size.
    """
    x = as_frames(frames)
    if len(x) == 0:
        return []
    start = time.perf_counter()
    s = scores(model, x)
    idx = _winners(s)
    elapsed_ms = (time.perf_counter() - start) * 1000.0 / len(x)
    labels = model.label_set
    return [Prediction(labels[i], row, elapsed_ms) for i, row in zip(idx.tolist(), s)]


# ---------------------------------------------------------------------------
# Serialization: versioned JSON, float arrays at full precision
# ---------------------------------------------------------------------------


def save_model(model: GestureModel, path: str) -> None:
    doc = {
        "version": MODEL_FILE_VERSION,
        "kind": model.kind,
        "labels": list(model.label_set),
        "params": {name: arr.tolist() for name, arr in model.params.items()},
        "training_time_ms": model.training_time_ms,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path: str) -> GestureModel:
    with _open_input(path, "model file", ModelError) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, a huge int, deep nesting
        raise ModelError(f"{path}: corrupt model file ({getattr(exc, 'msg', exc)})") from exc
    if not isinstance(doc, dict):
        raise ModelError(f"{path}: model document must be a JSON object")
    version = doc.get("version")
    if version != MODEL_FILE_VERSION:
        raise ModelError(
            f"{path}: unsupported model file version {version!r} "
            f"(expected {MODEL_FILE_VERSION})"
        )
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise ModelError(f"{path}: unsupported model kind {kind!r}")
    labels = doc.get("labels")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ModelError(f"{path}: labels must be a list of strings")
    params = doc.get("params")
    if not isinstance(params, dict):
        raise ModelError(f"{path}: params must be an object")
    training_time_ms = doc.get("training_time_ms", 0.0)
    if isinstance(training_time_ms, bool) or not isinstance(training_time_ms, (int, float)):
        raise ModelError(f"{path}: training_time_ms must be a number")
    if isinstance(training_time_ms, float) and not math.isfinite(training_time_ms):
        raise ModelError(f"{path}: training_time_ms must be finite")  # evaluate prints it
    try:  # np.asarray raises TypeError for a JSON object among the numbers
        arrays = {name: np.asarray(v, dtype=np.float64) for name, v in params.items()}
        return GestureModel(
            kind=kind,
            label_set=tuple(labels),
            params=arrays,
            training_time_ms=float(training_time_ms),
        )
    except (ModelError, ValueError, OverflowError, TypeError) as exc:
        raise ModelError(f"{path}: invalid model parameters ({exc})") from None
