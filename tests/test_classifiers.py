import json
import math
import re
import warnings

import numpy as np
import pytest

from natcmd import (
    DEFAULT_GESTURE_LABELS,
    FRAME_SIZE,
    GestureModel,
    LabeledDataset,
    MlpConfig,
    SvmConfig,
    SyntheticSpec,
    compute_mlp_gradients,
    generate_synthetic_dataset,
    load_model,
    one_hot_encode,
    predict,
    predict_batch,
    save_model,
    split_dataset,
    synthetic_prototypes,
    train_linear_svm,
    train_mlp,
)
from natcmd.classifiers import svm_objective
from natcmd.errors import DatasetError, ModelError, TrainingError


def embedded_toy_dataset():
    """Two separable points on the first coordinate, zero elsewhere."""
    pos = np.zeros(FRAME_SIZE)
    pos[0] = 1.0
    neg = np.zeros(FRAME_SIZE)
    neg[0] = -1.0
    return LabeledDataset(frames=np.array([pos, neg]), labels=("pos", "neg")), pos, neg


def separable_dataset(per_label=40, labels=("a", "b", "c", "d"), seed=12):
    spec = SyntheticSpec(
        label_set=labels, frames_per_label=per_label, noise_sigma=0.01, seed=seed
    )
    return spec, generate_synthetic_dataset(spec)


def nearest_prototype_accuracy(spec, ds):
    """Oracle: classify by Euclidean distance to the generating prototypes."""
    protos = synthetic_prototypes(spec)
    names = list(protos)
    mat = np.stack([protos[n] for n in names])
    d = ((ds.frames[:, None, :] - mat[None, :, :]) ** 2).sum(-1)
    predicted = [names[i] for i in d.argmin(1)]
    return float(np.mean([p == t for p, t in zip(predicted, ds.labels)]))


def model_accuracy(model, ds):
    preds = predict_batch(model, ds.frames)
    return float(np.mean([p.label == t for p, t in zip(preds, ds.labels)]))


def random_mlp(rng, hidden=4, k=3):
    return GestureModel(
        kind="mlp",
        label_set=tuple(f"c{i}" for i in range(k)),
        params={
            "w1": rng.normal(0, 0.5, (FRAME_SIZE, hidden)),
            "b1": rng.normal(0, 0.5, hidden),
            "w2": rng.normal(0, 0.5, (hidden, k)),
            "b2": rng.normal(0, 0.5, k),
        },
    )


class TestSvmTraining:
    def test_two_point_toy_problem(self):
        ds, pos, neg = embedded_toy_dataset()
        model = train_linear_svm(ds, SvmConfig(seed=0))
        assert predict(model, pos).label == "pos"
        assert predict(model, neg).label == "neg"

    def test_separable_training_accuracy(self):
        spec, ds = separable_dataset()
        assert nearest_prototype_accuracy(spec, ds) == 1.0  # oracle confirms separability
        model = train_linear_svm(ds, SvmConfig(seed=3))
        assert model_accuracy(model, ds) >= 0.99

    def test_determinism(self):
        _, ds = separable_dataset(per_label=10)
        m1 = train_linear_svm(ds, SvmConfig(seed=5))
        m2 = train_linear_svm(ds, SvmConfig(seed=5))
        np.testing.assert_array_equal(m1.params["weights"], m2.params["weights"])

    def test_objective_log_non_increasing(self):
        _, ds = separable_dataset(per_label=20)
        log = []
        train_linear_svm(ds, SvmConfig(seed=1), objective_log=log)
        assert len(log) >= 1
        for prev, curr in zip(log, log[1:]):
            assert curr <= prev + 1e-9

    def test_objective_matches_definition(self):
        # independent recomputation of the hinge objective on a tiny case
        rng = np.random.default_rng(0)
        w = rng.normal(size=(2, 4))
        x = rng.normal(size=(3, 4))
        y = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, -1.0]])
        expected = 0.5 * (w**2).sum()
        for i in range(3):
            for k in range(2):
                expected += 2.5 * max(0.0, 1.0 - y[i, k] * float(w[k] @ x[i]))
        assert svm_objective(w, x, y, 2.5) == pytest.approx(expected)

    @staticmethod
    def plain_objective(w, x, y, c):
        """svm_objective as one expression, before its hinge was computed in place."""
        return float(0.5 * np.sum(w * w) + c * np.maximum(0.0, 1.0 - y * (x @ w.T)).sum())

    def objective_cases(self, scale):
        rng = np.random.default_rng(21)
        for n, k, dim in ((1, 2, 4), (7, 3, 5), (300, 15, FRAME_SIZE + 1)):
            w = rng.normal(size=(k, dim)) * scale
            x = rng.normal(size=(n, dim)) * scale
            y = np.where(rng.integers(2, size=(n, k)) == 1, 1.0, -1.0)
            yield w, x, y, float(rng.uniform(0.1, 10.0))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_objective_is_bit_equal_to_the_plain_expression(self, scale):
        for w, x, y, c in self.objective_cases(scale):
            got, want = svm_objective(w, x, y, c), self.plain_objective(w, x, y, c)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_overflowing_objective_is_bit_equal_to_the_plain_expression(self):
        """Products and sums near and past the float64 range: finite, inf,
        and NaN where the product sums inf and -inf."""
        outcomes = set()
        with np.errstate(over="ignore", invalid="ignore"):
            for scale in (1e150, 1e155, 1e300):
                for w, x, y, c in self.objective_cases(scale):
                    got, want = svm_objective(w, x, y, c), self.plain_objective(w, x, y, c)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()
                    outcomes.add("finite" if math.isfinite(got) else repr(got))
        assert outcomes == {"finite", "inf", "nan"}

    def test_single_class_rejected(self):
        ds = LabeledDataset(frames=np.zeros((3, FRAME_SIZE)), labels=("a", "a", "a"))
        with pytest.raises(TrainingError):
            train_linear_svm(ds, SvmConfig())

    def test_training_time_recorded(self):
        _, ds = separable_dataset(per_label=5)
        model = train_linear_svm(ds, SvmConfig(seed=2))
        assert model.training_time_ms > 0

    def test_bad_config_rejected(self):
        for kwargs in ({"c": 0.0}, {"max_epochs": 0}, {"tolerance": 0.0}):
            with pytest.raises(TrainingError):
                SvmConfig(**kwargs)


class TestMlpTraining:
    def test_memorizes_single_example(self):
        frame = np.random.default_rng(1).uniform(0, 1, FRAME_SIZE)
        ds = LabeledDataset(frames=np.array([frame, -frame]), labels=("a", "b"))
        cfg = MlpConfig(hidden_units=8, learning_rate=0.5, batch_size=1, epochs=300, seed=4)
        model = train_mlp(ds, cfg)
        targets = one_hot_encode(ds.labels, ds.label_set)
        loss, _ = compute_mlp_gradients(model, ds.frames, targets)
        assert predict(model, frame).label == "a"
        assert loss < 0.01

    def test_separable_accuracy_tracks_svm(self):
        spec, ds = separable_dataset(per_label=40, labels=tuple("abcdefghij"))
        assert nearest_prototype_accuracy(spec, ds) == 1.0
        svm = train_linear_svm(ds, SvmConfig(seed=7))
        mlp = train_mlp(ds, MlpConfig(learning_rate=0.1, epochs=60, seed=7))
        acc_svm = model_accuracy(svm, ds)
        acc_mlp = model_accuracy(mlp, ds)
        assert acc_mlp >= 0.95
        assert abs(acc_svm - acc_mlp) <= 0.05

    def test_determinism(self):
        _, ds = separable_dataset(per_label=8)
        m1 = train_mlp(ds, MlpConfig(epochs=3, seed=9))
        m2 = train_mlp(ds, MlpConfig(epochs=3, seed=9))
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name], m2.params[name])

    def test_single_class_rejected(self):
        ds = LabeledDataset(frames=np.zeros((2, FRAME_SIZE)), labels=("a", "a"))
        with pytest.raises(TrainingError):
            train_mlp(ds)


class TestGradients:
    def test_zero_weight_loss_is_log_k(self):
        k = 5
        model = GestureModel(
            kind="mlp",
            label_set=tuple(f"c{i}" for i in range(k)),
            params={
                "w1": np.zeros((FRAME_SIZE, 7)),
                "b1": np.zeros(7),
                "w2": np.zeros((7, k)),
                "b2": np.zeros(k),
            },
        )
        rng = np.random.default_rng(2)
        frames = rng.uniform(0, 1, (6, FRAME_SIZE))
        targets = np.eye(k)[rng.integers(0, k, 6)]
        loss, _ = compute_mlp_gradients(model, frames, targets)
        assert loss == pytest.approx(math.log(k), rel=1e-12)

    def test_matches_central_finite_differences(self):
        # oracle: perturb every parameter entry by +-1e-5 and difference the loss
        step = 1e-5
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(3):
            model = random_mlp(rng)
            frames = rng.uniform(-1, 1, (4, FRAME_SIZE))
            targets = np.eye(model.n_classes)[rng.integers(0, model.n_classes, 4)]
            _, grads = compute_mlp_gradients(model, frames, targets)
            for name, arr in model.params.items():
                numeric = np.zeros_like(arr)
                flat = numeric.reshape(-1)
                for idx in range(arr.size):
                    params_hi = {k: v.copy() for k, v in model.params.items()}
                    params_lo = {k: v.copy() for k, v in model.params.items()}
                    params_hi[name].reshape(-1)[idx] += step
                    params_lo[name].reshape(-1)[idx] -= step
                    hi = GestureModel(kind="mlp", label_set=model.label_set, params=params_hi)
                    lo = GestureModel(kind="mlp", label_set=model.label_set, params=params_lo)
                    loss_hi, _ = compute_mlp_gradients(hi, frames, targets)
                    loss_lo, _ = compute_mlp_gradients(lo, frames, targets)
                    flat[idx] = (loss_hi - loss_lo) / (2 * step)
                denom = np.maximum(np.abs(numeric), np.abs(grads[name]))
                mask = denom > 1e-8
                if mask.any():
                    rel = np.abs(grads[name] - numeric)[mask] / denom[mask]
                    worst = max(worst, float(rel.max()))
        assert worst < 1e-4

    def test_duplicated_batch_same_gradient(self):
        rng = np.random.default_rng(6)
        model = random_mlp(rng)
        frames = rng.uniform(0, 1, (3, FRAME_SIZE))
        targets = np.eye(model.n_classes)[[0, 1, 2]]
        loss1, grads1 = compute_mlp_gradients(model, frames, targets)
        loss2, grads2 = compute_mlp_gradients(
            model, np.vstack([frames, frames]), np.vstack([targets, targets])
        )
        assert loss1 == pytest.approx(loss2)
        for name in grads1:
            np.testing.assert_allclose(grads1[name], grads2[name], atol=1e-12)

    def test_shape_mismatch_rejected(self):
        model = random_mlp(np.random.default_rng(0))
        with pytest.raises(ModelError):
            compute_mlp_gradients(model, np.zeros((2, FRAME_SIZE)), np.zeros((2, 99)))
        with pytest.raises(ModelError):
            compute_mlp_gradients(model, np.zeros((0, FRAME_SIZE)), np.zeros((0, 3)))

    def test_svm_model_rejected(self):
        ds, _, _ = embedded_toy_dataset()
        svm = train_linear_svm(ds, SvmConfig(seed=0))
        with pytest.raises(ModelError):
            compute_mlp_gradients(svm, np.zeros((1, FRAME_SIZE)), np.zeros((1, 2)))


def reference_loss_and_grads(params, x, targets):
    """The plain gradient computation the in-place step replaced."""
    batch = x.shape[0]
    z1 = x @ params["w1"] + params["b1"]
    h = np.maximum(0.0, z1)
    logits = h @ params["w2"] + params["b2"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-(targets * log_probs).sum() / batch)

    dlogits = (np.exp(log_probs) - targets) / batch
    grads = {
        "w2": h.T @ dlogits,
        "b2": dlogits.sum(axis=0),
    }
    dh = dlogits @ params["w2"].T
    dz1 = dh * (z1 > 0)
    grads["w1"] = x.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    return loss, grads


def reference_train_mlp(train, cfg):
    """The plain training loop the in-place one replaced: its parameters."""
    x = train.frames
    n = x.shape[0]
    k = len(train.label_set)
    targets = one_hot_encode(train.labels, train.label_set).astype(np.float64)
    rng = np.random.default_rng(cfg.seed & 0xFFFFFFFFFFFFFFFF)

    def glorot(fan_in, fan_out):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, (fan_in, fan_out))

    params = {
        "w1": glorot(FRAME_SIZE, cfg.hidden_units),
        "b1": np.zeros(cfg.hidden_units),
        "w2": glorot(cfg.hidden_units, k),
        "b2": np.zeros(k),
    }
    for _epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            _, grads = reference_loss_and_grads(params, x[batch], targets[batch])
            for name in params:
                params[name] = params[name] - cfg.learning_rate * grads[name]
    return params


def assert_bit_equal(actual, expected):
    assert list(actual) and set(actual) == set(expected)
    for name in expected:
        assert actual[name].shape == expected[name].shape, name
        assert actual[name].tobytes() == expected[name].tobytes(), name


class TestMlpMatchesReference:
    """The in-place training step against the plain one it replaced: the
    same weights and gradients, bit for bit."""

    @pytest.mark.parametrize("batch_size", [1, 7, 32, 1000])  # 1000 > n
    @pytest.mark.parametrize("hidden", [1, 30])
    @pytest.mark.parametrize("k", [2, 15])
    def test_trained_params(self, k, hidden, batch_size):
        seed = 100 * k + 10 * hidden + batch_size
        ds = generate_synthetic_dataset(SyntheticSpec(
            label_set=tuple(f"g{i}" for i in range(k)), frames_per_label=9,
            noise_sigma=0.05, seed=seed))
        cfg = MlpConfig(hidden_units=hidden, learning_rate=(1e-3, 0.5)[seed % 2],
                        batch_size=batch_size, epochs=1 + seed % 3, seed=seed)
        model = train_mlp(ds, cfg)
        assert_bit_equal(model.params, reference_train_mlp(ds, cfg))
        for arr in model.params.values():
            assert arr.flags.c_contiguous and arr.base is None

    def test_acceptance_regime(self):
        spec = SyntheticSpec(label_set=DEFAULT_GESTURE_LABELS, frames_per_label=1000,
                             noise_sigma=0.01, seed=7)
        train, _ = split_dataset(generate_synthetic_dataset(spec), 0.8, seed=7)
        cfg = MlpConfig(hidden_units=30, seed=7)
        assert_bit_equal(train_mlp(train, cfg).params, reference_train_mlp(train, cfg))

    @pytest.mark.parametrize("batch", [1, 5, 64])
    @pytest.mark.parametrize("hidden,k", [(1, 2), (4, 3), (30, 15)])
    def test_gradients(self, batch, hidden, k):
        rng = np.random.default_rng(batch * hidden * k)
        model = random_mlp(rng, hidden=hidden, k=k)
        frames = rng.uniform(-1, 1, (batch, FRAME_SIZE))
        targets = np.eye(k)[rng.integers(0, k, batch)]
        for x in (frames, np.asfortranarray(frames)):
            loss, grads = compute_mlp_gradients(model, x, targets)
            ref_loss, ref_grads = reference_loss_and_grads(model.params, x, targets)
            assert loss == ref_loss
            assert_bit_equal(grads, ref_grads)


class TestPredict:
    def test_prototype_frames_recover_labels(self):
        spec, ds = separable_dataset()
        model = train_linear_svm(ds, SvmConfig(seed=1))
        for label, proto in synthetic_prototypes(spec).items():
            assert predict(model, proto).label == label

    def test_zero_weights_tie_breaks_to_first_label(self):
        model = GestureModel(
            kind="svm",
            label_set=("alpha", "beta", "gamma"),
            params={"weights": np.zeros((3, FRAME_SIZE + 1))},
        )
        pred = predict(model, np.ones(FRAME_SIZE))
        assert pred.label == "alpha"
        np.testing.assert_array_equal(pred.scores, np.zeros(3))

    def test_argmax_invariant_to_constant_shift(self):
        _, ds = separable_dataset(per_label=5)
        model = train_linear_svm(ds, SvmConfig(seed=8))
        frame = ds.frames[3]
        pred = predict(model, frame)
        shifted = pred.scores + 123.456
        assert model.label_set[int(np.argmax(shifted))] == pred.label

    def test_mlp_scores_are_probabilities(self):
        _, ds = separable_dataset(per_label=6)
        model = train_mlp(ds, MlpConfig(epochs=2, seed=3))
        for frame in ds.frames[:10]:
            scores = predict(model, frame).scores
            assert np.all(scores >= 0) and np.all(scores <= 1)
            assert abs(scores.sum() - 1.0) < 1e-6

    def test_wrong_arity_rejected(self):
        ds, _, _ = embedded_toy_dataset()
        model = train_linear_svm(ds, SvmConfig(seed=0))
        with pytest.raises(Exception):
            predict(model, np.zeros(62))

    def test_batch_matches_single(self):
        _, ds = separable_dataset(per_label=4)
        model = train_linear_svm(ds, SvmConfig(seed=2))
        frames = ds.frames[[3, 1, 1, 7]]
        batch = predict_batch(model, frames)
        assert [p.label for p in batch] == [predict(model, f).label for f in frames]

    def test_empty_batch(self):
        ds, _, _ = embedded_toy_dataset()
        model = train_linear_svm(ds, SvmConfig(seed=0))
        assert predict_batch(model, []) == []
        assert predict_batch(model, np.empty((0, FRAME_SIZE))) == []


@pytest.fixture(scope="module")
def both_kinds():
    _, ds = separable_dataset(per_label=30, labels=tuple("abcde"))
    return {
        "svm": train_linear_svm(ds, SvmConfig(seed=4)),
        "mlp": train_mlp(ds, MlpConfig(learning_rate=0.1, epochs=5, seed=4)),
    }


@pytest.mark.parametrize("kind", ["svm", "mlp"])
class TestBatchMatchesPerFrame:
    """Differential tests: the one-product batch path against per-frame predict."""

    def test_labels_and_scores(self, both_kinds, kind):
        model = both_kinds[kind]
        rng = np.random.default_rng(31)
        frames = np.vstack([
            rng.uniform(0.0, 1.0, (1200, FRAME_SIZE)),
            rng.normal(0.0, 5.0, (300, FRAME_SIZE)),
        ])
        batch = predict_batch(model, frames)
        single = [predict(model, frame) for frame in frames]
        assert [p.label for p in batch] == [p.label for p in single]
        np.testing.assert_allclose(
            np.array([p.scores for p in batch]),
            np.array([p.scores for p in single]),
            rtol=1e-12, atol=0.0,
        )

    def test_list_input_matches_array_input(self, both_kinds, kind):
        model = both_kinds[kind]
        frames = np.random.default_rng(32).uniform(0.0, 1.0, (40, FRAME_SIZE))
        from_list = predict_batch(model, frames.tolist())
        from_array = predict_batch(model, frames)
        assert [p.label for p in from_list] == [p.label for p in from_array]

    @pytest.mark.parametrize("bad", ["nan_row", "62_values", "ragged", "non_numeric"])
    def test_same_error_as_predict(self, both_kinds, kind, bad):
        model = both_kinds[kind]
        rows = np.random.default_rng(33).uniform(0.0, 1.0, (5, FRAME_SIZE))
        if bad == "nan_row":
            rows[2, 7] = np.nan
            batch, row = rows, rows[2]
        elif bad == "62_values":
            batch, row = rows[:, :62], rows[0, :62]
        elif bad == "ragged":
            batch = rows.tolist()
            batch[3] = batch[3][:62]
            row = batch[3]
        else:
            batch = rows.tolist()
            batch[1] = ["x"] * FRAME_SIZE
            row = batch[1]
        with pytest.raises(DatasetError) as single_exc:
            predict(model, row)
        with pytest.raises(DatasetError) as batch_exc:
            predict_batch(model, batch)
        assert str(batch_exc.value) == str(single_exc.value)

    def test_batch_time_is_shared(self, both_kinds, kind):
        frames = np.random.default_rng(34).uniform(0.0, 1.0, (50, FRAME_SIZE))
        batch = predict_batch(both_kinds[kind], frames)
        assert len({p.elapsed_ms for p in batch}) == 1
        assert batch[0].elapsed_ms > 0


class TestSerialization:
    def test_roundtrip_predictions_identical(self, tmp_path):
        _, ds = separable_dataset(per_label=6)
        rng = np.random.default_rng(21)
        for trainer in (
            lambda: train_linear_svm(ds, SvmConfig(seed=1)),
            lambda: train_mlp(ds, MlpConfig(epochs=2, seed=1)),
        ):
            model = trainer()
            path = str(tmp_path / "m.json")
            save_model(model, path)
            loaded = load_model(path)
            assert loaded.kind == model.kind
            assert loaded.label_set == model.label_set
            assert loaded.training_time_ms == model.training_time_ms
            for name in model.params:
                np.testing.assert_array_equal(loaded.params[name], model.params[name])
            frames = rng.uniform(0, 1, (100, FRAME_SIZE))
            for frame in frames:
                assert predict(loaded, frame).label == predict(model, frame).label

    def test_corrupt_file_rejected(self, tmp_path):
        path = str(tmp_path / "corrupt.json")
        with open(path, "w") as fh:
            fh.write('{"version": 1, "kind": "svm"')
        with pytest.raises(ModelError):
            load_model(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = str(tmp_path / "kind.json")
        with open(path, "w") as fh:
            fh.write('{"version": 1, "kind": "forest", "labels": ["a"], "params": {}}')
        with pytest.raises(ModelError, match="kind"):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "ver.json")
        with open(path, "w") as fh:
            fh.write('{"version": 99, "kind": "svm", "labels": ["a"], "params": {}}')
        with pytest.raises(ModelError, match="version"):
            load_model(path)

    def test_bad_shape_rejected(self, tmp_path):
        path = str(tmp_path / "shape.json")
        with open(path, "w") as fh:
            fh.write(
                '{"version": 1, "kind": "svm", "labels": ["a", "b"], '
                '"params": {"weights": [[1.0, 2.0]]}}'
            )
        with pytest.raises(ModelError):
            load_model(path)

    MLP_PARAMS = {"w1": [[0.0] * 2] * FRAME_SIZE, "b1": [0.0] * 2,
                  "w2": [[0.0] * 2] * 2, "b2": [0.0] * 2}
    MLP_NAMES = "mlp params must be ('w1', 'b1', 'w2', 'b2')"

    @pytest.mark.parametrize("params, message", [
        ({k: v for k, v in MLP_PARAMS.items() if k != "b1"}, MLP_NAMES),
        ({**MLP_PARAMS, "b1": [[0.0] * 2]}, "mlp parameter 'b1' must be 1-D, got shape (1, 2)"),
        ({**MLP_PARAMS, "extra": [0.0]}, MLP_NAMES),
    ], ids=["without b1", "2-D b1", "extra key"])
    def test_bad_mlp_shape_rejected(self, tmp_path, params, message):
        path = str(tmp_path / "shape.json")
        with open(path, "w") as fh:
            json.dump({"version": 1, "kind": "mlp", "labels": ["a", "b"], "params": params}, fh)
        with pytest.raises(ModelError, match=re.escape(message)):
            load_model(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ModelError):
            load_model(str(tmp_path / "absent.json"))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ModelError, match="label_set contains duplicates"):
            GestureModel(kind="svm", label_set=("a", "b", "a"),
                         params={"weights": np.zeros((3, FRAME_SIZE + 1))})


def reference_mlp_scores(params, x):
    """The MLP scoring expressions the in-place kernel replaced."""
    z1 = x @ params["w1"] + params["b1"]
    h = np.maximum(0.0, z1)
    logits = h @ params["w2"] + params["b2"]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class TestMlpScoreAgainstReference:
    """Differential: the in-place MLP kernel is bit-identical to the plain
    expressions, frame by frame and batch by batch."""

    @pytest.fixture(scope="class")
    def models(self):
        _, ds = separable_dataset(per_label=30, labels=tuple("abcde"))
        trained = train_mlp(ds, MlpConfig(learning_rate=0.1, epochs=5, seed=4))
        # exact-zero pre-activations on every frame: hidden units 10-19 have
        # zero weights, and a bias of -0.0 (units 10-14) or +0.0 (15-19)
        params = {name: arr.copy() for name, arr in trained.params.items()}
        params["w1"][:, 10:20] = 0.0
        params["b1"][10:15] = -0.0
        params["b1"][15:20] = 0.0
        zeros = GestureModel(kind="mlp", label_set=trained.label_set, params=params)
        anchor = np.random.default_rng(40).uniform(-1.0, 1.0, FRAME_SIZE)
        return {"trained": trained, "zeros": zeros}, anchor

    @staticmethod
    def assert_same(model, x):
        got = model._score(x)
        want = reference_mlp_scores(model.params, x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["trained", "zeros"])
    def test_single_frames(self, models, name):
        by_name, anchor = models
        rng = np.random.default_rng(41)
        frames = [anchor, -np.abs(anchor), np.zeros(FRAME_SIZE),
                  *rng.uniform(-1.0, 1.0, (20, FRAME_SIZE))]
        for frame in frames:
            self.assert_same(by_name[name], frame)

    @pytest.mark.parametrize("n", [1, 7, 256, 600])
    @pytest.mark.parametrize("name", ["trained", "zeros"])
    def test_batches_c_and_fortran_order(self, models, name, n):
        by_name, anchor = models
        batch = np.random.default_rng(n).uniform(-1.0, 1.0, (n, FRAME_SIZE))
        batch[0] = anchor
        if n > 2:
            batch[1] = 0.0
        for x in (batch, np.asfortranarray(batch)):
            self.assert_same(by_name[name], x)

    def test_zero_pre_activations_are_exercised(self, models):
        by_name, anchor = models
        params = by_name["zeros"].params
        for x in (anchor, -np.abs(anchor), np.zeros(FRAME_SIZE)):
            z = x @ params["w1"] + params["b1"]
            assert np.count_nonzero(z == 0.0) >= 10


def overflowing_frame(model) -> np.ndarray:
    """63 finite coordinates that drive the first SVM margin, or the first
    MLP hidden unit, to +inf: 1.7e308 signed like that unit's weights."""
    first = model.params["weights"][0, :-1] if model.kind == "svm" else model.params["w1"][:, 0]
    return np.where(first < 0, -1.7e308, 1.7e308)


@pytest.mark.parametrize("kind", ["svm", "mlp"])
class TestNonFiniteWinningScore:
    """A frame of finite coordinates whose winning score overflows is invalid,
    and numpy's overflow warnings for it stay silent."""

    def test_predict_raises(self, both_kinds, kind):
        model = both_kinds[kind]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetError, match="non-finite winning score"):
                predict(model, overflowing_frame(model))

    def test_predict_batch_raises_what_predict_raises(self, both_kinds, kind):
        model = both_kinds[kind]
        rows = np.random.default_rng(35).uniform(0.0, 1.0, (5, FRAME_SIZE))
        rows[3] = overflowing_frame(model)
        with pytest.raises(DatasetError) as single_exc:
            predict(model, rows[3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetError) as batch_exc:
                predict_batch(model, rows)
        assert str(batch_exc.value) == str(single_exc.value)


def test_non_finite_losing_score_is_not_rejected():
    weights = np.zeros((2, FRAME_SIZE + 1))
    weights[1, :-1] = 1.0
    model = GestureModel(kind="svm", label_set=("a", "b"), params={"weights": weights})
    frame = np.full(FRAME_SIZE, -1.7e308)  # the margin of "b" overflows to -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert predict(model, frame).label == "a"
        assert [p.label for p in predict_batch(model, [frame, frame])] == ["a", "a"]
