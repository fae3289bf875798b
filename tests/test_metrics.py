import numpy as np
import pytest

from natcmd import (
    ConfusionMatrix,
    LabeledDataset,
    SvmConfig,
    SyntheticSpec,
    accuracy,
    confusion_matrix,
    evaluate_model,
    f1,
    generate_synthetic_dataset,
    macro_precision,
    macro_recall,
    predict,
    report_to_dict,
    train_linear_svm,
)
from natcmd.metrics import render_report
from natcmd.errors import MetricError


def brute_force_metrics(true, pred, label_set):
    """Oracle: count TP/FP/FN per class with explicit loops over the pairs."""
    n = len(true)
    correct = sum(1 for t, p in zip(true, pred) if t == p)
    precisions = []
    recalls = []
    for label in label_set:
        tp = sum(1 for t, p in zip(true, pred) if t == label and p == label)
        fp = sum(1 for t, p in zip(true, pred) if t != label and p == label)
        fn = sum(1 for t, p in zip(true, pred) if t == label and p != label)
        precisions.append(tp / (tp + fp) if tp + fp else 0.0)
        recalls.append(tp / (tp + fn) if tp + fn else 0.0)
    p = sum(precisions) / len(label_set)
    r = sum(recalls) / len(label_set)
    return {
        "accuracy": correct / n,
        "precision": p,
        "recall": r,
        "f1": 2 * p * r / (p + r) if p + r else 0.0,
    }


class TestConfusionMatrix:
    def test_perfect_prediction_is_diagonal(self):
        cm = confusion_matrix(["a", "b"], ["a", "b"], ["a", "b"])
        assert cm.counts.tolist() == [[1, 0], [0, 1]]

    def test_all_wrong(self):
        cm = confusion_matrix(["a", "a"], ["b", "b"], ["a", "b"])
        assert cm.counts.tolist() == [[0, 2], [0, 0]]

    def test_matches_pairwise_counting_oracle(self):
        rng = np.random.default_rng(13)
        label_set = tuple("abcde")
        true = [label_set[i] for i in rng.integers(0, 5, 500)]
        pred = [label_set[i] for i in rng.integers(0, 5, 500)]
        cm = confusion_matrix(true, pred, label_set)
        for i, ti in enumerate(label_set):
            for j, pj in enumerate(label_set):
                expected = sum(1 for t, p in zip(true, pred) if t == ti and p == pj)
                assert cm.counts[i, j] == expected

    def test_length_mismatch_rejected(self):
        with pytest.raises(MetricError):
            confusion_matrix(["a"], ["a", "b"], ["a", "b"])

    def test_unknown_label_rejected(self):
        with pytest.raises(MetricError):
            confusion_matrix(["a"], ["q"], ["a", "b"])

    def test_unknown_label_error_names_first_in_pair_order(self):
        label_set = ["a", "b"]
        cases = [
            ((["a", "x", "y"], ["a", "b", "a"]), "'x'"),
            ((["a", "b", "y"], ["a", "q", "a"]), "'q'"),
            ((["a", "b", "a"], ["b", "q", "z"]), "'q'"),
            ((["x", "a"], ["q", "a"]), "'x'"),
            ((["a", "a", "y"], ["b", "b", "q"]), "'y'"),
        ]
        for (true, pred), name in cases:
            with pytest.raises(MetricError, match=f"label {name} not in label_set"):
                confusion_matrix(true, pred, label_set)

    def test_accepts_any_iterables(self):
        cm = confusion_matrix(iter(["a", "b"]), ("b", "b"), iter(["a", "b"]))
        assert cm.counts.tolist() == [[0, 1], [0, 1]]


class TestMetricValues:
    def test_identity_matrix_scores_one(self):
        cm = ConfusionMatrix(counts=np.eye(4, dtype=int) * 3, label_set=tuple("abcd"))
        assert accuracy(cm) == 1.0
        assert macro_precision(cm) == 1.0
        assert macro_recall(cm) == 1.0

    def test_all_off_diagonal_scores_zero(self):
        cm = ConfusionMatrix(counts=np.array([[0, 5], [7, 0]]), label_set=("a", "b"))
        assert accuracy(cm) == 0.0

    def test_hand_computed_example(self):
        cm = ConfusionMatrix(counts=np.array([[1, 1], [0, 2]]), label_set=("a", "b"))
        assert macro_precision(cm) == pytest.approx(5 / 6)
        assert macro_recall(cm) == pytest.approx(3 / 4)

    def test_label_absent_from_predictions_scores_zero(self):
        # nothing predicted as "b": zero denominator contributes 0, stays in mean
        cm = confusion_matrix(["a", "b"], ["a", "a"], ["a", "b"])
        assert macro_precision(cm) == pytest.approx((1 / 2 + 0) / 2)

    def test_f1_basics(self):
        assert f1(1.0, 1.0) == 1.0
        assert f1(1.0, 0.0) == 0.0
        assert f1(0.0, 0.0) == 0.0

    def test_f1_reference_values(self):
        # harmonic mean at a high-accuracy operating point, to 4 decimals
        assert f1(0.9962, 0.9966) == pytest.approx(0.9964, abs=1e-4)

    def test_f1_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p, r = rng.uniform(0, 1, 2)
            assert f1(p, r) == pytest.approx(f1(r, p))
            assert 0.0 <= f1(p, r) <= 1.0

    def test_f1_between_precision_and_recall(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p, r = rng.uniform(0.01, 1, 2)
            assert min(p, r) - 1e-12 <= f1(p, r) <= max(p, r) + 1e-12

    def test_empty_matrix_rejected(self):
        cm = ConfusionMatrix(counts=np.zeros((2, 2), dtype=int), label_set=("a", "b"))
        for fn in (accuracy, macro_precision, macro_recall):
            with pytest.raises(MetricError):
                fn(cm)

    def test_randomized_against_brute_force(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            k = int(rng.integers(2, 8))
            label_set = tuple(f"c{i}" for i in range(k))
            n = int(rng.integers(10, 200))
            true = [label_set[i] for i in rng.integers(0, k, n)]
            pred = [label_set[i] for i in rng.integers(0, k, n)]
            cm = confusion_matrix(true, pred, label_set)
            expected = brute_force_metrics(true, pred, label_set)
            assert accuracy(cm) == pytest.approx(expected["accuracy"], abs=1e-12)
            assert macro_precision(cm) == pytest.approx(expected["precision"], abs=1e-12)
            assert macro_recall(cm) == pytest.approx(expected["recall"], abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 30, (4, 4))
        labels = tuple("abcd")
        cm = ConfusionMatrix(counts=counts, label_set=labels)
        perm = rng.permutation(4)
        cm_p = ConfusionMatrix(
            counts=counts[np.ix_(perm, perm)],
            label_set=tuple(labels[i] for i in perm),
        )
        assert accuracy(cm_p) == pytest.approx(accuracy(cm))
        assert macro_precision(cm_p) == pytest.approx(macro_precision(cm))
        assert macro_recall(cm_p) == pytest.approx(macro_recall(cm))


@pytest.fixture(scope="module")
def trained():
    spec = SyntheticSpec(
        label_set=("a", "b", "c"), frames_per_label=30, noise_sigma=0.01, seed=6
    )
    ds = generate_synthetic_dataset(spec)
    return train_linear_svm(ds, SvmConfig(seed=6)), ds


class TestEvaluateModel:
    def test_memorized_set_scores_one(self, trained):
        model, ds = trained
        report = evaluate_model(model, ds)
        assert report.accuracy == 1.0

    def test_report_is_consistent_with_metric_ops(self, trained):
        model, ds = trained
        report = evaluate_model(model, ds)
        assert report.accuracy == pytest.approx(accuracy(report.confusion))
        assert report.macro_precision == pytest.approx(macro_precision(report.confusion))
        assert report.macro_recall == pytest.approx(macro_recall(report.confusion))
        assert report.f1 == pytest.approx(f1(report.macro_precision, report.macro_recall))
        assert report.training_time_ms == model.training_time_ms
        assert report.mean_prediction_time_ms > 0

    def test_confusion_matches_per_frame_count(self):
        # trained on one seed's prototypes, scored on another's: many errors
        labels = ("a", "b", "c", "d")
        train = generate_synthetic_dataset(SyntheticSpec(labels, 50, 0.01, seed=8))
        ds = generate_synthetic_dataset(SyntheticSpec(labels, 300, 0.05, seed=9))
        model = train_linear_svm(train, SvmConfig(seed=8))
        report = evaluate_model(model, ds)
        expected = np.zeros((4, 4), dtype=np.int64)
        index = {label: i for i, label in enumerate(model.label_set)}
        for frame, label in zip(ds.frames, ds.labels):
            expected[index[label], index[predict(model, frame).label]] += 1
        assert np.trace(expected) < len(ds)  # the oracle sees some errors
        np.testing.assert_array_equal(report.confusion.counts, expected)

    def test_unknown_test_label_rejected(self, trained):
        model, ds = trained
        alien = LabeledDataset(frames=ds.frames[:2], labels=("zz", "zz"))
        with pytest.raises(MetricError):
            evaluate_model(model, alien)

    def test_report_serialization(self, trained):
        model, ds = trained
        report = evaluate_model(model, ds)
        doc = report_to_dict(report)
        assert set(doc) == {
            "accuracy", "macro_precision", "macro_recall", "f1",
            "mean_prediction_time_ms", "training_time_ms", "labels", "confusion",
        }
        assert doc["confusion"] == report.confusion.counts.tolist()
        text = render_report(report)
        assert "accuracy" in text and "a" in text
