import csv
import random

import numpy as np
import pytest

from natcmd import (
    DEFAULT_GESTURE_LABELS,
    FRAME_SIZE,
    LabeledDataset,
    SyntheticSpec,
    as_frame,
    generate_synthetic_dataset,
    load_landmark_dataset,
    one_hot_encode,
    save_landmark_dataset,
    split_dataset,
    synthetic_prototypes,
)
from natcmd.dataset import CSV_HEADER, PROTOTYPE_SEPARATION_FACTOR
from natcmd.errors import DatasetError, ParseError


def make_dataset(labels, rng=None):
    rng = rng or np.random.default_rng(0)
    frames = rng.uniform(0, 1, (len(labels), FRAME_SIZE))
    return LabeledDataset(frames=frames, labels=tuple(labels))


def assert_datasets_equal(a: LabeledDataset, b: LabeledDataset):
    assert a.labels == b.labels
    assert a.label_set == b.label_set
    np.testing.assert_array_equal(a.frames, b.frames)


class TestFrames:
    def test_valid_frame_roundtrips(self):
        values = list(np.linspace(0, 1, FRAME_SIZE))
        np.testing.assert_array_equal(as_frame(values), np.array(values))

    def test_wrong_arity_rejected(self):
        with pytest.raises(DatasetError):
            as_frame([0.0] * 62)

    def test_non_finite_rejected(self):
        bad = [0.0] * FRAME_SIZE
        bad[10] = float("nan")
        with pytest.raises(DatasetError):
            as_frame(bad)

    def test_non_numeric_rejected(self):
        with pytest.raises(DatasetError):
            as_frame(["x"] * FRAME_SIZE)


class TestLabeledDataset:
    def test_label_set_derived_sorted(self):
        ds = make_dataset(["b", "a", "b"])
        assert ds.label_set == ("a", "b")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DatasetError):
            LabeledDataset(frames=np.zeros((2, FRAME_SIZE)), labels=("a",))

    def test_unsorted_explicit_label_set_rejected(self):
        with pytest.raises(DatasetError):
            LabeledDataset(
                frames=np.zeros((1, FRAME_SIZE)), labels=("a",), label_set=("b", "a")
            )

    def test_label_outside_label_set_rejected(self):
        with pytest.raises(DatasetError):
            LabeledDataset(
                frames=np.zeros((1, FRAME_SIZE)), labels=("c",), label_set=("a", "b")
            )

    def test_frames_immutable(self):
        ds = make_dataset(["a"])
        with pytest.raises(ValueError):
            ds.frames[0, 0] = 5.0


class TestSplit:
    def test_80_20_per_label_counts(self):
        # the stock regime: 1000 frames per label split 80/20
        spec = SyntheticSpec(
            label_set=DEFAULT_GESTURE_LABELS, frames_per_label=1000,
            noise_sigma=0.0, seed=1,
        )
        ds = generate_synthetic_dataset(spec)
        train, test = split_dataset(ds, 0.8, seed=9)
        assert train.label_counts() == {label: 800 for label in ds.label_set}
        assert test.label_counts() == {label: 200 for label in ds.label_set}

    def test_minimal_stratum(self):
        ds = make_dataset(["a", "a", "b", "b"])
        train, test = split_dataset(ds, 0.5, seed=0)
        assert train.label_counts() == {"a": 1, "b": 1}
        assert test.label_counts() == {"a": 1, "b": 1}

    def test_determinism(self):
        ds = make_dataset(list("aabbccdd") * 4)
        t1, s1 = split_dataset(ds, 0.7, seed=123)
        t2, s2 = split_dataset(ds, 0.7, seed=123)
        assert_datasets_equal(t1, t2)
        assert_datasets_equal(s1, s2)

    def test_partition_exact(self):
        rng = np.random.default_rng(5)
        labels = [rng.choice(["x", "y", "z"]) for _ in range(60)]
        ds = make_dataset(labels, rng=rng)
        train, test = split_dataset(ds, 0.66, seed=2)
        assert len(train) + len(test) == len(ds)
        # every original frame appears exactly once across the two parts
        combined = np.vstack([train.frames, test.frames])
        key = lambda arr: sorted(map(tuple, np.round(arr, 12)))
        assert key(combined) == key(ds.frames)

    def test_small_label_rejected(self):
        ds = make_dataset(["a", "b", "b"])
        with pytest.raises(DatasetError):
            split_dataset(ds, 0.5, seed=0)

    def test_bad_fraction_rejected(self):
        ds = make_dataset(["a", "a", "b", "b"])
        for frac in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DatasetError):
                split_dataset(ds, frac, seed=0)


class TestOneHot:
    def test_single_class(self):
        m = one_hot_encode(["a"], ["a"])
        assert m.tolist() == [[1]]
        assert m.dtype == np.int64 and not m.flags.writeable

    def test_two_class_example(self):
        # index oracle: row i has its 1 at label_set.index(labels[i])
        labels = ["b", "a", "b"]
        label_set = ["a", "b"]
        m = one_hot_encode(labels, label_set)
        assert m.tolist() == [[0, 1], [1, 0], [0, 1]]
        expected = np.zeros((3, 2), dtype=int)
        for i, lbl in enumerate(labels):
            expected[i, label_set.index(lbl)] = 1
        np.testing.assert_array_equal(m, expected)

    def test_row_and_column_sums(self):
        labels = ["a"] * 3 + ["c"] * 5 + ["b"] * 2
        m = one_hot_encode(labels, ["a", "b", "c"])
        assert m.sum(axis=1).tolist() == [1] * 10
        assert m.sum(axis=0).tolist() == [3, 2, 5]

    def test_unknown_label_rejected(self):
        with pytest.raises(DatasetError):
            one_hot_encode(["a", "q"], ["a", "b"])


class TestSynthetic:
    def test_zero_noise_frames_equal_prototypes(self):
        spec = SyntheticSpec(label_set=("u", "v"), frames_per_label=4, noise_sigma=0.0, seed=3)
        ds = generate_synthetic_dataset(spec)
        protos = synthetic_prototypes(spec)
        for frame, label in zip(ds.frames, ds.labels):
            np.testing.assert_array_equal(frame, protos[label])

    def test_counts(self):
        spec = SyntheticSpec(label_set=DEFAULT_GESTURE_LABELS, frames_per_label=1000, seed=0)
        ds = generate_synthetic_dataset(spec)
        assert len(ds) == 15000
        assert ds.label_counts() == {label: 1000 for label in DEFAULT_GESTURE_LABELS}

    def test_bitwise_determinism(self):
        spec = SyntheticSpec(label_set=("a", "b", "c"), frames_per_label=10, noise_sigma=0.3, seed=77)
        d1 = generate_synthetic_dataset(spec)
        d2 = generate_synthetic_dataset(spec)
        np.testing.assert_array_equal(d1.frames, d2.frames)
        assert d1.labels == d2.labels

    def test_prototype_separation(self):
        spec = SyntheticSpec(label_set=tuple("abcdef"), frames_per_label=1, noise_sigma=2.0, seed=5)
        protos = synthetic_prototypes(spec)
        mat = np.stack(list(protos.values()))
        for i in range(len(mat)):
            for j in range(i + 1, len(mat)):
                dist = np.linalg.norm(mat[i] - mat[j])
                assert dist >= PROTOTYPE_SEPARATION_FACTOR * spec.noise_sigma - 1e-9

    def test_nearest_prototype_is_perfect_at_zero_noise(self):
        spec = SyntheticSpec(label_set=("a", "b", "c"), frames_per_label=5, noise_sigma=0.0, seed=9)
        ds = generate_synthetic_dataset(spec)
        protos = synthetic_prototypes(spec)
        names = list(protos)
        mat = np.stack([protos[n] for n in names])
        d = ((ds.frames[:, None, :] - mat[None, :, :]) ** 2).sum(-1)
        predicted = [names[i] for i in d.argmin(1)]
        assert predicted == list(ds.labels)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DatasetError):
            SyntheticSpec(label_set=("a", "a"), frames_per_label=1)

    def test_invalid_spec_rejected(self):
        with pytest.raises(DatasetError):
            SyntheticSpec(label_set=("a",), frames_per_label=0)
        with pytest.raises(DatasetError):
            SyntheticSpec(label_set=("a",), noise_sigma=-0.1)


class TestFileIO:
    def test_csv_readback(self, tmp_path):
        path = str(tmp_path / "two.csv")
        rows = [
            "look_up," + ",".join(str(0.01 * i) for i in range(FRAME_SIZE)),
            "three," + ",".join(str(0.02 * i) for i in range(FRAME_SIZE)),
        ]
        with open(path, "w") as fh:
            fh.write(",".join(CSV_HEADER) + "\n")
            fh.write("\n".join(rows) + "\n")
        ds = load_landmark_dataset(path, format="csv")
        assert len(ds) == 2
        assert ds.labels == ("look_up", "three")
        assert ds.label_set == ("look_up", "three")
        assert ds.frames[1, 1] == pytest.approx(0.02)

    def test_csv_wrong_arity_names_line(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write(",".join(CSV_HEADER) + "\n")
            fh.write("ok," + ",".join(["0.0"] * FRAME_SIZE) + "\n")
            fh.write("bad," + ",".join(["0.0"] * (FRAME_SIZE - 1)) + "\n")
        with pytest.raises(ParseError, match="line 3"):
            load_landmark_dataset(path, format="csv")

    def test_csv_bad_header_rejected(self, tmp_path):
        path = str(tmp_path / "hdr.csv")
        with open(path, "w") as fh:
            fh.write("label,bogus\n")
        with pytest.raises(ParseError, match="line 1"):
            load_landmark_dataset(path, format="csv")

    def test_csv_non_numeric_names_line(self, tmp_path):
        path = str(tmp_path / "nn.csv")
        with open(path, "w") as fh:
            fh.write(",".join(CSV_HEADER) + "\n")
            fh.write("ok," + ",".join(["zzz"] + ["0.0"] * (FRAME_SIZE - 1)) + "\n")
        with pytest.raises(ParseError, match="line 2"):
            load_landmark_dataset(path, format="csv")

    def test_empty_file_rejected(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        open(path, "w").close()
        with pytest.raises(DatasetError):
            load_landmark_dataset(path, format="csv")

    def test_header_only_rejected(self, tmp_path):
        path = str(tmp_path / "hdronly.csv")
        with open(path, "w") as fh:
            fh.write(",".join(CSV_HEADER) + "\n")
        with pytest.raises(DatasetError):
            load_landmark_dataset(path, format="csv")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            load_landmark_dataset(str(tmp_path / "nope.csv"), format="csv")

    def test_jsonl_roundtrip(self, tmp_path):
        spec = SyntheticSpec(label_set=("a", "b"), frames_per_label=3, noise_sigma=0.2, seed=8)
        ds = generate_synthetic_dataset(spec)
        path = str(tmp_path / "ds.jsonl")
        save_landmark_dataset(ds, path)
        assert_datasets_equal(load_landmark_dataset(path), ds)

    def test_jsonl_bad_arity_names_line(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as fh:
            fh.write('{"label": "a", "coords": [1.0, 2.0]}\n')
        with pytest.raises(ParseError, match="line 1"):
            load_landmark_dataset(path, format="jsonl")

    def test_jsonl_unknown_key_rejected(self, tmp_path):
        path = str(tmp_path / "key.jsonl")
        coords = [0.0] * FRAME_SIZE
        with open(path, "w") as fh:
            fh.write('{"label": "a", "coords": %s, "extra": 1}\n' % coords)
        with pytest.raises(ParseError, match="line 1"):
            load_landmark_dataset(path, format="jsonl")

    def test_synthetic_csv_roundtrip_identical(self, tmp_path):
        # writer and loader must be mutually inverse, bit for bit
        spec = SyntheticSpec(
            label_set=("look_up", "three", "neutral"),
            frames_per_label=20,
            noise_sigma=0.05,
            seed=31,
        )
        ds = generate_synthetic_dataset(spec)
        path = str(tmp_path / "round.csv")
        save_landmark_dataset(ds, path)
        assert_datasets_equal(load_landmark_dataset(path), ds)

    def test_format_inference(self, tmp_path):
        spec = SyntheticSpec(label_set=("a", "b"), frames_per_label=2, seed=1)
        ds = generate_synthetic_dataset(spec)
        for name in ("d.csv", "d.jsonl"):
            path = str(tmp_path / name)
            save_landmark_dataset(ds, path)
            assert_datasets_equal(load_landmark_dataset(path), ds)


def read_outcome(path):
    """What loading ``path`` gives: its frame bytes and labels, or the
    type and message of the error it raises."""
    try:
        ds = load_landmark_dataset(path, format="csv")
    except DatasetError as exc:
        return type(exc), str(exc)
    return ds.frames.tobytes(), ds.labels


class TestCsvReaderAgainstRowReader:
    """The numpy pass over a CSV file must read exactly what the per-row
    csv reader reads, or leave the file to it."""

    LABELS = ("look_up", "two", "neutral")
    TOKENS = ["1_0", "١", "٣.٥", "\x1c1", " 1.5 ", "+1", ".5", "1e5",
              "nan", "inf", "1e400", "", "abc", "0x1", "1d5", " 1"]
    FLIP_CHARS = "0123456789.-+eE_x, \t\x1c١\r\n\""

    def base_rows(self, rng):
        return [
            [rng.choice(self.LABELS)]
            + [repr(rng.uniform(-2.0, 2.0)) for _ in range(FRAME_SIZE)]
            for _ in range(rng.randint(1, 5))
        ]

    def mutate(self, rng, rows):
        """(header line, data lines, line ending, BOM) after one seeded mutation."""
        header = ",".join(CSV_HEADER)
        lines = [",".join(row) for row in rows]
        newline, bom = "\n", ""
        i = rng.randrange(len(lines))
        kind = rng.randrange(12)
        if kind == 0:  # byte flip inside the coordinates
            start = len(rows[i][0]) + 1
            j = rng.randrange(start, len(lines[i]))
            lines[i] = lines[i][:j] + rng.choice(self.FLIP_CHARS) + lines[i][j + 1:]
        elif kind == 1:  # dropped field
            lines[i] = ",".join(rows[i][:-1])
        elif kind == 2:  # extra field
            lines[i] += "," + repr(rng.random())
        elif kind == 3:  # blank or whitespace-only line
            lines.insert(i, rng.choice(["", " ", "\t"]))
        elif kind == 4:
            newline = rng.choice(["\r\n", "\r"])
        elif kind == 5:  # quoted label, holding a comma or a quote
            quoted = rng.choice(['"{}"', '"{},x"', '"{}""q"', '"{},1.5"'])
            lines[i] = quoted.format(rows[i][0]) + "," + ",".join(rows[i][1:])
        elif kind == 6:  # a token float() and numpy's parser may read differently
            fields = list(rows[i])
            fields[rng.randrange(1, len(fields))] = rng.choice(self.TOKENS)
            lines[i] = ",".join(fields)
        elif kind == 7:
            bom = "\ufeff"
        elif kind == 8:  # bad header
            header = rng.choice([header.replace("x0", "q0"), "label,x0", header + ",z21"])
        elif kind == 9:  # a label with no coordinates
            lines[i] = rows[i][0] + rng.choice(["", ","])
        elif kind == 10:  # label only whitespace, or holding a separator numpy skips
            lines[i] = rng.choice([" ", "a\x1cb", "sp ace"]) + lines[i][len(rows[i][0]):]
        return header, lines, newline, bom

    @pytest.mark.filterwarnings("error")
    def test_fast_pass_matches_row_reader(self, tmp_path, monkeypatch):
        rng = random.Random(20240607)
        real_loadtxt = np.loadtxt
        fast_reads = []

        def counting_loadtxt(*args, **kwargs):
            frames = real_loadtxt(*args, **kwargs)
            fast_reads.append(frames.shape)
            return frames

        def no_loadtxt(*args, **kwargs):
            raise ValueError("numpy pass disabled")

        fast_ok = 0
        for case in range(400):
            header, lines, newline, bom = self.mutate(rng, self.base_rows(rng))
            path = tmp_path / f"case{case}.csv"
            text = bom + newline.join([header] + lines) + rng.choice(["", newline])
            path.write_bytes(text.encode("utf-8"))
            monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
            fast_reads.clear()
            fast = read_outcome(str(path))
            monkeypatch.setattr(np, "loadtxt", no_loadtxt)
            rows = read_outcome(str(path))
            assert fast == rows, (case, text)
            if fast_reads and isinstance(fast[0], bytes):
                fast_ok += 1
        assert fast_ok > 100  # so the comparison is not all fallback

    @staticmethod
    def one_row_file(tmp_path, token):
        path = tmp_path / "t.csv"
        path.write_text(",".join(CSV_HEADER) + "\na," + ",".join([token] * FRAME_SIZE) + "\n",
                        encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("token", ["1_0", "١", "٣.٥"])
    def test_tokens_numpy_rejects_reach_the_row_reader(self, tmp_path, token):
        assert load_landmark_dataset(self.one_row_file(tmp_path, token)).frames[0, 0] == float(token)

    @pytest.mark.parametrize("token", ["\x1c1", "1\x1d", "\x1e1", "1\x1f"])
    def test_separators_numpy_skips_stay_bad_coordinates(self, tmp_path, token):
        with pytest.raises(ParseError, match="line 2: frame is not numeric"):
            load_landmark_dataset(self.one_row_file(tmp_path, token))


class TestCsvWriter:
    LABELS = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "ünïcødé ✋",
              "", " lead", "trail "]

    def test_bytes_match_csv_writer(self, tmp_path):
        rng = np.random.default_rng(5)
        labels = tuple(self.LABELS[i % len(self.LABELS)] for i in range(27))
        ds = LabeledDataset(frames=rng.normal(0, 1e3, (27, FRAME_SIZE)) ** 3, labels=labels)
        path = tmp_path / "new.csv"
        save_landmark_dataset(ds, str(path))
        ref = tmp_path / "ref.csv"
        with open(ref, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for label, frame in zip(ds.labels, ds.frames):
                writer.writerow([label] + [repr(v) for v in frame.tolist()])
        assert path.read_bytes() == ref.read_bytes()
        assert_datasets_equal(load_landmark_dataset(str(path)), ds)
