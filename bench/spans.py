"""Span tracing for the benchmark's traced run.

Wrappers live here, never in the package: :func:`traced` rebinds the module
attributes of natcmd's public functions (including the names other natcmd
modules imported) to span-recording wrappers, and puts the originals back on
exit. A span is ``[name, start_ns, end_ns, parent, input]``; spans stay in
memory until :func:`write_spans` writes them out after the run.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import numpy as np

import natcmd.classifiers
import natcmd.cli
import natcmd.dataset
import natcmd.dispatch
import natcmd.metrics
import natcmd.voice

_now = time.perf_counter_ns


class Tracer:
    """Nested spans in call order; ``input`` is the frame or poll being served."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.input = -1
        self.svm_epochs = 0

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _now(), 0, parent, self.input])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self.stack.pop()


def _wrap(tracer: Tracer, fn, name):
    """Span around every call; ``name`` is a string or a function of the args."""
    fixed = name if isinstance(name, str) else None

    def wrapper(*args, **kwargs):
        idx = tracer.begin(fixed or name(args))
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)

    return wrapper


def _wrap_svm_training(tracer: Tracer, fn):
    """Span around SVM training that also counts epochs via ``objective_log``."""

    def wrapper(train, cfg=natcmd.classifiers.SvmConfig(), objective_log=None):
        log = [] if objective_log is None else objective_log
        idx = tracer.begin("classifiers.train_svm")
        try:
            return fn(train, cfg, objective_log=log)
        finally:
            tracer.end(idx)
            tracer.svm_epochs += len(log)

    return wrapper


# (module, attribute, span name) for every public function the benchmark
# reaches, listed once per module that holds a reference to it.
_SPANNED = (
    (natcmd.cli, "run_cli", lambda a: "cli." + a[0][0]),
    (natcmd.dataset, "generate_synthetic_dataset", "dataset.generate"),
    (natcmd.dataset, "save_landmark_dataset", "dataset.save_csv"),
    (natcmd.dataset, "load_landmark_dataset", "dataset.load_csv"),
    (natcmd.dataset, "split_dataset", "dataset.split"),
    (natcmd.dataset, "as_frame", "dataset.as_frame"),
    (natcmd.classifiers, "as_frame", "dataset.as_frame"),
    (natcmd.dispatch, "as_frame", "dataset.as_frame"),
    (natcmd.classifiers, "train_mlp", "classifiers.train_mlp"),
    (natcmd.classifiers, "save_model", "classifiers.save_model"),
    (natcmd.classifiers, "load_model", "classifiers.load_model"),
    (natcmd.classifiers, "predict", lambda a: "classifiers.predict." + a[0].kind),
    (natcmd.dispatch, "predict", lambda a: "classifiers.predict." + a[0].kind),
    (natcmd.classifiers, "predict_batch", "classifiers.predict_batch"),
    (natcmd.metrics, "predict_batch", "classifiers.predict_batch"),
    (natcmd.metrics, "evaluate_model", lambda a: "metrics.evaluate." + a[0].kind),
    (natcmd.metrics, "confusion_matrix", "metrics.confusion_matrix"),
    (natcmd.dispatch, "run_gesture_stream", "dispatch.run_gesture_stream"),
    (natcmd.dispatch, "run_voice_stream", "dispatch.run_voice_stream"),
    (natcmd.dispatch, "encode_event", "dispatch.encode_event"),
    (natcmd.voice, "load_embeddings", "voice.load_embeddings"),
    (natcmd.voice, "default_command_list", "voice.default_command_list"),
    (natcmd.voice, "resolve_command", "voice.resolve"),
    (natcmd.dispatch, "resolve_command", "voice.resolve"),
    (natcmd.voice, "normalize_phrase", "voice.normalize"),
    (natcmd.voice, "phrase_vector", "voice.phrase_vector"),
    (natcmd.voice, "cosine_similarity", "voice.cosine"),
    (natcmd.voice, "jaro_winkler", "voice.jaro_winkler"),
)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Rebind natcmd's public functions to span wrappers for the block."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in _SPANNED]
    saved.append((natcmd.classifiers, "train_linear_svm",
                  natcmd.classifiers.train_linear_svm))
    try:
        for mod, attr, name in _SPANNED:
            setattr(mod, attr, _wrap(tracer, getattr(mod, attr), name))
        natcmd.classifiers.train_linear_svm = _wrap_svm_training(
            tracer, natcmd.classifiers.train_linear_svm)
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _percentile_us(ns_values, q: float) -> float:
    return float(np.percentile(np.asarray(ns_values, dtype=np.float64), q)) / 1e3


def layer_metrics(tracer: Tracer, counts: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one traced round; ``counts`` holds the round's
    stream outcomes (gesture events, processed and skipped frames, voice
    events, non-silent polls, wire bytes).

    ``dispatch.*_self_us`` is an input's span minus its children, the sink's
    span among them, so it holds the runner's own code plus a fixed share of
    tracing: one generator switch and the span bookkeeping around each child.
    """
    spans = tracer.spans
    n = len(spans)
    dur = np.fromiter((s[2] - s[1] for s in spans), dtype=np.int64, count=n)
    child = np.zeros(n, dtype=np.int64)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    self_ns = dur - child

    total = defaultdict(int)
    self_total = defaultdict(int)
    calls = defaultdict(int)
    durs = defaultdict(list)
    selfs = defaultdict(list)
    for i, s in enumerate(spans):
        name = s[0]
        parent = spans[s[3]][0] if s[3] >= 0 else ""
        if parent == "voice.resolve":
            name = "resolve/" + name
        elif name == "dataset.as_frame" and _under(spans, i, "dispatch.run_gesture_stream"):
            name = "stream/" + name
        total[name] += int(dur[i])
        self_total[name] += int(self_ns[i])
        calls[name] += 1
        durs[name].append(int(dur[i]))
        selfs[name].append(int(self_ns[i]))

    def sec(table, *names):
        return sum(table[x] for x in names) / 1e9

    def p50_us(table, name):
        return _percentile_us(table[name], 50) if table[name] else 0.0

    def p99_us(table, name):
        return _percentile_us(table[name], 99) if table[name] else 0.0

    resolves = calls["voice.resolve"]

    def per_resolve(name):
        return calls["resolve/" + name] / resolves if resolves else 0.0

    processed = counts["frames_processed"]
    nonsilent = counts["nonsilent_polls"]
    m = {
        "cli.gen_data_self_s": (sec(self_total, "cli.gen-data"), "s"),
        "cli.train_self_s": (sec(self_total, "cli.train"), "s"),
        "cli.evaluate_self_s": (sec(self_total, "cli.evaluate"), "s"),
        "dataset.generate_s": (sec(total, "dataset.generate"), "s"),
        "dataset.save_csv_s": (sec(total, "dataset.save_csv"), "s"),
        "dataset.load_csv_s": (sec(total, "dataset.load_csv"), "s"),
        "dataset.load_csv_calls": (calls["dataset.load_csv"], "count"),
        "dataset.split_s": (sec(total, "dataset.split"), "s"),
        "dataset.as_frame_calls": (calls["stream/dataset.as_frame"], "count"),
        "dataset.as_frame_us": (p50_us(durs, "stream/dataset.as_frame"), "us"),
        "classifiers.train_svm_s": (sec(total, "classifiers.train_svm"), "s"),
        "classifiers.svm_epochs": (tracer.svm_epochs, "count"),
        "classifiers.train_mlp_s": (sec(total, "classifiers.train_mlp"), "s"),
        "classifiers.save_model_s": (sec(total, "classifiers.save_model"), "s"),
        "classifiers.load_model_s": (sec(total, "classifiers.load_model"), "s"),
        "classifiers.predict_calls": (
            calls["classifiers.predict.svm"] + calls["classifiers.predict.mlp"], "count"),
        "classifiers.predict_svm_self_us_p50": (p50_us(selfs, "classifiers.predict.svm"), "us"),
        "classifiers.predict_svm_self_us_p99": (p99_us(selfs, "classifiers.predict.svm"), "us"),
        "classifiers.predict_mlp_self_us_p50": (p50_us(selfs, "classifiers.predict.mlp"), "us"),
        "classifiers.predict_mlp_self_us_p99": (p99_us(selfs, "classifiers.predict.mlp"), "us"),
        "classifiers.predict_batch_s": (sec(total, "classifiers.predict_batch"), "s"),
        "metrics.evaluate_svm_s": (sec(total, "metrics.evaluate.svm"), "s"),
        "metrics.evaluate_mlp_s": (sec(total, "metrics.evaluate.mlp"), "s"),
        "metrics.evaluate_self_s": (
            sec(self_total, "metrics.evaluate.svm", "metrics.evaluate.mlp"), "s"),
        "metrics.confusion_matrix_s": (sec(total, "metrics.confusion_matrix"), "s"),
        "dispatch.gesture_self_us": (p50_us(selfs, "dispatch.gesture_frame"), "us"),
        "dispatch.gesture_events": (counts["gesture_events"], "count"),
        "dispatch.frames_skipped": (counts["frames_skipped"], "count"),
        "dispatch.emit_ratio": (
            counts["gesture_events"] / processed if processed else 0.0, "ratio"),
        "dispatch.encode_us": (p50_us(durs, "dispatch.encode_event"), "us"),
        "dispatch.wire_bytes": (counts["wire_bytes"], "B"),
        "dispatch.voice_self_us": (p50_us(selfs, "dispatch.voice_poll"), "us"),
        "dispatch.voice_events": (counts["voice_events"], "count"),
        "voice.load_embeddings_s": (sec(total, "voice.load_embeddings"), "s"),
        "voice.resolve_calls": (resolves, "count"),
        "voice.resolve_p50_us": (p50_us(durs, "voice.resolve"), "us"),
        "voice.resolve_p99_us": (p99_us(durs, "voice.resolve"), "us"),
        "voice.resolve_self_s": (sec(self_total, "voice.resolve"), "s"),
        "voice.accept_ratio": (
            counts["voice_events"] / nonsilent if nonsilent else 0.0, "ratio"),
    }
    for child_name in ("normalize", "phrase_vector", "cosine", "jaro_winkler"):
        key = "resolve/voice." + child_name
        m[f"voice.{child_name}_calls_per_resolve"] = (per_resolve("voice." + child_name), "ratio")
        m[f"voice.{child_name}_self_s"] = (sec(self_total, key), "s")
    return m


def _under(spans, i: int, ancestor: str) -> bool:
    parent = spans[i][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False
