"""Command-line interface.

Subcommands: gen-data, train, evaluate, predict, match, run. Machine-readable
results (JSON or NDJSON) go to stdout; diagnostics go to stderr. Exit codes:
0 success, 1 usage error, 2 data or model error. Defaults for flags marked
with an environment name can be overridden via NATCMD_* variables.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import classifiers, dataset, dispatch, metrics, voice
from .errors import NatcmdError

USAGE_EXIT = 1
DATA_EXIT = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _env(name: str, fallback, cast=str):
    raw = os.environ.get(f"NATCMD_{name}")
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise _UsageError(f"environment variable NATCMD_{name} has bad value {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="natcmd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="generate a synthetic landmark dataset")
    p.add_argument("--labels", default=_env("LABELS", "default15"),
                   help="'default15' or a comma-separated label list [NATCMD_LABELS]")
    p.add_argument("--per-label", type=int, default=_env("PER_LABEL", 1000, int))
    p.add_argument("--sigma", type=float, default=_env("SIGMA", 0.01, float),
                   help="per-coordinate noise std dev [NATCMD_SIGMA]")
    p.add_argument("--seed", type=int, default=_env("SEED", 42, int))
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default=None,
                   help="default: inferred from the output extension")

    p = sub.add_parser("train", help="train a gesture classifier")
    p.add_argument("--kind", choices=(classifiers.SVM_KIND, classifiers.MLP_KIND), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("-o", "--output", required=True, help="model file (JSON)")
    p.add_argument("--split", type=float, default=None,
                   help="train on the train side of a stratified split at this fraction")
    p.add_argument("--seed", type=int, default=_env("SEED", 42, int))
    p.add_argument("--c", type=float, default=1.0, help="svm regularization parameter")
    p.add_argument("--max-epochs", type=int, default=1000, help="svm epoch cap")
    p.add_argument("--tolerance", type=float, default=1e-4, help="svm stop threshold")
    p.add_argument("--hidden", type=int, default=30, help="mlp hidden units")
    p.add_argument("--lr", type=float, default=1e-3, help="mlp learning rate")
    p.add_argument("--batch-size", type=int, default=32, help="mlp batch size")
    p.add_argument("--epochs", type=int, default=50, help="mlp epochs")

    p = sub.add_parser("evaluate", help="evaluate a model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", type=float, default=None,
                   help="evaluate on the test side of a stratified split at this fraction")
    p.add_argument("--seed", type=int, default=_env("SEED", 42, int))
    p.add_argument("--table", action="store_true",
                   help="also render a plain-text table on stderr")

    p = sub.add_parser("predict", help="classify one frame file")
    p.add_argument("--model", required=True)
    p.add_argument("--frame", required=True,
                   help="file whose first line is 63 comma-separated numbers")

    p = sub.add_parser("match", help="resolve one transcript")
    p.add_argument("--commands", default=_env("COMMANDS", "default19"),
                   help="'default19' or a TSV file action_id<TAB>phrase [NATCMD_COMMANDS]")
    p.add_argument("--embeddings", default=_env("EMBEDDINGS", None), required="NATCMD_EMBEDDINGS" not in os.environ,
                   help="word2vec-style text embedding table [NATCMD_EMBEDDINGS]")
    p.add_argument("--text", required=True)

    p = sub.add_parser("run",
                       help="replay frame/transcript sources as NDJSON command events")
    p.add_argument("--model", help="gesture model (required with --frames)")
    p.add_argument("--frames", help="frame source: dataset csv/jsonl or raw 63-number lines")
    p.add_argument("--transcripts", help="transcript file, one poll per line, blank = silence")
    p.add_argument("--commands", default=_env("COMMANDS", "default19"))
    p.add_argument("--embeddings", default=_env("EMBEDDINGS", None))
    p.add_argument("--k", type=int, default=_env("K", 5, int),
                   help="consecutive agreeing frames required [NATCMD_K]")
    p.add_argument("--suppress", default=_env("SUPPRESS", "neutral"),
                   help="gesture label that never emits [NATCMD_SUPPRESS]")

    return parser


def _parse_labels(arg: str) -> tuple[str, ...]:
    if arg == "default15":
        return dataset.DEFAULT_GESTURE_LABELS
    labels = tuple(x.strip() for x in arg.split(",") if x.strip())
    if not labels:
        raise _UsageError("--labels must name at least one label")
    return labels


def _from_flags(config_type, **values):
    """Build a config object from flag values; a value it rejects is a
    usage error, not a data error."""
    try:
        return config_type(**values)
    except NatcmdError as exc:
        raise _UsageError(str(exc)) from None


def _load_split(args, side: int) -> dataset.LabeledDataset:
    """The --data dataset, or side 0 (train) or 1 (test) of its --split."""
    if args.split is not None and not 0.0 < args.split < 1.0:
        raise _UsageError(f"train_fraction must be in (0, 1), got {args.split}")
    ds = dataset.load_landmark_dataset(args.data)
    if args.split is not None:
        ds = dataset.split_dataset(ds, args.split, args.seed)[side]
    return ds


def _load_commands(arg: str) -> voice.CommandList:
    if arg == "default19":
        return voice.default_command_list()
    return voice.load_command_list(arg)


def _cmd_gen_data(args) -> int:
    spec = _from_flags(
        dataset.SyntheticSpec,
        label_set=_parse_labels(args.labels),
        frames_per_label=args.per_label,
        noise_sigma=args.sigma,
        seed=args.seed,
    )
    ds = dataset.generate_synthetic_dataset(spec)
    dataset.save_landmark_dataset(ds, args.output, format=args.format)
    print(json.dumps({
        "path": args.output,
        "frames": len(ds),
        "labels": list(ds.label_set),
        "seed": args.seed,
    }))
    return 0


def _cmd_train(args) -> int:
    if args.kind == classifiers.SVM_KIND:
        cfg = _from_flags(
            classifiers.SvmConfig,
            c=args.c, max_epochs=args.max_epochs, tolerance=args.tolerance, seed=args.seed,
        )
        train = classifiers.train_linear_svm
    else:
        cfg = _from_flags(
            classifiers.MlpConfig,
            hidden_units=args.hidden, learning_rate=args.lr,
            batch_size=args.batch_size, epochs=args.epochs, seed=args.seed,
        )
        train = classifiers.train_mlp
    ds = _load_split(args, 0)
    model = train(ds, cfg)
    classifiers.save_model(model, args.output)
    print(json.dumps({
        "kind": model.kind,
        "labels": list(model.label_set),
        "frames_trained": len(ds),
        "training_time_ms": model.training_time_ms,
        "model_path": args.output,
    }))
    return 0


def _cmd_evaluate(args) -> int:
    model = classifiers.load_model(args.model)
    ds = _load_split(args, 1)
    report = metrics.evaluate_model(model, ds)
    print(metrics.report_to_json(report))
    if args.table:
        print(metrics.render_report(report), file=sys.stderr)
    return 0


def _raw_frame_lines(fh):
    """(line number, fields) for each non-blank line of a raw frame file.

    A line is 63 comma-separated numbers; empty fields, such as the one a
    trailing comma leaves, are dropped. Validation is left to as_frame.
    """
    for lineno, line in enumerate(fh, start=1):
        if line.strip():
            yield lineno, [v for v in line.strip().split(",") if v.strip()]


def _read_frame_file(path: str):
    if not os.path.exists(path):
        raise NatcmdError(f"frame file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, fields in _raw_frame_lines(fh):
            return dataset.frame_from_fields(fields, lineno)
    raise NatcmdError(f"{path}: no frame line found")


def _cmd_predict(args) -> int:
    model = classifiers.load_model(args.model)
    frame = _read_frame_file(args.frame)
    pred = classifiers.predict(model, frame)
    print(json.dumps({
        "label": pred.label,
        "scores": {lbl: float(s) for lbl, s in zip(model.label_set, pred.scores)},
        "elapsed_ms": pred.elapsed_ms,
    }))
    return 0


def _cmd_match(args) -> int:
    commands = _load_commands(args.commands)
    if not args.embeddings:
        raise _UsageError("--embeddings is required for match")
    table = voice.load_embeddings(args.embeddings)
    result = voice.resolve_command(args.text, commands, table)
    print(json.dumps({
        "matched": (
            {"action": result.matched[0], "phrase": result.matched[1]}
            if result.matched else None
        ),
        "transcript": result.transcript.canonical,
        "candidates": [
            {"phrase": c.phrase, "cosine": c.cosine,
             "jaro_winkler": c.jaro_winkler, "total": c.total}
            for c in result.per_candidate
        ],
    }))
    return 0


def _iter_replay_frames(path: str, clock: dispatch.ReplayClock):
    """Frames from a dataset file or a raw line feed, ticking the replay clock."""
    if not os.path.exists(path):
        raise NatcmdError(f"frame source not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    if first.startswith("label,"):
        ds = dataset.load_landmark_dataset(path, format="csv")
        rows = list(ds.frames)
    elif first.lstrip().startswith("{"):
        ds = dataset.load_landmark_dataset(path, format="jsonl")
        rows = list(ds.frames)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            rows = [fields for _, fields in _raw_frame_lines(fh)]
    return clock.drive(rows, dispatch.REPLAY_FRAME_INTERVAL_MS)


def _cmd_run(args) -> int:
    want_gesture = args.frames is not None
    want_voice = args.transcripts is not None
    if not want_gesture and not want_voice:
        raise _UsageError("run needs --frames and/or --transcripts")
    if want_gesture and not args.model:
        raise _UsageError("--frames requires --model")
    if want_voice and not args.embeddings:
        raise _UsageError("--transcripts requires --embeddings")
    if want_gesture:
        policy = _from_flags(dispatch.StabilityPolicy, k=args.k, suppress_label=args.suppress)

    # Every input is loaded and checked before either replay starts.
    if want_gesture:
        model = classifiers.load_model(args.model)
        gesture_clock = dispatch.ReplayClock()
        frames = _iter_replay_frames(args.frames, gesture_clock)
    if want_voice:
        commands = _load_commands(args.commands)
        table = voice.load_embeddings(args.embeddings)
        voice_clock = dispatch.ReplayClock()
        provider = dispatch.CannedTranscriptionProvider.from_file(
            args.transcripts, clock=voice_clock
        )

    events: list[dispatch.CommandEvent] = []
    summary: dict = {}
    if want_gesture:
        summary["gesture"] = dispatch.run_gesture_stream(
            model, frames, policy, events.append, clock=gesture_clock.now
        )
    if want_voice:
        summary["voice"] = dispatch.run_voice_stream(
            provider, commands, table, events.append, clock=voice_clock.now
        )
    # One timeline: a stable sort keeps gesture events first on equal times.
    events.sort(key=lambda ev: ev.ts_ms)
    sys.stdout.writelines(dispatch.encode_event(ev) for ev in events)
    sys.stdout.flush()
    print(json.dumps({k: asdict(v) for k, v in summary.items()}), file=sys.stderr)
    return 0


_HANDLERS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "match": _cmd_match,
    "run": _cmd_run,
}


def run_cli(argv: list[str]) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print("run 'natcmd --help' for usage", file=sys.stderr)
        return USAGE_EXIT
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code in (0, None) else USAGE_EXIT
    except NatcmdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DATA_EXIT


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
