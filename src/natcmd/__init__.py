"""natcmd: hand-gesture and voice-command recognition for CPS control.

The package turns streams of hand-landmark frames (63 values: 21 landmarks
times x, y, z) and speech transcripts into discrete command events. See the
README for a tour; the ``demos/`` scripts walk through each capability.
"""

from .classifiers import (
    GestureModel,
    MlpConfig,
    Prediction,
    SvmConfig,
    compute_mlp_gradients,
    load_model,
    predict,
    predict_batch,
    save_model,
    train_linear_svm,
    train_mlp,
)
from .dataset import (
    DEFAULT_GESTURE_LABELS,
    FRAME_SIZE,
    LabeledDataset,
    SyntheticSpec,
    as_frame,
    generate_synthetic_dataset,
    load_landmark_dataset,
    one_hot_encode,
    read_frames,
    save_landmark_dataset,
    split_dataset,
    synthetic_prototypes,
)
from .dispatch import (
    CommandEvent,
    ReplayClock,
    StabilityPolicy,
    decode_event,
    encode_event,
    read_transcripts,
    run_gesture_stream,
    run_voice_stream,
)
from .errors import NatcmdError
from .metrics import (
    ConfusionMatrix,
    EvaluationReport,
    accuracy,
    confusion_matrix,
    evaluate_model,
    f1,
    macro_precision,
    macro_recall,
    render_report,
    report_to_dict,
)
from .voice import (
    Command,
    CommandList,
    EmbeddingTable,
    MatchResult,
    cosine_similarity,
    default_command_list,
    jaro,
    jaro_winkler,
    load_command_list,
    load_embeddings,
    normalize_phrase,
    phrase_vector,
    resolve_command,
)

__version__ = "0.1.0"
