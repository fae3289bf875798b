"""Voice-command resolution from transcribed speech.

The recognizer is training-free. A transcript is normalized, then scored
against every phrase in a command list with two similarities:

* cosine similarity between mean word-embedding vectors of the two phrases
  (clamped to [0, 1], and 0 whenever either phrase has no usable vector);
* Jaro-Winkler similarity between the two canonical phrase strings.

Their sum is the total similarity in [0, 2]. The best-scoring command wins
if and only if its total is strictly greater than 1; otherwise the input is
ignored. Ties break toward the earlier command in the list.
"""

from __future__ import annotations

import functools
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import VoiceError

WINKLER_PREFIX_SCALE = 0.1
WINKLER_MAX_PREFIX = 4
MATCH_THRESHOLD = 1.0  # accept only when total similarity exceeds this

#: The stock command vocabulary for the progress-monitoring CPS.
DEFAULT_COMMAND_PHRASES: tuple[str, ...] = (
    "look back",
    "look right",
    "look up",
    "look down",
    "look left",
    "move forward",
    "move back",
    "move left",
    "move right",
    "show reality",
    "hide reality",
    "enter reality",
    "show floor plan",
    "hide floor plan",
    "show schedule",
    "hide schedule",
    "zoom in",
    "zoom out",
    "go to kitchen",
)


@dataclass(frozen=True)
class TokenizedPhrase:
    """A phrase reduced to lowercase word tokens and their canonical join."""

    raw: str
    tokens: tuple[str, ...]

    @property
    def canonical(self) -> str:
        return " ".join(self.tokens)


def normalize_phrase(text: str) -> TokenizedPhrase:
    """Lowercase, drop punctuation (apostrophes survive), split on whitespace."""
    kept = []
    for ch in text.lower():
        if ch.isalnum() or ch == "'" or ch.isspace():
            kept.append(ch)
    tokens = tuple("".join(kept).split())
    return TokenizedPhrase(raw=text, tokens=tokens)


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Word -> vector lookup; all vectors share one dimension."""

    dimension: int
    entries: dict[str, np.ndarray]

    def __post_init__(self):
        if self.dimension < 1:
            raise VoiceError("embedding dimension must be >= 1")
        entries = {}
        for word, vec in self.entries.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (self.dimension,):
                raise VoiceError(
                    f"vector for {word!r} has shape {arr.shape}, "
                    f"expected ({self.dimension},)"
                )
            if not np.all(np.isfinite(arr)):
                raise VoiceError(f"vector for {word!r} has non-finite values")
            entries[word] = arr
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, word: str) -> bool:
        return word in self.entries


def load_embeddings(path: str) -> EmbeddingTable:
    """Read a word2vec-style text table: ``word v1 v2 ... vd`` per line.

    A first line of exactly two integers (count and dimension) is treated as
    a header and skipped. Later duplicates of a word replace earlier ones
    with a warning; a dimension mismatch is an error naming the line.
    """
    if not os.path.exists(path):
        raise VoiceError(f"embedding table not found: {path}")
    entries: dict[str, np.ndarray] = {}
    dimension: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2 and _both_ints(parts):
                continue  # gensim-style "N d" header
            word, values = parts[0], parts[1:]
            if not values:
                raise VoiceError(f"{path} line {lineno}: no vector values")
            if dimension is None:
                dimension = len(values)
            elif len(values) != dimension:
                raise VoiceError(
                    f"{path} line {lineno}: expected {dimension} values, "
                    f"got {len(values)}"
                )
            try:
                vec = np.array([float(v) for v in values])
            except ValueError:
                raise VoiceError(f"{path} line {lineno}: non-numeric value") from None
            if word in entries:
                warnings.warn(f"duplicate embedding for {word!r}; keeping the last")
            entries[word] = vec
    if dimension is None:
        raise VoiceError(f"{path}: no embedding entries")
    return EmbeddingTable(dimension=dimension, entries=entries)


def _both_ints(parts: list[str]) -> bool:
    try:
        int(parts[0]), int(parts[1])
        return True
    except ValueError:
        return False


def phrase_vector(phrase: TokenizedPhrase, table: EmbeddingTable) -> np.ndarray:
    """Mean vector of the phrase's in-vocabulary tokens; zeros if none."""
    if len(table) == 0:
        raise VoiceError("embedding table is empty")
    vectors = [table.entries[t] for t in phrase.tokens if t in table]
    if not vectors:
        return np.zeros(table.dimension)
    return np.mean(vectors, axis=0)


def cosine_similarity(a, b) -> float:
    """Clamped cosine: max(0, a.b / (|a||b|)), and 0 if either norm is 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise VoiceError(f"vector length mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return max(0.0, float(np.dot(a, b) / (na * nb)))


@functools.lru_cache(maxsize=1024)
def _char_positions(s: str) -> dict[str, tuple[int, ...]]:
    """Each character of ``s`` -> its indices in ``s``, ascending.

    The cached dict is shared by every caller, so it must not be mutated."""
    positions: dict[str, list[int]] = {}
    for j, ch in enumerate(s):
        positions.setdefault(ch, []).append(j)
    return {ch: tuple(js) for ch, js in positions.items()}


def jaro(s1: str, s2: str) -> float:
    """Jaro similarity over characters.

    Characters match within a window of max(0, floor(max(len)/2) - 1), each
    at most once; half the out-of-order matched pairs count as
    transpositions. Two empty strings score 1, no matches score 0.

    Each character of ``s1`` takes the first unmatched equal character of
    ``s2`` in its window, looked up in a position map of ``s2``.
    """
    if not s1 and not s2:
        return 1.0
    if not s1 or not s2:
        return 0.0
    len1, len2 = len(s1), len(s2)
    window = max(0, max(len1, len2) // 2 - 1)
    positions = _char_positions(s2)

    s2_hit = [False] * len2
    s1_matched: list[str] = []
    # Past i = len2 + window - 1 no index of s2 is in the window.
    for i, ch in enumerate(s1[: len2 + window]):
        for j in positions.get(ch, ()):
            if j > i + window:
                break
            if j >= i - window and not s2_hit[j]:
                s2_hit[j] = True
                s1_matched.append(ch)
                break
    matches = len(s1_matched)
    if matches == 0:
        return 0.0

    s2_matched = [ch for ch, hit in zip(s2, s2_hit) if hit]
    mismatched = sum(a != b for a, b in zip(s1_matched, s2_matched))
    transpositions = mismatched / 2.0
    return (
        matches / len1 + matches / len2 + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler(s1: str, s2: str) -> float:
    """Jaro boosted by a shared prefix: j + l * 0.1 * (1 - j), l capped at 4."""
    j = jaro(s1, s2)
    prefix = 0
    for c1, c2 in zip(s1, s2):
        if c1 != c2 or prefix >= WINKLER_MAX_PREFIX:
            break
        prefix += 1
    return j + prefix * WINKLER_PREFIX_SCALE * (1.0 - j)


@dataclass(frozen=True)
class Command:
    """One recognizable command: the spoken phrase and the action it triggers."""

    phrase: str
    action_id: str


@dataclass(frozen=True, eq=False)
class CommandList:
    """The commands, plus what resolving needs of their phrases, computed once:
    each canonical string, all tokens in one tuple, and a (C, T) 0/1 matrix
    whose row c marks the tokens of command c."""

    commands: tuple[Command, ...]
    _canonicals: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _tokens: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _token_owner: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        commands = tuple(self.commands)
        if not commands:
            raise VoiceError("command list is empty")
        phrases = [normalize_phrase(cmd.phrase) for cmd in commands]
        canonicals = tuple(p.canonical for p in phrases)
        seen: set[str] = set()
        for cmd, canonical in zip(commands, canonicals):
            if not canonical:
                raise VoiceError(f"command phrase {cmd.phrase!r} normalizes to nothing")
            if canonical in seen:
                raise VoiceError(f"duplicate command phrase {cmd.phrase!r}")
            seen.add(canonical)
        tokens = tuple(t for p in phrases for t in p.tokens)
        owner = np.repeat(np.eye(len(commands)), [len(p.tokens) for p in phrases], axis=1)
        owner.flags.writeable = False
        object.__setattr__(self, "commands", commands)
        object.__setattr__(self, "_canonicals", canonicals)
        object.__setattr__(self, "_tokens", tokens)
        object.__setattr__(self, "_token_owner", owner)

    def __len__(self) -> int:
        return len(self.commands)

    def __iter__(self):
        return iter(self.commands)


def snake_case_action(phrase: str) -> str:
    return "_".join(normalize_phrase(phrase).tokens)


def default_command_list() -> CommandList:
    """The stock 19 commands, action ids snake_cased from the phrases."""
    return CommandList(
        commands=tuple(
            Command(phrase=p, action_id=snake_case_action(p))
            for p in DEFAULT_COMMAND_PHRASES
        )
    )


def load_command_list(path: str) -> CommandList:
    """Read ``action_id<TAB>phrase`` lines into a CommandList."""
    if not os.path.exists(path):
        raise VoiceError(f"command list not found: {path}")
    commands = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.rstrip("\n")
            if not stripped.strip():
                continue
            if "\t" not in stripped:
                raise VoiceError(f"{path} line {lineno}: expected action_id<TAB>phrase")
            action_id, phrase = stripped.split("\t", 1)
            if not action_id or not phrase.strip():
                raise VoiceError(f"{path} line {lineno}: empty action_id or phrase")
            commands.append(Command(phrase=phrase.strip(), action_id=action_id))
    if not commands:
        raise VoiceError(f"{path}: no commands")
    return CommandList(commands=tuple(commands))


@dataclass(frozen=True)
class CandidateScore:
    phrase: str
    cosine: float
    jaro_winkler: float

    @property
    def total(self) -> float:
        return self.cosine + self.jaro_winkler


@dataclass(frozen=True)
class MatchResult:
    """Outcome of resolving one transcript against a command list.

    ``matched`` is the (action_id, phrase) of the best command when its total
    similarity exceeds 1, else None; ``per_candidate`` keeps command order.
    """

    matched: tuple[str, str] | None
    per_candidate: tuple[CandidateScore, ...]
    transcript: TokenizedPhrase


def resolve_command(
    transcript: str, commands: CommandList, table: EmbeddingTable
) -> MatchResult:
    """Score the transcript against every command and apply the >1 threshold.

    Per transcript: one normalize and one phrase vector, one gather of the
    command-token vectors from the table (read afresh, so later edits to
    ``table.entries`` count), then one product that sums each command's
    token vectors and one that dots the sums with the transcript vector.
    A sum has the cosine of the mean, so only the last bits can differ
    from :func:`cosine_similarity` of the mean vectors.
    """
    phrase = normalize_phrase(transcript)
    tvec = phrase_vector(phrase, table)
    absent = np.zeros(table.dimension)
    token_vecs = np.array([table.entries.get(t, absent) for t in commands._tokens])
    sums = commands._token_owner @ token_vecs
    norms = np.linalg.norm(sums, axis=1) * np.linalg.norm(tvec)
    with np.errstate(divide="ignore", invalid="ignore"):
        cosines = (sums @ tvec) / norms
    cosines[~(cosines > 0.0)] = 0.0  # clamp at 0; a zero norm gives 0/0 -> 0
    scored: list[CandidateScore] = []
    best_idx = 0
    best_total = float("-inf")
    for idx, (cmd, canonical, cos) in enumerate(
        zip(commands.commands, commands._canonicals, cosines.tolist())
    ):
        jw = jaro_winkler(phrase.canonical, canonical)
        scored.append(CandidateScore(phrase=cmd.phrase, cosine=cos, jaro_winkler=jw))
        if scored[-1].total > best_total:
            best_total = scored[-1].total
            best_idx = idx
    matched = None
    if best_total > MATCH_THRESHOLD:
        best_cmd = commands.commands[best_idx]
        matched = (best_cmd.action_id, best_cmd.phrase)
    return MatchResult(
        matched=matched, per_candidate=tuple(scored), transcript=phrase
    )
