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

import itertools
import math
import operator
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import _open_input
from .errors import VoiceError

WINKLER_PREFIX_SCALE = 0.1
WINKLER_MAX_PREFIX = 4
MATCH_THRESHOLD = 1.0  # accept only when total similarity exceeds this
_DROPPED = re.compile(r"[^\w\s']|_")  # keeps what is isalnum(), isspace() or "'"

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

    tokens: tuple[str, ...]

    @property
    def canonical(self) -> str:
        return " ".join(self.tokens)


def normalize_phrase(text: str) -> TokenizedPhrase:
    """Lowercase, drop punctuation (apostrophes survive), split on whitespace."""
    return TokenizedPhrase(tokens=tuple(_DROPPED.sub("", text.lower()).split()))


#: The largest magnitude an embedding value may have. With |v| <= 1e100, a
#: sum of n token vectors of dimension d has components within n * 1e100,
#: so its squared norm is at most d * n^2 * 1e200 and its dot with a
#: transcript vector at most d * n * 1e200: finite (below 1.8e308) for any
#: d * n^2 under 1e108, so for any table and command list that fit in memory.
MAX_MAGNITUDE = 1e100
#: The smallest magnitude a nonzero embedding value may have. Doubles of
#: magnitude >= 1e-100 are multiples of 2^-385 (their spacing near 1e-100),
#: so a sum of them is 0 or at least 2^-385 > 1e-116, and a mean of n < 2^53
#: vectors has each nonzero component over 1e-132. Every norm of a nonzero
#: sum or mean is then over 1e-132, and a product of two over 1e-264: none
#: underflows to 0.
MIN_MAGNITUDE = 1e-100


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Word -> vector lookup; all vectors share one dimension, and every
    value is 0 or of magnitude from MIN_MAGNITUDE to MAX_MAGNITUDE."""

    dimension: int
    entries: dict[str, np.ndarray]

    def __post_init__(self):
        if self.dimension < 1:
            raise VoiceError("embedding dimension must be >= 1")
        entries = {}
        for word, vec in self.entries.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (self.dimension,):
                _check_values(entries)  # an earlier bad vector is named first
                raise VoiceError(
                    f"vector for {word!r} has shape {arr.shape}, "
                    f"expected ({self.dimension},)"
                )
            entries[word] = arr
        _check_values(entries)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _checked(cls, dimension: int, entries: dict[str, np.ndarray]) -> "EmbeddingTable":
        """The table of float64 vectors the caller has checked, with no second check."""
        table = object.__new__(cls)
        table.__dict__.update(dimension=dimension, entries=entries)
        return table

    def __len__(self) -> int:
        return len(self.entries)


def _in_range(magnitudes: np.ndarray) -> np.ndarray:
    """Per magnitude, whether it is 0 or from MIN_MAGNITUDE to MAX_MAGNITUDE
    (NaN is not)."""
    return (magnitudes <= MAX_MAGNITUDE) & ((magnitudes >= MIN_MAGNITUDE) | (magnitudes == 0.0))


def _range_error(values: np.ndarray) -> str:
    """What is wrong with finite ``values`` that are not all in range."""
    if (np.abs(values) > MAX_MAGNITUDE).any():
        return f"value of magnitude over {MAX_MAGNITUDE:g}"
    return f"nonzero value of magnitude under {MIN_MAGNITUDE:g}"


def _check_values(entries: dict[str, np.ndarray]) -> None:
    """Raise naming the first word whose vector has a non-finite value or one
    out of range; one numpy call checks 1024 vectors."""
    words = list(entries)
    for start in range(0, len(words), 1024):
        chunk = words[start:start + 1024]
        values = np.array([entries[w] for w in chunk])  # a copy, so abs in place
        ok = _in_range(np.abs(values, out=values)).all(axis=1)
        if not ok.all():
            word = chunk[ok.argmin()]
            if not np.isfinite(entries[word]).all():
                raise VoiceError(f"vector for {word!r} has non-finite values")
            raise VoiceError(f"vector for {word!r} has a {_range_error(entries[word])}")


def load_embeddings(path: str) -> EmbeddingTable:
    """Read a word2vec-style text table: ``word v1 v2 ... vd`` per line.

    A first line of exactly two integers (count and dimension) is treated as
    a header and skipped. Later duplicates of a word replace earlier ones
    with a warning; a dimension mismatch, a word with no values, or a value
    that is not a number, not finite or of magnitude over 1e100 is an error
    naming the line, and so is a nonzero value of magnitude under 1e-100.
    The file is read once, 128 entry lines at a time: numpy parses each
    block and the vectors are rows of its matrix; only a block numpy does
    not read exactly (say, a ragged row or a ``1_0``) goes per line. The
    table is built without checking the vectors a second time.
    """
    entries: dict[str, np.ndarray] = {}
    dimension: int | None = None
    with _open_input(path, "embedding table", VoiceError) as fh:
        lines = _entry_lines(fh)
        # 128 rows per matrix: one matrix of a whole 10k-word table (4 MB)
        # raised peak RSS by 7% in a process that also trains models.
        for block in iter(lambda: list(itertools.islice(lines, 128)), []):
            rows = _numpy_block(block, dimension)
            if rows is None:
                rows = _parsed_rows(path, block, dimension)
            for (lineno, word, _), vec in zip(block, rows):
                if word in entries:
                    warnings.warn(f"{path} line {lineno}: duplicate embedding for {word!r}; "
                                  "keeping the last", stacklevel=2)
                entries[word] = vec  # from numpy, a row view of its matrix: no copy
            dimension = len(vec)
    if dimension is None:
        raise VoiceError(f"{path}: no embedding entries")
    return EmbeddingTable._checked(dimension, entries)


def _entry_lines(lines):
    """(line number, word, value text) of each entry line, skipping blank
    lines and a first-line ``N d`` header; a word with no values has text ''."""
    for lineno, line in enumerate(lines, start=1):
        parts = line.split(None, 1)
        if parts and not (lineno == 1 and _is_header(line.split())):
            yield lineno, parts[0], parts[1] if len(parts) == 2 else ""


def _numpy_block(block, dimension: int | None) -> np.ndarray | None:
    """The block's values as one matrix if numpy reads it exactly (a row per
    line, ``dimension`` wide once known, every value in range), else None."""
    texts = [text for _, _, text in block]
    if not all(texts):  # a word with no values: numpy would warn "input contained no data"
        return None
    try:
        matrix = np.loadtxt(texts, dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    exact = matrix.shape == (len(block), dimension or matrix.shape[1])
    return matrix if exact and _in_range(np.abs(matrix)).all() else None


def _parsed_rows(path: str, block, dimension: int | None):
    """Each line's values, read by float() and checked as the caller reaches
    it, so an error follows the warnings of the lines before it."""
    for lineno, _, text in block:
        values = text.split()
        if not values:
            raise VoiceError(f"{path} line {lineno}: no vector values")
        if dimension is not None and len(values) != dimension:
            raise VoiceError(f"{path} line {lineno}: expected {dimension} values, "
                             f"got {len(values)}")
        dimension = len(values)
        try:
            vec = np.array([float(v) for v in values])
        except ValueError:
            raise VoiceError(f"{path} line {lineno}: non-numeric value") from None
        if not np.isfinite(vec).all():
            raise VoiceError(f"{path} line {lineno}: non-finite value")
        if not _in_range(np.abs(vec)).all():
            raise VoiceError(f"{path} line {lineno}: {_range_error(vec)}")
        yield vec


def _is_header(parts: list[str]) -> bool:
    """Exactly two integers: a gensim-style ``N d`` header."""
    if len(parts) != 2:
        return False
    try:
        int(parts[0]), int(parts[1])
        return True
    except ValueError:
        return False


def phrase_vector(phrase: TokenizedPhrase, table: EmbeddingTable) -> np.ndarray:
    """Mean vector of the phrase's in-vocabulary tokens; zeros if none."""
    if len(table) == 0:
        raise VoiceError("embedding table is empty")
    vectors = [table.entries[t] for t in phrase.tokens if t in table.entries]
    if not vectors:
        return np.zeros(table.dimension)
    return np.add.reduce(vectors, axis=0) / len(vectors)  # np.mean's arithmetic, less overhead


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


def _char_positions(s: str) -> dict[str, list[int]]:
    """Each character of ``s`` -> its indices in ``s``, ascending."""
    positions: dict[str, list[int]] = {}
    for j, ch in enumerate(s):
        positions.setdefault(ch, []).append(j)
    return positions


def _jaro(s1: str, s2: str, positions: dict[str, list[int]]) -> float:
    """:func:`jaro` with ``positions``, the :func:`_char_positions` of ``s2``."""
    if not s1 or not s2:
        return float(s1 == s2)  # two empty strings score 1
    len1, len2 = len(s1), len(s2)
    window = max(0, max(len1, len2) // 2 - 1)

    s2_hit = [False] * len2
    s1_matched: list[str] = []
    unmatched = len2
    # Past i = len2 + window - 1 no index of s2 is in the window.
    for i, ch in enumerate(s1[: len2 + window]):
        for j in positions.get(ch, ()):
            if j > i + window:
                break
            if j >= i - window and not s2_hit[j]:
                s2_hit[j] = True
                s1_matched.append(ch)
                unmatched -= 1
                break
        if not unmatched:
            break  # all of s2 is matched: no later character of s1 can match
    matches = len(s1_matched)
    if matches == 0:
        return 0.0

    transpositions = sum(map(operator.ne, s1_matched, itertools.compress(s2, s2_hit))) / 2.0
    return (matches / len1 + matches / len2 + (matches - transpositions) / matches) / 3.0


def _jaro_winkler(s1: str, s2: str, positions: dict[str, list[int]]) -> float:
    """:func:`jaro_winkler` with ``positions``, the :func:`_char_positions` of ``s2``."""
    j = _jaro(s1, s2, positions)
    prefix = 0
    for c1, c2 in zip(s1, s2):
        if c1 != c2 or prefix >= WINKLER_MAX_PREFIX:
            break
        prefix += 1
    return j + prefix * WINKLER_PREFIX_SCALE * (1.0 - j)


def _char_counts(s: str) -> np.ndarray:
    """Counts of the characters of ``s``: a bucket per ASCII code, the one of
    ``?`` (which normalizing drops) for every other character."""
    return np.bincount(np.frombuffer(s.encode("ascii", "replace"), np.uint8), minlength=128)


def _jw_bounds(s: str, counts: np.ndarray, fifths: np.ndarray) -> np.ndarray:
    """Upper bounds, with 1e-12 of slack, on the Jaro-Winkler value of a nonempty
    ``s`` against the strings whose :func:`_char_counts` and ``0.2 / len`` these
    are: the m matches are at most the shared characters (merged buckets only
    raise the count), so Jaro <= (m/len1 + m/len2 + 1)/3, and a prefix of at
    most 4 gives JW <= 0.6 Jaro + 0.4 = m (0.2/len1 + 0.2/len2) + 0.6."""
    m = np.minimum(counts, _char_counts(s)).sum(axis=1)
    return m * (fifths + 0.2 / len(s)) + (0.6 + 1e-12)


def jaro(s1: str, s2: str) -> float:
    """Jaro similarity over characters.

    Characters match within a window of max(0, floor(max(len)/2) - 1), each
    at most once; half the out-of-order matched pairs count as
    transpositions. Two empty strings score 1, no matches score 0.

    Each character of ``s1`` takes the first unmatched equal character of
    ``s2`` in its window, looked up in a position map of ``s2``; the scan
    stops once every character of ``s2`` is matched.
    """
    return _jaro(s1, s2, _char_positions(s2))


def jaro_winkler(s1: str, s2: str) -> float:
    """Jaro boosted by a shared prefix: j + l * 0.1 * (1 - j), l capped at 4."""
    return _jaro_winkler(s1, s2, _char_positions(s2))


@dataclass(frozen=True)
class Command:
    """One recognizable command: the spoken phrase and the action it triggers."""

    phrase: str
    action_id: str


@dataclass(frozen=True, eq=False)
class CommandList:
    """The commands, plus what resolving needs of their phrases, computed once:
    canonical strings with Jaro position maps, character counts and 0.2 / length,
    all tokens in one tuple, and a (C, T) 0/1 matrix marking c's tokens in row c."""

    commands: tuple[Command, ...]
    _canonicals: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _positions: tuple[dict, ...] = field(init=False, repr=False, compare=False)
    _counts: np.ndarray = field(init=False, repr=False, compare=False)
    _fifth_per_char: np.ndarray = field(init=False, repr=False, compare=False)
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
        object.__setattr__(self, "_positions", tuple(map(_char_positions, canonicals)))
        object.__setattr__(self, "_counts", np.array(list(map(_char_counts, canonicals))))
        object.__setattr__(self, "_fifth_per_char", 0.2 / np.array(list(map(len, canonicals))))
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
    commands = []
    with _open_input(path, "command list", VoiceError) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if "\t" not in line:
                raise VoiceError(f"{path} line {lineno}: expected action_id<TAB>phrase")
            action_id, phrase = line.split("\t", 1)
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


def _command_side(commands: CommandList, table: EmbeddingTable):
    """Each command's summed token vectors, (C, d), read from ``table.entries``
    (0 for a token it lacks), and their row norms, 1 for an all-zero sum (the
    only one of norm 0, by ``MIN_MAGNITUDE``): its cosine is +-0, clamped to 0."""
    absent = np.zeros(table.dimension)
    token_vecs = np.array([table.entries.get(t, absent) for t in commands._tokens])
    sums = commands._token_owner @ token_vecs
    norms = np.linalg.norm(sums, axis=1)
    norms[norms == 0.0] = 1.0
    return sums, norms


def _cosines(phrase: TokenizedPhrase, table: EmbeddingTable, sums, sum_norms) -> np.ndarray:
    """Every command's cosine against ``phrase``, clamped at 0 (-0.0 too), and
    all 0 when the phrase vector is zero; ``sums`` and ``sum_norms`` are the
    :func:`_command_side`."""
    tvec = phrase_vector(phrase, table)
    tnorm = math.sqrt(tvec.dot(tvec))  # np.linalg.norm's arithmetic for a vector
    if tnorm == 0.0:
        return np.zeros(len(sums))
    cosines = (sums @ tvec) / (sum_norms * tnorm)
    cosines[cosines <= 0.0] = 0.0
    return cosines


def _best(phrase: TokenizedPhrase, commands: CommandList, table: EmbeddingTable,
          sums: np.ndarray, sum_norms: np.ndarray):
    """:func:`resolve_command`'s best index (or None) and total, computing the
    Jaro-Winkler values only of commands whose ceiling (cosine plus
    :func:`_jw_bounds`) can still win, in descending order of ceiling (equal
    ones in command order)."""
    s = phrase.canonical
    cosines = _cosines(phrase, table, sums, sum_norms)  # raises for an empty table
    if not s:  # no command string is empty: cosine and Jaro-Winkler are 0 for all
        return None, 0.0
    ceilings = (_jw_bounds(s, commands._counts, commands._fifth_per_char) + cosines).tolist()
    order = [i for i, ceiling in enumerate(ceilings) if ceiling > MATCH_THRESHOLD]
    order.sort(key=ceilings.__getitem__, reverse=True)  # stable: equal ones in command order
    cosines, best, best_total = cosines.tolist(), None, -1.0
    for i in order:
        if ceilings[i] < best_total:  # an equal total can still win
            break
        total = cosines[i] + _jaro_winkler(s, commands._canonicals[i], commands._positions[i])
        if total > best_total or (total == best_total and i < best):
            best, best_total = i, total
    return (best if best_total > MATCH_THRESHOLD else None), best_total


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
    cosines = _cosines(phrase, table, *_command_side(commands, table)).tolist()
    jws = map(_jaro_winkler, itertools.repeat(phrase.canonical), commands._canonicals,
              commands._positions)
    candidates = tuple(map(CandidateScore, [c.phrase for c in commands], cosines, jws))
    totals = [c.total for c in candidates]
    best_total = max(totals)
    best = commands.commands[totals.index(best_total)]  # ties to the earlier command
    return MatchResult(
        matched=(best.action_id, best.phrase) if best_total > MATCH_THRESHOLD else None,
        per_candidate=candidates,
        transcript=phrase,
    )
