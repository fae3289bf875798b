import random
import string

import numpy as np
import pytest

from natcmd import (
    Command,
    CommandList,
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
from natcmd.voice import DEFAULT_COMMAND_PHRASES, EmbeddingTable, snake_case_action
from natcmd.errors import VoiceError


def reference_jaro(s1, s2):
    """Independent oracle: match-index lists per the textbook definition."""
    if not s1 and not s2:
        return 1.0
    if not s1 or not s2:
        return 0.0
    window = max(0, max(len(s1), len(s2)) // 2 - 1)
    m1, m2 = [], []
    for i, ch in enumerate(s1):
        for j in range(max(0, i - window), min(i + window + 1, len(s2))):
            if j not in m2 and s2[j] == ch:
                m1.append(i)
                m2.append(j)
                break
    if not m1:
        return 0.0
    transposed = sum(
        1 for i, j in zip(sorted(m1), sorted(m2)) if s1[i] != s2[j]
    )
    m = len(m1)
    return (m / len(s1) + m / len(s2) + (m - transposed / 2) / m) / 3


def reference_jaro_winkler(s1, s2):
    j = reference_jaro(s1, s2)
    prefix = 0
    for a, b in zip(s1, s2):
        if a != b or prefix == 4:
            break
        prefix += 1
    return j + prefix * 0.1 * (1 - j)


def fixture_table(**extra):
    """Small deterministic embedding table covering the command vocabulary."""
    words = sorted({t for p in DEFAULT_COMMAND_PHRASES for t in p.split()})
    rng = np.random.default_rng(314)
    entries = {w: rng.normal(0, 1, 16) for w in words}
    entries.update(extra)
    return EmbeddingTable(dimension=16, entries=entries)


class TestNormalize:
    def test_basic(self):
        p = normalize_phrase("Move Forward!")
        assert p.tokens == ("move", "forward")
        assert p.canonical == "move forward"

    def test_whitespace_only(self):
        p = normalize_phrase("   ")
        assert p.tokens == ()
        assert p.canonical == ""

    def test_idempotent(self):
        for text in ("Move Forward!", "  ZOOM   in. ", "don't STOP", "a-b c_d 42"):
            once = normalize_phrase(text)
            again = normalize_phrase(once.canonical)
            assert once.tokens == again.tokens

    def test_apostrophes_survive(self):
        assert normalize_phrase("don't").tokens == ("don't",)


class TestEmbeddings:
    def test_fixture_readback(self, tmp_path):
        path = str(tmp_path / "emb.txt")
        with open(path, "w") as fh:
            fh.write("move 1.0 0.0 0.0 0.5\n")
            fh.write("walk 0.9 0.1 0.0 0.5\n")
            fh.write("stop 0.0 0.0 1.0 0.5\n")
        table = load_embeddings(path)
        assert table.dimension == 4
        assert len(table) == 3
        np.testing.assert_array_equal(table.entries["move"], [1.0, 0.0, 0.0, 0.5])

    def test_header_line_skipped(self, tmp_path):
        path = str(tmp_path / "emb.txt")
        with open(path, "w") as fh:
            fh.write("2 3\n")
            fh.write("a 1 2 3\n")
            fh.write("b 4 5 6\n")
        table = load_embeddings(path)
        assert table.dimension == 3
        assert set(table.entries) == {"a", "b"}

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = str(tmp_path / "emb.txt")
        with open(path, "w") as fh:
            fh.write("a 1 2 3\n")
            fh.write("b 4 5\n")
        with pytest.raises(VoiceError, match="line 2"):
            load_embeddings(path)

    def test_duplicate_last_wins_with_warning(self, tmp_path):
        path = str(tmp_path / "emb.txt")
        with open(path, "w") as fh:
            fh.write("a 1 2\n")
            fh.write("a 3 4\n")
        with pytest.warns(UserWarning, match="duplicate"):
            table = load_embeddings(path)
        np.testing.assert_array_equal(table.entries["a"], [3.0, 4.0])

    def test_empty_file_rejected(self, tmp_path):
        path = str(tmp_path / "emb.txt")
        open(path, "w").close()
        with pytest.raises(VoiceError):
            load_embeddings(path)

    def test_caller_entries_left_unchanged(self):
        entries = {"a": [1.0, 2.0], "b": np.array([3.0, 4.0])}
        b_vec = entries["b"]
        table = EmbeddingTable(dimension=2, entries=entries)
        assert entries["a"] == [1.0, 2.0]
        assert entries["b"] is b_vec
        assert set(entries) == {"a", "b"}
        assert table.entries is not entries
        np.testing.assert_array_equal(table.entries["a"], [1.0, 2.0])


class TestPhraseVector:
    def test_single_token_is_its_vector(self):
        table = fixture_table()
        vec = phrase_vector(normalize_phrase("move"), table)
        np.testing.assert_array_equal(vec, table.entries["move"])

    def test_two_tokens_mean(self):
        table = fixture_table()
        vec = phrase_vector(normalize_phrase("move forward"), table)
        np.testing.assert_allclose(
            vec, (table.entries["move"] + table.entries["forward"]) / 2
        )

    def test_oov_phrase_is_zero(self):
        table = fixture_table()
        vec = phrase_vector(normalize_phrase("zzz qqq"), table)
        np.testing.assert_array_equal(vec, np.zeros(16))


class TestCosine:
    def test_self_similarity_is_one(self):
        v = np.array([0.3, -0.2, 0.9])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal_is_zero(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_hand_computed_value(self):
        assert cosine_similarity([1, 1, 0], [1, 0, 0]) == pytest.approx(
            1 / np.sqrt(2), abs=1e-12
        )

    def test_negative_clamped(self):
        assert cosine_similarity([1, 0], [-1, 0]) == 0.0

    def test_zero_norm_is_zero(self):
        assert cosine_similarity([0, 0], [1, 1]) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(VoiceError):
            cosine_similarity([1, 2], [1, 2, 3])


class TestJaro:
    def test_identity(self):
        for s in ("a", "martha", "move forward"):
            assert jaro(s, s) == 1.0

    def test_disjoint_alphabets(self):
        assert jaro("abc", "xyz") == 0.0

    def test_both_empty(self):
        assert jaro("", "") == 1.0
        assert jaro_winkler("", "") == 1.0

    def test_one_empty(self):
        assert jaro("", "abc") == 0.0

    def test_martha_hand_trace(self):
        # 6 matches, 1 transposition: (1 + 1 + 5/6) / 3
        assert jaro("martha", "marhta") == pytest.approx(0.944444, abs=1e-4)

    def test_martha_winkler_hand_trace(self):
        # shared prefix "mar": 0.9444 + 3 * 0.1 * (1 - 0.9444)
        assert jaro_winkler("martha", "marhta") == pytest.approx(0.961111, abs=1e-4)

    def test_winkler_identity(self):
        assert jaro_winkler("move forward", "move forward") == 1.0

    def test_property_suite_against_reference(self):
        rng = random.Random(2024)
        alphabet = string.ascii_lowercase + " '"
        for _ in range(1000):
            s1 = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            s2 = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
            j = jaro(s1, s2)
            jw = jaro_winkler(s1, s2)
            assert j == pytest.approx(reference_jaro(s1, s2), abs=1e-12)
            assert jw == pytest.approx(reference_jaro_winkler(s1, s2), abs=1e-12)
            assert jaro(s2, s1) == pytest.approx(j)
            assert 0.0 <= j <= 1.0
            assert j <= jw <= 1.0

    def test_long_against_short_equals_reference_exactly(self):
        # Few letters so characters repeat in both strings; a long s1 against
        # a short s2 reaches the stop past len(s2) + window.
        rng = random.Random(77)
        alphabet = "abcé "
        for _ in range(5000):
            s1 = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
            s2 = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 15)))
            for a, b in ((s1, s2), (s2, s1)):
                assert jaro(a, b) == reference_jaro(a, b), (a, b)
                assert jaro_winkler(a, b) == reference_jaro_winkler(a, b), (a, b)


class TestCommandList:
    def test_default_has_19_unique_commands(self):
        commands = default_command_list()
        assert len(commands) == 19
        actions = [c.action_id for c in commands]
        assert len(set(actions)) == 19
        assert actions[0] == "look_back"
        assert "show_floor_plan" in actions
        assert "go_to_kitchen" in actions

    def test_snake_casing(self):
        assert snake_case_action("Show Floor Plan!") == "show_floor_plan"

    def test_tsv_loading(self, tmp_path):
        path = str(tmp_path / "cmds.tsv")
        with open(path, "w") as fh:
            fh.write("go_home\tgo home\n")
            fh.write("stop_all\tstop everything\n")
        commands = load_command_list(path)
        assert [c.action_id for c in commands] == ["go_home", "stop_all"]

    def test_bad_tsv_rejected(self, tmp_path):
        path = str(tmp_path / "bad.tsv")
        with open(path, "w") as fh:
            fh.write("no-tab-here\n")
        with pytest.raises(VoiceError):
            load_command_list(path)

    def test_duplicate_phrases_rejected(self):
        with pytest.raises(VoiceError):
            CommandList(commands=(
                Command(phrase="go up", action_id="a"),
                Command(phrase="Go UP!", action_id="b"),
            ))

    def test_empty_rejected(self):
        with pytest.raises(VoiceError):
            CommandList(commands=())


class TestResolve:
    def test_exact_phrase_scores_two(self):
        table = fixture_table()
        commands = default_command_list()
        result = resolve_command("move forward", commands, table)
        assert result.matched == ("move_forward", "move forward")
        winner = next(c for c in result.per_candidate if c.phrase == "move forward")
        assert winner.total == pytest.approx(2.0)

    def test_synonym_via_embedding(self):
        # vec(walk) == vec(go) == vec(move): cosine alone pushes total past 1
        table = fixture_table()
        table.entries["walk"] = table.entries["move"].copy()
        table.entries["go"] = table.entries["move"].copy()
        for utterance in ("walk forward", "go forward"):
            result = resolve_command(utterance, default_command_list(), table)
            assert result.matched is not None
            assert result.matched[0] == "move_forward"
            winner = next(
                c for c in result.per_candidate if c.phrase == "move forward"
            )
            assert winner.cosine == pytest.approx(1.0)
            assert winner.total > 1.0

    def test_gibberish_is_ignored(self):
        table = fixture_table()
        result = resolve_command("zzz qqq", default_command_list(), table)
        assert result.matched is None
        for cand in result.per_candidate:
            assert cand.cosine == 0.0  # all tokens out of vocabulary
            assert cand.total <= 1.0
            # string side alone can never clear the threshold
            assert cand.total == pytest.approx(
                reference_jaro_winkler("zzz qqq", normalize_phrase(cand.phrase).canonical)
            )

    def test_empty_transcript_is_ignored(self):
        result = resolve_command("", default_command_list(), fixture_table())
        assert result.matched is None

    def test_candidates_keep_command_order(self):
        table = fixture_table()
        result = resolve_command("look up", default_command_list(), table)
        assert [c.phrase for c in result.per_candidate] == list(DEFAULT_COMMAND_PHRASES)

    def test_threshold_is_strict(self):
        # identical strings but no vectors: total is exactly 1.0 -> ignored
        table = EmbeddingTable(dimension=2, entries={"unrelated": np.ones(2)})
        commands = CommandList(commands=(Command(phrase="halt", action_id="halt"),))
        result = resolve_command("halt", commands, table)
        assert result.per_candidate[0].total == pytest.approx(1.0)
        assert result.matched is None

    def test_tie_breaks_to_earlier_command(self):
        # "run x" vs "run y"/"run z": identical cosine (only "run" is in
        # vocabulary) and identical jaro-winkler by symmetry -> exact tie
        table = EmbeddingTable(dimension=2, entries={"run": np.ones(2)})
        commands = CommandList(commands=(
            Command(phrase="run y", action_id="first"),
            Command(phrase="run z", action_id="second"),
        ))
        result = resolve_command("run x", commands, table)
        totals = [c.total for c in result.per_candidate]
        assert totals[0] == totals[1] and totals[0] > 1.0
        assert result.matched[0] == "first"

    def test_determinism(self):
        table = fixture_table()
        commands = default_command_list()
        r1 = resolve_command("show schedule", commands, table)
        r2 = resolve_command("show schedule", commands, table)
        assert r1.matched == r2.matched
        assert r1.per_candidate == r2.per_candidate


def oracle_resolve(transcript, commands, table):
    """The per-command resolver: normalize each command phrase, then its mean
    vector, cosine and Jaro-Winkler. Returns (matched, [(phrase, cos, jw)])."""
    phrase = normalize_phrase(transcript)
    tvec = phrase_vector(phrase, table)
    scored = []
    best_idx, best_total = 0, float("-inf")
    for idx, cmd in enumerate(commands):
        cmd_phrase = normalize_phrase(cmd.phrase)
        cos = cosine_similarity(tvec, phrase_vector(cmd_phrase, table))
        jw = jaro_winkler(phrase.canonical, cmd_phrase.canonical)
        scored.append((cmd.phrase, cos, jw))
        if cos + jw > best_total:
            best_idx, best_total = idx, cos + jw
    matched = None
    if best_total > 1.0:
        matched = (commands.commands[best_idx].action_id, commands.commands[best_idx].phrase)
    return matched, scored


ORACLE_TSV = (
    "halt\thalt now\n"              # no token in the table: cosine 0
    "walk_on\twalk forward\n"       # "walk" is added to the table after it is built
    "repeat\tgo go go\n"            # a token repeated within one phrase
    "dont\tDon't stop!\n"
    "kitchen\tgo to kitchen\n"      # "kitchen" is removed after the table is built
    "green\tseñal verde\n"
    "zoom\tzoom\n"
)


def oracle_transcripts(commands, vocabulary, n, seed):
    """Seeded mix: noisy exact phrases, OOV gibberish, empty or
    punctuation-only input, 4-12-word utterances and non-ASCII text."""
    rng = random.Random(seed)
    phrases = [c.phrase for c in commands]
    out = []
    for k in range(n):
        kind = k % 5
        if kind == 0:
            words = []
            for w in rng.choice(phrases).split():
                w = rng.choice((w.upper(), w.title(), w))
                words.append(w + rng.choice(("", "", ",", "!", "?", "...")))
            out.append(" " * rng.randint(0, 2) + (" " * rng.randint(1, 3)).join(words))
        elif kind == 1:
            out.append(" ".join(
                "".join(rng.choice("bcdfghjkqxz") for _ in range(rng.randint(2, 8)))
                + str(rng.randint(0, 9))
                for _ in range(rng.randint(1, 3))))
        elif kind == 2:
            out.append("".join(rng.choice(" \t.,!?;:-") for _ in range(rng.randint(0, 6))))
        elif kind == 3:
            out.append(" ".join(rng.choice(vocabulary) for _ in range(rng.randint(4, 12))))
        else:
            out.append(" ".join(rng.choice(vocabulary + ["café", "ñandú", "größe", "ζoom",
                                                         "señal", "verde", "日本"])
                                for _ in range(rng.randint(1, 5))))
    return out


class TestResolverAgainstOracle:
    def test_matches_oracle_on_seeded_transcripts(self, tmp_path):
        path = str(tmp_path / "cmds.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(ORACLE_TSV)
        command_lists = (default_command_list(), load_command_list(path))
        rng = np.random.default_rng(11)
        table = fixture_table(lift=rng.normal(0, 1, 16), stop=rng.normal(0, 1, 16),
                              señal=rng.normal(0, 1, 16))
        for commands in command_lists:
            resolve_command("walk forward", commands, table)
        # Edited after construction and use: resolve must read the table afresh.
        table.entries["walk"] = table.entries["move"] * 0.5
        table.entries["verde"] = rng.normal(0, 1, 16)
        table.entries["café"] = rng.normal(0, 1, 16)
        del table.entries["kitchen"]
        vocabulary = sorted({w for c in command_lists for cmd in c for w in cmd.phrase.split()}
                            | {"walk", "lift", "please", "the", "now", "xyzzy"})
        near = []
        checked = 0
        for list_no, commands in enumerate(command_lists):
            for text in oracle_transcripts(commands, vocabulary, 1200, seed=list_no):
                matched, expect = oracle_resolve(text, commands, table)
                result = resolve_command(text, commands, table)
                assert result.matched == matched, text
                assert [c.phrase for c in result.per_candidate] == [e[0] for e in expect]
                for got, (_, cos, jw) in zip(result.per_candidate, expect):
                    assert got.jaro_winkler == jw, text
                    assert abs(got.cosine - cos) <= 1e-12, text
                checked += 1
                # A total within 1e-12 of the threshold or of the runner-up
                # could flip on last-bit cosine changes unless its cosines are 0.
                order = sorted(expect, key=lambda e: e[1] + e[2], reverse=True)
                best, second = order[0], order[1]
                at_threshold = abs(best[1] + best[2] - 1.0) <= 1e-12 and best[1]
                tied = (best[1] + best[2] - (second[1] + second[2]) <= 1e-12
                        and (best[1] or second[1]))
                if at_threshold or tied:
                    near.append(text)
        assert checked >= 2000
        assert near == []
