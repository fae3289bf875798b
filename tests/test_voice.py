import random
import re
import string
import warnings

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
from natcmd.voice import (DEFAULT_COMMAND_PHRASES, EmbeddingTable, _char_counts, _jw_bounds,
                          snake_case_action)
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

    def test_every_code_point_follows_the_per_character_rule(self):
        """Against the rule the docstring states (keep isalnum(), isspace() and
        an apostrophe), over every code point but the surrogates, each between
        two letters so a kept, dropped or splitting character shows."""
        def per_character(text):
            kept = "".join(ch for ch in text.lower() if ch.isalnum() or ch == "'" or ch.isspace())
            return tuple(kept.split())

        code_points = [chr(c) for c in range(0x110000) if not 0xD800 <= c <= 0xDFFF]
        for start in range(0, len(code_points), 4096):
            text = "a" + "a".join(code_points[start:start + 4096]) + "a"
            assert normalize_phrase(text).tokens == per_character(text), hex(start)


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

    @pytest.mark.parametrize("token", ["nan", "1e400", "-inf"])
    def test_non_finite_value_names_path_and_line(self, tmp_path, token):
        path = str(tmp_path / "emb.txt")
        with open(path, "w") as fh:
            fh.write(f"a 1 2\nb 3 4\nc 5 {token}\n")
        with pytest.raises(VoiceError, match=f"^{re.escape(path)} line 3: non-finite value$"):
            load_embeddings(path)

    def test_non_finite_checked_in_line_order(self, tmp_path):
        path = str(tmp_path / "emb.txt")
        with open(path, "w") as fh:
            fh.write("a 1 2\nb nan 4\nc 5\n")
        with pytest.raises(VoiceError, match="line 2: non-finite value"):
            load_embeddings(path)

    def test_duplicate_warning_names_path_and_line(self, tmp_path):
        path = str(tmp_path / "emb.txt")
        with open(path, "w") as fh:
            fh.write("3 2\na 1 2\nb 3 4\na 5 6\n")
        with pytest.warns(UserWarning) as record:
            load_embeddings(path)
        assert [str(w.message) for w in record] == [
            f"{path} line 4: duplicate embedding for 'a'; keeping the last"]

    def test_duplicates_warn_in_line_order_and_the_last_wins(self, tmp_path, monkeypatch):
        path = str(tmp_path / "emb.txt")
        with open(path, "w") as fh:
            fh.write("4 2\na 1 2\nb 3 4\n\na 5 6\nc 7 8\nb 9 10\na 11 12\n")
        outcome, table = read_outcome(path)
        assert outcome[1] == [(UserWarning, f"{path} line {n}: duplicate embedding for {w!r}; "
                               "keeping the last") for n, w in ((5, "a"), (7, "b"), (8, "a"))]
        assert [(w, v.tolist()) for w, v in table.entries.items()] == [
            ("a", [11.0, 12.0]), ("b", [9.0, 10.0]), ("c", [7.0, 8.0])]
        monkeypatch.setattr(np, "loadtxt", refuse_loadtxt)
        assert read_outcome(path)[0] == outcome

    def test_loaded_vectors_are_writable_rows_in_file_order(self, tmp_path):
        path = str(tmp_path / "emb.txt")
        with open(path, "w") as fh:
            fh.write("2 3\nzeta 1 2 3\nalpha 4 5 6\n")
        entries = load_embeddings(path).entries
        assert list(entries) == ["zeta", "alpha"]
        for vec in entries.values():
            assert (vec.dtype, vec.shape, vec.flags.writeable) == (np.float64, (3,), True)
        entries["zeta"][0] = 7.0
        np.testing.assert_array_equal(entries["alpha"], [4.0, 5.0, 6.0])

    def test_direct_table_names_the_word(self):
        entries = {f"w{i}": np.ones(3) for i in range(2500)}
        entries["w2100"] = np.array([1.0, np.inf, 0.0])
        with pytest.raises(VoiceError, match="^vector for 'w2100' has non-finite values$"):
            EmbeddingTable(dimension=3, entries=entries)

    def test_value_over_the_bound_names_path_and_line(self, tmp_path):
        path = str(tmp_path / "emb.txt")
        with open(path, "w") as fh:
            fh.write("a 1 2\nb 1e100 -1e100\nc 3 -1.0000000000000002e100\n")
        with pytest.raises(VoiceError,
                           match=f"^{re.escape(path)} line 3: value of magnitude over 1e\\+100$"):
            load_embeddings(path)
        with open(path, "w") as fh:
            fh.write("a 1 2\nb 1e100 -1e100\n")
        assert load_embeddings(path).entries["b"].tolist() == [1e100, -1e100]

    def test_direct_table_names_the_word_over_the_bound(self):
        entries = {f"w{i}": np.ones(3) for i in range(2500)}
        entries["w1500"] = np.array([1.0, -1e101, 0.0])
        with pytest.raises(VoiceError,
                           match="^vector for 'w1500' has a value of magnitude over 1e\\+100$"):
            EmbeddingTable(dimension=3, entries=entries)
        entries["w1400"] = np.array([1.0, np.nan, 0.0])
        with pytest.raises(VoiceError, match="^vector for 'w1400' has non-finite values$"):
            EmbeddingTable(dimension=3, entries=entries)
        assert len(EmbeddingTable(dimension=1, entries={"a": [1e100], "b": [-1e100]})) == 2

    @pytest.mark.parametrize("token", ["1e-200", "-1e-300", "5e-324", "-1.0e-100000"])
    def test_value_under_the_floor_names_path_and_line(self, tmp_path, monkeypatch, token):
        path = str(tmp_path / "emb.txt")
        with open(path, "w") as fh:
            fh.write(f"a 1 2\nb 1e-100 -1e-100\nc 0 -0.0\nd 3 {token}\n")
        message = f"^{re.escape(path)} line 4: nonzero value of magnitude under 1e-100$"
        if token == "-1.0e-100000":  # reads as -0.0
            assert load_embeddings(path).entries["d"].tolist() == [3.0, -0.0]
            return
        with pytest.raises(VoiceError, match=message):
            load_embeddings(path)
        monkeypatch.setattr(np, "loadtxt", refuse_loadtxt)  # the per-line reader says the same
        with pytest.raises(VoiceError, match=message):
            load_embeddings(path)

    def test_direct_table_names_the_word_under_the_floor(self):
        entries = {f"w{i}": np.ones(3) for i in range(2500)}
        entries["w1500"] = np.array([1.0, -1e-101, 0.0])
        with pytest.raises(VoiceError, match="^vector for 'w1500' has a nonzero value of "
                                             "magnitude under 1e-100$"):
            EmbeddingTable(dimension=3, entries=entries)
        table = EmbeddingTable(dimension=3, entries={"a": [1e-100, -1e-100, 0.0], "b": [-0.0] * 3})
        assert len(table) == 2

    def test_loaded_table_is_the_table_built_in_code(self, tmp_path):
        """The loader builds its table without the second check; it is the
        table ``EmbeddingTable`` builds from the same entries, bit for bit."""
        path = str(tmp_path / "emb.txt")
        rng = random.Random(4)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("300 4\n")
            for i in range(300):
                fh.write(f"w{i % 280} " + " ".join(repr(rng.gauss(0, 1)) for _ in range(4)) + "\n")
            fh.write("odd 1_0 2 3 4\n")  # a block the per-line reader reads
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the duplicate words
            loaded = load_embeddings(path)
        built = EmbeddingTable(loaded.dimension, loaded.entries)
        assert (loaded.dimension, list(loaded.entries)) == (built.dimension, list(built.entries))
        for word, vec in loaded.entries.items():
            assert (vec.dtype, vec.shape) == (np.float64, (4,))
            assert vec.tobytes() == built.entries[word].tobytes()

    def test_direct_table_reports_errors_in_entry_order(self):
        with pytest.raises(VoiceError, match="'a' has non-finite"):
            EmbeddingTable(dimension=2, entries={"a": [np.nan, 0.0], "b": [1.0]})
        with pytest.raises(VoiceError, match="'a' has shape"):
            EmbeddingTable(dimension=2, entries={"a": [1.0], "b": [np.nan, 0.0]})

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


    def test_bound_is_at_least_jaro_winkler(self):
        """The stream's pruning bound on 20,000 seeded pairs: repeated and
        non-ASCII characters (which share the ``?`` bucket with ``?``), a lone
        surrogate, equal strings, anagrams and shared prefixes among them."""
        rng = random.Random(20)
        alphabet = "abcde '?éñ日ζ\ud800"
        draw = lambda: "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 24)))
        for _ in range(1000):
            s = draw()
            others = [s, "".join(rng.sample(s, len(s))), s[:rng.randint(1, 5)] + draw()]
            others += [draw() for _ in range(17)]
            counts = np.array([_char_counts(t) for t in others])
            bounds = _jw_bounds(s, counts, 0.2 / np.array([len(t) for t in others]))
            for t, bound in zip(others, bounds.tolist()):
                assert jaro_winkler(s, t) <= bound, (s, t)


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


# Unicode whitespace that str.split() and numpy's whitespace mode both split on
SEPARATORS = ["\t", "\xa0", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
              "\u2028", "\u3000"]
# float() reads the first three and numpy does not; the rest neither or both read
ODD_TOKENS = ["1_0", "\u0661", "\u0663.\u0665", "nan", "inf", "-Infinity", "1e400", "0x1"]


TABLE_MUTATIONS = ["odd token", "ragged row", "no values", "duplicate word", "separators",
                   "blank lines", "line endings", "bom"]


def embedding_table_text(rng):
    """A seeded word2vec text table with a right, wrong or no header, then
    up to three of TABLE_MUTATIONS."""
    dim = rng.randint(1, 6)
    if rng.random() < 0.2:  # more lines than numpy reads per call
        words = [f"w{i}" for i in range(rng.randint(100, 300))]
    else:
        words = rng.sample(["move", "forward", "look", "up", "ζoom", "2", "a'b", "x_y", "日本"],
                           rng.randint(1, 8))
    fmt = rng.choice([repr, lambda v: f"{v:.6f}", lambda v: f"{v:e}", lambda v: str(round(v))])
    rows = [[w] + [fmt(rng.uniform(-3, 3)) for _ in range(dim)] for w in words]
    mutations = rng.sample(TABLE_MUTATIONS, rng.choice([0, 0, 0, 1, 1, 2, 3]))
    if "odd token" in mutations:
        row = rng.choice(rows)
        row[rng.randrange(1, len(row))] = rng.choice(ODD_TOKENS)
    if "ragged row" in mutations:
        row = rng.choice(rows)
        if len(row) == 2 or rng.random() < 0.5:
            row.append("0.5")
        else:
            row.pop()
    if "no values" in mutations:
        del rng.choice(rows)[1:]
    if "duplicate word" in mutations:
        rows.insert(rng.randrange(len(rows) + 1), [rng.choice(rows)[0]] + [
            fmt(rng.uniform(-3, 3)) for _ in range(dim)])
    lines = [" ".join(row) for row in rows]
    if "separators" in mutations:
        lines = ["".join(rng.choice(SEPARATORS) if ch == " " and rng.random() < 0.5 else ch
                         for ch in line) + rng.choice(["", " ", "\t"]) for line in lines]
    if "blank lines" in mutations:
        for _ in range(rng.randint(1, 3)):
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "  ", "\t"]))
    header = rng.choice(["right"] * 3 + ["none"] * 2 + ["wrong", "three ints", "one int"])
    if header != "none":
        lines.insert(0, {"right": f"{len(words)} {dim}", "wrong": f"{len(words) + 3} {dim + 1}",
                         "three ints": f"{len(words)} {dim} 0", "one int": f"{len(words)}"}[header])
    text = "\n".join(lines) + rng.choice(["\n", ""])
    if "line endings" in mutations:
        text = text.replace("\n", rng.choice(["\r\n", "\r"]))
    if "bom" in mutations:
        text = "\ufeff" + text
    return text


def read_outcome(path):
    """What ``load_embeddings`` gives -- the table as bytes or the error, and
    the warnings either way -- and the table itself, if any."""
    table = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            table = load_embeddings(path)
            result = (table.dimension, [(w, v.tobytes()) for w, v in table.entries.items()])
        except VoiceError as exc:
            result = (type(exc), str(exc))
    return (result, [(w.category, str(w.message)) for w in caught]), table


def refuse_loadtxt(*args, **kwargs):
    raise ValueError("numpy pass switched off")


def spy_on_loadtxt(monkeypatch):
    """Patch ``np.loadtxt`` to keep each matrix it returns, in a list returned."""
    loadtxt, matrices = np.loadtxt, []

    def spy(*args, **kwargs):
        matrices.append(loadtxt(*args, **kwargs))
        return matrices[-1]

    monkeypatch.setattr(np, "loadtxt", spy)
    return matrices


class TestEmbeddingsReaderAgainstRowReader:
    """The numpy pass gives what the per-line reader gives, bit for bit."""

    def test_seeded_tables(self, tmp_path, monkeypatch):
        loadtxt = np.loadtxt
        matrices = []

        def spy(*args, **kwargs):
            matrices.append(loadtxt(*args, **kwargs))
            return matrices[-1]

        through_numpy = through_rows = 0
        for seed in range(600):
            path = str(tmp_path / f"emb{seed}.txt")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(embedding_table_text(random.Random(seed)))
            matrices.clear()
            monkeypatch.setattr(np, "loadtxt", spy)
            fast, table = read_outcome(path)
            monkeypatch.setattr(np, "loadtxt", refuse_loadtxt)
            assert fast == read_outcome(path)[0], seed
            kept = table is not None and bool(matrices) and all(
                any(np.shares_memory(vec, m) for m in matrices) for vec in table.entries.values())
            through_numpy += kept
            through_rows += not kept
        assert through_numpy >= 100 and through_rows >= 100, (through_numpy, through_rows)

    def test_wider_rows_from_any_line_on(self, tmp_path, monkeypatch):
        """300 rows of 2 values, then 3 values from row ``start`` on: every
        place numpy's calls could split the rows."""
        paths = []
        for start in range(300):
            paths.append(str(tmp_path / f"emb{start}.txt"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.writelines(f"w{i} 1 2{' 3' * (i >= start)}\n" for i in range(300))
        fast = [read_outcome(path)[0] for path in paths]
        monkeypatch.setattr(np, "loadtxt", refuse_loadtxt)
        assert [read_outcome(path)[0] for path in paths] == fast

    ODD_ROWS = {
        "repeated word": lambda i, row: f"w{(i + 1) % 300} " + row.split(None, 1)[1],
        "1_0 token": lambda i, row: row.replace(" ", " 1_0 ", 1).rsplit(" ", 1)[0],
        "ragged row": lambda i, row: row + " 4",
        "nan": lambda i, row: row.rsplit(" ", 1)[0] + " nan",
        "word with no values": lambda i, row: row.split()[0],
        "value over the bound": lambda i, row: row.rsplit(" ", 1)[0] + " -1e101",
    }

    @pytest.mark.parametrize("kind", list(ODD_ROWS))
    def test_one_odd_row_at_each_position(self, tmp_path, monkeypatch, kind):
        """300 rows of 3 values, one of them odd: every place in and across
        the 128-row blocks."""
        rows = [f"w{i} {i}.5 -{i}.25 {i % 7}e-3" for i in range(300)]
        paths = []
        for odd in range(300):
            paths.append(str(tmp_path / f"emb{odd}.txt"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.writelines((self.ODD_ROWS[kind](i, row) if i == odd else row) + "\n"
                              for i, row in enumerate(rows))
        fast = [read_outcome(path)[0] for path in paths]
        monkeypatch.setattr(np, "loadtxt", refuse_loadtxt)
        assert [read_outcome(path)[0] for path in paths] == fast

    def test_one_loadtxt_call_per_block_and_one_pass(self, tmp_path, monkeypatch):
        """A repeated word does not send the table through a second pass:
        numpy reads each block once, and every vector is a row of its matrix."""
        matrices = spy_on_loadtxt(monkeypatch)
        path = str(tmp_path / "emb.txt")
        rows = [f"w{i} {i} -{i}.5" for i in range(300)]
        for extra, blocks in (([], [128, 128, 44]), (["w7 1 2"], [128, 128, 45])):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("300 2\n" + "\n".join(rows + extra) + "\n")
            matrices.clear()
            table = read_outcome(path)[1]
            assert [len(m) for m in matrices] == blocks
            assert all(any(np.shares_memory(vec, m) for m in matrices)
                       for vec in table.entries.values())
        assert table.entries["w7"].tolist() == [1.0, 2.0]

    def test_clean_blocks_keep_numpy_rows(self, tmp_path, monkeypatch):
        """A 1_0 in the second block sends only that block through float()."""
        path = str(tmp_path / "emb.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"w{i} {'1_0' if i == 200 else i} 2\n" for i in range(300))
        matrices = spy_on_loadtxt(monkeypatch)
        fast, table = read_outcome(path)
        shared = [any(np.shares_memory(vec, m) for m in matrices)
                  for vec in table.entries.values()]
        assert shared == [not 128 <= i < 256 for i in range(300)]
        monkeypatch.setattr(np, "loadtxt", refuse_loadtxt)
        assert read_outcome(path)[0] == fast

    def test_benchmark_sized_table(self, tmp_path, monkeypatch):
        """10,000 words of 50 values, written as the benchmark writes its table."""
        rng = random.Random(7)
        path = str(tmp_path / "emb.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("10000 50\n")
            for i in range(10000):
                fh.write(f"w{i} " + " ".join(f"{rng.gauss(0, 1):.6f}" for _ in range(50)) + "\n")
        fast, table = read_outcome(path)
        assert (len(table), table.dimension, fast[1]) == (10000, 50, [])
        monkeypatch.setattr(np, "loadtxt", refuse_loadtxt)
        assert read_outcome(path)[0] == fast


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
