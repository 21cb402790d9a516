import pytest
from hypothesis import given, settings, strategies as st

from tfmn.lexicons import (
    EMOTIONS,
    LexiconError,
    load_antonyms,
    load_emotion_lexicon,
    load_synonyms,
    load_valence_norms,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# valence


def test_stem_averaging(tmp_path):
    path = write(tmp_path, "v.csv", "word,valence\nweak,2.0\nweakness,3.0\n")
    lex = load_valence_norms(path)
    assert lex.entries["weak"] == (2.5, 2)


def test_quartiles_linear_interpolation(tmp_path):
    rows = "\n".join(f"w{c},{v}" for c, v in zip("abcd", (1, 2, 3, 4)))
    path = write(tmp_path, "v.csv", "word,valence\n" + rows + "\n")
    lex = load_valence_norms(path)
    assert lex.q1 == pytest.approx(1.75)
    assert lex.q3 == pytest.approx(3.25)


def test_labels(tmp_path):
    rows = "\n".join(f"w{c},{v}" for c, v in zip("abcd", (1, 2, 3, 4)))
    path = write(tmp_path, "v.csv", "word,valence\n" + rows + "\n")
    lex = load_valence_norms(path)
    assert lex.label("wd") == "positive"  # 4 > q3
    assert lex.label("wa") == "negative"  # 1 < q1
    assert lex.label("wb") == "neutral"
    assert lex.label("zzz") == "unrated"


def test_score_exactly_at_q3_is_neutral(tmp_path):
    # q3 of {1,2,3,5,5} lands exactly on 5
    rows = "wa,1\nwb,2\nwc,3\nwd,5\nwe,5\n"
    path = write(tmp_path, "v.csv", "word,valence\n" + rows)
    lex = load_valence_norms(path)
    assert lex.q3 == pytest.approx(5.0)
    assert lex.label("wd") == "neutral"


def test_empty_file_rejected(tmp_path):
    path = write(tmp_path, "v.csv", "word,valence\n")
    with pytest.raises(LexiconError, match="no entries"):
        load_valence_norms(path)


def test_missing_columns_rejected(tmp_path):
    path = write(tmp_path, "v.csv", "term,score\nweak,2.0\n")
    with pytest.raises(LexiconError, match="missing required columns"):
        load_valence_norms(path)


def test_configurable_columns(tmp_path):
    path = write(tmp_path, "v.csv", "term,score\nweak,2.0\nwide,5.0\nwin,8.0\n")
    lex = load_valence_norms(path, word_column="term", score_column="score")
    assert lex.entries["weak"][0] == pytest.approx(2.0)


def test_out_of_scale_score_rejected_with_row(tmp_path):
    path = write(tmp_path, "v.csv", "word,valence\nweak,2.0\nodd,42\n")
    with pytest.raises(LexiconError, match="line 3"):
        load_valence_norms(path)


def test_unparsable_score_rejected(tmp_path):
    path = write(tmp_path, "v.csv", "word,valence\nweak,abc\n")
    with pytest.raises(LexiconError, match="unparsable"):
        load_valence_norms(path)


def test_quartile_partition_sizes(tmp_path):
    # with distinct scores, roughly a quarter of stems land in each tail
    values = [1.0 + 8.0 * i / 39 for i in range(40)]
    rows = "\n".join(f"w{'abcdefghij'[i // 10]}{'abcdefghij'[i % 10]}x,{v}" for i, v in enumerate(values))
    path = write(tmp_path, "v.csv", "word,valence\n" + rows + "\n")
    lex = load_valence_norms(path)
    labels = [lex.label(s) for s in lex.entries]
    assert labels.count("positive") == 10
    assert labels.count("negative") == 10
    assert labels.count("neutral") == 20


def _numpy_reference(rows):
    """Stem means and quartiles as the numpy implementation computed them."""
    np = pytest.importorskip("numpy")
    from tfmn.stemmer import stem

    by_stem = {}
    for word, score in rows:
        by_stem.setdefault(stem(word), []).append(score)
    entries = {s: (float(np.mean(v)), len(v)) for s, v in by_stem.items()}
    q1, q3 = np.percentile([v[0] for v in entries.values()], [25.0, 75.0])
    return entries, float(q1), float(q3)


def _assert_matches_numpy(lex, rows):
    entries, q1, q3 = _numpy_reference(rows)
    assert lex.entries == entries
    assert (lex.q1, lex.q3) == (q1, q3)


def test_bundled_valence_matches_numpy(lexicon_dir, valence):
    with (lexicon_dir / "valence.csv").open(encoding="utf-8") as fh:
        next(fh)
        rows = [(w.strip().lower(), float(v)) for w, v in (line.split(",") for line in fh)]
    _assert_matches_numpy(valence, rows)


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.lists(st.floats(1.0, 9.0), min_size=1, max_size=7), min_size=1, max_size=40,
))
def test_valence_matches_numpy(tmp_path_factory, scores_per_word):
    # consonant-only words without s or y are their own Porter stems
    words = ["z" + "".join("bcdfghjkmn"[int(d)] for d in f"{i:02d}") for i in range(len(scores_per_word))]
    rows = [(w, v) for w, scores in zip(words, scores_per_word) for v in scores]
    path = tmp_path_factory.mktemp("v") / "v.csv"
    path.write_text("word,valence\n" + "".join(f"{w},{v!r}\n" for w, v in rows), encoding="utf-8")
    _assert_matches_numpy(load_valence_norms(path), rows)


# ---------------------------------------------------------------------------
# emotions


def test_flag_filtering(tmp_path):
    path = write(tmp_path, "e.tsv", "win\tjoy\t1\nwin\tanger\t0\n")
    lex = load_emotion_lexicon(path)
    assert lex.emotions("win") == {"joy"}


def test_stem_union(tmp_path):
    path = write(tmp_path, "e.tsv", "kill\tanger\t1\nkilling\tfear\t1\n")
    lex = load_emotion_lexicon(path)
    assert lex.emotions("kill") == {"anger", "fear"}


def test_out_of_universe_rows_skipped(tmp_path):
    path = write(tmp_path, "e.tsv", "win\tlove\t1\nwin\tpositive\t1\nwin\tjoy\t1\n")
    lex = load_emotion_lexicon(path)
    assert lex.emotions("win") == {"joy"}
    assert lex.skipped_rows == 2


def test_word_known_without_emotion(tmp_path):
    path = write(tmp_path, "e.tsv", "desk\tjoy\t0\n")
    lex = load_emotion_lexicon(path)
    assert "desk" in lex.entries
    assert lex.emotions("desk") == frozenset()


def test_malformed_row_rejected(tmp_path):
    path = write(tmp_path, "e.tsv", "win\tjoy\n")
    with pytest.raises(LexiconError, match="line 1"):
        load_emotion_lexicon(path)


def test_emotion_universe_is_eight():
    assert len(EMOTIONS) == 8
    assert set(EMOTIONS) == {
        "anger", "disgust", "fear", "trust", "joy", "sadness", "surprise", "anticipation",
    }


# ---------------------------------------------------------------------------
# synonyms / antonyms


def test_synonyms_symmetric(tmp_path):
    # either column order gives the one (min, max) stem pair
    for line in ("famous\tnotable\n", "notable\tfamous\n"):
        assert load_synonyms(write(tmp_path, "s.tsv", line)).pairs == {("famou", "notabl")}


def test_self_pair_dropped(tmp_path):
    path = write(tmp_path, "s.tsv", "quiet\tquiet\n")
    lex = load_synonyms(path)
    assert not lex.pairs


def test_duplicate_pairs_deduplicated(tmp_path):
    path = write(tmp_path, "s.tsv", "famous\tnotable\nnotable\tfamous\n")
    lex = load_synonyms(path)
    assert len(lex.pairs) == 1


def test_bad_pair_row_rejected(tmp_path):
    path = write(tmp_path, "s.tsv", "one\ttwo\tthree\n")
    with pytest.raises(LexiconError):
        load_synonyms(path)


def test_antonym_lookup(tmp_path):
    path = write(tmp_path, "a.tsv", "appreciation\tdisgust\n")
    lex = load_antonyms(path)
    assert lex.antonym("appreci") == "disgust"
    assert lex.antonym("disgust") == "appreci"


def test_antonym_tiebreak_lexicographic(tmp_path):
    path = write(tmp_path, "a.tsv", "tall\tzshort\ntall\tbshort\n", )
    lex = load_antonyms(path, pre_stemmed=True)
    assert lex.antonym("tall") == "bshort"


def test_antonym_symmetry(antonyms):
    for a, b in antonyms.pairs:
        assert (a, b) == (min(a, b), max(a, b))
        assert antonyms.antonym(a) is not None
        assert antonyms.antonym(b) is not None
