import itertools
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import tfmn
from tfmn.stemmer import _STEP2, _STEP3, _STEP4, StemError, stem

from stemmer_reference import reference_stem

# canonical suffix-stripping vocabulary, checked against the published
# algorithm's worked examples
CANONICAL = {
    "caresses": "caress",
    "ponies": "poni",
    "cats": "cat",
    "agreed": "agre",
    "plastered": "plaster",
    "motoring": "motor",
    "sing": "sing",
    "conflated": "conflat",
    "hopping": "hop",
    "falling": "fall",
    "filing": "file",
    "happy": "happi",
    "sky": "sky",
    "relational": "relat",
    "conditional": "condit",
    "valenci": "valenc",
    "digitizer": "digit",
    "differently": "differ",
    "analogously": "analog",
    "vietnamization": "vietnam",
    "predication": "predic",
    "operator": "oper",
    "feudalism": "feudal",
    "decisiveness": "decis",
    "hopefulness": "hope",
    "formality": "formal",
    "sensitivity": "sensit",
    "sensibility": "sensibl",
    "triplicate": "triplic",
    "formative": "form",
    "formalize": "formal",
    "electricity": "electr",
    "electrical": "electr",
    "hopeful": "hope",
    "goodness": "good",
    "revival": "reviv",
    "allowance": "allow",
    "inference": "infer",
    "airliner": "airlin",
    "gyroscopic": "gyroscop",
    "adjustable": "adjust",
    "defensible": "defens",
    "irritant": "irrit",
    "replacement": "replac",
    "adjustment": "adjust",
    "dependent": "depend",
    "adoption": "adopt",
    "communism": "commun",
    "activate": "activ",
    "angularity": "angular",
    "homologous": "homolog",
    "effective": "effect",
    "bowdlerize": "bowdler",
    "probate": "probat",
    "rate": "rate",
    "controll": "control",
    "roll": "roll",
}


def test_network_pipeline_examples():
    assert stem("weakness") == "weak"
    assert stem("stem") == "stem"
    assert stem("interactions") == "interact"


@pytest.mark.parametrize("word,expected", sorted(CANONICAL.items()))
def test_canonical_vocabulary(word, expected):
    assert stem(word) == expected


def test_idempotent_on_pipeline_examples():
    for word in ("weakness", "stem", "interactions"):
        once = stem(word)
        assert stem(once) == once


def test_case_insensitive_after_lowercasing():
    assert stem("Weakness".lower()) == stem("weakness")


@pytest.mark.parametrize("bad", ["", "  ", "it's", "123", "ab1", "two words"])
def test_rejects_non_alphabetic(bad):
    with pytest.raises(StemError):
        stem(bad)
    with pytest.raises(StemError):
        reference_stem(bad)


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
def test_total_and_deterministic_on_alphabetic(word):
    out = stem(word)
    assert out
    assert out.isalpha()
    assert out == stem(word)


def test_rule_tables_sorted_longest_first():
    # each step takes the first suffix that matches, which must be the longest
    for table in (_STEP2, _STEP3, [(s, "") for s in _STEP4]):
        lengths = [len(suffix) for suffix, _ in table]
        assert lengths == sorted(lengths, reverse=True)


def test_no_replacement_holds_a_y():
    # stem extends a word's pattern by the replacement's own, which holds only
    # while no replacement's classes depend on the letters before it
    assert not any("y" in repl for _, repl in _STEP2 + _STEP3)


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyzAEIOUY", min_size=1, max_size=20)
       | st.sampled_from(sorted(CANONICAL)))
def test_memoized_stem_matches_uncached(word):
    expected = stem.__wrapped__(word)
    assert stem(word) == expected
    assert stem(word) == expected  # the second call is answered from the cache


@pytest.mark.parametrize("bad", ["", "  ", "it's", "123", "ab1", "two words"])
def test_errors_raised_on_every_call_and_never_cached(bad):
    size = stem.cache_info().currsize
    for _ in range(3):
        with pytest.raises(StemError):
            stem(bad)
    assert stem.cache_info().currsize == size


def outcome(stemmer, word):
    """The stem of word, or StemError if the stemmer refuses it."""
    try:
        return stemmer(word)
    except StemError:
        return StemError


# vowels, runs of y, w and x, doubled consonants, uppercase letters, letters
# outside ASCII (one, İ, lowercases to two code points) and non-letters; and a
# word made of them and an ending that a rule tests, so that every step fires often
STEM_LETTERS = "aeiouyyyywxbbdglmnrssttAEIOUYéßİ"
STEM_ENDINGS = ["", "s", "ies", "sses", "ed", "eed", "ing", "y", "e", "l", "ational", "tional", "izer",
                "ization", "iveness", "fulness", "biliti", "icate", "alize", "ness", "ful", "ement",
                "ion", "ance", "ate", "ous", "al", "at", "bl", "iz"]


@settings(max_examples=1000, deadline=None)
@given(st.builds(str.__add__, st.text(alphabet=STEM_LETTERS, max_size=8), st.sampled_from(STEM_ENDINGS))
       | st.text(alphabet=STEM_LETTERS + "'1 ", max_size=16))
@example("played")
@example("seeing")
@example("syzygy")
@example("yyy")
@example("ayy")
@example("bye")
@example("toy")
@example("styling")
@example("controll")
@example("it's")
@example("")
def test_stem_matches_the_character_by_character_reference(word):
    assert outcome(stem, word) == outcome(reference_stem, word)


def test_stem_matches_the_reference_on_every_short_word_and_ending():
    # every word of up to four letters from a small alphabet, in which vowels,
    # y, w, x and doubled letters are common, followed by each ending; called
    # uncached, so that the 140,430 words do not stay in stem's cache
    words = ["".join(letters) + ending for n in range(5) for letters in itertools.product("aeywxlst", repeat=n)
             for ending in STEM_ENDINGS if letters or ending]
    assert [stem.__wrapped__(w) for w in words] == [reference_stem(w) for w in words]


DATA_WORDS = sorted({word for root in (Path(tfmn.__file__).parent / "data", Path(__file__).parent / "data")
                     for path in root.rglob("*") if path.is_file()
                     for word in re.findall(r"[^\W\d_]+", path.read_text(encoding="utf-8"))})


def test_stem_matches_the_reference_on_every_word_of_the_data():
    assert len(DATA_WORDS) > 900
    assert [stem(w) for w in DATA_WORDS] == [reference_stem(w) for w in DATA_WORDS]
