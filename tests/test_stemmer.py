import pytest
from hypothesis import given, strategies as st

from tfmn.stemmer import _STEP2, _STEP3, _STEP4, StemError, stem

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
