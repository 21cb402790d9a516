"""The Porter (1980) stemmer written as its paper states it, one character at a
time: `_is_consonant` decides each letter from its left neighbour, and every
measure is recomputed by walking the stem. Tests compare `tfmn.stemmer.stem`,
which reads one consonant-vowel pattern per word, against `reference_stem`."""

from __future__ import annotations

from tfmn.stemmer import StemError


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in "aeiou":
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    # number of VC sequences in the [C](VC)^m[V] decomposition
    n = 0
    i = 0
    length = len(stem)
    while i < length and _is_consonant(stem, i):
        i += 1
    while True:
        while i < length and not _is_consonant(stem, i):
            i += 1
        if i >= length:
            return n
        n += 1
        while i < length and _is_consonant(stem, i):
            i += 1
        if i >= length:
            return n


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    # consonant-vowel-consonant, where the final consonant is not w, x or y
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        if _measure(word[:-3]) > 0:
            return word[:-1]
        return word
    flag = False
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        word = word[:-2]
        flag = True
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        word = word[:-3]
        flag = True
    if flag:
        if word.endswith(("at", "bl", "iz")):
            return word + "e"
        if _ends_double_consonant(word) and word[-1] not in "lsz":
            return word[:-1]
        if _measure(word) == 1 and _ends_cvc(word):
            return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


# rule tables, each sorted longest suffix first once: the first suffix that
# matches a word is its longest matching suffix
_STEP2 = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]
_STEP2.sort(key=lambda r: -len(r[0]))

_STEP3 = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]
_STEP3.sort(key=lambda r: -len(r[0]))

_STEP4 = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]
_STEP4.sort(key=len, reverse=True)


def _replace_longest(word: str, rules, min_measure: int) -> str:
    for suffix, repl in rules:
        if word.endswith(suffix):
            stem_part = word[: -len(suffix)]
            if _measure(stem_part) > min_measure - 1:
                return stem_part + repl
            return word
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4:
        if word.endswith(suffix):
            stem_part = word[: -len(suffix)]
            if suffix == "ion" and not stem_part.endswith(("s", "t")):
                return word
            if _measure(stem_part) > 1:
                return stem_part
            return word
    return word


def _step5(word: str) -> str:
    if word.endswith("e"):
        stem_part = word[:-1]
        m = _measure(stem_part)
        if m > 1 or (m == 1 and not _ends_cvc(stem_part)):
            word = stem_part
    if _measure(word) > 1 and _ends_double_consonant(word) and word.endswith("l"):
        word = word[:-1]
    return word


def reference_stem(word: str) -> str:
    """The stem of an alphabetic token, lowercased first; StemError on empty or
    non-alphabetic input."""
    if not word:
        raise StemError("cannot stem empty token")
    if not word.isalpha():
        raise StemError(f"cannot stem non-alphabetic token {word!r}")
    word = word.lower()
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _replace_longest(word, _STEP2, 1)
    word = _replace_longest(word, _STEP3, 1)
    word = _step4(word)
    word = _step5(word)
    return word
