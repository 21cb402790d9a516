"""Porter suffix-stripping stemmer.

Classic Porter (1980) algorithm, implemented directly so that stemming is
deterministic and dependency-free. Input must be alphabetic; `stem`
lowercases it itself.

Every rule reads the word's consonant-vowel pattern, computed once per
word: one character for each character of the lowercased word, "v" for a,
e, i, o and u, "c" for any other, and for y the opposite of the character
before it ("c" at the start of the word or after a vowel, "v" after a
consonant). A character's class depends only on the ones before it, so a
prefix of the word has the prefix of the pattern, and the pattern follows
the word through each step. The measure m of a prefix, its number of VC
sequences in [C](VC)^m[V], is the number of "vc" in its pattern, and the
prefix holds a vowel if its pattern holds a "v".
"""

from __future__ import annotations

import functools

__all__ = ["stem", "StemError"]


class StemError(ValueError):
    """Raised for input the stemmer cannot handle (empty or non-alphabetic)."""


class _Classes(dict):
    """A `str.translate` table: "v" for a vowel, "y" for a y (decided by
    `_pattern`), "c" for any other code point. The first 256 are held, so a
    Latin-1 word is translated without a call of `__missing__`."""

    def __missing__(self, code: int) -> str:
        return "c"


_CLASSES = _Classes(dict.fromkeys(range(256), "c"))
_CLASSES.update(str.maketrans("aeiouy", "vvvvvy"))


def _pattern(word: str) -> str:
    pattern = word.translate(_CLASSES)
    if "y" not in pattern:
        return pattern
    classes = []
    prev = "v"  # a y that opens the word is a consonant, as one after a vowel
    for cls in pattern:
        if cls == "y":
            cls = "c" if prev == "v" else "v"
        classes.append(cls)
        prev = cls
    return "".join(classes)


def _ends_cvc(word: str, pattern: str) -> bool:
    # consonant-vowel-consonant, where the final consonant is not w, x or y
    return pattern.endswith("cvc") and word[-1] not in "wxy"


def _step1b(word: str, pattern: str) -> tuple[str, str]:
    if word.endswith("eed"):
        if pattern.count("vc", 0, len(word) - 3):
            return word[:-1], pattern[:-1]
        return word, pattern
    if word.endswith("ed") and "v" in pattern[:-2]:
        word, pattern = word[:-2], pattern[:-2]
    elif word.endswith("ing") and "v" in pattern[:-3]:
        word, pattern = word[:-3], pattern[:-3]
    else:
        return word, pattern
    if word.endswith(("at", "bl", "iz")):
        return word + "e", pattern + "v"
    # a double consonant other than l, s or z
    if len(word) >= 2 and word[-1] == word[-2] and pattern[-1] == "c" and word[-1] not in "lsz":
        return word[:-1], pattern[:-1]
    if pattern.count("vc") == 1 and _ends_cvc(word, pattern):
        return word + "e", pattern + "v"
    return word, pattern


# rule tables, each sorted longest suffix first once: the first suffix that
# matches a word is its longest matching suffix; no replacement holds a y, so
# a replacement's pattern does not depend on the letters before it
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

# each step's suffixes, so that one endswith call passes over a word that ends in none
_STEP2_ENDINGS = tuple(suffix for suffix, _ in _STEP2)
_STEP3_ENDINGS = tuple(suffix for suffix, _ in _STEP3)
_STEP4_ENDINGS = tuple(_STEP4)


def _replace_longest(word: str, pattern: str, rules, endings) -> tuple[str, str]:
    if word.endswith(endings):
        for suffix, repl in rules:
            if word.endswith(suffix):
                k = len(word) - len(suffix)
                if pattern.count("vc", 0, k):
                    return word[:k] + repl, pattern[:k] + repl.translate(_CLASSES)
                break
    return word, pattern


def _step4(word: str, pattern: str) -> tuple[str, str]:
    if word.endswith(_STEP4_ENDINGS):
        for suffix in _STEP4:
            if word.endswith(suffix):
                k = len(word) - len(suffix)
                if suffix == "ion" and not word.endswith(("sion", "tion")):
                    break
                if pattern.count("vc", 0, k) > 1:
                    return word[:k], pattern[:k]
                break
    return word, pattern


def _step5(word: str, pattern: str) -> str:
    if word.endswith("e"):
        m = pattern.count("vc", 0, len(word) - 1)
        if m > 1 or (m == 1 and not _ends_cvc(word[:-1], pattern[:-1])):
            word, pattern = word[:-1], pattern[:-1]
    if word.endswith("ll") and pattern.count("vc") > 1:
        word = word[:-1]
    return word


@functools.cache
def stem(word: str) -> str:
    """Stem a single alphabetic token, lowercased first.

    Raises StemError on empty or non-alphabetic input. Results are memoized
    (text repeats its words); an error is raised anew on every call.
    """
    if not word:
        raise StemError("cannot stem empty token")
    if not word.isalpha():
        raise StemError(f"cannot stem non-alphabetic token {word!r}")
    word = word.lower()
    if len(word) <= 2:
        return word
    pattern = _pattern(word)
    # step 1a: sses -> ss, ies -> i, ss -> ss, s -> ""
    if word.endswith(("sses", "ies")):
        word, pattern = word[:-2], pattern[:-2]
    elif word.endswith("s") and not word.endswith("ss"):
        word, pattern = word[:-1], pattern[:-1]
    word, pattern = _step1b(word, pattern)
    # step 1c: y -> i when the stem before it holds a vowel
    if word.endswith("y") and "v" in pattern[:-1]:
        word, pattern = word[:-1] + "i", pattern[:-1] + "v"
    word, pattern = _replace_longest(word, pattern, _STEP2, _STEP2_ENDINGS)
    word, pattern = _replace_longest(word, pattern, _STEP3, _STEP3_ENDINGS)
    word, pattern = _step4(word, pattern)
    return _step5(word, pattern)
