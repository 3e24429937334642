"""Letters, words and presentation parameters for the rank-3 Artin groups

    G(n) = < a, b, c | aba = bab, ac = ca, n(b,c) = n(c,b) >,   n >= 5.

A letter is a small int in 0..5: 0,1,2 are the positive generators a,b,c
and 3,4,5 their inverses.  A word is a plain tuple of letters, so words
hash and compare cheaply, are immutable, and are safe to share between
threads.  The text format uses one ASCII character per letter (lowercase
positive, uppercase inverse); ``x^k`` and ``x^-k`` are accepted as input
sugar for repeated letters, and whitespace is ignored.
"""

from __future__ import annotations

from typing import NamedTuple

Letter = int
Word = tuple[int, ...]

EMPTY: Word = ()

LETTER_CHARS = "abcABC"
_CHAR_TO_LETTER = {ch: i for i, ch in enumerate(LETTER_CHARS)}


class ParseError(ValueError):
    """Raised for malformed word text; ``position`` is a 0-based index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at index {position})")
        self.position = position


class ResourceLimitError(RuntimeError):
    """Raised when a brute-force search exceeds its configured budget, or
    a parsed word would expand past MAX_WORD_LETTERS letters."""


#: the most letters parse_word expands a text to; x^k sugar makes a short
#: text stand for any number of letters
MAX_WORD_LETTERS = 10 ** 6


class _GroupParamsFields(NamedTuple):
    n: int = 5
    allow_small_n: bool = False


class GroupParams(_GroupParamsFields):
    """Presentation parameters: m(a,b)=3, m(a,c)=2, m(b,c)=n.

    n in {3,4} is permitted only behind ``allow_small_n``; the geodesic
    machinery is documented as incomplete there (it exists so the n=4
    counterexamples can be exercised).  A NamedTuple, so it equals and
    hashes as the tuple (n, allow_small_n); ``_replace`` and ``_make``
    skip the checks below.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 3:
            raise ValueError(f"n must be >= 3, got {self.n}")
        if self.n < 5 and not self.allow_small_n:
            raise ValueError(
                f"n={self.n} needs allow_small_n=True (geodesic reduction "
                "is only complete for n >= 5)")
        return self

    def m(self, pair: str) -> int:
        """Relation length for a generator pair given as 'ab', 'ac' or 'bc'."""
        if pair == "ab":
            return 3
        if pair == "ac":
            return 2
        if pair == "bc":
            return self.n
        raise ValueError(f"unknown generator pair {pair!r}")


def name_char(letter: Letter) -> str:
    return "abc"[letter % 3]

def inverse_letter(letter: Letter) -> Letter:
    return (letter + 3) % 6

def make_letter(name: str, sgn: int = 1) -> Letter:
    idx = "abc".index(name)
    return idx if sgn > 0 else idx + 3


def commutes(l1: Letter, l2: Letter) -> bool:
    """True iff the two letters commute in G (same name, or names {a,c})."""
    n1, n2 = l1 % 3, l2 % 3
    return n1 == n2 or n1 + n2 == 2


def parse_word(text: str) -> Word:
    letters: list[int] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        base = _CHAR_TO_LETTER.get(ch)
        if base is None:
            raise ParseError(f"unknown symbol {ch!r}", i)
        i += 1
        if i < n and text[i] == "^":
            j = i + 1
            if j < n and text[j] == "-":
                j += 1
            d0 = j
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j == d0:
                raise ParseError("malformed exponent", i)
            # a digit string longer than the cap's is over it, and int()
            # refuses very long ones
            if len(text[d0:j].lstrip("0")) > len(str(MAX_WORD_LETTERS)):
                k = MAX_WORD_LETTERS + 1
            else:
                k = int(text[i + 1:j])
            i = j
        else:
            k = 1
        if k < 0:
            base = inverse_letter(base)
            k = -k
        if len(letters) + k > MAX_WORD_LETTERS:
            raise ResourceLimitError(
                f"word expands past {MAX_WORD_LETTERS} letters")
        letters.extend([base] * k)
    return tuple(letters)


def format_word(w: Word) -> str:
    """Plain one-character-per-letter text; the empty word prints as ''."""
    return "".join(LETTER_CHARS[l] for l in w)


def free_reduce(w: Word) -> Word:
    """The freely reduced form, by a single left-to-right stack pass."""
    out: list[int] = []
    for l in w:
        if out and out[-1] == (l + 3) % 6:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def is_freely_reduced(w: Word) -> bool:
    return all(w[i] != (w[i + 1] + 3) % 6 for i in range(len(w) - 1))


def invert_word(w: Word) -> Word:
    return tuple((l + 3) % 6 for l in reversed(w))


def power_word(letter: Letter, k: int) -> Word:
    """letter**k as a word; negative k uses the inverse letter."""
    if k >= 0:
        return (letter,) * k
    return (inverse_letter(letter),) * (-k)


def make_alternating(x: Letter, y: Letter, length: int, anchor: str) -> Word:
    """Alternating word on two letters of the same sign.

    anchor='start' gives x y x y ... of the given length (begins with x);
    anchor='end' gives ... x y x y of the given length (ends with y).
    """
    if x % 3 == y % 3:
        raise ValueError("alternating word needs two distinct names")
    if (x < 3) != (y < 3):
        raise ValueError("alternating word needs letters of equal sign")
    if length < 0:
        raise ValueError("length must be nonnegative")
    if anchor == "start":
        return tuple(x if i % 2 == 0 else y for i in range(length))
    if anchor == "end":
        return tuple(y if i % 2 == 0 else x for i in range(length))[::-1]
    raise ValueError(f"anchor must be 'start' or 'end', got {anchor!r}")
