"""Two-generator machinery for the dihedral Artin subgroups <x, y>.

Covers the suffix scanner, which alone computes alternation runs and
decides criticality, the geodesic criterion and critical-word check it
gives on whole words, tau rewriting, the shortest-critical-suffix scan,
and to_bab_form, which reads the b^i a^j b^k form that tau-moves give an
{a,b}-word off its name runs: only 3- and 5-run words have one.

A word over a pair {x, y} with relation length m is *critical* when
p + n = m (p and n are the longest positive / negative alternating
substring lengths, each capped at m) and the word carries maximal
alternating blocks at its ends in one of six shapes.  tau produces an
equal-length word for the same group element whose first and last letter
names both differ from the input's.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple, Optional

from .core import (
    GroupParams,
    Letter,
    Word,
    inverse_letter,
    is_freely_reduced,
    make_alternating,
    name_char,
)


class AlternationProfile(NamedTuple):
    p: int        # capped at m
    n: int        # capped at m
    m: int
    raw_p: int
    raw_n: int


# witness shapes
POSITIVE_LEFT = "positive-left"        # m(x,y) xi
POSITIVE_RIGHT = "positive-right"      # xi (x,y)_m
NEGATIVE_LEFT = "negative-left"        # m(X,Y) xi
NEGATIVE_RIGHT = "negative-right"      # xi (X,Y)_m
UNSIGNED_POS_NEG = "unsigned-pos-neg"  # p(x,y) xi (Z,T)_n
UNSIGNED_NEG_POS = "unsigned-neg-pos"  # n(X,Y) xi (z,t)_p


class TwoGenCriticalWitness(NamedTuple):
    word: Word
    pair: str
    shape: str
    profile: AlternationProfile
    lead: int    # length of the leading alternating block
    trail: int   # length of the trailing alternating block

    @property
    def middle(self) -> Word:
        return self.word[self.lead:len(self.word) - self.trail]


def _check_pair(w: Word, pair: str) -> None:
    allowed = {ord(pair[0]) - 97, ord(pair[1]) - 97}
    for l in w:
        if l % 3 not in allowed:
            raise ValueError(
                f"letter {name_char(l)!r} outside generator pair {pair}")


def _scan(w: Word, pair: str, params: GroupParams) -> CriticalSuffixScanner:
    """The scanner fed w right to left, up to its first letter or until it
    dies; raises ValueError on letters outside the pair."""
    scan = CriticalSuffixScanner(pair, params)
    feed = scan.feed
    for l in reversed(w):
        feed(l)
        if scan.dead:
            # only a dead scan can have met, or stopped short of, a letter
            # outside the pair
            _check_pair(w, pair)
            break
    return scan


def is_geodesic_2gen(w: Word, pair: str, params: GroupParams) -> bool:
    """Mairesse-Matheus criterion: a freely reduced word is geodesic iff
    p + n <= m (capped values).  An unreduced word is not geodesic."""
    return not _scan(w, pair, params).dead


def is_critical_2gen(w: Word, pair: str, params: GroupParams,
                     ) -> Optional[TwoGenCriticalWitness]:
    """Witness iff w is a 2-generator critical word over the pair.

    Unreduced or empty words are never critical; letters outside the
    pair raise ValueError.  Linear time.
    """
    return scanner_witness(_scan(w, pair, params), w, pair)


def scanner_witness(scan: CriticalSuffixScanner, w: Word, pair: str,
                    ) -> Optional[TwoGenCriticalWitness]:
    """The witness of w, the whole word scan was fed right to left, or
    None when its last feed was not critical."""
    shape = scan.shape
    if shape is None:
        return None
    m = scan.m
    p, n = scan.pn
    if shape in (POSITIVE_LEFT, NEGATIVE_LEFT):
        lead, trail = m, 0
    elif shape in (POSITIVE_RIGHT, NEGATIVE_RIGHT):
        lead, trail = 0, m
    elif shape == UNSIGNED_POS_NEG:
        lead, trail = p, n
    else:
        lead, trail = n, p
    pr = AlternationProfile(p, n, m, scan.raw_p, scan.raw_n)
    return TwoGenCriticalWitness(w, pair, shape, pr, lead, trail)


def _partner(pair: str, letter: Letter) -> Letter:
    """The letter of the pair's other name, with the sign of letter."""
    other = ord(pair[0]) + ord(pair[1]) - 194 - letter % 3
    return other if letter < 3 else other + 3


def delta(letter: Letter, pair: str, params: GroupParams) -> Letter:
    """Conjugation by the Garside element of <pair>: the identity for even
    m, otherwise the name swap within the pair (signs preserved)."""
    if name_char(letter) not in pair:
        raise ValueError(f"letter {name_char(letter)!r} outside pair {pair}")
    return letter if params.m(pair) % 2 == 0 else _partner(pair, letter)


def delta_word(w: Word, pair: str, params: GroupParams) -> Word:
    return tuple(delta(l, pair, params) for l in w)


def tau_2gen(witness: TwoGenCriticalWitness, params: GroupParams) -> Word:
    """The tau companion of a critical word: same length, same group
    element, both end letter names changed."""
    w, pair, shape = witness.word, witness.pair, witness.shape
    m = witness.profile.m
    xi = witness.middle
    dxi = delta_word(xi, pair, params)

    if shape in (POSITIVE_LEFT, NEGATIVE_LEFT):
        x = w[0]
        if not xi:
            return make_alternating(_partner(pair, x), x, m, "start")
        z = xi[-1]
        return dxi + make_alternating(z, _partner(pair, z), m, "end")

    if shape in (POSITIVE_RIGHT, NEGATIVE_RIGHT):
        z = xi[0]
        return make_alternating(_partner(pair, z), z, m, "start") + dxi

    if shape == UNSIGNED_POS_NEG:
        x = w[0]
        y = _partner(pair, x)
        t = inverse_letter(w[-1])
        head = make_alternating(inverse_letter(y), inverse_letter(x),
                                witness.profile.n, "start")
        tail = make_alternating(t, _partner(pair, t), witness.profile.p,
                                "end")
        return head + dxi + tail

    if shape == UNSIGNED_NEG_POS:
        x = inverse_letter(w[0])
        t = w[-1]
        z = _partner(pair, t)
        head = make_alternating(_partner(pair, x), x, witness.profile.p,
                                "start")
        tail = make_alternating(inverse_letter(t), inverse_letter(z),
                                witness.profile.n, "end")
        return head + dxi + tail

    raise AssertionError(f"unknown witness shape {shape}")


def tau_last_letter(witness: TwoGenCriticalWitness) -> Letter:
    """The last letter of tau_2gen(witness), read off without building
    tau: the pair's other name from the word's last letter, with that
    letter's sign for the four signed shapes and the opposite sign for
    the two unsigned ones."""
    last = witness.word[-1]
    if witness.shape in (UNSIGNED_POS_NEG, UNSIGNED_NEG_POS):
        last = inverse_letter(last)
    return _partner(witness.pair, last)


class BabForm(NamedTuple):
    i: int
    j: int
    k: int


def to_bab_form(v: Word, params: GroupParams) -> Optional[BabForm]:
    """(i, j, k) when tau-moves rewrite the {a,b}-word v, whose first and
    last letters have name a, into b^i a^j b^k, else None.

    Read off v's name runs a^e1 b^e2 a^e3 [b^e4 a^e5] (nonzero signed
    exponents); a cancelling pair, or any other number of runs, gives None:

    * 3 runs, with |e2| = 1 and e2 in {e1, e3}, or |e1| = 1 and
      e3 = -e1: (e3, e2, e1);
    * 5 runs, with s = e1: |s| = 1, e2 = s, e5 = -s, e3 of sign -s and
      e4 of sign s: (e3 - s, e4 + s, s);
    * 5 runs, the mirror image, with s = e5: |s| = 1, e4 = s, e1 = -s,
      e2 of sign s and e3 of sign -s: (s, e2 + s, e3 - s).

    This is what the two-ended tau scan gives at every length.  It takes
    a one-signed word only as a^e1 b^(+-1) a^e3.  On any other word its
    first stage fixes the result's outer letters (B..ab or BA..b, or
    their letterwise inverses), and a second stage would emit a name-a
    letter inside one of the result's outer runs; what one stage can
    finish are the 3- and 5-run shapes above.  params is unused: m(a, b)
    is 3 in every G(n).
    """
    for l in v:
        if l % 3 == 2:
            raise ValueError("to_bab_form expects an {a,b}-word")
    if not v or v[0] % 3 != 0 or v[-1] % 3 != 0:
        raise ValueError("first and last letters must have name a")
    if not is_freely_reduced(v):
        return None
    # in a freely reduced word, the runs of equal letters are the name runs
    runs = [(1 if l < 3 else -1) * len(tuple(g)) for l, g in groupby(v)]
    if len(runs) == 3:
        e1, e2, e3 = runs
        if (abs(e2) == 1 and e2 in (e1, e3)) or (abs(e1) == 1 and e3 == -e1):
            return BabForm(e3, e2, e1)
    elif len(runs) == 5:
        e1, e2, e3, e4, e5 = runs
        s = e1
        if abs(s) == 1 and e2 == s and e5 == -s and e3 * s < 0 < e4 * s:
            return BabForm(e3 - s, e4 + s, s)
        s = e5
        if abs(s) == 1 and e4 == s and e1 == -s and e3 * s < 0 < e2 * s:
            return BabForm(s, e2 + s, e3 - s)
    return None


# the letter names of each generator pair
_PAIR_NAMES = {pair: frozenset((ord(pair[0]) - 97, ord(pair[1]) - 97))
               for pair in ("ab", "ac", "bc")}


class CriticalSuffixScanner:
    """Incremental criticality test for the suffixes of a fixed word: the
    one place that computes alternation runs and decides criticality.

    Letters are fed right to left (the first letter fed is the word's last
    letter); after each feed, critical tells whether the word fed so far
    is critical, and shape names the witness shape that fired (None when
    not critical).  O(1) work and O(1) state per feed.  The scanner goes
    dead once no longer suffix can be critical (p+n passed m, a letter
    outside the pair, or a cancelling pair).  Feeding a whole word this
    way gives the whole-word checkers above.
    """

    __slots__ = ("m", "allowed", "count", "dead", "critical", "shape",
                 "prev", "last", "lead_len", "raw_p", "raw_n", "full_p",
                 "full_n", "neg_count", "trail_pos", "trail_neg", "g_pos",
                 "g_neg")

    def __init__(self, pair: str, params: GroupParams):
        self.m = params.m(pair)
        self.allowed = _PAIR_NAMES[pair]
        self.count = 0
        self.dead = False
        self.critical = False
        self.shape: Optional[str] = None
        self.prev = -1           # most recently fed letter
        self.last = -1           # first letter fed = last letter of word
        self.lead_len = 0        # alternating same-sign run at the left end
        self.raw_p = 0
        self.raw_n = 0
        self.full_p = 0          # feed count at which raw_p reached m
        self.full_n = 0
        self.neg_count = 0
        self.trail_pos = 0       # alternating runs anchored at the right end
        self.trail_neg = 0
        self.g_pos = 0           # max run length clipped to >= m from the end
        self.g_neg = 0

    def feed(self, l: Letter) -> None:
        if self.dead:
            return
        prev = self.prev
        name = l % 3
        if name not in self.allowed or prev == (l + 3) % 6:
            self.dead = True
            self.critical = False
            self.shape = None
            return
        k = self.count
        m = self.m
        if k == 0:
            self.last = l
        positive = l < 3
        if k and (prev < 3) == positive and prev % 3 != name:
            lead = self.lead_len + 1
        else:
            lead = 1
        self.lead_len = lead
        if positive:
            if k == self.trail_pos and (k == 0 or prev % 3 != name):
                self.trail_pos += 1
            if lead > self.raw_p:
                self.raw_p = lead
                if lead == m:
                    self.full_p = k + 1
        else:
            if k == self.trail_neg and (k == 0 or prev % 3 != name):
                self.trail_neg += 1
            if lead > self.raw_n:
                self.raw_n = lead
                if lead == m:
                    self.full_n = k + 1
            self.neg_count += 1
        length = self.count = k + 1
        if length > m:
            clip = min(lead, length - m)
            if positive:
                if clip > self.g_pos:
                    self.g_pos = clip
            elif clip > self.g_neg:
                self.g_neg = clip
        self.prev = l
        p = self.raw_p if self.raw_p < m else m
        n = self.raw_n if self.raw_n < m else m
        shape = None
        neg = self.neg_count
        # a left-end block of m letters is a witness's only if the word
        # right of it (the first length - m letters fed) has p or n < m
        if p + n != m:
            self.dead = p + n > m
        elif neg == 0:
            if lead == m and self.full_p > length - m:
                shape = POSITIVE_LEFT
            elif length > m and self.trail_pos == m and self.g_pos < m:
                shape = POSITIVE_RIGHT
        elif neg == length:
            if lead == m and self.full_n > length - m:
                shape = NEGATIVE_LEFT
            elif length > m and self.trail_neg == m and self.g_neg < m:
                shape = NEGATIVE_RIGHT
        elif positive:
            if self.last >= 3 and lead == p and self.trail_neg == n:
                shape = UNSIGNED_POS_NEG
        elif self.last < 3 and lead == n and self.trail_pos == p:
            shape = UNSIGNED_NEG_POS
        self.shape = shape
        self.critical = shape is not None

    @property
    def pn(self) -> tuple[int, int]:
        """(p, n) of the word fed so far, each capped at m."""
        m = self.m
        return min(self.raw_p, m), min(self.raw_n, m)


def shortest_critical_suffix_2gen(w: Word, pair: str, params: GroupParams,
                                  end: Optional[int] = None,
                                  ) -> Optional[int]:
    """Start index of the shortest critical suffix of w[:end], or None.

    Scans right to left and stops as soon as no longer suffix can qualify.
    """
    if end is None:
        end = len(w)
    scan = CriticalSuffixScanner(pair, params)
    for s in range(end - 1, -1, -1):
        scan.feed(w[s])
        if scan.critical:
            return s
        if scan.dead:
            return None
    return None
