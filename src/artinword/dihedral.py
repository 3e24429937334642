"""Two-generator machinery for the dihedral Artin subgroups <x, y>.

Covers the scan kernel scan_letters, which alone computes alternation
runs and decides criticality, 2-generator and P2G alike, and its
one-letter-per-feed wrapper CriticalSuffixScanner; the geodesic
criterion and critical-word check it gives on whole words, tau
rewriting, the shortest-critical-suffix scan, and to_bab_form, which
reads the b^i a^j b^k form that tau-moves give an {a,b}-word off its name
runs: only 3- and 5-run words have one.

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
    scan.state = st = scan_word(scan.state, w)
    if st[0]:
        # only a dead scan can have met, or stopped short of, a letter
        # outside the pair
        _check_pair(w, pair)
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
    return state_witness(_scan(w, pair, params).state, w, pair)


def state_witness(st: tuple, w: Word, pair: str,
                  ) -> Optional[TwoGenCriticalWitness]:
    """The witness of w, the hat of the word whose scan left the state st
    (w itself for a 2-generator scan), or None when st has no shape."""
    shape, m, raw_p, raw_n = st[2], st[20], st[7], st[8]
    if shape is None:
        return None
    p, n = min(raw_p, m), min(raw_n, m)
    if shape in (POSITIVE_LEFT, NEGATIVE_LEFT):
        lead, trail = m, 0
    elif shape in (POSITIVE_RIGHT, NEGATIVE_RIGHT):
        lead, trail = 0, m
    elif shape == UNSIGNED_POS_NEG:
        lead, trail = p, n
    else:
        lead, trail = n, p
    pr = AlternationProfile(p, n, m, raw_p, raw_n)
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


# The state of a scan is one flat tuple, which scan_letters holds in
# locals: its verdict (dead, critical, shape), the alternation runs of
# the hat (count .. g_neg), the P2G structure (in_tail .. run_z), and the
# constants m, names (the pair's), x and z (both -1 for a 2-generator
# scan).  The start states, built on first use:
_STARTS: dict = {}


def scan_start(pair: str, params: GroupParams, p2g: bool = False) -> tuple:
    """The state of a scan over the pair that has been fed nothing: a
    2-generator scan, or with p2g a P2G scan, whose z is the third name
    and x the pair's name other than b.  Built once per (pair, n)."""
    key = (pair, params.n, p2g)
    st = _STARTS.get(key)
    if st is None:
        names = frozenset((ord(pair[0]) - 97, ord(pair[1]) - 97))
        z = 3 - sum(names) if p2g else -1
        x = 2 - z if p2g else -1
        st = _STARTS[key] = (False, False, None, 0, -1, -1, 0, 0, 0, 0, 0,
                             0, 0, 0, 0, 0, True, False, 0, 0,
                             params.m(pair), names, x, z)
    return st


def scan_letters(st: tuple, w: Word, i: int) -> tuple[int, tuple]:
    """Feed w[i-1], w[i-2], ..., w[0] to the scan in state st, right to
    left, and stop after the first letter that leaves the scan critical
    or dead.  Returns (j, state): j is the index of the last letter fed
    (i when none was).  O(1) work per letter.

    This is the one place that computes alternation runs and decides
    criticality.  The word fed so far is critical when its hat is: p + n
    = m (p, n its longest positive and negative alternating runs, capped
    at m), with maximal alternating blocks at its ends in one of the six
    witness shapes.  A P2G scan also keeps the z-letters to the outer
    blocks (the trailing run of names {x, z} when the word ends in name
    x, else of name b, and the like run at the left end), with one sign
    in each; a word whose first letter has name z is not critical.  The
    scan goes dead once no longer suffix can be critical: a cancelling
    pair in the hat, p + n past m, a letter outside the pair and z, a
    z-letter first fed, two z-signs in one outer block (a cancelling zZ
    among them), or a z-letter left stranded between two b-letters.
    """
    (dead, critical, shape, count, hprev, last, lead, raw_p, raw_n, full_p,
     full_n, neg, trail_pos, trail_neg, g_pos, g_neg, in_tail, tail_xz,
     tail_z, run_z, m, names, x, z) = st
    while i and not dead:
        i -= 1
        l = w[i]
        name = l % 3
        if name == z:
            # one z-sign per outer block: the trailing one, else the leading
            sign = 1 if l < 3 else -1
            if in_tail and tail_xz:
                dead = tail_z == -sign
                tail_z = sign
            else:
                in_tail = False
                dead = not count or run_z == -sign
                run_z = sign
            critical = False
            continue
        if not count:
            tail_xz = name == x
            last = l
        if not in_tail or (name == 1) == tail_xz:
            in_tail = False
            dead = name == 1 and run_z != 0
        if dead or hprev == (l + 3) % 6 or name not in names:
            dead = True
            break
        positive = l < 3
        if count and (hprev < 3) == positive and hprev % 3 != name:
            lead += 1
        else:
            lead = 1
        if positive:
            if count == trail_pos and (count == 0 or hprev % 3 != name):
                trail_pos += 1
            if lead > raw_p:
                raw_p = lead
                if lead == m:
                    full_p = count + 1
        else:
            if count == trail_neg and (count == 0 or hprev % 3 != name):
                trail_neg += 1
            if lead > raw_n:
                raw_n = lead
                if lead == m:
                    full_n = count + 1
            neg += 1
        count += 1
        if count > m:
            clip = lead if lead < count - m else count - m
            if positive:
                if clip > g_pos:
                    g_pos = clip
            elif clip > g_neg:
                g_neg = clip
        hprev = l
        p = raw_p if raw_p < m else m
        n = raw_n if raw_n < m else m
        shape = None
        # a left-end block of m letters is a witness's only if the word
        # right of it (the first count - m letters fed) has p or n < m
        if p + n != m:
            dead = p + n > m
        elif neg == 0:
            if lead == m and full_p > count - m:
                shape = POSITIVE_LEFT
            elif count > m and trail_pos == m and g_pos < m:
                shape = POSITIVE_RIGHT
        elif neg == count:
            if lead == m and full_n > count - m:
                shape = NEGATIVE_LEFT
            elif count > m and trail_neg == m and g_neg < m:
                shape = NEGATIVE_RIGHT
        elif positive:
            if last >= 3 and lead == p and trail_neg == n:
                shape = UNSIGNED_POS_NEG
        elif last < 3 and lead == n and trail_pos == p:
            shape = UNSIGNED_NEG_POS
        critical = shape is not None
        if critical:
            break
    if dead:
        critical, shape = False, None
    return i, (dead, critical, shape, count, hprev, last, lead, raw_p, raw_n,
               full_p, full_n, neg, trail_pos, trail_neg, g_pos, g_neg,
               in_tail, tail_xz, tail_z, run_z, m, names, x, z)


def scan_word(st: tuple, w: Word) -> tuple:
    """The state st after feeding it w right to left, up to its death."""
    i = len(w)
    while i and not st[0]:
        i, st = scan_letters(st, w, i)
    return st


class CriticalSuffixScanner:
    """scan_letters one letter per feed, right to left: after each feed,
    critical tells whether the word fed so far is critical, and shape
    names the witness shape that fired (None when not critical)."""

    __slots__ = ("state",)

    def __init__(self, pair: str, params: GroupParams):
        self.state = scan_start(pair, params)

    def feed(self, l: Letter) -> None:
        self.state = scan_letters(self.state, (l,), 1)[1]

    dead = property(lambda self: self.state[0])
    critical = property(lambda self: self.state[1])
    shape = property(lambda self: self.state[2])
    count = property(lambda self: self.state[3])
    raw_p = property(lambda self: self.state[7])
    raw_n = property(lambda self: self.state[8])
    neg_count = property(lambda self: self.state[11])
    # (p, n) of the word fed so far (of its hat), each capped at m
    pn = property(lambda self: (min(self.state[7], self.state[20]),
                                min(self.state[8], self.state[20])))


def shortest_critical_suffix_2gen(w: Word, pair: str, params: GroupParams,
                                  end: Optional[int] = None,
                                  ) -> Optional[int]:
    """Start index of the shortest critical suffix of w[:end], or None.

    Scans right to left and stops as soon as no longer suffix can qualify.
    """
    s, st = scan_letters(scan_start(pair, params), w,
                         len(w) if end is None else end)
    return s if st[1] else None
