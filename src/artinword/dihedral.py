"""Two-generator machinery for the dihedral Artin subgroups <x, y>.

Covers the suffix scanner, which alone computes alternation runs and
decides criticality, the geodesic criterion and critical-word check it
gives on whole words, tau rewriting, the shortest-critical-suffix scan,
and the linear-time transformation of {a,b}-words into b^i a^j b^k form.

A word over a pair {x, y} with relation length m is *critical* when
p + n = m (p and n are the longest positive / negative alternating
substring lengths, each capped at m) and the word carries maximal
alternating blocks at its ends in one of six shapes.  tau produces an
equal-length word for the same group element whose first and last letter
names both differ from the input's.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Optional

from .core import (
    GroupParams,
    Letter,
    Word,
    inverse_letter,
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


_A, _B = 0, 1
_FLIP = {0: 1, 1: 0, 3: 4, 4: 3}


def _parse_bab(letters: list[int]) -> Optional[tuple[int, int, int]]:
    """Parse a letter list as b^i a^j b^k with i, j, k nonzero."""
    idx, n = 0, len(letters)
    runs: list[int] = []
    for want in (_B, _A, _B):
        start = idx
        if idx >= n or letters[idx] % 3 != want:
            return None
        s = 1 if letters[idx] < 3 else -1
        while (idx < n and letters[idx] % 3 == want
               and (letters[idx] < 3) == (s > 0)):
            idx += 1
        runs.append(s * (idx - start))
    if idx != n:
        return None
    return runs[0], runs[1], runs[2]


def to_bab_form(v: Word, params: GroupParams) -> Optional[BabForm]:
    """Decide whether the {a,b}-word v (with name-a first and last letters)
    is transformable by tau-moves into b^i a^j b^k, and return (i, j, k).

    Implements the two-ended scan with the flip flag; the word sits in a
    deque and every stage consumes the letters it rewrites, so the whole
    scan is linear.
    """
    for l in v:
        if l % 3 == 2:
            raise ValueError("to_bab_form expects an {a,b}-word")
    if not v or v[0] % 3 != _A or v[-1] % 3 != _A:
        raise ValueError("first and last letters must have name a")
    scan = _scan(v, "ab", params)
    if scan.dead or sum(scan.pn) != 3:
        return None

    neg = scan.neg_count
    if neg == 0 or neg == len(v):
        # signed case: a^p b a or a b a^s up to inversion (|j| = 1)
        s = 1 if neg == 0 else -1
        b_positions = [i for i, l in enumerate(v) if l % 3 == _B]
        if len(b_positions) != 1:
            return None
        head, tail = b_positions[0], len(v) - 1 - b_positions[0]
        if tail == 1:
            return BabForm(s, s, s * head)
        if head == 1:
            return BabForm(s * tail, s, s)
        return None

    if (v[0] < 3) == (v[-1] < 3):
        return None  # unsigned critical words end in a and a^-1

    mid = deque(v)
    flip = False
    out_l: list[int] = []
    out_r: list[int] = []  # outermost letter first; reversed at the end

    def interp(l: int) -> int:
        return _FLIP[l] if flip else l

    while True:
        while mid and interp(mid[0]) % 3 == _B:
            out_l.append(interp(mid.popleft()))
        while mid and interp(mid[-1]) % 3 == _B:
            out_r.append(interp(mid.pop()))
        if not mid:
            break
        left, right = interp(mid[0]), interp(mid[-1])
        if left == right:
            body = [interp(l) for l in mid]
            if any(l % 3 != _A for l in body):
                return None
            out_l.extend(body)
            break
        # ends are now a and a^-1; consume one critical stage
        if left < 3:
            p_l = 2 if len(mid) >= 2 and interp(mid[1]) == _B else 1
            n_r = (2 if len(mid) >= 2
                   and interp(mid[-2]) == inverse_letter(_B) else 1)
            if p_l + n_r != 3:
                return None
            if p_l == 2:
                mid.popleft(); mid.popleft(); mid.pop()
                emit_l, emit_r = [inverse_letter(_B)], [_A, _B]
            else:
                mid.popleft(); mid.pop(); mid.pop()
                emit_l, emit_r = [inverse_letter(_B), inverse_letter(_A)], [_B]
        else:
            n_l = (2 if len(mid) >= 2
                   and interp(mid[1]) == inverse_letter(_B) else 1)
            p_r = 2 if len(mid) >= 2 and interp(mid[-2]) == _B else 1
            if n_l + p_r != 3:
                return None
            if n_l == 1:
                mid.popleft(); mid.pop(); mid.pop()
                emit_l, emit_r = [_B, _A], [inverse_letter(_B)]
            else:
                mid.popleft(); mid.popleft(); mid.pop()
                emit_l, emit_r = [_B], [inverse_letter(_A), inverse_letter(_B)]
        out_l.extend(emit_l)
        out_r.extend(reversed(emit_r))
        flip = not flip

    final = out_l + out_r[::-1]
    parsed = _parse_bab(final)
    if parsed is None:
        return None
    i, j, k = parsed
    return BabForm(i, j, k)


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
