"""Two-generator machinery for the dihedral Artin subgroups <x, y>.

Covers alternation profiles p/n, the geodesic criterion, critical words
and their tau rewriting, the shortest-critical-suffix scan, and the
linear-time transformation of {a,b}-words into b^i a^j b^k form.

A word over a pair {x, y} with relation length m is *critical* when
p + n = m (p and n are the longest positive / negative alternating
substring lengths, each capped at m) and the word carries maximal
alternating blocks at its ends in one of six shapes.  tau produces an
equal-length word for the same group element whose first and last letter
names both differ from the input's.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .core import (
    GroupParams,
    Letter,
    Word,
    inverse_letter,
    is_freely_reduced,
    make_alternating,
    make_letter,
    name_char,
    power_word,
    sign,
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


@dataclass(frozen=True)
class TwoGenCriticalWitness:
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


def profile(w: Word, pair: str, params: GroupParams) -> AlternationProfile:
    """Longest positive/negative alternating substring lengths, capped at m.

    Single scan; raises ValueError on letters outside the pair.
    """
    _check_pair(w, pair)
    m = params.m(pair)
    raw_p = raw_n = 0
    run_p = run_n = 0
    prev = -1
    for l in w:
        if l < 3:
            run_p = run_p + 1 if (run_p and prev % 3 != l % 3) else 1
            run_n = 0
            if run_p > raw_p:
                raw_p = run_p
        else:
            run_n = run_n + 1 if (run_n and prev % 3 != l % 3) else 1
            run_p = 0
            if run_n > raw_n:
                raw_n = run_n
        prev = l
    return AlternationProfile(min(m, raw_p), min(m, raw_n), m, raw_p, raw_n)


def is_geodesic_2gen(w: Word, pair: str, params: GroupParams) -> bool:
    """Mairesse-Matheus criterion: geodesic iff p + n <= m (capped values)."""
    pr = profile(w, pair, params)
    return pr.p + pr.n <= pr.m


def _lead_run(w: Word, positive: bool) -> int:
    """Length of the maximal alternating same-sign prefix."""
    k = 0
    prev = -1
    for l in w:
        if (l < 3) != positive or (k and l % 3 == prev % 3):
            break
        k += 1
        prev = l
    return k


def _trail_run(w: Word, positive: bool) -> int:
    k = 0
    prev = -1
    for l in reversed(w):
        if (l < 3) != positive or (k and l % 3 == prev % 3):
            break
        k += 1
        prev = l
    return k


def is_critical_2gen(w: Word, pair: str, params: GroupParams,
                     ) -> Optional[TwoGenCriticalWitness]:
    """Witness iff w is a 2-generator critical word over the pair.

    Unreduced or empty words are never critical.  Linear time.
    """
    if not w or not is_freely_reduced(w):
        return None
    pr = profile(w, pair, params)
    m = pr.m
    if pr.p + pr.n != m:
        return None
    n_letters = sum(1 for l in w if l >= 3)
    first_pos, last_pos = w[0] < 3, w[-1] < 3

    if n_letters == 0:
        # positive word with p = m: the full alternating block must sit at
        # an end, break exactly there, and the remainder must stay below m.
        if _lead_run(w, True) == m and profile(w[m:], pair, params).p < m:
            return TwoGenCriticalWitness(w, pair, POSITIVE_LEFT, pr, m, 0)
        if (len(w) > m and _trail_run(w, True) == m
                and profile(w[:len(w) - m], pair, params).p < m):
            return TwoGenCriticalWitness(w, pair, POSITIVE_RIGHT, pr, 0, m)
        return None

    if n_letters == len(w):
        if _lead_run(w, False) == m and profile(w[m:], pair, params).n < m:
            return TwoGenCriticalWitness(w, pair, NEGATIVE_LEFT, pr, m, 0)
        if (len(w) > m and _trail_run(w, False) == m
                and profile(w[:len(w) - m], pair, params).n < m):
            return TwoGenCriticalWitness(w, pair, NEGATIVE_RIGHT, pr, 0, m)
        return None

    # unsigned: opposite-signed ends carrying the full p- and n-blocks
    if first_pos and not last_pos:
        if _lead_run(w, True) == pr.p and _trail_run(w, False) == pr.n:
            return TwoGenCriticalWitness(
                w, pair, UNSIGNED_POS_NEG, pr, pr.p, pr.n)
        return None
    if not first_pos and last_pos:
        if _lead_run(w, False) == pr.n and _trail_run(w, True) == pr.p:
            return TwoGenCriticalWitness(
                w, pair, UNSIGNED_NEG_POS, pr, pr.n, pr.p)
    return None


def delta(letter: Letter, pair: str, params: GroupParams) -> Letter:
    """Conjugation by the Garside element of <pair>: the identity for even
    m, otherwise the name swap within the pair (signs preserved)."""
    if name_char(letter) not in pair:
        raise ValueError(f"letter {name_char(letter)!r} outside pair {pair}")
    if params.m(pair) % 2 == 0:
        return letter
    other = pair[1] if pair[0] == name_char(letter) else pair[0]
    return make_letter(other, sign(letter))


def delta_word(w: Word, pair: str, params: GroupParams) -> Word:
    return tuple(delta(l, pair, params) for l in w)


def _other_name(pair: str, letter: Letter) -> str:
    return pair[1] if pair[0] == name_char(letter) else pair[0]


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
            y = make_letter(_other_name(pair, x), sign(x))
            return make_alternating(y, x, m, "start")
        z = xi[-1]
        t = make_letter(_other_name(pair, z), sign(z))
        return dxi + make_alternating(z, t, m, "end")

    if shape in (POSITIVE_RIGHT, NEGATIVE_RIGHT):
        z = xi[0]
        t = make_letter(_other_name(pair, z), sign(z))
        return make_alternating(t, z, m, "start") + dxi

    if shape == UNSIGNED_POS_NEG:
        x = w[0]
        y = make_letter(_other_name(pair, x), 1)
        t = inverse_letter(w[-1])
        z = make_letter(_other_name(pair, t), 1)
        head = make_alternating(inverse_letter(y), inverse_letter(x),
                                witness.profile.n, "start")
        tail = make_alternating(t, z, witness.profile.p, "end")
        return head + dxi + tail

    if shape == UNSIGNED_NEG_POS:
        x = inverse_letter(w[0])
        y = make_letter(_other_name(pair, x), 1)
        t = w[-1]
        z = make_letter(_other_name(pair, t), 1)
        head = make_alternating(y, x, witness.profile.p, "start")
        tail = make_alternating(inverse_letter(t), inverse_letter(z),
                                witness.profile.n, "end")
        return head + dxi + tail

    raise AssertionError(f"unknown witness shape {shape}")


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
    if not is_freely_reduced(v):
        return None
    pr = profile(v, "ab", params)
    if pr.p + pr.n != 3:
        return None

    neg = sum(1 for l in v if l >= 3)
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


def bab_word(i: int, j: int, k: int) -> Word:
    """The word b^i a^j b^k."""
    return power_word(1, i) + power_word(0, j) + power_word(1, k)


class CriticalSuffixScanner:
    """Incremental criticality test for the suffixes of a fixed word.

    Letters are fed right to left (the first letter fed is the word's last
    letter); after each feed, critical_now() answers for the word fed so
    far.  O(1) work and O(m) state per feed.  The scanner goes dead once
    no longer suffix can be critical (p+n passed m, a letter outside the
    pair, or a cancelling pair).
    """

    def __init__(self, pair: str, params: GroupParams):
        self.m = params.m(pair)
        self.allowed = {ord(pair[0]) - 97, ord(pair[1]) - 97}
        self.count = 0
        self.dead = False
        self.prev = -1           # most recently fed letter
        self.last = -1           # first letter fed = last letter of word
        self.lead_len = 0        # alternating same-sign run at the left end
        self.raw_p = 0
        self.raw_n = 0
        self.neg_count = 0
        self.trail_pos = 0       # alternating runs anchored at the right end
        self.trail_neg = 0
        self.g_pos = 0           # max run length clipped to >= m from the end
        self.g_neg = 0
        self.hist = deque(maxlen=self.m + 1)   # (p_cap, n_cap) history

    def feed(self, l: Letter) -> None:
        if self.dead:
            return
        if l % 3 not in self.allowed:
            self.dead = True
            return
        if self.prev != -1 and self.prev == inverse_letter(l):
            self.dead = True
            return
        k = self.count
        if self.last == -1:
            self.last = l
        positive = l < 3
        if (self.lead_len and (self.prev < 3) == positive
                and self.prev % 3 != l % 3):
            self.lead_len += 1
        else:
            self.lead_len = 1
        if positive:
            if k == self.trail_pos and (k == 0 or self.prev % 3 != l % 3):
                self.trail_pos += 1
            if self.lead_len > self.raw_p:
                self.raw_p = self.lead_len
        else:
            if k == self.trail_neg and (k == 0 or self.prev % 3 != l % 3):
                self.trail_neg += 1
            if self.lead_len > self.raw_n:
                self.raw_n = self.lead_len
            self.neg_count += 1
        self.count = k + 1
        if self.count > self.m:
            clip = min(self.lead_len, self.count - self.m)
            if positive:
                if clip > self.g_pos:
                    self.g_pos = clip
            elif clip > self.g_neg:
                self.g_neg = clip
        self.prev = l
        p_cap = self.raw_p if self.raw_p < self.m else self.m
        n_cap = self.raw_n if self.raw_n < self.m else self.m
        self.hist.append((p_cap, n_cap))
        if p_cap + n_cap > self.m:
            self.dead = True

    @property
    def pn(self) -> tuple[int, int]:
        """(p, n) of the word fed so far, each capped at m."""
        return self.hist[-1]

    def critical_now(self) -> bool:
        if self.dead or self.count == 0:
            return False
        m = self.m
        p, n = self.hist[-1]
        if p + n != m:
            return False
        length = self.count
        if self.neg_count == 0:
            if self.lead_len == m and (length == m or self.hist[0][0] < m):
                return True
            return length > m and self.trail_pos == m and self.g_pos < m
        if self.neg_count == length:
            if self.lead_len == m and (length == m or self.hist[0][1] < m):
                return True
            return length > m and self.trail_neg == m and self.g_neg < m
        first_pos, last_pos = self.prev < 3, self.last < 3
        if first_pos and not last_pos:
            return self.lead_len == p and self.trail_neg == n
        if not first_pos and last_pos:
            return self.lead_len == n and self.trail_pos == p
        return False


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
        if scan.critical_now():
            return s
        if scan.dead:
            return None
    return None
