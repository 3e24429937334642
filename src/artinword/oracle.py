"""Brute-force ground truth, independent of the reduction machinery.

Words are explored by shortest-first search over single relator
substitutions (both directions, inverse-letter variants) plus insertions
and deletions of cancelling pairs.  This is deliberately blind to
critical words, tau moves and RRSs; it only knows the presentation.

The search runs over a/c commutation classes.  Every a-name letter
commutes with every c-name letter (ac = ca), so the b-letters cut a word
into blocks whose a-name letters and c-name letters may be interleaved
freely.  A class is stored as its canonical word: in each block, the
a-name letters in their order, then the c-name letters in their order.
The moves of a whole class are found on that word in one left-to-right
pass, and each lands on a canonical word again, so ac = ca and AC = CA
are never applied.  A class also joins aC with Ca, which a word-level
search reaches only through an insertion and a deletion; the class
search can only find more.  The word-level moves, and ``ball`` and
``relator_moves`` that return words, live in ``artinword.verify``.

The length bound is adaptive: it starts at len(free_reduce(w)) + slack
and re-anchors whenever a shorter representative is found, i.e. the
search covers the union of slack-balls around the best word so far.
Positive equality verdicts are certain; negative ones are bounded-search
verdicts unless the abelianization separates the inputs exactly.

Relators longer than the length bound can never match, so they are not
built: the {b,c} relator of length n costs nothing at any n.

Search states are packed into bytes objects for speed.
"""

from __future__ import annotations

import heapq
import re
from typing import NamedTuple, Optional

from .core import (
    GroupParams,
    ResourceLimitError,
    Word,
    free_reduce,
    make_alternating,
)


class _OracleConfigFields(NamedTuple):
    slack: int = 4
    node_cap: int = 5_000_000


class OracleConfig(_OracleConfigFields):
    """The search's limits.  slack is how far past the length of the best
    word so far the length bound reaches.  node_cap bounds the letters a
    search holds: those of the classes it has seen plus those of the
    neighbours one expansion builds (see _Search).  A NamedTuple, like
    GroupParams."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.slack < 0:
            raise ValueError("slack must be >= 0")
        if self.node_cap <= 0:
            raise ValueError("node_cap must be positive")
        return self


_INSERT_PAIRS = [bytes((l, (l + 3) % 6)) for l in range(6)]
_A_PAIRS, _B_PAIRS, _C_PAIRS = (_INSERT_PAIRS[k::3] for k in range(3))
_A_NAMES, _C_NAMES = b"\x00\x03", b"\x02\x05"
_INV = bytes((l + 3) % 6 for l in range(6))
_B_LETTER = rb"([\x01\x04])"   # re.split keeps the b-letters


def _relator_table(params: GroupParams,
                   max_len: Optional[int] = None) -> list[tuple[bytes, bytes]]:
    """Both directions of every relator, leaving out those longer than
    max_len (None: none left out)."""
    n = params.n
    base = [
        (bytes((0, 1, 0)), bytes((1, 0, 1))),
        (bytes((3, 4, 3)), bytes((4, 3, 4))),
        (bytes((0, 2)), bytes((2, 0))),
        (bytes((3, 5)), bytes((5, 3))),
    ]
    if max_len is None or n <= max_len:
        bc = bytes(make_alternating(1, 2, n, "start"))
        cb = bytes(make_alternating(2, 1, n, "start"))
        base += [(bc, cb),
                 (bytes(_INV[l] for l in bc), bytes(_INV[l] for l in cb))]
    table = []
    for left, right in base:
        if max_len is None or len(left) <= max_len:
            table.append((left, right))
            table.append((right, left))
    return table


def _canon(w: bytes) -> bytes:
    """The canonical word of w's a/c commutation class: in each block
    between b-letters, its a-name letters, then its c-name letters."""
    parts = re.split(_B_LETTER, w)
    parts[::2] = [p.translate(None, _C_NAMES) + p.translate(None, _A_NAMES)
                  for p in parts[::2]]
    return b"".join(parts)


def _blocks(u: bytes) -> list[tuple[int, int, int]]:
    """(start, mid, end) of each block of the canonical word u, left to
    right: its a-name letters are u[start:mid] and its c-name letters
    u[mid:end]."""
    out = []
    s = 0
    for part in re.split(_B_LETTER, u)[::2]:
        e = s + len(part)
        out.append((s, e - len(part.lstrip(_A_NAMES)), e))
        s = e + 1
    return out


def _c_run_start(u: bytes, i: int) -> int:
    """Where the c-name letters that end at i start."""
    while i and u[i - 1] in _C_NAMES:
        i -= 1
    return i


def _a_run_end(u: bytes, i: int) -> int:
    """Where the a-name letters that start at i end."""
    while i < len(u) and u[i] in _A_NAMES:
        i += 1
    return i


_DELETE, _MERGE = "delete", "merge"


def _class_index(params: GroupParams, max_len: int) -> list:
    """The moves at a position of a canonical word of at most max_len
    letters, by its first two letters x y, as verify._move_index gives
    them for words.

    Entry 6 x + y is _DELETE when x y is a cancelling a- or c-pair, and
    _MERGE when it is a cancelling b-pair, whose deletion merges the
    blocks on either side.  Otherwise it holds the substitutions whose
    left side starts its core there.  Only relators that hold a b-letter
    act on classes; ac <-> ca and AC <-> CA are the identity.  Each side
    splits into a core from its first b-letter to its last, contiguous in
    a canonical word, and a head and a tail of at most one letter each.
    A head c and a tail a touch the core; a head a sits before the c-name
    letters of its block, a tail c after the a-name letters of the next.
    A rule is (core + tail a, head a, head c, tail c, then the same for
    the right side's head, core and tail), each head or tail b"" when
    the side has none of that name.  Every left side holds a letter after
    its first b-letter, so a core never starts at a word's last letter."""
    index: list = [() for _ in range(36)]
    for left, right in _relator_table(params, max_len):
        if not any(l % 3 == 1 for l in left):
            continue
        ha, hc, core, ta, tc = _split_side(left)
        start = core + ta
        rule = (start, ha, hc, tc, *_split_side(right))
        for y in range(6) if len(start) == 1 else (start[1],):
            index[6 * start[0] + y] += (rule,)
    for pair in _A_PAIRS + _C_PAIRS:
        index[6 * pair[0] + pair[1]] = _DELETE
    for pair in _B_PAIRS:
        index[6 * pair[0] + pair[1]] = _MERGE
    return index


def _split_side(side: bytes) -> tuple[bytes, ...]:
    """(head a, head c, core, tail a, tail c) of a relator side."""
    bs = [i for i, l in enumerate(side) if l % 3 == 1]
    head, tail = side[:bs[0]], side[bs[-1] + 1:]
    return (*_by_name(head), side[bs[0]:bs[-1] + 1], *_by_name(tail))


def _by_name(x: bytes) -> tuple[bytes, bytes]:
    """(x, b"") when x is an a-name letter, (b"", x) for a c-name letter
    or nothing."""
    return (x, b"") if x and x[0] % 3 == 0 else (b"", x)


def _class_moves(u: bytes, index: list) -> tuple[list[bytes], list[bytes]]:
    """The classes one relator substitution away from the class of the
    canonical word u, and those one cancelling-pair deletion away, as
    canonical words."""
    subs = []
    dels = []
    for i in range(len(u) - 1):
        moves = index[6 * u[i] + u[i + 1]]
        if not moves:
            continue
        if moves is _DELETE:
            dels.append(u[:i] + u[i + 2:])
        elif moves is _MERGE:
            j, k = _c_run_start(u, i), _a_run_end(u, i + 2)
            dels.append(u[:j] + u[i + 2:k] + u[j:i] + u[k:])
        else:
            for start, ha, hc, tc, ra, rc, rcore, rta, rtc in moves:
                if not u.startswith(start, i):
                    continue
                j = i - len(hc)
                if hc and (not i or u[j] != hc[0]):
                    continue
                if ha or ra:
                    j = _c_run_start(u, i)
                    if ha and (not j or u[j - 1] != ha[0]):
                        continue
                q = k = i + len(start)
                if tc or rtc:
                    k = _a_run_end(u, q)
                    if tc and (k == len(u) or u[k] != tc[0]):
                        continue
                subs.append(u[:j - len(ha)] + ra + u[j:i - len(hc)] + rc
                            + rcore + rta + u[q:k] + rtc + u[k + len(tc):])
    return subs, dels


def _class_insertions(u: bytes, blocks: list[tuple[int, int, int]],
                      ) -> list[bytes]:
    """The classes one cancelling-pair insertion away from the class of
    the canonical word u, whose _blocks are blocks: an a-pair among a
    block's a-name letters, a c-pair among its c-name letters, or a
    b-pair that splits the block at any place in each."""
    out = []
    for s, j, e in blocks:
        for x in range(s, j + 1):
            head, tail = u[:x], u[x:]
            out += [head + pair + tail for pair in _A_PAIRS]
            for y in range(j, e + 1):
                left, right = head + u[j:y], u[x:j] + u[y:]
                out += [left + pair + right for pair in _B_PAIRS]
        for y in range(j, e + 1):
            head, tail = u[:y], u[y:]
            out += [head + pair + tail for pair in _C_PAIRS]
    return out


def _insertion_count(blocks: list[tuple[int, int, int]]) -> int:
    """How many words _class_insertions builds from these blocks."""
    return 2 * sum((j - s + 1) * (e - j + 2) + e - j + 1
                   for s, j, e in blocks)


def _abelianization(w: Word, params: GroupParams) -> tuple[int, ...]:
    """Image of w in G^ab: the total exponent sum for odd n (where the
    three generators coincide), else (exp_a + exp_b, exp_c)."""
    ea = eb = ec = 0
    for l in w:
        s = 1 if l < 3 else -1
        if l % 3 == 0:
            ea += s
        elif l % 3 == 1:
            eb += s
        else:
            ec += s
    if params.n % 2 == 1:
        return (ea + eb + ec,)
    return (ea + eb, ec)


def _ab_lower_bound(w: Word, params: GroupParams) -> int:
    return sum(abs(v) for v in _abelianization(w, params))


class _Search:
    """Adaptive shortest-first search over a/c classes around a start
    word.

    levels[k] is a heap of the canonical words of the pending classes of
    length k, so classes are expanded shortest first and, among those of
    one length, in byte order.  Lengths above the bound are never
    expanded, and the bound only falls.  levels reaches only to top, the
    bound or, when less, the longest length pushed, so a huge slack
    costs nothing up front.  seen holds canonical words.

    node_cap bounds letters: the seen classes, counted at the longest
    length pushed (len(levels) - 1), plus the neighbours an expansion is
    about to build.  There are at most per_pos substitutions, or one
    deletion, at each position, and the insertions its blocks allow.
    An expansion first compares len(seen) with safe_seen, which leaves
    room for the substitutions and deletions of a class of the longest
    length, and checks again before it builds insertions.  Either check
    raises ResourceLimitError, so a long word fails at once instead of
    building about 4L neighbours of L letters each."""

    def __init__(self, start: Word, config: OracleConfig,
                 params: GroupParams):
        self.start = b = _canon(bytes(free_reduce(start)))
        self.slack = config.slack
        self.cap = config.node_cap
        self.seen: set[bytes] = {b}
        self.min_len = len(b)
        self.bound = len(b) + self.slack
        self.index = _class_index(params, self.bound)
        self.per_pos = max(len(e) for e in self.index
                           if e is not _DELETE and e is not _MERGE) or 1
        self.levels: list[list[bytes]] = [[] for _ in range(len(b))] + [[b]]
        self.low = len(b)          # no word shorter than this is pending
        self.top = len(b)          # nor is one longer than this expanded
        self._set_safe_seen()

    def _set_safe_seen(self) -> None:
        """How many classes may be seen before the substitutions and
        deletions of a class of the longest length, at most
        per_pos * longest**2 letters, could pass node_cap."""
        longest = len(self.levels) - 1
        self.safe_seen = ((self.cap - self.per_pos * longest * longest)
                          // max(longest, 1))

    def _over_cap(self):
        raise ResourceLimitError(
            f"oracle node cap of {self.cap} letters exceeded")

    def exhausted(self) -> bool:
        levels = self.levels
        while self.low <= self.top and not levels[self.low]:
            self.low += 1
        return self.low > self.top

    def _admit(self, words: list[bytes]) -> list[bytes]:
        """Mark the unseen ones of words seen; returns them in order."""
        seen = self.seen
        new = []
        for v in words:
            if v not in seen:
                seen.add(v)
                new.append(v)
        return new

    def expand_one(self, other_seen: Optional[set] = None,
                   ) -> Optional[bytes]:
        """Expand the shortest pending class; returns a contact word when
        it lands in other_seen."""
        if self.exhausted():
            return None
        if len(self.seen) > self.safe_seen:
            self._over_cap()
        u = heapq.heappop(self.levels[self.low])
        n = len(u)
        subs, dels = _class_moves(u, self.index)
        new = self._admit(subs)
        shorter = self._admit(dels)
        if shorter:
            if n - 2 < self.min_len:
                self.min_len = n - 2
                self.bound = min(self.bound, n - 2 + self.slack)
                self.top = min(self.top, self.bound)
            self.low = n - 2
            new += shorter
        levels = self.levels
        if n + 2 <= self.bound:
            blocks = _blocks(u)
            if (len(self.seen) * (len(levels) - 1) + self.per_pos * n * n
                    + (n + 2) * _insertion_count(blocks) > self.cap):
                self._over_cap()
            new += self._admit(_class_insertions(u, blocks))
            if n + 2 > self.top:
                levels += [[] for _ in range(n + 3 - len(levels))]
                self.top = n + 2
                self._set_safe_seen()
        for v in new:
            heapq.heappush(levels[len(v)], v)
        if other_seen is not None:
            for v in new:
                if v in other_seen:
                    return v
        return None


def oracle_geodesic_length(w: Word, config: OracleConfig,
                           params: GroupParams) -> int:
    """Minimum length reachable from w by relator moves (adaptive bound).

    Stops early once the parity-corrected abelianization lower bound is
    attained; otherwise runs the bounded ball to exhaustion.
    """
    start = free_reduce(w)
    floor = _ab_lower_bound(start, params)
    if (len(start) - floor) % 2:
        floor += 1
    search = _Search(start, config, params)
    while search.min_len > floor and not search.exhausted():
        search.expand_one()
    return search.min_len


def oracle_equal_verdict(w1: Word, w2: Word, config: OracleConfig,
                         params: GroupParams) -> tuple[bool, str]:
    """(equal?, evidence) with evidence in {'identical', 'abelianization',
    'met-in-search', 'search-exhausted'}.

    Two adaptive searches (one around each word) expand shortest-first
    until they touch; far cheaper than searching from w1 w2^-1.
    """
    r1, r2 = free_reduce(w1), free_reduce(w2)
    if r1 == r2:
        return True, "identical"
    if _abelianization(r1, params) != _abelianization(r2, params):
        return False, "abelianization"
    s1 = _Search(r1, config, params)
    s2 = _Search(r2, config, params)
    if s1.start == s2.start:
        return True, "met-in-search"
    while True:
        e1, e2 = s1.exhausted(), s2.exhausted()
        if e1 and e2:
            return False, "search-exhausted"
        if e2 or (not e1 and len(s1.seen) <= len(s2.seen)):
            side, other = s1, s2
        else:
            side, other = s2, s1
        if side.expand_one(other_seen=other.seen) is not None:
            return True, "met-in-search"


def oracle_equal(w1: Word, w2: Word, config: OracleConfig,
                 params: GroupParams) -> bool:
    return oracle_equal_verdict(w1, w2, config, params)[0]
