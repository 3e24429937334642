"""Brute-force ground truth, independent of the reduction machinery.

Words are explored by shortest-first search over single relator
substitutions (both directions, inverse-letter variants) plus insertions
and deletions of cancelling pairs.  This is deliberately blind to
critical words, tau moves and RRSs; it only knows the presentation.

The length bound is adaptive: it starts at len(free_reduce(w)) + slack
and re-anchors whenever a shorter representative is found, i.e. the
search covers the union of slack-balls around the best word so far.
Positive equality verdicts are certain; negative ones are bounded-search
verdicts unless the abelianization separates the inputs exactly.

Search states are packed into bytes objects for speed.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import (
    GroupParams,
    ResourceLimitError,
    Word,
    free_reduce,
    make_alternating,
)


@dataclass(frozen=True)
class OracleConfig:
    slack: int = 4
    node_cap: int = 5_000_000

    def __post_init__(self):
        if self.slack < 0:
            raise ValueError("slack must be >= 0")
        if self.node_cap <= 0:
            raise ValueError("node_cap must be positive")


_INSERT_PAIRS = [bytes((l, (l + 3) % 6)) for l in range(6)]


def _relator_table(params: GroupParams) -> list[tuple[bytes, bytes]]:
    n = params.n
    bc = bytes(make_alternating(1, 2, n, "start"))
    cb = bytes(make_alternating(2, 1, n, "start"))
    base = [
        (bytes((0, 1, 0)), bytes((1, 0, 1))),
        (bytes((3, 4, 3)), bytes((4, 3, 4))),
        (bytes((0, 2)), bytes((2, 0))),
        (bytes((3, 5)), bytes((5, 3))),
        (bc, cb),
        (bytes((l + 3) % 6 for l in bc), bytes((l + 3) % 6 for l in cb)),
    ]
    table = []
    for left, right in base:
        table.append((left, right))
        table.append((right, left))
    return table


def _move_index(params: GroupParams) -> list:
    """The moves at a position of a word, by its first two letters x y.

    Entry 6 x + y is None when x y is a cancelling pair, to be deleted,
    and otherwise holds (right, rest, k) for each relator substitution
    left -> right with left = x y + rest and k = len(left)."""
    index: list = [() for _ in range(36)]
    for left, right in _relator_table(params):
        index[6 * left[0] + left[1]] += ((right, left[2:], len(left)),)
    for pair in _INSERT_PAIRS:
        index[6 * pair[0] + pair[1]] = None
    return index


def _local_moves(w: bytes, index: list) -> tuple[list[bytes], list[bytes]]:
    """The words one relator substitution away from w, and those one
    cancelling-pair deletion away, each in order of position."""
    subs = []
    dels = []
    for i in range(len(w) - 1):
        moves = index[6 * w[i] + w[i + 1]]
        if moves is None:
            dels.append(w[:i] + w[i + 2:])
            continue
        for right, rest, k in moves:
            if not rest or w.startswith(rest, i + 2):
                subs.append(w[:i] + right + w[i + k:])
    return subs, dels


def _insertions(w: bytes) -> list[bytes]:
    """The words one cancelling-pair insertion away from w."""
    return [head + pair + tail
            for head, tail in [(w[:i], w[i:]) for i in range(len(w) + 1)]
            for pair in _INSERT_PAIRS]


def _neighbours(w: bytes, index: list, bound: int) -> list[bytes]:
    subs, dels = _local_moves(w, index)
    if len(w) + 2 <= bound:
        return subs + dels + _insertions(w)
    return subs + dels


def relator_moves(w: Word, params: GroupParams) -> list[Word]:
    """All words one relator substitution or one cancelling-pair
    insertion/deletion away from w."""
    out = []
    seen = set()
    for v in _neighbours(bytes(w), _move_index(params), len(w) + 2):
        if v not in seen:
            seen.add(v)
            out.append(tuple(v))
    return out


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
    """Adaptive shortest-first search around a start word.

    levels[k] is a heap of the pending words of length k, so words are
    expanded shortest first and, among those of one length, in byte
    order.  Lengths above the bound are never expanded, and the bound
    only falls."""

    def __init__(self, start: Word, config: OracleConfig,
                 params: GroupParams):
        self.index = _move_index(params)
        self.slack = config.slack
        self.cap = config.node_cap
        b = bytes(free_reduce(start))
        self.seen: set[bytes] = {b}
        self.min_len = len(b)
        self.bound = len(b) + self.slack
        self.levels: list[list[bytes]] = [[] for _ in range(self.bound + 1)]
        self.levels[len(b)].append(b)
        self.low = len(b)          # no word shorter than this is pending

    def exhausted(self) -> bool:
        levels = self.levels
        while self.low <= self.bound and not levels[self.low]:
            self.low += 1
        return self.low > self.bound

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
        """Expand the shortest pending node; returns a contact word when it
        lands in other_seen."""
        if self.exhausted():
            return None
        u = heapq.heappop(self.levels[self.low])
        n = len(u)
        subs, dels = _local_moves(u, self.index)
        new = self._admit(subs)
        shorter = self._admit(dels)
        if shorter:
            if n - 2 < self.min_len:
                self.min_len = n - 2
                self.bound = min(self.bound, n - 2 + self.slack)
            self.low = n - 2
            new += shorter
        if n + 2 <= self.bound:
            new += self._admit(_insertions(u))
        if len(self.seen) > self.cap:
            raise ResourceLimitError(f"oracle node cap {self.cap} exceeded")
        levels = self.levels
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


def ball(w: Word, config: OracleConfig, params: GroupParams) -> set[Word]:
    """Every word reachable from free_reduce(w) within its length + slack
    (fixed bound; used to collect complete equal-length representative
    sets for geodesic inputs)."""
    index = _move_index(params)
    start = bytes(free_reduce(w))
    bound = len(start) + config.slack
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in _neighbours(u, index, bound):
            if len(v) <= bound and v not in seen:
                seen.add(v)
                if len(seen) > config.node_cap:
                    raise ResourceLimitError(
                        f"oracle node cap {config.node_cap} exceeded")
                queue.append(v)
    return {tuple(v) for v in seen}


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
    if bytes(r1) in s2.seen or bytes(r2) in s1.seen:
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


def _two_gen_spans(w: Word) -> Iterable[tuple[int, int, str]]:
    """Spans (i, j, pair) whose letters use exactly two names."""
    L = len(w)
    for i in range(L):
        names = {w[i] % 3}
        for j in range(i + 2, L + 1):
            names.add(w[j - 1] % 3)
            if len(names) > 2:
                break
            if len(names) == 2:
                yield i, j, "".join(sorted("abc"[k] for k in names))


def equivalence_closure(w: Word, params: GroupParams,
                        cap: int = 100_000) -> set[Word]:
    """Closure of {w} under adjacent a/c swaps and tau moves on critical
    2-generator subwords.  All members share w's length and element."""
    from .dihedral import is_critical_2gen, tau_2gen

    seen = {w}
    queue = deque([w])
    while queue:
        u = queue.popleft()
        nbrs: list[Word] = []
        for i in range(len(u) - 1):
            if u[i] % 3 + u[i + 1] % 3 == 2:   # names {a, c} commute
                nbrs.append(u[:i] + (u[i + 1], u[i]) + u[i + 2:])
        for i, j, pair in _two_gen_spans(u):
            wit = is_critical_2gen(u[i:j], pair, params)
            if wit is not None:
                nbrs.append(u[:i] + tau_2gen(wit, params) + u[j:])
        for v in nbrs:
            if v not in seen:
                seen.add(v)
                if len(seen) > cap:
                    raise ResourceLimitError(
                        f"equivalence closure cap {cap} exceeded")
                queue.append(v)
    return seen
