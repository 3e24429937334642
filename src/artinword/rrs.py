"""Rightward reducing sequences (RRS).

An RRS for a word w is a factorisation w = mu w_1 ... w_m w_{m+1} gamma
together with critical words u_1 = w_1, u_i = (tail of tau(u_{i-1})) w_i,
whose left-to-right tau replacements leave a cancelling pair against
f(gamma), shortening the word by exactly 2.

This module provides the validity checker, application with trace events,
and the right-to-left search for the unique optimal RRS of w x with w in
W.  The optimality predicate and the brute-force enumerator that test the
search live in artinword.verify.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, NamedTuple, Optional, Union

from .core import (
    GroupParams,
    Word,
    commutes,
    format_word,
    free_reduce,
    inverse_letter,
    make_letter,
    power_word,
)
from .dihedral import tau_last_letter
from .p2g import (
    P2GWitness,
    commuting_z,
    is_p2g_critical,
    shortest_p2g_critical_suffix,
    tau_p2g,
)
from .abc_critical import (
    AbcWitness,
    is_abc_critical,
    shortest_abc_critical_suffix,
    tau_abc,
)

# criticality types of the u_i
P2G_AB = "p2g-ab"
P2G_BC = "p2g-bc"
ABC = "abc"
CRITICAL_TYPES = (P2G_AB, P2G_BC, ABC)
# the generator pair of each P2G type
_PAIRS = {P2G_AB: "ab", P2G_BC: "bc"}
# the names a chain step scans leftward for, in turn, from each type's cut
_PHASES = {P2G_AB: (1, 2), P2G_BC: (1, 0), ABC: (1, 2, 1, 0)}

Witness = Union[P2GWitness, AbcWitness]
# (type, u_i, witness) of one critical u_i of an RRS
Link = tuple[str, Word, Witness]


class Meter:
    """Letters-visited counter for complexity reporting."""

    def __init__(self) -> None:
        self.letters = 0

    def add(self, k: int) -> None:
        self.letters += k


class TraceEvent(NamedTuple):
    step: int
    kind: str                      # tau_2gen | tau_p2g | tau_abc |
    span: tuple[int, int]          # commute-shift | free-cancel
    before: Word
    after: Word

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "kind": self.kind,
            "span": [self.span[0], self.span[1]],
            "before": format_word(self.before),
            "after": format_word(self.after),
        }


class Rrs(NamedTuple):
    """A validated RRS: host = mu w_1 .. w_m w_{m+1} gamma.

    cuts has m+2 entries: cuts[0] is the start of w_1, cuts[i] the end of
    w_i, and host[cuts[-1]:] is gamma.  us holds (type, word, witness) for
    u_1..u_m plus (None, u_{m+1}, None).
    """
    host: Word
    cuts: tuple[int, ...]
    types: tuple[str, ...]
    us: tuple[tuple[Optional[str], Word, Optional[Witness]], ...]

    @property
    def m(self) -> int:
        return len(self.types)

    @property
    def gamma(self) -> Word:
        return self.host[self.cuts[-1]:]

    def w_part(self, i: int) -> Word:
        """w_i for 1 <= i <= m+1."""
        return self.host[self.cuts[i - 1]:self.cuts[i]]


def critical_witness(word: Word, ctype: str, params: GroupParams,
                     ) -> Optional[Witness]:
    if ctype == ABC:
        return is_abc_critical(word, params)
    if ctype not in _PAIRS:
        raise ValueError(f"unknown criticality type {ctype!r}")
    return is_p2g_critical(word, _PAIRS[ctype], params)


def chain_head(ctype: str, witness: Witness, params: GroupParams) -> Word:
    """The prefix of u_{i+1} contributed by tau(u_i).

    P2G:  l(tau(hat(u_i))) beta_i   (a letter plus a z-power);
    ABC:  c^eps b^k beta_i          (beta_i a c-power).
    """
    if ctype == ABC:
        return (power_word(2, witness.epsilon)
                + power_word(1, witness.bab.k)
                + power_word(2, witness.beta))
    z = make_letter(commuting_z(witness.pair), 1)
    return ((tau_last_letter(witness.hat_witness),)
            + power_word(z, witness.beta))


def check_rrs(host: Word, cuts: tuple[int, ...], types: tuple[str, ...],
              params: GroupParams,
              links: Optional[tuple[Link, ...]] = None) -> Optional[Rrs]:
    """Validate a declared factorisation + typing as an RRS (linear time).

    links, when given, must be the Links u_1..u_m of these cuts and
    types, each already found critical of its type: find_optimal_rrs
    passes those its ChainMemo derived.  Only the cuts and the test on
    u_{m+1} are then checked; without links every u_i is derived by the
    chain rule and checked too.  It does not ask that mu =
    host[:cuts[0]] be freely reduced, but apply_rrs leaves mu as it is.
    """
    m = len(types)
    # sorted, inside host, gamma nonempty
    if (len(cuts) != m + 2 or cuts[0] < 0 or cuts[-1] >= len(host)
            or list(cuts) != sorted(cuts)):
        return None
    # w_i nonempty for i <= m; w_{m+1} may be empty only when m > 0
    nonempty = cuts[:max(m + 1, 2)]
    if len(set(nonempty)) < len(nonempty):
        return None
    gamma_first = host[cuts[-1]]

    if m == 0:
        us: Optional[tuple[Link, ...]] = ()
        u = host[cuts[0]:cuts[1]]
    else:
        us = _links(host, cuts, types, params) if links is None else links
        if us is None:
            return None
        ctype, _, wit = us[-1]
        u = chain_head(ctype, wit, params) + host[cuts[m]:cuts[m + 1]]
    # u is now u_{m+1}
    x = u[0]
    if x != inverse_letter(gamma_first):
        return None
    if any(not commutes(x, l) for l in u[1:]):
        return None
    return Rrs(host, tuple(cuts), tuple(types), us + ((None, u, None),))


# a chain state's slot when u_i or a link to its left is not critical, or
# when the chain from it ends without an RRS
_BAD = object()


def _grow(host: Word, left: tuple, e: int, ctype: str, params: GroupParams):
    """The slot (cuts, types, links) of the state (e, ctype) whose w_i
    starts where the chain of left ends, or _BAD when its u_i is not
    critical of type ctype.  left is a slot, or ((start,), (), ()) for
    w_1 = host[start:e]."""
    cuts, types, links = left
    u = host[cuts[-1]:e]
    if links:
        ptype, _, pwit = links[-1]
        u = chain_head(ptype, pwit, params) + u
    wit = critical_witness(u, ctype, params)
    if wit is None:
        return _BAD
    return cuts + (e,), types + (ctype,), links + ((ctype, u, wit),)


def _links(host: Word, cuts: tuple[int, ...], types: tuple[str, ...],
           params: GroupParams) -> Optional[tuple[Link, ...]]:
    """The links u_1..u_m, m = len(types), by the chain rule; None as soon
    as one of them is not critical of its type.  u_i ends at cuts[i]."""
    found = ((cuts[0],), (), ())
    for i, ctype in enumerate(types):
        found = _grow(host, found, cuts[i + 1], ctype, params)
        if found is _BAD:
            return None
    return found[2]


def apply_rrs(rrs: Rrs, params: GroupParams, want_trace: bool = False,
              ) -> tuple[Word, list[TraceEvent]]:
    """Left-to-right application: tau each u_i, shift u_{m+1}, cancel.

    Returns the result (2 letters shorter on the reducer's inputs) and
    the trace events when requested.  Only the rewritten tail
    host[cuts[0]:] is freely reduced, and then cancelled against mu =
    host[:cuts[0]] at the junction, so the result is freely reduced when
    mu is; mu itself is kept as it is.  Every RRS that find_optimal_rrs
    returns has a freely reduced mu, as its w is in W.
    """
    letters = list(rrs.host)
    events: list[TraceEvent] = []
    m = rrs.m
    start, end = rrs.cuts[0], rrs.cuts[1]
    step = 0
    for i in range(m):
        ctype, _, wit = rrs.us[i]
        tau = (tau_abc(wit, params) if ctype == ABC
               else tau_p2g(wit, params))
        if want_trace:
            if ctype == ABC:
                kind = "tau_abc"
            elif wit.word == wit.hat:
                kind = "tau_2gen"
            else:
                kind = "tau_p2g"
            events.append(TraceEvent(step, kind, (start, end),
                                     tuple(letters[start:end]), tau))
            step += 1
        letters[start:end] = tau
        # u_{i+1} is tau's chain head followed by w_{i+1}
        start = end - len(chain_head(ctype, wit, params))
        end = rrs.cuts[i + 2]
    # u_{m+1} = x v  ->  v x
    u_last = letters[start:end]
    shifted = u_last[1:] + [u_last[0]]
    if want_trace and len(u_last) > 1:
        events.append(TraceEvent(step, "commute-shift", (start, end),
                                 tuple(u_last), tuple(shifted)))
        step += 1
    letters[start:end] = shifted
    gs = rrs.cuts[-1]
    if want_trace:
        events.append(TraceEvent(step, "free-cancel", (gs - 1, gs + 1),
                                 tuple(letters[gs - 1:gs + 1]), ()))
    del letters[gs - 1:gs + 1]
    mu = rrs.host[:rrs.cuts[0]]
    tail = free_reduce(tuple(letters[len(mu):]))
    k = 0
    while (k < len(mu) and k < len(tail)
           and mu[-1 - k] == inverse_letter(tail[k])):
        k += 1
    return mu[:len(mu) - k] + tail[k:], events


def _distinguished(host: Word, e: int, phases: tuple[int, ...],
                   meter: Optional[Meter]) -> Optional[tuple[int, int]]:
    """(pos, lft) for a chain step from the cut e, or None at the left end.

    Scans host[:e] leftward for each name of phases in turn; pos is the
    letter of the last, and lft the first letter left of it whose name
    differs.  Meters e - lft letters (e + 1 when lft runs off, e when a
    phase does).
    """
    i = e
    for name in phases:
        i -= 1
        while i >= 0 and host[i] % 3 != name:
            i -= 1
    pos = i
    i -= 1
    while i >= 0 and host[i] % 3 == name:
        i -= 1
    if meter:
        meter.add(e - i if pos >= 0 else e)
    return (pos, i) if i >= 0 else None


def _first_link(e: int, ctype: str, wit: Witness) -> tuple:
    """The slot of the state (e, ctype) whose u_1 = w_1 is the critical
    suffix of host[:e] that a suffix scan found, with its witness."""
    return (e - len(wit.word), e), (ctype,), ((ctype, wit.word, wit),)


def _chain_step(host: Word, e: int, ctype: str, params: GroupParams,
                meter: Optional[Meter], memo: ChainMemo, scanned: bool,
                ) -> tuple[object, int, str, bool]:
    """The chain step from the state (e, ctype); it reads host[:e] only.

    Returns (found, e_next, type_next, scanned_next).  found is the
    state's slot when the chain ends there: a critical suffix
    host[start:e] of the step's type, the pair terminal
    host[start:e_next] host[e_next:e] of types {a,b} and the step's
    type, or _BAD for no RRS.  Otherwise found is None and the chain goes
    on from the state (e_next, type_next).  scanned tells that the
    state's suffix scan has already been made and found nothing, and
    scanned_next the same of the next state.

    With no critical suffix, _distinguished scans for the type's _PHASES.
    When lft and pos + 1 both have name b the chain goes on from lft + 1,
    else from pos + 1: as {b,c} after {a,b}, and as {a,b} or {a,b,c}, by
    the {a,b} probe there, after the other two types.  The probe is the
    suffix scan of the state (e_next, p2g-ab), so when it finds nothing
    that state does not scan again.

    Every position it reads lies left of e: the scans start at e - 1, and
    pos is found after a name-b letter to its right, so pos + 1 < e.
    """
    if not scanned:
        if ctype == ABC:
            wit = shortest_abc_critical_suffix(host, params, end=e,
                                               meter=meter)
        else:
            wit = shortest_p2g_critical_suffix(host, _PAIRS[ctype], params,
                                               end=e, meter=meter)
        if wit is not None:
            return _first_link(e, ctype, wit), -1, "", False

    dist = _distinguished(host, e, _PHASES[ctype], meter)
    if dist is None:
        return _BAD, -1, "", False
    pos, lft = dist
    if host[lft] % 3 == 1 and host[pos + 1] % 3 == 1:
        return None, lft + 1, P2G_AB if ctype == P2G_AB else P2G_BC, False
    e_next = pos + 1
    if ctype == P2G_AB:
        return None, e_next, P2G_BC, False
    wit = shortest_p2g_critical_suffix(host, "ab", params, end=e_next,
                                       meter=meter)
    if wit is None:
        return None, e_next, P2G_AB, True
    # wit is u_1 of the state (e_next, p2g-ab), whose step is this very
    # suffix, so the pair's u_1 is that state's slot
    left = memo.get(e_next, P2G_AB)
    if left is None:
        left = _first_link(e_next, P2G_AB, wit)
        memo.put(e_next, P2G_AB, left)
    found = _grow(host, left, e, ctype, params)
    if found is not _BAD:
        return found, -1, "", False
    return None, e_next, ABC, False


class ChainMemo:
    """Verified chain walks already derived on the prefixes of one word.

    states[ctype][e] is None until derived, or else the slot of the state
    (e, ctype), the outcome of the right-to-left chain walk from it.
    The slot is _BAD when the chain from it ends without an RRS or one of
    its links is not critical, and otherwise (cuts, types, links): cuts
    the ends of the chain's w_i from the start of w_1 up to e, types those
    of its u_i (the last being ctype), and links the Links u_1..u_i, each
    found critical of its type.  A state's chain steps and links read
    word[:e] only, so its slot stays valid while word[:e] is unchanged.
    """

    def __init__(self, word: Word) -> None:
        self.word = word
        self.states: dict[str, list] = {t: [] for t in CRITICAL_TYPES}

    def get(self, e: int, ctype: str):
        """The slot of the state (e, ctype), or None."""
        known = self.states[ctype]
        return known[e] if e < len(known) else None

    def put(self, e: int, ctype: str, found) -> None:
        known = self.states[ctype]
        if e >= len(known):
            known.extend([None] * (e + 1 - len(known)))
        known[e] = found

    def walk(self, e: int, ctype: str, params: GroupParams,
             meter: Optional[Meter]):
        """The slot of (e, ctype) on word.  Chain steps are taken from it
        until a state whose slot is known, or a terminal; the slots of the
        states passed are then filled in from the left, deriving and
        checking each one's link on the way."""
        passed = []
        scanned = False
        while True:
            found = self.get(e, ctype)
            if found is not None:
                break
            found, e_next, type_next, scanned = _chain_step(
                self.word, e, ctype, params, meter, self, scanned)
            if found is not None:
                self.put(e, ctype, found)
                break
            passed.append((e, ctype))
            e, ctype = e_next, type_next
        for e, ctype in reversed(passed):
            if found is not _BAD:
                found = _grow(self.word, found, e, ctype, params)
            self.put(e, ctype, found)
        return found

    def rebase(self, word: Word, cut: int) -> None:
        """Move to word, the result of a push on the current word that
        left its first cut letters as they were, keeping the states on the
        prefix the two share: those up to the first rewritten position,
        found by comparing on from cut."""
        old = self.word
        if cut < len(old):
            k = min(len(old), len(word))
            while cut < k and old[cut] == word[cut]:
                cut += 1
            for known in self.states.values():
                del known[cut + 1:]
        self.word = word


# .memo: the memo of the reduction running in this thread, if any
_active = threading.local()


@contextmanager
def chain_memo(word: Word) -> Iterator[ChainMemo]:
    """Share verified chain walks between the find_optimal_rrs calls made
    inside the block, starting from word.  Each push on the memo's word
    rebases the memo onto its result (rebase_memo); a call on any other
    word gets a fresh memo."""
    memo = ChainMemo(word)
    outer = getattr(_active, "memo", None)
    _active.memo = memo
    try:
        yield memo
    finally:
        _active.memo = outer


def rebase_memo(w: Word, word: Word, cut: int) -> None:
    """Rebase the memo of the block running in this thread, if it is on w,
    onto word, the result of a push on w that kept w[:cut]."""
    memo = getattr(_active, "memo", None)
    if memo is not None and memo.word is w:
        memo.rebase(word, cut)


def find_optimal_rrs(w: Word, x: int, params: GroupParams,
                     meter: Optional[Meter] = None) -> Optional[Rrs]:
    """Search w x for its optimal RRS (w must be in W).

    Step 1 (the m = 0 RRSs), then the chain walk of _chain_step, then the
    checking pass, which verifies every u_i's criticality.  It returns
    None when w x is in W, but not only then: at n=5 it returns None on
    the last pushes of bcbccaBcbaBCbA, BcbcAbCBabcba and CBACBcabcbaBCBc
    (onto their reduced prefixes), which are not geodesics.

    The chain walk goes through a ChainMemo, which derives and verifies
    each link u_i as it fills in the slot of the state where u_i ends.
    A state's slot reads w[:e] only, so inside a chain_memo block (one
    reduction) the slots an earlier push filled on the same prefix are
    reused: the search looks up the slot of its first state,
    taking chain steps only until a state whose slot is known.  A chain
    with a link that is not critical ends the search with None at once;
    otherwise check_rrs gets the verified links and checks only the cuts
    and u_{m+1}.  Each push_letter on the memo's word rebases it, which
    drops the states from the first rewritten position on.  Any other
    call, or a call on a word other than the memo's, starts with an empty
    memo.
    """
    L = len(w)
    inv_x = inverse_letter(x)

    # Step 1: longest suffix of w commuting with x and free of x^-1
    j = L
    while j > 0 and w[j - 1] != inv_x and commutes(w[j - 1], x):
        j -= 1
    if meter:
        meter.add(L - j + 1)
    if j == 0:
        return None
    if w[j - 1] == inv_x:
        # m = 0, cut at e, the first x right of j or L (j = L: the free
        # cancellation); it holds by construction, with no check needed,
        # as w[j:L] commutes with x and host[e] = x
        e = j
        while e < L and w[e] != x:
            e += 1
        host = w + (x,)
        return Rrs(host, (j - 1, e), (), ((None, host[j - 1:e], None),))
    # w[j-1] does not commute with x: their names are {a,b} or {b,c}
    type_i = P2G_BC if 2 in (x % 3, w[j - 1] % 3) else P2G_AB

    memo = getattr(_active, "memo", None)
    if memo is None or memo.word is not w:
        memo = ChainMemo(w)
    found = memo.walk(j, type_i, params, meter)
    if found is _BAD:
        return None
    cuts, types, links = found
    return check_rrs(w + (x,), cuts + (L,), types, params, links)
