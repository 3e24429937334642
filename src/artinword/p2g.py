"""Pseudo-2-generated (P2G) words of types {a,b} and {b,c}.

A P2G word of type {x,b} (x = a or c) decomposes as u_p u_q u_s where the
outer blocks may carry the commuting third generator z and the middle is
a pure {x,b}-word.  Deleting every z yields the hat word; the P2G word is
critical exactly when its hat is a critical 2-generator word, and then

    tau(u) = z^alpha  tau(hat)  z^beta

with alpha/beta the z-exponents of the outer blocks.  A P2G scan is
dihedral.scan_letters from a P2G start state.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .core import GroupParams, Letter, Word, make_letter, power_word
# is_critical_2gen stays imported, though unused here, because
# benchmark/tracing.py wraps it at this name
from .dihedral import (
    CriticalSuffixScanner,
    TwoGenCriticalWitness,
    is_critical_2gen,
    scan_letters,
    scan_start,
    scan_word,
    state_witness,
    tau_2gen,
)

P2G_TYPES = ("ab", "bc")
# (x, z) name indices of each pair: its non-b name and the commuting one
_XZ = {"ab": (0, 2), "bc": (2, 0)}


def commuting_z(pair: str) -> str:
    """The third generator, which commutes with the pair's x."""
    return "c" if pair == "ab" else "a"


class P2GWitness(NamedTuple):
    word: Word
    pair: str              # "ab" or "bc"
    p_end: int             # u_p = word[:p_end]
    s_start: int           # u_s = word[s_start:], u_q in between
    alpha: int             # signed z-exponent of u_p
    beta: int              # signed z-exponent of u_s
    hat: Word
    hat_witness: Optional[TwoGenCriticalWitness] = None

    @property
    def u_p(self) -> Word:
        return self.word[:self.p_end]

    @property
    def u_q(self) -> Word:
        return self.word[self.p_end:self.s_start]

    @property
    def u_s(self) -> Word:
        return self.word[self.s_start:]


def _check_type(pair: str) -> None:
    if pair not in P2G_TYPES:
        raise ValueError(f"P2G type must be one of {P2G_TYPES}, got {pair!r}")


def outer_blocks(w: Word, pair: str) -> tuple[int, int, int, int, Word]:
    """(p_end, s_start, alpha, beta, hat) of the maximal outer blocks of
    w, a nonempty word whose middle w[p_end:s_start] holds no z-letter.

    u_p = w[:p_end] is the leading run of names {x, z} when w starts with
    name x, else of name b, and stops short of w's last letter; u_s is the
    like run at the right end, within w[p_end:].
    """
    x_idx, z_idx = _XZ[pair]
    last = len(w) - 1
    keep = (x_idx, z_idx) if w[0] % 3 == x_idx else (1,)
    p_end = 0
    while p_end < last and w[p_end] % 3 in keep:
        p_end += 1
    keep = (x_idx, z_idx) if w[last] % 3 == x_idx else (1,)
    s_start = last + 1
    while s_start > p_end and w[s_start - 1] % 3 in keep:
        s_start -= 1
    z, z_inv = z_idx, z_idx + 3
    if z not in w and z_inv not in w:
        return p_end, s_start, 0, 0, w
    u_p, u_s = w[:p_end], w[s_start:]
    hat = (tuple(l for l in u_p if l % 3 != z_idx) + w[p_end:s_start]
           + tuple(l for l in u_s if l % 3 != z_idx))
    return (p_end, s_start, u_p.count(z) - u_p.count(z_inv),
            u_s.count(z) - u_s.count(z_inv), hat)


def decompose_p2g(w: Word, pair: str, params: GroupParams,
                  ) -> Optional[P2GWitness]:
    """Structural P2G decomposition with maximal outer blocks, or None.

    The split is a convention (hat, alpha and beta do not depend on it);
    criticality is not checked here.
    """
    _check_type(pair)
    if not w:
        return None
    z_idx = _XZ[pair][1]
    if w[0] % 3 == z_idx or w[-1] % 3 == z_idx:
        return None
    blocks = outer_blocks(w, pair)
    mid = w[blocks[0]:blocks[1]]
    if z_idx in mid or z_idx + 3 in mid:
        return None
    return P2GWitness(w, pair, *blocks)


def is_p2g_critical(w: Word, pair: str, params: GroupParams,
                    ) -> Optional[P2GWitness]:
    """Witness iff w is a P2G-critical word of the given type: one P2G
    scan of w, right to left, decides, and its end state gives the hat's
    witness."""
    _check_type(pair)
    st = scan_word(scan_start(pair, params, p2g=True), w)
    return p2g_witness(st, w, pair) if st[1] else None


def p2g_witness(st: tuple, w: Word, pair: str) -> P2GWitness:
    """The witness of w, whose P2G scan left the critical state st."""
    blocks = outer_blocks(w, pair)
    return P2GWitness(w, pair, *blocks, state_witness(st, blocks[4], pair))


def tau_p2g(witness: P2GWitness, params: GroupParams) -> Word:
    """alpha(u) tau(hat) beta(u); same length, same group element."""
    if witness.hat_witness is None:
        raise ValueError("tau_p2g needs a critical witness")
    z = make_letter(commuting_z(witness.pair), 1)
    return (power_word(z, witness.alpha)
            + tau_2gen(witness.hat_witness, params)
            + power_word(z, witness.beta))


class P2GSuffixScanner(CriticalSuffixScanner):
    """A P2G scan, one letter per feed: after each feed, critical tells
    whether the word fed so far is P2G-critical, and the other fields
    are those of its hat."""

    __slots__ = ()

    def __init__(self, pair: str, params: GroupParams):
        _check_type(pair)
        self.state = scan_start(pair, params, p2g=True)

    def feed(self, l: Letter) -> None:
        # through this module's name CriticalSuffixScanner, where
        # benchmark/tracing.py counts the feeds of the scan kernel
        CriticalSuffixScanner.feed(self, l)


def shortest_p2g_critical_suffix(w: Word, pair: str, params: GroupParams,
                                 end: Optional[int] = None,
                                 meter=None) -> Optional[P2GWitness]:
    """The witness of the shortest P2G-critical suffix of w[:end], or
    None; the suffix starts at end - len(witness.word).  One P2G scan,
    one metered letter per letter fed."""
    _check_type(pair)
    end = len(w) if end is None else end
    s, st = scan_letters(scan_start(pair, params, p2g=True), w, end)
    if meter:
        meter.add(end - s)
    return p2g_witness(st, w[s:end], pair) if st[1] else None
