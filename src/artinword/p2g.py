"""Pseudo-2-generated (P2G) words of types {a,b} and {b,c}.

A P2G word of type {x,b} (x = a or c) decomposes as u_p u_q u_s where the
outer blocks may carry the commuting third generator z and the middle is
a pure {x,b}-word.  Deleting every z yields the hat word; the P2G word is
critical exactly when its hat is a critical 2-generator word, and then

    tau(u) = z^alpha  tau(hat)  z^beta

with alpha/beta the z-exponents of the outer blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    GroupParams,
    Letter,
    Word,
    is_freely_reduced,
    make_letter,
    power_word,
)
from .dihedral import (
    CriticalSuffixScanner,
    TwoGenCriticalWitness,
    is_critical_2gen,
    tau_2gen,
)

P2G_TYPES = ("ab", "bc")


def pseudo_x(pair: str) -> str:
    """The non-b pseudo-generator of the pair."""
    return "a" if pair == "ab" else "c"


def commuting_z(pair: str) -> str:
    """The third generator, which commutes with the pair's x."""
    return "c" if pair == "ab" else "a"


@dataclass(frozen=True)
class P2GWitness:
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


def decompose_p2g(w: Word, pair: str, params: GroupParams,
                  ) -> Optional[P2GWitness]:
    """Structural P2G decomposition with maximal outer blocks, or None.

    The split is a convention (hat, alpha and beta do not depend on it);
    criticality is not checked here.
    """
    if pair not in P2G_TYPES:
        raise ValueError(f"P2G type must be one of {P2G_TYPES}, got {pair!r}")
    if not w:
        return None
    x_idx = ord(pseudo_x(pair)) - 97
    z_idx = ord(commuting_z(pair)) - 97
    b_idx = 1
    first, last = w[0] % 3, w[-1] % 3
    if first == z_idx or last == z_idx:
        return None

    def block_len(seq_start: int, seq_end: int, step: int, lead_name: int) -> int:
        # length of maximal run with names in {x,z} (lead_name == x_idx)
        # or the b-run (lead_name == b); scans w[seq_start:seq_end] by step
        ok = ({x_idx, z_idx} if lead_name == x_idx else {b_idx})
        k = 0
        i = seq_start
        while (i != seq_end) and (w[i] % 3 in ok):
            k += 1
            i += step
        return k

    p_len = block_len(0, len(w), 1, first)
    p_end = min(p_len, len(w) - 1)
    s_len = block_len(len(w) - 1, p_end - 1, -1, last)
    s_start = len(w) - s_len
    mid = w[p_end:s_start]
    for l in mid:
        if l % 3 == z_idx:
            return None
    if mid:
        if mid[0] % 3 == first or mid[-1] % 3 == last:
            return None
    alpha = sum(1 if l < 3 else -1 for l in w[:p_end] if l % 3 == z_idx)
    beta = sum(1 if l < 3 else -1 for l in w[s_start:] if l % 3 == z_idx)
    hat = tuple(l for l in w if l % 3 != z_idx)
    return P2GWitness(w, pair, p_end, s_start, alpha, beta, hat)


def _z_signs_uniform(w: Word, z_idx: int) -> bool:
    signs = {l < 3 for l in w if l % 3 == z_idx}
    return len(signs) <= 1


def is_p2g_critical(w: Word, pair: str, params: GroupParams,
                    ) -> Optional[P2GWitness]:
    """Witness iff w is a P2G-critical word of the given type.

    On top of the structural decomposition this requires the z-letters of
    each outer block to carry a single sign (otherwise tau would not
    preserve length) and the hat word to be 2-generator critical.
    """
    if not is_freely_reduced(w):
        return None
    d = decompose_p2g(w, pair, params)
    if d is None:
        return None
    z_idx = ord(commuting_z(pair)) - 97
    if not _z_signs_uniform(d.u_p, z_idx) or not _z_signs_uniform(d.u_s, z_idx):
        return None
    hw = is_critical_2gen(d.hat, pair, params)
    if hw is None:
        return None
    return P2GWitness(w, pair, d.p_end, d.s_start, d.alpha, d.beta,
                      d.hat, hw)


def tau_p2g(witness: P2GWitness, params: GroupParams) -> Word:
    """alpha(u) tau(hat) beta(u); same length, same group element."""
    if witness.hat_witness is None:
        raise ValueError("tau_p2g needs a critical witness")
    z = make_letter(commuting_z(witness.pair), 1)
    return (power_word(z, witness.alpha)
            + tau_2gen(witness.hat_witness, params)
            + power_word(z, witness.beta))


class P2GSuffixScanner:
    """Incremental P2G-criticality test for suffixes of a fixed word.

    Letters are fed right to left; after each feed, critical tells
    whether the word fed so far is P2G-critical.  Structural state tracks
    the trailing block, confinement of the commuting generator z to the
    outer blocks, and z-sign uniformity; a 2-generator scanner consumes
    the hat subsequence.
    """

    __slots__ = ("x_idx", "z_idx", "inner", "count", "dead", "critical",
                 "prev", "in_tail", "tail_is_xz", "tail_z_sign", "run_z",
                 "run_z_sign")

    def __init__(self, pair: str, params: GroupParams):
        self.x_idx = ord(pseudo_x(pair)) - 97
        self.z_idx = ord(commuting_z(pair)) - 97
        self.inner = CriticalSuffixScanner(pair, params)
        self.count = 0
        self.dead = False
        self.critical = False
        self.prev = -1
        self.in_tail = True
        self.tail_is_xz = False
        self.tail_z_sign = 0
        self.run_z = 0            # z-letters in the current leading xz-run
        self.run_z_sign = 0

    def feed(self, l: Letter) -> None:
        if self.dead:
            return
        self.critical = False
        name = l % 3
        z_idx = self.z_idx
        if self.prev == (l + 3) % 6:
            self.dead = True
            return
        if self.count == 0:
            if name == z_idx:
                self.dead = True    # l(u) must be a pseudo-generator
                return
            self.tail_is_xz = name == self.x_idx
        if self.in_tail:
            in_set = (name != 1) if self.tail_is_xz else (name == 1)
            if not in_set:
                self.in_tail = False
        if self.in_tail:
            if name == z_idx:
                sgn = 1 if l < 3 else -1
                if self.tail_z_sign == 0:
                    self.tail_z_sign = sgn
                elif self.tail_z_sign != sgn:
                    self.dead = True
                    return
        else:
            if name == 1:
                if self.run_z:
                    self.dead = True    # stranded z between two b-letters
                    return
                self.run_z_sign = 0
            elif name == z_idx:
                sgn = 1 if l < 3 else -1
                if self.run_z and self.run_z_sign != sgn:
                    self.dead = True
                    return
                self.run_z += 1
                self.run_z_sign = sgn
        if name != z_idx:           # else l(u) is no pseudo-generator
            inner = self.inner
            inner.feed(l)
            if inner.dead:
                self.dead = True
                return
            self.critical = inner.critical
        self.prev = l
        self.count += 1


def shortest_p2g_critical_suffix(w: Word, pair: str, params: GroupParams,
                                 end: Optional[int] = None,
                                 meter=None) -> Optional[int]:
    """Start index of the shortest P2G-critical suffix of w[:end], or None."""
    if end is None:
        end = len(w)
    scan = P2GSuffixScanner(pair, params)
    s = end
    while s > 0:
        s -= 1
        scan.feed(w[s])
        if scan.critical or scan.dead:
            break
    if meter:
        meter.add(end - s)
    return s if scan.critical else None
