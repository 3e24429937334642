"""Shared test utilities: word generators and an exact 2x2 matrix witness
for equality in the dihedral Artin subgroups.

The matrix witness represents <x, y | m-alternating relation> by

    x -> [[1, L], [0, 1]],   y -> [[1, 0], [-L, 1]],   L = 2 cos(pi / m),

with exact arithmetic in Z[L] (L = 1, sqrt2, golden ratio, sqrt3 for
m = 3, 4, 5, 6).  Equal images plus an equal total exponent sum certify
equality in the subgroup: the representation's kernel lies in the centre,
whose nontrivial elements all have nonzero total exponent sum.  The
helper is additionally cross-validated against the BFS oracle in
tests/test_dihedral.py.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator

from artinword.core import (GroupParams, Word, inverse_letter, invert_word,
                            make_alternating, power_word)

# lambda^2 = c0 + c1 * lambda; fold=True when lambda is rational (= 1)
_LAMBDA_SQ = {3: (1, 0, True), 4: (2, 0, False), 5: (1, 1, False),
              6: (3, 0, False)}


class PairRep:
    """Exact reflection-style representation for a 2-generator pair."""

    def __init__(self, pair: str, params: GroupParams):
        m = params.m(pair)
        if m not in _LAMBDA_SQ:
            raise ValueError(f"no exact representation tabulated for m={m}")
        self.c0, self.c1, self.fold = _LAMBDA_SQ[m]
        self.names = (ord(pair[0]) - 97, ord(pair[1]) - 97)
        one, zero, lam = (1, 0), (0, 0), (0, 1)
        neg_lam = (0, -1)
        x = (one, lam, zero, one)
        x_inv = (one, neg_lam, zero, one)
        y = (one, zero, neg_lam, one)
        y_inv = (one, zero, lam, one)
        self.gens = {self.names[0]: x, self.names[0] + 3: x_inv,
                     self.names[1]: y, self.names[1] + 3: y_inv}

    def _mul_scalar(self, a, b):
        p, q = a
        u, v = b
        return (p * u + q * v * self.c0, p * v + q * u + q * v * self.c1)

    def _add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def _mat_mul(self, A, B):
        a, b, c, d = A
        e, f, g, h = B
        mul, add = self._mul_scalar, self._add
        return (add(mul(a, e), mul(b, g)), add(mul(a, f), mul(b, h)),
                add(mul(c, e), mul(d, g)), add(mul(c, f), mul(d, h)))

    def image(self, w: Word):
        M = ((1, 0), (0, 0), (0, 0), (1, 0))
        for l in w:
            M = self._mat_mul(M, self.gens[l])
        if self.fold:
            return tuple(p + q for p, q in M)
        return M

    def equal(self, u: Word, v: Word) -> bool:
        """Certified equality in <x, y> (images and exponent sums agree)."""
        eu = sum(1 if l < 3 else -1 for l in u)
        ev = sum(1 if l < 3 else -1 for l in v)
        return eu == ev and self.image(u) == self.image(v)


def ac_equal(u: Word, v: Word) -> bool:
    """Equality in the free abelian subgroup <a, c>."""
    def vec(w):
        ea = sum(1 if l < 3 else -1 for l in w if l % 3 == 0)
        ec = sum(1 if l < 3 else -1 for l in w if l % 3 == 2)
        return ea, ec
    return vec(u) == vec(v)


def bab_word(i: int, j: int, k: int) -> Word:
    """The word b^i a^j b^k."""
    return power_word(1, i) + power_word(0, j) + power_word(1, k)


def reduced_words(letters: Iterable[int], max_len: int,
                  min_len: int = 0) -> Iterator[Word]:
    """All freely reduced words over the given letters, by length."""
    letters = tuple(letters)
    for L in range(min_len, max_len + 1):
        if L == 0:
            yield ()
            continue
        stack: list[Word] = [(l,) for l in letters]
        while stack:
            w = stack.pop()
            if len(w) == L:
                yield w
                continue
            for l in letters:
                if l != inverse_letter(w[-1]):
                    stack.append(w + (l,))


def random_raw_word(rng: random.Random, length: int) -> Word:
    return tuple(rng.randrange(6) for _ in range(length))


def random_reduced_word(rng: random.Random, length: int,
                        letters: tuple[int, ...] = tuple(range(6))) -> Word:
    w: list[int] = []
    while len(w) < length:
        l = rng.choice(letters)
        if w and l == inverse_letter(w[-1]):
            continue
        w.append(l)
    return tuple(w)


def pair_letters(pair: str) -> tuple[int, ...]:
    i, j = ord(pair[0]) - 97, ord(pair[1]) - 97
    return (i, j, i + 3, j + 3)


def random_abc_flavoured(rng: random.Random, params: GroupParams) -> Word:
    """Random words shaped like {b,c}-head + c-power + b^iab^k-style tail,
    where {a,b,c}-critical words actually live."""
    from artinword.core import free_reduce

    head = random_reduced_word(rng, rng.randint(2, params.n + 3),
                               pair_letters("bc"))
    mid = power_word(2, rng.randint(-2, 2))
    s = rng.choice((1, -1))
    p = rng.randint(1, 3)
    e1, e2 = rng.randint(-1, 1), rng.randint(-1, 1)
    shapes = (
        power_word(0, s * p) + power_word(1, s) + power_word(0, s),
        power_word(0, s) + power_word(1, s) + power_word(0, s * p),
        (power_word(0, s) + power_word(2, e1) + power_word(1, s)
         + power_word(2, e2) + power_word(0, s)),
    )
    tail = shapes[rng.randrange(3)]
    return free_reduce(head + mid + tail)


def decorate_with_z(rng: random.Random, crit: Word, pair: str,
                    params: GroupParams) -> Word:
    """Insert commuting-generator powers into a 2-generator word's outer
    blocks, producing a P2G-shaped word with the same hat."""
    from artinword.p2g import commuting_z

    z = ord(commuting_z(pair)) - 97
    x = ord("a" if pair == "ab" else "c") - 97
    out = list(crit)
    f = rng.randint(-2, 2)
    if out and out[-1] % 3 == x and f:
        tail = [z if f > 0 else z + 3] * abs(f)
        out[len(out) - 1:len(out) - 1] = tail
    e = rng.randint(-2, 2)
    if out and out[0] % 3 == x and e:
        head = [z if e > 0 else z + 3] * abs(e)
        out[1:1] = head
    return tuple(out)


def ur_candidates_reference(w: Word, end: int, params: GroupParams) -> list:
    """Brute-force u_r candidates of w[:end] for abc_critical: every
    name-a start, shortest suffix first, with no early stop.  Each suffix
    must decompose as a P2G {a,b} word whose outer blocks carry one-signed
    c-powers and whose hat to_bab_form accepts."""
    from artinword.dihedral import to_bab_form
    from artinword.p2g import decompose_p2g

    out = []
    if end == 0 or w[end - 1] % 3 != 0:
        return out
    for r0 in range(end - 1, -1, -1):
        if w[r0] % 3 != 0:
            continue
        d = decompose_p2g(w[r0:end], "ab", params)
        if d is None:
            continue
        if abs(d.alpha) != sum(1 for l in d.u_p if l % 3 == 2):
            continue
        if abs(d.beta) != sum(1 for l in d.u_s if l % 3 == 2):
            continue
        bab = to_bab_form(d.hat, params)
        if bab is not None:
            out.append((r0, d, bab))
    return out


# Reference checkers for the 2-generator and P2G suffix scanners: the
# direct whole-word definitions (a profile scan, end runs and a case
# analysis over the six witness shapes), independent of the scanners.

def profile(w: Word, pair: str, params: GroupParams):
    """Longest positive/negative alternating substring lengths, capped at m.

    Single scan; raises ValueError on letters outside the pair.
    """
    from artinword.dihedral import AlternationProfile, _check_pair

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


def critical_2gen_reference(w: Word, pair: str, params: GroupParams):
    """Witness iff w is a 2-generator critical word over the pair.

    Unreduced or empty words are never critical.  Linear time.
    """
    from artinword.core import is_freely_reduced
    from artinword.dihedral import (
        NEGATIVE_LEFT, NEGATIVE_RIGHT, POSITIVE_LEFT, POSITIVE_RIGHT,
        UNSIGNED_NEG_POS, UNSIGNED_POS_NEG, TwoGenCriticalWitness)

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


def p2g_critical_reference(w: Word, pair: str, params: GroupParams) -> bool:
    """P2G criticality from the definition: w is freely reduced, has a
    P2G decomposition, each outer block's z-letters carry one sign, and
    the hat is critical by critical_2gen_reference."""
    from artinword.core import is_freely_reduced
    from artinword.p2g import commuting_z, decompose_p2g

    if not is_freely_reduced(w):
        return False
    d = decompose_p2g(w, pair, params)
    if d is None:
        return False
    z = ord(commuting_z(pair)) - 97
    for block in (d.u_p, d.u_s):
        if len({l < 3 for l in block if l % 3 == z}) > 1:
            return False
    return critical_2gen_reference(d.hat, pair, params) is not None


def relator_words(n: int) -> list[Word]:
    """Every cyclic conjugate of the relators of G(n) and their inverses."""
    rels = [(0, 1, 0, 4, 3, 4), (0, 2, 3, 5),
            make_alternating(1, 2, n, "start")
            + invert_word(make_alternating(2, 1, n, "start"))]
    out = []
    for r in rels:
        for v in (r, invert_word(r)):
            out.extend(v[i:] + v[:i] for i in range(len(v)))
    return out


def relator_pair_word(rng: random.Random, n: int, length: int,
                      insertions: int, flip: bool) -> Word:
    """w w2^-1 for a random freely reduced w of the given length, where w2
    is w with relator words inserted at random places (so the product is
    trivial in G(n)), or, with flip, also one letter's sign flipped."""
    w = random_reduced_word(rng, length)
    rels = relator_words(n)
    w2 = list(w)
    for _ in range(insertions):
        p = rng.randrange(len(w2) + 1)
        w2[p:p] = rng.choice(rels)
    if flip:
        p = rng.randrange(len(w2))
        w2[p] = inverse_letter(w2[p])
    return w + invert_word(tuple(w2))
