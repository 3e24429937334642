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
                            make_alternating)

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
    from artinword.core import free_reduce, power_word

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
