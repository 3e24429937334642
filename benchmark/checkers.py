"""Checks on the reducer's outputs, computed apart from the reducer.

Nothing here imports ``artinword``: the checks use only the presentation

    G(n) = < a, b, c | aba = bab, ac = ca, n(b,c) = n(c,b) >

and the same letter encoding (0, 1, 2 for a, b, c; 3, 4, 5 for their
inverses).

* ``FpRep`` is Squier's generalised Burau representation of G(n) by 3x3
  matrices over F_p.  Two words with different images are different in G;
  equal images are evidence, not proof, of equality.
* ``abelian_lower_bound`` bounds the length of any word representing the
  same element from below, through the abelianisation of G(n).
* ``make_pair`` builds word-problem pairs whose verdict is known by
  construction.
"""

from __future__ import annotations

import random

Word = tuple[int, ...]


def inverse(w: Word) -> Word:
    return tuple((l + 3) % 6 for l in reversed(w))


def free_reduce(w: Word) -> Word:
    out: list[int] = []
    for l in w:
        if out and out[-1] == (l + 3) % 6:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def is_freely_reduced(w: Word) -> bool:
    return all(w[i] != (w[i + 1] + 3) % 6 for i in range(len(w) - 1))


def alternation(x: int, y: int, length: int) -> Word:
    """x y x y ... of the given length."""
    return tuple(x if i % 2 == 0 else y for i in range(length))


def exponent_sums(w: Word) -> tuple[int, int, int]:
    e = [0, 0, 0]
    for l in w:
        e[l % 3] += 1 if l < 3 else -1
    return e[0], e[1], e[2]


def abelianisation(w: Word, n: int) -> tuple[int, ...]:
    """Image of w in G(n)^ab.

    a and b are conjugate (aba = bab); for odd n so are b and c, and
    G^ab = Z.  For even n, G^ab = Z^2 with a, b -> (1, 0) and c -> (0, 1).
    """
    ea, eb, ec = exponent_sums(w)
    if n % 2:
        return (ea + eb + ec,)
    return (ea + eb, ec)


def abelian_lower_bound(w: Word, n: int) -> int:
    """A lower bound on the length of every word equal to w in G(n)."""
    return sum(abs(v) for v in abelianisation(w, n))


# -- random words ----------------------------------------------------------

def raw_word(rng: random.Random, length: int) -> Word:
    return tuple(rng.randrange(6) for _ in range(length))


def positive_word(rng: random.Random, length: int) -> Word:
    return tuple(rng.randrange(3) for _ in range(length))


def reduced_word(rng: random.Random, length: int) -> Word:
    w: list[int] = []
    while len(w) < length:
        l = rng.randrange(6)
        if not w or w[-1] != (l + 3) % 6:
            w.append(l)
    return tuple(w)


# -- word-problem pairs with known verdicts --------------------------------

def relator_words(n: int) -> list[Word]:
    """Every cyclic permutation of the three relators and their inverses.

    Each is trivial in G(n), so inserting one anywhere in a word leaves
    the element unchanged.
    """
    sides = [((0, 1, 0), (1, 0, 1)), ((0, 2), (2, 0)),
             (alternation(1, 2, n), alternation(2, 1, n))]
    out = []
    for left, right in sides:
        r = left + inverse(right)
        for v in (r, inverse(r)):
            out.extend(v[i:] + v[:i] for i in range(len(v)))
    return out


def make_pair(rng: random.Random, n: int, length: int, insertions: int,
              equal: bool) -> tuple[Word, Word]:
    """(w, w2): w is a random freely reduced word; w2 is w with
    ``insertions`` random relator words inserted at random places, so
    w2 = w in G(n).  When ``equal`` is false, one letter of w2 then has
    its sign flipped: that moves the abelianisation by 2 in one
    coordinate, so the two words are certainly different in G(n).
    """
    w = reduced_word(rng, length)
    rels = relator_words(n)
    w2 = list(w)
    for _ in range(insertions):
        p = rng.randrange(len(w2) + 1)
        w2[p:p] = rng.choice(rels)
    if not equal:
        p = rng.randrange(len(w2))
        w2[p] = (w2[p] + 3) % 6
        if abelianisation(w, n) == abelianisation(tuple(w2), n):
            raise AssertionError("a sign flip must move the abelianisation")
    return w, tuple(w2)


# -- the linear representation over F_p ------------------------------------

def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def _prime_factors(q: int) -> list[int]:
    out, d = [], 2
    while d * d <= q:
        if q % d == 0:
            out.append(d)
            while q % d == 0:
                q //= d
        d += 1
    if q > 1:
        out.append(q)
    return out


Matrix = tuple[int, ...]   # 3x3, row-major


def _mul(x: Matrix, y: Matrix, p: int) -> Matrix:
    return tuple((x[3 * r] * y[c] + x[3 * r + 1] * y[3 + c]
                  + x[3 * r + 2] * y[6 + c]) % p
                 for r in range(3) for c in range(3))


_IDENTITY: Matrix = (1, 0, 0, 0, 1, 0, 0, 0, 1)


class FpRep:
    """sigma_i(e_i) = -t e_i, sigma_i(e_j) = e_j + a_ij e_i over F_p, with
    a_ab = 1, a_ba = t, a_ac = a_ca = 0, a_bc = 1, a_cb = t (2cos(pi/n))^2.

    p is the least prime above 2^30 with p = 1 (mod 2n), so F_p holds a
    primitive n-th root of unity zeta and (2cos(pi/n))^2 = 2 + zeta +
    1/zeta.  t is drawn from ``rng``.  Construction verifies the three
    relators and that the length-(n-1) alternation b c b ... differs from
    c b c ....
    """

    def __init__(self, n: int, rng: random.Random):
        self.n = n
        p = (2 ** 30 // (2 * n) + 1) * 2 * n + 1
        while not _is_prime(p):
            p += 2 * n
        self.p = p
        zeta = self._primitive_root_of_unity(n, rng)
        k = (2 + zeta + pow(zeta, -1, p)) % p
        t = rng.randrange(2, p - 1)
        a = {(0, 1): 1, (1, 0): t, (0, 2): 0, (2, 0): 0,
             (1, 2): 1, (2, 1): t * k % p}
        self.gens = self._generators(t, a)
        self._check()

    def _primitive_root_of_unity(self, n: int, rng: random.Random) -> int:
        p = self.p
        factors = _prime_factors(n)
        while True:
            zeta = pow(rng.randrange(2, p - 1), (p - 1) // n, p)
            if all(pow(zeta, n // q, p) != 1 for q in factors):
                return zeta

    def _generators(self, t: int, a: dict) -> list[Matrix]:
        p = self.p
        t_inv = pow(t, -1, p)
        gens = []
        for sign in (1, -1):
            for i in range(3):
                m = list(_IDENTITY)
                for j in range(3):
                    if j == i:
                        m[3 * i + i] = (-t if sign > 0 else -t_inv) % p
                    else:
                        m[3 * i + j] = (a[i, j] if sign > 0
                                        else a[i, j] * t_inv) % p
                gens.append(tuple(m))
        for i in range(3):
            if _mul(gens[i], gens[i + 3], p) != _IDENTITY:
                raise AssertionError("generator inverse is wrong")
        return gens

    def image(self, w: Word) -> Matrix:
        p, gens, m = self.p, self.gens, _IDENTITY
        for l in w:
            m = _mul(m, gens[l], p)
        return m

    def _check(self) -> None:
        n = self.n
        for r in relator_words(n):
            if self.image(r) != _IDENTITY:
                raise AssertionError(f"relator {r} is not trivial in the "
                                     f"F_{self.p} representation")
        if (self.image(alternation(1, 2, n - 1))
                == self.image(alternation(2, 1, n - 1))):
            raise AssertionError(f"the F_{self.p} representation does not "
                                 f"separate the length-{n - 1} alternation")
