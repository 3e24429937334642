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
from collections import deque
from typing import Iterable, Iterator, Optional

from artinword.core import (GroupParams, Letter, Word, inverse_letter,
                            invert_word, make_alternating, power_word)
from artinword.dihedral import (NEGATIVE_LEFT, NEGATIVE_RIGHT, POSITIVE_LEFT,
                                POSITIVE_RIGHT, UNSIGNED_NEG_POS,
                                UNSIGNED_POS_NEG)
from artinword.rrs import Meter

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


# Reference for dihedral.to_bab_form: the two-ended tau scan, which
# rewrites v stage by stage into b^i a^j b^k.

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


def to_bab_form_reference(v: Word, params: GroupParams) -> Optional[BabForm]:
    """Decide whether the {a,b}-word v (with name-a first and last letters)
    is transformable by tau-moves into b^i a^j b^k, and return (i, j, k).

    Implements the two-ended scan with the flip flag; the word sits in a
    deque and every stage consumes the letters it rewrites, so the whole
    scan is linear.  dihedral.to_bab_form reads the same answer off v's
    name runs and is tested against this.
    """
    from artinword.dihedral import BabForm, _scan

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


def ur_candidates_reference(w: Word, end: int, params: GroupParams) -> list:
    """Brute-force u_r candidates of w[:end] for abc_critical: every
    name-a start, shortest suffix first, with no early stop.  Each suffix
    must decompose as a P2G {a,b} word whose outer blocks carry one-signed
    c-powers and whose hat to_bab_form_reference accepts."""
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
        bab = to_bab_form_reference(d.hat, params)
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


# The P2G decomposition and criticality check as two separate passes:
# the structural split, a z-sign pass per outer block and a whole-word
# 2-generator check of the hat.  p2g.is_p2g_critical does all of this in
# one scanner pass; these are the reference it is tested against.

def decompose_p2g_reference(w: Word, pair: str, params: GroupParams):
    """Structural P2G decomposition with maximal outer blocks, or None.

    The split is a convention (hat, alpha and beta do not depend on it);
    criticality is not checked here.
    """
    from artinword.p2g import P2G_TYPES, P2GWitness, commuting_z

    if pair not in P2G_TYPES:
        raise ValueError(f"P2G type must be one of {P2G_TYPES}, got {pair!r}")
    if not w:
        return None
    x_idx = ord("a" if pair == "ab" else "c") - 97
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


def p2g_witness_reference(w: Word, pair: str, params: GroupParams):
    """Witness iff w is a P2G-critical word of the given type.

    On top of the structural decomposition this requires the z-letters of
    each outer block to carry a single sign (otherwise tau would not
    preserve length) and the hat word to be 2-generator critical.
    """
    from artinword.core import is_freely_reduced
    from artinword.dihedral import is_critical_2gen
    from artinword.p2g import P2GWitness, commuting_z

    if not is_freely_reduced(w):
        return None
    d = decompose_p2g_reference(w, pair, params)
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


# Reference checker for the {a,b,c}-critical scan: the whole-word
# definition, one candidate u_r at a time, with its own u_p | u_q split
# and a separate P2G {b,c} check of each u_sharp.

def _split_before(w: Word, r0: int):
    """p_end for the u_p | u_q split of w[:r0] (r0 > 0), or None if invalid.

    u_p is the maximal leading block: a b-power, or an {a,c}-word starting
    with c; every name-a letter left of r0 must land inside u_p.
    """
    first = w[0] % 3
    if first == 0:
        return None
    i = 0
    if first == 1:
        while i < r0 and w[i] % 3 == 1:
            i += 1
    else:
        while i < r0 and w[i] % 3 != 1:
            i += 1
    for j in range(i, r0):
        if w[j] % 3 == 0:
            return None
    return i


def _witness_at(w: Word, r0: int, d, bab, params: GroupParams):
    from artinword.abc_critical import AbcWitness, _sharp_tail
    from artinword.dihedral import tau_last_letter

    p_end = _split_before(w, r0)
    if p_end is None:
        return None
    u_sharp = w[:r0] + _sharp_tail(d, bab)
    sw = p2g_witness_reference(u_sharp, "bc", params)
    if sw is None:
        return None
    # hat(u_sharp) ends in b, so tau of it ends in a name-c letter
    eps = 1 if tau_last_letter(sw.hat_witness) < 3 else -1
    return AbcWitness(
        word=w,
        p_end=p_end,
        r_start=r0,
        ur_witness=d,
        bab=bab,
        u_sharp=u_sharp,
        sharp_witness=sw,
        epsilon=eps,
        alpha=sw.alpha,
        beta=d.beta,
    )


def abc_witness_reference(w: Word, params: GroupParams):
    """Witness iff w is critical of type {a,b,c}.

    Candidate u_r suffixes are tried shortest first, which maximizes u_q
    and gives condition (iv) the most room; the first full witness wins.
    """
    from artinword.core import is_freely_reduced

    if not w or not is_freely_reduced(w):
        return None
    if w[-1] % 3 != 0 or w[0] % 3 == 0:
        return None
    for r0, d, bab in ur_candidates_reference(w, len(w), params):
        if r0 == 0:
            continue
        witness = _witness_at(w, r0, d, bab, params)
        if witness is not None:
            return witness
    return None


# Reference for rrs._distinguished: the chain step's scan as two leftward
# passes, one for the distinguished letter and one past the letters of
# skip_name left of it, each metering its own letters.

def _scan_distinguished(host: Word, from_idx: int, phases: tuple[int, ...],
                        meter: Optional[Meter]) -> Optional[int]:
    """Scan leftward from from_idx for the distinguished letter.

    phases lists the name indices to satisfy in scan order; the last entry
    is the distinguished name.  Returns its position, or None at the left
    end.  E.g. phases (1, 2) = "a name-b letter, then the first name-c".
    """
    i = from_idx
    seen = 0
    visited = 0
    while i >= 0:
        visited += 1
        if host[i] % 3 == phases[seen]:
            seen += 1
            if seen == len(phases):
                if meter:
                    meter.add(visited)
                return i
        i -= 1
    if meter:
        meter.add(visited)
    return None


def _left_neighbour(host: Word, pos: int, skip_name: int,
                    meter: Optional[Meter]) -> Optional[int]:
    i = pos - 1
    visited = 0
    while i >= 0 and host[i] % 3 == skip_name:
        i -= 1
        visited += 1
    if meter:
        meter.add(visited + 1)
    return i if i >= 0 else None


def distinguished_reference(host: Word, e: int, phases: tuple[int, ...],
                            meter: Optional[Meter]):
    """(pos, lft) or None, as the chain step from the cut e found them:
    skip_name was c for phases (1, 2) and a for the other two."""
    pos = _scan_distinguished(host, e - 1, phases, meter)
    if pos is None:
        return None
    lft = _left_neighbour(host, pos, 2 if phases == (1, 2) else 0, meter)
    return None if lft is None else (pos, lft)


# The scanners as they were before the scan kernel, one object per scan
# and one feed per letter, the P2G scanner feeding its hat to an inner
# 2-generator scanner: the reference that dihedral.scan_letters and its
# wrappers are tested against, copied verbatim.

# the letter names of each generator pair
_PAIR_NAMES = {pair: frozenset((ord(pair[0]) - 97, ord(pair[1]) - 97))
               for pair in ("ab", "ac", "bc")}
# (x, z) name indices of each pair: its non-b name and the commuting one
_XZ = {"ab": (0, 2), "bc": (2, 0)}


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


class P2GSuffixScanner:
    """Incremental P2G-criticality test for suffixes of a fixed word.

    Letters are fed right to left; after each feed, critical tells
    whether the word fed so far is P2G-critical.  Structural state tracks
    the trailing block, confinement of the commuting generator z to the
    outer blocks, and z-sign uniformity; a 2-generator scanner consumes
    the hat subsequence.
    """

    __slots__ = ("x_idx", "z_idx", "inner", "dead", "critical", "prev",
                 "in_tail", "tail_is_xz", "tail_z_sign", "run_z",
                 "run_z_sign")

    def __init__(self, pair: str, params: GroupParams):
        self.x_idx, self.z_idx = _XZ[pair]
        self.inner = CriticalSuffixScanner(pair, params)
        self.dead = False
        self.critical = False
        self.prev = -1            # -1 until the first feed
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
        if self.prev == -1:
            if name == z_idx:
                self.dead = True    # l(u) must be a pseudo-generator
                return
            self.tail_is_xz = name == self.x_idx
        if self.in_tail and (name == 1) != self.tail_is_xz:
            if name == z_idx:
                sgn = 1 if l < 3 else -1
                if self.tail_z_sign == 0:
                    self.tail_z_sign = sgn
                elif self.tail_z_sign != sgn:
                    self.dead = True
                    return
        else:
            self.in_tail = False
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


def halving_rebase(states: dict, old: Word, word: Word) -> None:
    """ChainMemo.rebase as it was, on a memo's states, for a push from old
    to word: it found the first rewritten position by halving slice
    compares.  The reference for the rebase that takes it from the push."""
    if len(word) != len(old) + 1:
        k = min(len(old), len(word))
        if old[:k] != word[:k]:
            # old[:lo] == word[:lo] and old[:k] != word[:k]: halve
            lo = 0
            while k - lo > 1:
                mid = (lo + k) // 2
                if old[lo:mid] == word[lo:mid]:
                    lo = mid
                else:
                    k = mid
            k = lo
        for known in states.values():
            del known[k + 1:]


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
