"""Critical words of type {a,b,c} and their tau moves.

Such a word factors as u_p u_q u_r where u_p is a b-power or an
{a,c}-word starting with c, u_q is a {b,c}-word, and u_r is a P2G word of
type {a,b} whose ends have name a and whose hat rewrites to b^i a^j b^k.
Criticality additionally requires the companion word

    u_sharp = u_p u_q c^alpha(u_r) b^i

to be P2G-critical of type {b,c}.  The tau move rewrites the whole word as

    a^alpha(u_sharp)  p(tau(hat(u_sharp)))  a^j  c^eps  b^k  c^beta(u_r)

where eps is the sign of the final (name-c) letter of tau(hat(u_sharp)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import GroupParams, Word, is_freely_reduced, power_word
from .dihedral import BabForm, tau_2gen, to_bab_form
from .p2g import P2GSuffixScanner, P2GWitness, decompose_p2g, is_p2g_critical

_A_LETTER = 0
_B_LETTER = 1
_C_LETTER = 2


@dataclass(frozen=True)
class AbcWitness:
    word: Word
    p_end: int            # u_p = word[:p_end]
    r_start: int          # u_r = word[r_start:], u_q in between
    ur_witness: P2GWitness
    bab: BabForm          # hat(u_r) -> b^i a^j b^k
    u_sharp: Word
    sharp_witness: P2GWitness
    epsilon: int          # sign of the trailing c-letter of tau(hat(u_sharp))
    alpha: int            # a-exponent alpha(u_sharp)
    beta: int             # c-exponent beta(u_r)

    @property
    def u_p(self) -> Word:
        return self.word[:self.p_end]

    @property
    def u_q(self) -> Word:
        return self.word[self.p_end:self.r_start]

    @property
    def u_r(self) -> Word:
        return self.word[self.r_start:]


def _ur_candidates(w: Word, end: int, params: GroupParams, meter=None,
                   ) -> list[tuple[int, P2GWitness, BabForm]]:
    """Valid u_r suffixes of w[:end]: start positions with a name-a letter
    whose suffix is a P2G {a,b} word with name-a ends, uniform c-signs and
    a hat transformable to b^i a^j b^k.  Ordered shortest first.

    One P2GSuffixScanner("ab") is fed w[:end] right to left, one metered
    letter per feed.  The walk stops at the first of two rules, each of
    which rules out the current suffix and every longer one:

    * the scanner dies.  A c stranded between two b-letters sits in u_q
      of every longer suffix starting with name a, where decompose_p2g
      rejects it.  Mixed c-signs in an outer block (cC among them) stay
      in that block or end up stranded.  A cancelling pair of hat letters
      stays in every longer hat, and so does a hat p + n above 3, while
      to_bab_form needs a freely reduced hat with p + n = 3.
    * the hat is one-signed with p + n = 3 and holds at least two
      b-letters.  to_bab_form's signed branch needs exactly one b, and a
      hat letter of the other sign would push p + n to at least 4.

    A live scanner also means the decomposition exists with one-signed
    outer c-blocks, so only starts whose hat has p + n = 3 reach
    decompose_p2g and to_bab_form.
    """
    out: list[tuple[int, P2GWitness, BabForm]] = []
    if end == 0 or w[end - 1] % 3 != _A_LETTER:
        return out
    scan = P2GSuffixScanner("ab", params)
    hat = scan.inner
    b_count = 0
    for r0 in range(end - 1, -1, -1):
        l = w[r0]
        scan.feed(l)
        if meter:
            meter.add(1)
        if scan.dead:
            break
        name = l % 3
        if name == _C_LETTER:
            continue
        if name == _B_LETTER:
            b_count += 1
        p, n = hat.pn
        if p + n != 3:
            continue
        if b_count > 1 and hat.neg_count in (0, hat.count):
            break
        if name == _A_LETTER:
            d = decompose_p2g(w[r0:end], "ab", params)
            bab = to_bab_form(d.hat, params)
            if bab is not None:
                out.append((r0, d, bab))
    return out


def _sharp_tail(d: P2GWitness, bab: BabForm) -> Word:
    """c^alpha(u_r) b^i, the letters appended to u_p u_q to form u_sharp."""
    return power_word(_C_LETTER, d.alpha) + power_word(_B_LETTER, bab.i)


def _split_before(w: Word, r0: int) -> Optional[int]:
    """p_end for the u_p | u_q split of w[:r0] (r0 > 0), or None if invalid.

    u_p is the maximal leading block: a b-power, or an {a,c}-word starting
    with c; every name-a letter left of r0 must land inside u_p.
    """
    first = w[0] % 3
    if first == _A_LETTER:
        return None
    i = 0
    if first == _B_LETTER:
        while i < r0 and w[i] % 3 == _B_LETTER:
            i += 1
    else:
        while i < r0 and w[i] % 3 != _B_LETTER:
            i += 1
    for j in range(i, r0):
        if w[j] % 3 == _A_LETTER:
            return None
    return i


def _witness_at(w: Word, r0: int, d: P2GWitness, bab: BabForm,
                params: GroupParams) -> Optional[AbcWitness]:
    p_end = _split_before(w, r0)
    if p_end is None:
        return None
    u_sharp = w[:r0] + _sharp_tail(d, bab)
    sw = is_p2g_critical(u_sharp, "bc", params)
    if sw is None:
        return None
    th = tau_2gen(sw.hat_witness, params)
    last = th[-1]
    if last % 3 != _C_LETTER:
        raise AssertionError("tau(hat(u_sharp)) must end with a name-c letter")
    eps = 1 if last < 3 else -1
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


def is_abc_critical(w: Word, params: GroupParams) -> Optional[AbcWitness]:
    """Witness iff w is critical of type {a,b,c}.

    Candidate u_r suffixes are tried shortest first, which maximizes u_q
    and gives condition (iv) the most room; the first full witness wins.
    """
    if not w or not is_freely_reduced(w):
        return None
    if w[-1] % 3 != _A_LETTER or w[0] % 3 == _A_LETTER:
        return None
    for r0, d, bab in _ur_candidates(w, len(w), params):
        if r0 == 0:
            continue
        witness = _witness_at(w, r0, d, bab, params)
        if witness is not None:
            return witness
    return None


def tau_abc(witness: AbcWitness, params: GroupParams) -> Word:
    """The type-(a,b,c) tau move; same length, same group element."""
    th = tau_2gen(witness.sharp_witness.hat_witness, params)
    return (power_word(_A_LETTER, witness.alpha)
            + th[:-1]
            + power_word(_A_LETTER, witness.bab.j)
            + power_word(_C_LETTER, witness.epsilon)
            + power_word(_B_LETTER, witness.bab.k)
            + power_word(_C_LETTER, witness.beta))


def shortest_abc_critical_suffix(w: Word, params: GroupParams,
                                 end: Optional[int] = None,
                                 meter=None) -> Optional[int]:
    """Start index of the shortest {a,b,c}-critical suffix of w[:end]."""
    if end is None:
        end = len(w)
    if end == 0 or w[end - 1] % 3 != _A_LETTER:
        return None
    candidates = _ur_candidates(w, end, params, meter)
    if not candidates:
        return None
    # one incremental {b,c}-criticality scanner per candidate u_r, over the
    # virtual word  w[:r0] + c^alpha b^i ; entries are [r0, scanner, cursor]
    cursors = []
    for r0, d, bab in candidates:
        scan = P2GSuffixScanner("bc", params)
        for l in reversed(_sharp_tail(d, bab)):
            scan.feed(l)
        cursors.append([r0, scan, r0])
    a_below = {entry[0]: -1 for entry in cursors}  # largest a-name pos < r0
    run_nonb = 0
    for s in range(end - 1, -1, -1):
        name = w[s] % 3
        run_nonb = run_nonb + 1 if name != _B_LETTER else 0
        if name == _A_LETTER:
            for r0 in a_below:
                if s < r0 and a_below[r0] == -1:
                    a_below[r0] = s
            continue
        alive = False
        for entry in cursors:
            r0, scan, cur = entry
            if scan.dead:
                continue
            if r0 <= s:
                alive = True
                continue
            while cur > s:
                cur -= 1
                scan.feed(w[cur])
                if meter:
                    meter.add(1)
            entry[2] = cur
            if scan.dead:
                continue
            alive = True
            ab = a_below[r0]
            if name == _B_LETTER:
                if ab >= s:
                    continue
            else:
                if ab >= min(s + run_nonb, r0):
                    continue
            if scan.critical:
                return s
        if not alive:
            return None
    return None
