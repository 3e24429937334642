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

from typing import NamedTuple, Optional

from .core import GroupParams, Word, power_word
from .dihedral import BabForm, tau_2gen, tau_last_letter, to_bab_form
# decompose_p2g and is_p2g_critical stay imported, though unused here,
# because benchmark/tracing.py wraps them at these names
from .p2g import (P2GSuffixScanner, P2GWitness, decompose_p2g,
                  is_p2g_critical, outer_blocks, p2g_witness)

_A_LETTER = 0
_B_LETTER = 1
_C_LETTER = 2


class AbcWitness(NamedTuple):
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
      every hat to_bab_form accepts is freely reduced with p + n = 3.
    * the hat is one-signed with p + n = 3 and holds at least two
      b-letters.  A one-signed hat that to_bab_form accepts has 3 runs,
      so exactly one b, and a hat letter of the other sign would push
      p + n to at least 4.

    A live scanner also means the decomposition exists with one-signed
    outer c-blocks, so each start whose hat has p + n = 3 takes its
    outer blocks as they are and goes on to to_bab_form.
    """
    out: list[tuple[int, P2GWitness, BabForm]] = []
    if end == 0 or w[end - 1] % 3 != _A_LETTER:
        return out
    scan = P2GSuffixScanner("ab", params)
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
        p, n = scan.pn
        if p + n != 3:
            continue
        if b_count > 1 and scan.neg_count in (0, scan.count):
            break
        if name == _A_LETTER:
            u = w[r0:end]
            d = P2GWitness(u, "ab", *outer_blocks(u, "ab"))
            bab = to_bab_form(d.hat, params)
            if bab is not None:
                out.append((r0, d, bab))
    return out


def _sharp_tail(d: P2GWitness, bab: BabForm) -> Word:
    """c^alpha(u_r) b^i, the letters appended to u_p u_q to form u_sharp."""
    return power_word(_C_LETTER, d.alpha) + power_word(_B_LETTER, bab.i)


def _critical_suffixes(w: Word, end: int, params: GroupParams, meter=None):
    """Yield (s, p_end, candidate, scan) for every s, right to left, at
    which w[s:end] is critical of type {a,b,c}; within one s, candidates
    come shortest first.

    candidate is an (r0, u_r witness, bab) entry of _ur_candidates; scan,
    its {b,c} P2GSuffixScanner, has been fed u_sharp = w[s:r0] c^alpha b^i
    right to left and found it critical, one metered feed per letter of
    w[s:r0].  u_p = w[s:p_end] is the b-run at s, or the non-b run when
    w[s] has name c, and must hold every name-a letter left of r0: a_gate,
    the first name-a position at or right of the b nearest s, is >= r0
    exactly then.  No cap at r0 is needed, and the scans imply that w is
    freely reduced: a b-run stops at w[r0], and a u_p that reaches r0
    leaves u_sharp a hat c^x b^i, which no m >= 3 makes critical.
    """
    live = []
    for cand in _ur_candidates(w, end, params, meter):
        scan = P2GSuffixScanner("bc", params)
        for l in reversed(_sharp_tail(cand[1], cand[2])):
            scan.feed(l)
        live.append((cand, scan))
    next_a = next_b = next_nonb = a_gate = end
    for s in range(end - 1, -1, -1):
        live = [entry for entry in live if not entry[1].dead]
        if not live:
            return
        l = w[s]
        name = l % 3
        if name == _B_LETTER:
            p_end, next_b, a_gate = next_nonb, s, next_a
        else:
            p_end, next_nonb = next_b, s
            if name == _A_LETTER:
                next_a = s
        for cand, scan in live:
            if cand[0] <= s:
                break
            scan.feed(l)
            if meter:
                meter.add(1)
            if name != _A_LETTER and a_gate >= cand[0] and scan.critical:
                yield s, p_end, cand, scan


def _witness(w: Word, s: int, end: int, p_end: int,
             cand: tuple[int, P2GWitness, BabForm],
             scan: P2GSuffixScanner) -> AbcWitness:
    """The witness of w[s:end], from what _critical_suffixes yielded for
    it, while scan still holds its state at s."""
    r0, d, bab = cand
    u_sharp = w[s:r0] + _sharp_tail(d, bab)
    sw = p2g_witness(scan.state, u_sharp, "bc")
    # hat(u_sharp) ends in b, so tau of it ends in a name-c letter
    eps = 1 if tau_last_letter(sw.hat_witness) < 3 else -1
    return AbcWitness(w[s:end], p_end - s, r0 - s, d, bab, u_sharp, sw, eps,
                      sw.alpha, d.beta)


def is_abc_critical(w: Word, params: GroupParams) -> Optional[AbcWitness]:
    """Witness iff w is critical of type {a,b,c}.

    Candidate u_r suffixes are tried shortest first, which maximizes u_q
    and gives condition (iv) the most room; the first full witness wins.
    """
    for s, *found in _critical_suffixes(w, len(w), params):
        if not s:
            return _witness(w, 0, len(w), *found)
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
                                 meter=None) -> Optional[AbcWitness]:
    """The witness of the shortest {a,b,c}-critical suffix of w[:end], or
    None; the suffix starts at end - len(witness.word)."""
    end = len(w) if end is None else end
    for s, *found in _critical_suffixes(w, end, params, meter):
        return _witness(w, s, end, *found)
    return None
