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
from .dihedral import (BabForm, bab_of_runs, tau_2gen, tau_last_letter,
                       to_bab_form)
# to_bab_form, decompose_p2g and is_p2g_critical stay imported, though
# unused here, because benchmark/tracing.py wraps them at these names
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


def _ur_candidates(w: Word, end: int, meter=None,
                   ) -> list[tuple[int, int, int, BabForm]]:
    """Valid u_r suffixes of w[:end], shortest first, as (r0, alpha,
    beta, bab): u_r = w[r0:end] is a P2G {a,b} word with name-a ends, one
    c-sign in each outer block and c-exponents alpha, beta, whose hat
    bab_of_runs rewrites to b^i a^j b^k.

    One walk reads w[:end] right to left, one metered letter each, and
    keeps the signed exponents of the hat's name runs; each name-a letter
    of the 3rd or 5th run starts a candidate.  It stops at the first
    letter that rules out every longer suffix: a 6th run, a b-letter
    closing a non-trailing {a,c} block that holds a c-letter (inner, or
    stranded between b-letters), a letter against its run's sign (a
    cancelling pair in the hat) or a c-letter against its block's.
    """
    out: list[tuple[int, int, int, BabForm]] = []
    if end == 0 or w[end - 1] % 3 != _A_LETTER:
        return out
    runs: list[int] = []  # left to right: runs[0] is the one being read
    beta = z = 0          # c-exponents of the closed blocks, the open one
    for r0 in range(end - 1, -1, -1):
        l = w[r0]
        name, sign = l % 3, (1 if l < 3 else -1)
        if name == _C_LETTER:
            if z * sign < 0:
                break
            z += sign
            continue
        if name == _B_LETTER:
            if z and len(runs) > 1:
                break
            beta, z = beta + z, 0
        # the runs alternate a, b, a, ... from the right end
        if (len(runs) % 2 == 1) != (name == _A_LETTER):
            if len(runs) == 5:
                break
            runs.insert(0, 0)
        if runs[0] * sign < 0:
            break
        runs[0] += sign
        if len(runs) in (3, 5):  # w[r0] is a name-a letter
            bab = bab_of_runs(runs)
            if bab is not None:
                out.append((r0, z, beta, bab))
    if meter:
        meter.add(end - r0)
    return out


def _sharp_tail(alpha: int, i: int) -> Word:
    """c^alpha b^i: the letters appended to u_p u_q to form u_sharp."""
    return power_word(_C_LETTER, alpha) + power_word(_B_LETTER, i)


def _critical_suffixes(w: Word, end: int, params: GroupParams, meter=None):
    """Yield (s, p_end, candidate, scan) for every s, right to left, at
    which w[s:end] is critical of type {a,b,c}; within one s, candidates
    come shortest first.

    candidate is an (r0, alpha, beta, bab) entry of _ur_candidates; scan,
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
    for cand in _ur_candidates(w, end, meter):
        scan = P2GSuffixScanner("bc", params)
        for l in reversed(_sharp_tail(cand[1], cand[3].i)):
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
             cand: tuple[int, int, int, BabForm],
             scan: P2GSuffixScanner) -> AbcWitness:
    """The witness of w[s:end], from what _critical_suffixes yielded for
    it, while scan still holds its state at s."""
    r0, alpha, beta, bab = cand
    u_r = w[r0:end]
    d = P2GWitness(u_r, "ab", *outer_blocks(u_r, "ab"))
    u_sharp = w[s:r0] + _sharp_tail(alpha, bab.i)
    sw = p2g_witness(scan.state, u_sharp, "bc")
    # hat(u_sharp) ends in b, so tau of it ends in a name-c letter
    eps = 1 if tau_last_letter(sw.hat_witness) < 3 else -1
    return AbcWitness(w[s:end], p_end - s, r0 - s, d, bab, u_sharp, sw, eps,
                      sw.alpha, beta)


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
