"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 2 includes two sub-assertions that are mathematically
unattainable as stated: the two {b,c}-pair tau fixture values hold at
n=4, not at the stated n=5 (a 2x2 exact-representation argument and
bounded BFS both refute the n=5 equalities).  Those two assertions live
in a dedicated strict-xfail test so the defect stays loudly visible,
with the n=4 ground truth asserted alongside.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines.
"""

import random
import time

import pytest

from artinword.core import GroupParams, format_word, parse_word
from artinword.dihedral import is_critical_2gen, tau_2gen
from artinword.p2g import is_p2g_critical, tau_p2g
from artinword.abc_critical import is_abc_critical, tau_abc
from artinword.oracle import OracleConfig, oracle_equal, oracle_geodesic_length
from artinword.reducer import push_letter, reduce_to_geodesic
from artinword.rrs import (
    ABC,
    P2G_BC,
    Meter,
    apply_rrs,
    find_optimal_rrs,
)
from artinword.verify import ball, enumerate_all_rrs, equivalence_closure

from helpers import (
    PairRep,
    decorate_with_z,
    pair_letters,
    random_abc_flavoured,
    random_raw_word,
    random_reduced_word,
    reduced_words,
)

P = parse_word
F = format_word

N5 = GroupParams(5)
N6 = GroupParams(6)
N4 = GroupParams(4, allow_small_n=True)
CONFIG = OracleConfig(slack=4)


def test_criterion_1_showcase_reduction_fixture():
    """reduce(bcbcabacbcB) = cbcbabcbc via its length-2 RRS."""
    host = P("bcbcabacbcB")
    rrs = find_optimal_rrs(host[:-1], host[-1], N5)
    assert rrs is not None and rrs.m == 2
    assert F(rrs.w_part(1)) == "bcbcaba"
    assert rrs.types == (ABC, P2G_BC)
    assert F(rrs.w_part(2)) == "cbc"
    result, events = apply_rrs(rrs, N5, want_trace=True)
    assert F(result) == "cbcbabcbc"
    reduced, _ = reduce_to_geodesic(host, N5)
    assert F(reduced) == "cbcbabcbc"
    print("\nACCEPTANCE 1: PASS - showcase reduction fixture exact")


def test_criterion_2_attainable_tau_fixtures():
    """The three attainable tau fixture values, exact."""
    wit = is_critical_2gen(P("abbbA"), "ab", N5)
    assert F(tau_2gen(wit, N5)) == "Baaab"            # tau(ab^3A)=Ba^3b
    pw = is_p2g_critical(P("acbbbCA"), "ab", N5)
    assert F(tau_p2g(pw, N5)) == "cBaaabC"            # tau(acb^3CA)=cBa^3bC
    aw = is_abc_critical(P("bcbcaba"), N5)
    assert F(tau_abc(aw, N5)) == "cbcbacb"            # tau(bcbcaba)=cbcbacb
    print("ACCEPTANCE 2 (attainable part): PASS - 3 of 5 fixture values "
          "exact; 2 are n=5-unattainable, see the strict xfail")


@pytest.mark.xfail(strict=True, reason=(
    "defective fixtures: tau(bc^2bcBC)=CBcbc^2b and "
    "tau(bc^2bcBa^2C)=CBcbc^2ba^2 are stated for n=5, but bc^2bcBC is "
    "not critical at n=5 and the claimed equalities fail in G(5): an "
    "exact 2x2 representation over Z[phi] separates the words, and "
    "bounded BFS agrees.  Both equalities hold at n=4."))
def test_criterion_2_bc_values_as_stated_n5():
    wit = is_critical_2gen(P("bccbcBC"), "bc", N5)
    assert wit is not None
    assert F(tau_2gen(wit, N5)) == "CBcbccb"
    pw = is_p2g_critical(P("bccbcBaaC"), "bc", N5)
    assert pw is not None
    assert F(tau_p2g(pw, N5)) == "CBcbccbaa"


def test_criterion_2_bc_values_ground_truth_n4():
    """The two {b,c} fixture equalities do hold in G(4)."""
    config = OracleConfig(slack=4)
    assert oracle_equal(P("bccbcBC"), P("CBcbccb"), config, N4)
    assert oracle_equal(P("bccbcBaaC"), P("CBcbccbaa"), config, N4)
    print("ACCEPTANCE 2 (ground truth): PASS - the two {b,c} equalities "
          "verified at n=4, refuted at n=5")


def test_criterion_3_n4_boundary():
    """bacbcbabcB admits no RRS at n=4 yet is not geodesic (length 8)."""
    w = P("bacbcbabcB")
    assert enumerate_all_rrs(w, N4) == []
    got = oracle_geodesic_length(w, OracleConfig(slack=2), N4)
    assert got == 8 < 10
    # critical subwords of the RRS kinds: bab, plus the full {b,c}-block
    # cbcb (a full m=4 alternation) -- neither starts an RRS here
    crit_subwords = set()
    for i in range(len(w)):
        for j in range(i + 2, len(w) + 1):
            sub = w[i:j]
            if is_p2g_critical(sub, "ab", N4) or \
               is_p2g_critical(sub, "bc", N4) or \
               is_abc_critical(sub, N4):
                crit_subwords.add(sub)
    assert P("bab") in crit_subwords
    assert crit_subwords == {P("bab"), P("cbcb")}
    print("ACCEPTANCE 3: PASS - n=4 word admits no RRS yet reduces to "
          "length 8 < 10 (incompleteness below n=5)")


class Corpus:
    """Criterion-4 corpus and the W-words it reaches (shared with 5)."""
    words = None
    w_words = None
    elapsed = None


def _run_criterion_4():
    rng = random.Random(20260808)
    t0 = time.time()
    w_words = {5: set(), 6: set()}
    total = 0
    for params, n in ((N5, 5), (N6, 6)):
        for _ in range(5000):
            L = rng.randint(0, 12)
            w = random_raw_word(rng, L)
            cur = ()
            for x in w:
                cur, _ = push_letter(cur, x, params)
                if len(cur) <= 10:
                    w_words[n].add(cur)
            assert len(cur) == oracle_geodesic_length(w, CONFIG, params), F(w)
            assert oracle_equal(w, cur, CONFIG, params), F(w)
            total += 1
    Corpus.words = total
    Corpus.w_words = w_words
    Corpus.elapsed = time.time() - t0


def test_criterion_4_oracle_equivalence():
    """10,000 random words, |w| <= 12, n in {5,6}: reducer length equals
    BFS-oracle length and the result is oracle-equal to the input."""
    _run_criterion_4()
    assert Corpus.words == 10000
    assert Corpus.elapsed < 1800
    print(f"ACCEPTANCE 4: PASS - 10000/10000 words agree with the oracle "
          f"in {Corpus.elapsed:.0f}s (budget 1800s)")


def test_criterion_5_w_completeness():
    """For W-words reached in criterion 4 (|w| <= 10) and every letter x:
    find_optimal_rrs absent iff enumerate finds nothing; when present the
    optimal RRS is unique and is the one found."""
    if Corpus.w_words is None:
        _run_criterion_4()
    checked = 0
    with_rrs = 0
    for params, n in ((N5, 5), (N6, 6)):
        for w in Corpus.w_words[n]:
            for x in range(6):
                found = find_optimal_rrs(w, x, params)
                every = enumerate_all_rrs(w + (x,), params)
                assert (found is None) == (not every), (F(w), x, n)
                checked += 1
                if found is None:
                    continue
                with_rrs += 1
                best = max(r.cuts[0] for r in every)
                optimal = [r for r in every
                           if r.cuts[0] == best and _opt_ii_iii(r, params)]
                assert len(optimal) == 1, (F(w), x, n)
                assert optimal[0].cuts == found.cuts
                assert optimal[0].types == found.types
    print(f"ACCEPTANCE 5: PASS - find/enumerate agree on {checked} pushes "
          f"({with_rrs} with an RRS; optimal unique each time)")


def _opt_ii_iii(rrs, params):
    gamma_first = rrs.host[rrs.cuts[-1]]
    if gamma_first in rrs.w_part(rrs.m + 1):
        return False
    for i in range(1, rrs.m):
        prev_t = rrs.us[i - 1][0]
        cur_t, _, cur_wit = rrs.us[i]
        if prev_t == ABC or cur_wit.alpha != 0:
            continue
        if cur_t == ABC:
            if prev_t != "p2g-ab":
                return False
        elif cur_t == prev_t:
            return False
    return True


def test_criterion_6_tau_move_suite():
    """Involution, length preservation, end-name change and group
    equality for every 2-generator critical word up to length 12
    (exhaustive; pairs {a,b} and {b,c}, n in {5,6}) and for every
    P2G/ABC witness found by fuzzing."""
    checked = 0
    crit_samples = {}
    rng0 = random.Random(404)
    for pair, params in (("ab", N5), ("bc", N5), ("bc", N6)):
        rep = PairRep(pair, params)
        samples = []
        for w in reduced_words(pair_letters(pair), 12, min_len=1):
            wit = is_critical_2gen(w, pair, params)
            if wit is None:
                continue
            t = tau_2gen(wit, params)
            assert len(t) == len(w)
            assert t[0] % 3 != w[0] % 3 and t[-1] % 3 != w[-1] % 3
            assert rep.equal(w, t), (F(w), F(t))
            wit2 = is_critical_2gen(t, pair, params)
            assert wit2 is not None and tau_2gen(wit2, params) == w
            checked += 1
            if rng0.random() < 0.01:
                samples.append(w)
        crit_samples[(pair, params.n)] = samples
    assert checked > 10000

    rng = random.Random(77)
    p2g_found = abc_found = 0
    rep_cache = {("ab", 5): PairRep("ab", N5), ("bc", 5): PairRep("bc", N5),
                 ("ab", 6): PairRep("ab", N6), ("bc", 6): PairRep("bc", N6)}
    decorated = []
    for (pair, n), samples in crit_samples.items():
        params = N5 if n == 5 else N6
        for crit in samples:
            decorated.append((decorate_with_z(rng, crit, pair, params),
                              params))
    fuzz_words = []
    for trial in range(8000):
        params = N5 if rng.random() < 0.6 else N6
        if trial % 2:
            fuzz_words.append((random_reduced_word(rng, rng.randint(2, 13)),
                               params))
        else:
            fuzz_words.append((random_abc_flavoured(rng, params), params))
    for w, params in decorated + fuzz_words:
        for pair in ("ab", "bc"):
            pw = is_p2g_critical(w, pair, params)
            if pw is None:
                continue
            t = tau_p2g(pw, params)
            assert len(t) == len(w)
            assert t[0] % 3 != w[0] % 3 and t[-1] % 3 != w[-1] % 3
            assert rep_cache[(pair, params.n)].equal(
                pw.hat, tau_2gen(pw.hat_witness, params))
            if pw.alpha == 0 and pw.beta == 0:   # tau(u) critical again
                back = is_p2g_critical(t, pair, params)
                assert back is not None and tau_p2g(back, params) == w
            p2g_found += 1
        aw = is_abc_critical(w, params)
        if aw is not None:
            t = tau_abc(aw, params)
            assert len(t) == len(w)
            assert t[0] % 3 != w[0] % 3 and t[-1] % 3 != w[-1] % 3
            if len(w) <= 11:
                assert oracle_equal(w, t, CONFIG, params), (F(w), F(t))
            abc_found += 1
    assert p2g_found > 500 and abc_found > 30
    print(f"ACCEPTANCE 6: PASS - {checked} exhaustive 2-generator criticals "
          f"(<=12) plus {p2g_found} P2G / {abc_found} ABC fuzz witnesses, "
          f"zero violations")


def test_criterion_7_relator_pushes():
    """For 1000 fuzzed w in W: reduce(w ac) ~ reduce(w ca), likewise for
    aba/bab and n(b,c)/n(c,b): equal length and equal in G (oracle)."""
    rng = random.Random(88)
    rels5 = [(P("ac"), P("ca")), (P("aba"), P("bab")),
             (P("bcbcb"), P("cbcbc"))]
    rels6 = [(P("ac"), P("ca")), (P("aba"), P("bab")),
             (P("bcbcbc"), P("cbcbcb"))]
    checked = 0
    for params, rels in ((N5, rels5), (N6, rels6)):
        for _ in range(500):
            w = ()
            for _ in range(rng.randint(0, 6)):
                w, _ = push_letter(w, rng.randrange(6), params)
            for left, right in rels:
                r1, _ = reduce_to_geodesic(w + left, params)
                r2, _ = reduce_to_geodesic(w + right, params)
                assert len(r1) == len(r2), (F(w), F(left), params.n)
                assert oracle_equal(r1, r2, CONFIG, params), (F(w), F(left))
            checked += 1
    print(f"ACCEPTANCE 7: PASS - relator pushes agree for {checked} "
          f"W-words x 3 relators")


def test_criterion_8_closure_geodesic_structure():
    """At n=5, the geodesic representatives of an element form exactly one
    equivalence-closure class (commutations + 2-generator tau moves).

    Closure classes are computed for every geodesic word of length <= 8;
    the class = BFS-ball geodesic set identity is verified exhaustively
    for all elements of geodesic length <= 5 and on a 200-element sample
    for lengths 6..8 (full per-element BFS at length 8 is outside the
    runtime budget)."""
    t0 = time.time()
    class_of = {}
    classes = []
    n_geodesic = 0
    for w in reduced_words(range(6), 8):
        if w in class_of:
            n_geodesic += 1    # closures contain only geodesics
            continue
        if len(reduce_to_geodesic(w, N5)[0]) != len(w):
            continue
        n_geodesic += 1
        cls = frozenset(equivalence_closure(w, N5))
        idx = len(classes)
        classes.append(cls)
        for v in cls:
            if v == w:
                class_of[v] = idx
                continue
            assert v not in class_of, "closure classes must not overlap"
            class_of[v] = idx
    assert n_geodesic == len(class_of)
    # independent BFS verification
    def geodesic_set(w):
        return {v for v in ball(w, CONFIG, N5) if len(v) == len(w)}

    verified = 0
    for cls in classes:
        rep = min(cls)
        if len(rep) <= 5:
            assert geodesic_set(rep) == cls, F(rep)
            verified += 1
    rng = random.Random(99)
    larger = [c for c in classes if 6 <= len(min(c)) <= 8]
    for cls in rng.sample(larger, 200):
        rep = min(cls)
        assert geodesic_set(rep) == cls, F(rep)
        verified += 1
    print(f"ACCEPTANCE 8: PASS - {len(classes)} closure classes of "
          f"geodesics <= 8; {verified} verified against BFS geodesic sets "
          f"({time.time() - t0:.0f}s)")


def test_criterion_9_complexity():
    """Letters visited: quadratic bound for whole reductions with 2x
    headroom across L in {1000, 2000, 4000}; linear bound per push."""
    rng = random.Random(101)
    fits = {}
    push_max = {}
    for L in (1000, 2000, 4000):
        w = random_raw_word(rng, L)
        total = 0
        worst_ratio = 0.0
        cur = ()
        for x in w:
            meter = Meter()
            cur, _ = push_letter(cur, x, N5, meter=meter)
            total += meter.letters
            worst_ratio = max(worst_ratio,
                              meter.letters / max(1, len(cur)))
        fits[L] = total
        push_max[L] = worst_ratio
    c = fits[1000] / 1000 ** 2
    c_push = push_max[1000]
    for L in (2000, 4000):
        assert fits[L] <= 2 * c * L ** 2, (L, fits[L], c)
        assert push_max[L] <= 2 * c_push, (L, push_max[L], c_push)
    print(f"ACCEPTANCE 9: PASS - c={c:.4f} (letters/L^2), "
          f"c'={c_push:.1f} (per-push letters/|w|), 2x headroom holds "
          f"at L=2000,4000")
