import random
from itertools import chain, product

import pytest

from artinword.core import (format_word, inverse_letter, parse_word,
                            power_word)
from artinword.dihedral import (
    CriticalSuffixScanner,
    _scan,
    delta,
    is_critical_2gen,
    is_geodesic_2gen,
    shortest_critical_suffix_2gen,
    tau_2gen,
    tau_last_letter,
    to_bab_form,
)
from artinword.oracle import OracleConfig, oracle_geodesic_length

from helpers import (PairRep, ac_equal, bab_word, critical_2gen_reference,
                     pair_letters, profile, random_reduced_word,
                     reduced_words, to_bab_form_reference)

P = parse_word
F = format_word


class TestGeodesic2Gen:
    def test_examples(self, params5):
        assert is_geodesic_2gen(P("aba"), "ab", params5)
        assert is_geodesic_2gen((), "ab", params5)
        assert not is_geodesic_2gen(P("abaB"), "ab", params5)
        # abab is geodesic: its exponent sum is 4 and every relation
        # preserves exponent sums, so nothing shorter represents it
        assert is_geodesic_2gen(P("abab"), "ab", params5)
        # unreduced words are not geodesic (lengths 0 and 2)
        assert not is_geodesic_2gen(P("aA"), "ab", params5)
        assert not is_geodesic_2gen(P("abBa"), "ab", params5)

    def test_outside_pair(self, params5):
        with pytest.raises(ValueError):
            is_geodesic_2gen(P("abc"), "ab", params5)

    @pytest.mark.parametrize("pair,n", [("ab", 5), ("bc", 5), ("bc", 6),
                                        ("ac", 5)])
    def test_matches_oracle(self, pair, n):
        from artinword.core import GroupParams
        params = GroupParams(n)
        config = OracleConfig(slack=4)
        letters = pair_letters(pair)
        words = list(reduced_words(letters, 5))
        rng = random.Random(n * 7 + len(pair))
        from helpers import random_reduced_word
        words += [random_reduced_word(rng, rng.randint(6, 9), letters)
                  for _ in range(250)]
        for w in words:
            expect = oracle_geodesic_length(w, config, params) == len(w)
            assert is_geodesic_2gen(w, pair, params) == expect, F(w)


class TestCritical2Gen:
    def test_examples(self, params5):
        assert is_critical_2gen(P("abbbA"), "ab", params5) is not None
        assert is_critical_2gen(P("ab"), "ab", params5) is None
        # bc^2bcBC is NOT critical at n=5: no both-end-renamed geodesic
        # companion exists there (an m=4 phenomenon; see the n=4 tests)
        assert is_critical_2gen(P("bccbcBC"), "bc", params5) is None

    def test_bc_criticals_at_n5(self, params5):
        assert is_critical_2gen(P("bcbcb"), "bc", params5) is not None
        assert is_critical_2gen(P("bcbcB"), "bc", params5) is not None

    def test_rejects_unreduced(self, params5):
        assert is_critical_2gen(P("abBa"), "ab", params5) is None

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_witness_matches_reference(self, n):
        """Every witness field equals the direct case analysis's, on
        seeded words over each pair, freely reduced or not."""
        from artinword.core import GroupParams
        params = GroupParams(n)
        rng = random.Random(100 + n)
        hits = 0
        for pair in ("ab", "bc", "ac"):
            letters = pair_letters(pair)
            for i in range(1500):
                L = rng.randint(0, 2 * params.m(pair) + 4)
                if i % 4:
                    w = random_reduced_word(rng, L, letters)
                else:
                    w = tuple(rng.choice(letters) for _ in range(L))
                got = is_critical_2gen(w, pair, params)
                want = critical_2gen_reference(w, pair, params)
                assert got == want, (F(w), pair, got, want)
                hits += got is not None
        assert hits > 100


class TestDelta:
    def test_examples(self, params5, params6):
        assert delta(P("a")[0], "ab", params5) == P("b")[0]
        assert delta(P("a")[0], "ac", params5) == P("a")[0]
        assert delta(P("B")[0], "bc", params6) == P("B")[0]
        assert delta(P("b")[0], "bc", params5) == P("c")[0]


def _criticals(pair, params, max_len):
    for w in reduced_words(pair_letters(pair), max_len, min_len=1):
        wit = is_critical_2gen(w, pair, params)
        if wit is not None:
            yield wit


class TestTau2Gen:
    def test_fixture_values(self, params5):
        wit = is_critical_2gen(P("abbbA"), "ab", params5)
        assert F(tau_2gen(wit, params5)) == "Baaab"
        wit = is_critical_2gen(P("aba"), "ab", params5)
        assert F(tau_2gen(wit, params5)) == "bab"

    @pytest.mark.parametrize("pair,n,max_len", [("ab", 5, 9), ("bc", 5, 9),
                                                ("bc", 6, 9), ("ac", 5, 7)])
    def test_tau_suite_exhaustive(self, pair, n, max_len):
        from artinword.core import GroupParams
        params = GroupParams(n)
        rep = None if pair == "ac" else PairRep(pair, params)
        count = 0
        for wit in _criticals(pair, params, max_len):
            u = wit.word
            t = tau_2gen(wit, params)
            assert len(t) == len(u)
            assert t[0] % 3 != u[0] % 3
            assert t[-1] % 3 != u[-1] % 3
            if rep is not None:
                assert rep.equal(u, t), (F(u), F(t))
            else:
                assert ac_equal(u, t), (F(u), F(t))
            wit2 = is_critical_2gen(t, pair, params)
            assert wit2 is not None, F(t)
            assert tau_2gen(wit2, params) == u, F(u)
            count += 1
        assert count > 50

    @pytest.mark.parametrize("pair,n", [("ab", 5), ("bc", 5), ("bc", 6),
                                        ("bc", 7), ("bc", 8), ("ac", 5)])
    def test_last_letter_rule(self, pair, n):
        """tau's last letter by rule, on every critical word of up to m + 2
        letters; all six shapes occur."""
        from artinword.core import GroupParams
        params = GroupParams(n)
        shapes = set()
        for wit in _criticals(pair, params, params.m(pair) + 2):
            assert tau_last_letter(wit) == tau_2gen(wit, params)[-1], \
                F(wit.word)
            shapes.add(wit.shape)
        assert len(shapes) == 6


class TestToBabForm:
    def test_examples(self, params5):
        assert to_bab_form(P("aba"), params5)[:3] == (1, 1, 1)
        assert to_bab_form(P("aaba"), params5)[:3] == (1, 1, 2)
        assert to_bab_form(P("aabba"), params5) is None
        assert to_bab_form(P("abbbA"), params5)[:3] == (-1, 3, 1)

    def test_input_validation(self, params5):
        with pytest.raises(ValueError):
            to_bab_form(P("bab"), params5)
        with pytest.raises(ValueError):
            to_bab_form(P("acA"), params5)

    def test_agrees_with_exhaustive_search(self, params5):
        """present iff some equal b^i a^j b^k of the same length exists."""
        rep = PairRep("ab", params5)
        for w in reduced_words(pair_letters("ab"), 8, min_len=2):
            if w[0] % 3 != 0 or w[-1] % 3 != 0:
                continue
            got = to_bab_form(w, params5)
            L = len(w)
            matches = []
            for ai in range(1, L - 1):
                for aj in range(1, L - ai):
                    ak = L - ai - aj
                    if ak < 1:
                        continue
                    for si in (1, -1):
                        for sj in (1, -1):
                            for sk in (1, -1):
                                i, j, k = si * ai, sj * aj, sk * ak
                                if rep.equal(w, bab_word(i, j, k)):
                                    matches.append((i, j, k))
            if got is None:
                assert not matches, (F(w), matches)
            else:
                assert (got.i, got.j, got.k) in matches, (F(w), got, matches)

    def test_matches_reference(self, params5):
        """The run rule gives what the two-ended tau scan gives, result
        or ValueError, on every word over the six letters of at most 5
        letters, every a-ended {a,b}-word of at most 9 (unreduced ones
        included) and every freely reduced one of 10-12, and the words of
        every 3- and 5-run exponent vector with |e| <= 5 and every 7-run
        one with |e| <= 2."""
        def outcome(f, w):
            try:
                return f(w, params5)
            except ValueError:
                return ValueError

        ab = pair_letters("ab")
        a_ended = (lambda w: w[0] % 3 == 0 == w[-1] % 3)
        run_words = (
            sum((power_word(i % 2, e) for i, e in enumerate(es)), ())
            for runs, bound in ((3, 5), (5, 5), (7, 2))
            for es in product([e for e in range(-bound, bound + 1) if e],
                              repeat=runs))
        words = chain(
            (w for L in range(6) for w in product(range(6), repeat=L)),
            (w for L in range(1, 10) for w in product(ab, repeat=L)
             if a_ended(w)),
            filter(a_ended, reduced_words(ab, 12, min_len=10)),
            run_words)
        accepted = 0
        for w in words:
            got = outcome(to_bab_form, w)
            assert got == outcome(to_bab_form_reference, w), F(w)
            accepted += got not in (None, ValueError)
        assert accepted > 400


class TestShortestCriticalSuffix:
    def test_examples(self, params5):
        assert shortest_critical_suffix_2gen(P("caba"), "ab", params5,
                                             end=4) == 1
        assert shortest_critical_suffix_2gen(P("ab"), "ab", params5) is None
        assert shortest_critical_suffix_2gen(P("aabbbA"), "ab", params5) == 1

    def test_matches_brute_force(self, params5, params6):
        rng = random.Random(11)
        for params in (params5, params6):
            for pair in ("ab", "bc", "ac"):
                letters = pair_letters(pair)
                for _ in range(400):
                    L = rng.randint(0, 11)
                    w = []
                    for _ in range(L):
                        l = rng.choice(letters)
                        while w and l == inverse_letter(w[-1]):
                            l = rng.choice(letters)
                        w.append(l)
                    w = tuple(w)
                    got = shortest_critical_suffix_2gen(w, pair, params)
                    want = None
                    for s in range(len(w) - 1, -1, -1):
                        if critical_2gen_reference(w[s:], pair, params):
                            want = s
                            break
                    assert got == want, (F(w), pair)


class TestPairRepWitness:
    """The exact matrix witness used across the suite agrees with the
    presentation-level BFS oracle."""

    @pytest.mark.parametrize("pair,n", [("ab", 5), ("bc", 5), ("bc", 6)])
    def test_matches_oracle(self, pair, n):
        from artinword.core import GroupParams
        from artinword.oracle import oracle_equal
        params = GroupParams(n)
        rep = PairRep(pair, params)
        config = OracleConfig(slack=4)
        rng = random.Random(n * 31)
        letters = pair_letters(pair)
        m = params.m(pair)
        # the defining relation itself
        from artinword.core import make_alternating
        x, y = letters[0], letters[1]
        assert rep.equal(make_alternating(x, y, m, "start"),
                         make_alternating(y, x, m, "start"))
        checked_eq = 0
        for _ in range(250):
            u = random_reduced_word(rng, rng.randint(0, 7), letters)
            v = random_reduced_word(rng, rng.randint(0, 7), letters)
            want = oracle_equal(u, v, config, params)
            assert rep.equal(u, v) == want, (F(u), F(v))
            checked_eq += want
        assert checked_eq >= 1  # the sample contains some true equalities


class TestCriticalSuffixScanner:
    def test_pn_examples(self, params5):
        assert _scan(P("aba"), "ab", params5).pn == (3, 0)
        assert _scan(P("abbbA"), "ab", params5).pn == (2, 1)
        assert _scan((), "ab", params5).pn == (0, 0)

    def test_pn_capping(self, params5):
        scan = _scan(P("abab"), "ab", params5)
        assert scan.pn == (3, 0) and scan.raw_p == 4

    def test_every_feed(self, params5, params6):
        """After every feed, the scanner answers for the suffix fed so
        far as the reference case analysis does, with the same shape,
        its pn is that suffix's capped reference profile, and once it is
        dead no longer suffix is critical."""
        rng = random.Random(67)
        hits = 0
        for params in (params5, params6):
            for pair in ("ab", "bc", "ac"):
                letters = pair_letters(pair)
                for _ in range(300):
                    w = random_reduced_word(rng, rng.randint(1, 14), letters)
                    scan = CriticalSuffixScanner(pair, params)
                    for s in range(len(w) - 1, -1, -1):
                        scan.feed(w[s])
                        u = w[s:]
                        ref = critical_2gen_reference(u, pair, params)
                        want = ref is not None
                        hits += want
                        assert scan.critical == want, (F(w), s, pair)
                        assert scan.shape == (ref and ref.shape), \
                            (F(w), s, pair)
                        if scan.dead:
                            assert not want, (F(w), s, pair)
                            continue
                        pr = profile(u, pair, params)
                        assert scan.pn == (pr.p, pr.n), (F(w), s, pair)
        assert hits > 500
