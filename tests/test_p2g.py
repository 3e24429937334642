import random

import pytest

from artinword.core import (GroupParams, format_word, is_freely_reduced,
                            parse_word)
from artinword.dihedral import shortest_critical_suffix_2gen, tau_2gen
from artinword.p2g import (
    P2GSuffixScanner,
    commuting_z,
    decompose_p2g,
    is_p2g_critical,
    shortest_p2g_critical_suffix,
    tau_p2g,
)

from helpers import (PairRep, critical_2gen_reference, decompose_p2g_reference,
                     decorate_with_z, p2g_critical_reference,
                     p2g_witness_reference, pair_letters, profile,
                     random_reduced_word, reduced_words)

P = parse_word
F = format_word


def _seeded_words(rng, pair, params, count):
    """count words per alphabet (all six letters, the pair's letters, and
    those plus z), each freely reduced or raw with even odds, the empty
    word among them.  After a freely reduced word over the pair come its
    shortest critical suffix, if any, and that suffix with z-powers put
    into its outer blocks."""
    z = ord(commuting_z(pair)) - 97
    two_gen = pair_letters(pair)
    for letters in (tuple(range(6)), two_gen, two_gen + (z, z + 3)):
        yield ()
        for _ in range(count):
            length = rng.randint(1, 16)
            if rng.random() < 0.5:
                w = random_reduced_word(rng, length, letters)
            else:
                w = tuple(rng.choice(letters) for _ in range(length))
            yield w
            if letters is two_gen and is_freely_reduced(w):
                s = shortest_critical_suffix_2gen(w, pair, params)
                if s is not None:
                    yield w[s:]
                    yield decorate_with_z(rng, w[s:], pair, params)


class TestDecompose:
    def test_example_ab(self, params5):
        d = decompose_p2g(P("acbbbCA"), "ab", params5)
        assert d is not None
        assert F(d.u_p) == "ac" and F(d.u_q) == "bbb" and F(d.u_s) == "CA"
        assert d.alpha == 1 and d.beta == -1
        assert F(d.hat) == "abbbA"

    def test_example_bc(self, params5):
        d = decompose_p2g(P("bccbcBaaC"), "bc", params5)
        assert d is not None
        assert d.alpha == 0 and d.beta == 2
        assert F(d.hat) == "bccbcBC"

    def test_absent(self, params5):
        # starts with the commuting generator: not P2G of type {a,b}
        assert decompose_p2g(P("ca"), "ab", params5) is None
        # commuting generator stranded in the middle
        assert decompose_p2g(P("bcb"), "ab", params5) is None

    def test_round_trip(self, params5):
        rng = random.Random(3)
        for _ in range(2000):
            w = random_reduced_word(rng, rng.randint(1, 12))
            for pair in ("ab", "bc"):
                d = decompose_p2g(w, pair, params5)
                if d is not None:
                    assert d.u_p + d.u_q + d.u_s == w

    def test_matches_reference(self, params5, params6):
        """The outer-block split equals the reference decomposition."""
        rng = random.Random(17)
        for params in (params5, params6):
            for pair in ("ab", "bc"):
                for w in _seeded_words(rng, pair, params, 400):
                    assert (decompose_p2g(w, pair, params)
                            == decompose_p2g_reference(w, pair, params)), \
                        (F(w), pair)


class TestCriticality:
    def test_example(self, params5):
        assert is_p2g_critical(P("acbbbCA"), "ab", params5) is not None
        # P2G specializes to plain 2-generator words
        assert is_p2g_critical(P("abbbA"), "ab", params5) is not None
        # acbCA is a tempting absent-guess, but its hat abA is
        # critical (abA = Bab); a genuinely absent word needs a
        # non-critical hat:
        assert is_p2g_critical(P("acbbCa"), "ab", params5) is None
        assert is_p2g_critical(P("acbCA"), "ab", params5) is not None

    def test_mixed_z_signs_rejected(self, params5):
        # hat ccbcbc is critical over {b,c} at n=5, but the a-exponents of
        # u_p = cacA cancel, so tau would not preserve length; rejected
        w = P("cacAbcbc")
        assert decompose_p2g(w, "bc", params5) is not None
        assert is_p2g_critical(w, "bc", params5) is None

    def test_specializes_to_2gen(self, params5, params6):
        for params, pair in ((params5, "ab"), (params5, "bc"),
                             (params6, "bc")):
            for w in reduced_words(pair_letters(pair), 8, min_len=1):
                wit2 = critical_2gen_reference(w, pair, params)
                witp = is_p2g_critical(w, pair, params)
                assert (wit2 is None) == (witp is None), F(w)
                if wit2 is not None:
                    assert tau_p2g(witp, params) == tau_2gen(wit2, params)

    @pytest.mark.parametrize("n", (5, 6, 7, 8))
    def test_witness_matches_reference(self, n):
        """The one-pass check gives the two-pass reference's witness, field
        by field, on seeded words of both pairs."""
        params = GroupParams(n)
        rng = random.Random(500 + n)
        found = decorated = 0
        for pair in ("ab", "bc"):
            for w in _seeded_words(rng, pair, params, 500):
                want = p2g_witness_reference(w, pair, params)
                assert is_p2g_critical(w, pair, params) == want, (F(w), pair)
                if want is not None:
                    found += 1
                    decorated += want.word != want.hat
        assert found > 300 and decorated > 50

    def test_bad_pair(self, params5):
        for w in ((), P("ab"), P("aA")):
            with pytest.raises(ValueError):
                is_p2g_critical(w, "ac", params5)
        with pytest.raises(ValueError):
            shortest_p2g_critical_suffix(P("aba"), "ac", params5)


class TestTauP2G:
    def test_fixture_value(self, params5):
        wit = is_p2g_critical(P("acbbbCA"), "ab", params5)
        assert F(tau_p2g(wit, params5)) == "cBaaabC"

    def test_tau_facts_fuzz(self, params5, params6):
        """End-letter facts of the P2G tau move, on fuzzed witnesses."""
        rng = random.Random(9)
        rep_cache = {}
        found = 0
        for _ in range(6000):
            params = params5 if rng.random() < 0.7 else params6
            w = random_reduced_word(rng, rng.randint(2, 12))
            for pair in ("ab", "bc"):
                wit = is_p2g_critical(w, pair, params)
                if wit is None:
                    continue
                found += 1
                t = tau_p2g(wit, params)
                assert len(t) == len(w)
                # (i): end letters are pseudo-generators, equal to hat's
                names = {ord(pair[0]) - 97, ord(pair[1]) - 97}
                assert w[0] % 3 in names and w[-1] % 3 in names
                assert w[0] == wit.hat[0] and w[-1] == wit.hat[-1]
                # (ii): names change at both ends
                assert t[0] % 3 != w[0] % 3 and t[-1] % 3 != w[-1] % 3
                # (iii)/(iv): first/last letter stays within the pair iff
                # alpha/beta is empty
                assert (t[0] % 3 in names) == (wit.alpha == 0)
                assert (t[-1] % 3 in names) == (wit.beta == 0)
                # group equality of the hat rewrite, exactly certified
                key = (pair, params.n)
                if key not in rep_cache:
                    rep_cache[key] = PairRep(pair, params)
                assert rep_cache[key].equal(
                    wit.hat, tau_2gen(wit.hat_witness, params))
                # tau(u) is critical again only in the pure 2-generator case
                if wit.alpha == 0 and wit.beta == 0:
                    back = is_p2g_critical(t, pair, params)
                    assert back is not None
                    assert tau_p2g(back, params) == w
        assert found > 100


def _start(w, wit):
    """The start of the suffix of w whose witness is wit, or None."""
    return None if wit is None else len(w) - len(wit.word)


class TestShortestSuffix:
    def test_examples(self, params5):
        w = P("bacbbbCA")
        wit = shortest_p2g_critical_suffix(w, "ab", params5)
        assert _start(w, wit) == 1 and wit.word == w[1:]
        assert shortest_p2g_critical_suffix(P("ab"), "ab", params5) is None
        w = P("caba")
        assert _start(w, shortest_p2g_critical_suffix(w, "ab", params5)) == 1

    def test_matches_brute_force(self, params5, params6):
        rng = random.Random(13)
        for params in (params5, params6):
            for _ in range(1500):
                w = random_reduced_word(rng, rng.randint(0, 12))
                for pair in ("ab", "bc"):
                    got = _start(w, shortest_p2g_critical_suffix(
                        w, pair, params))
                    want = None
                    for s in range(len(w) - 1, -1, -1):
                        if p2g_critical_reference(w[s:], pair, params):
                            want = s
                            break
                    assert got == want, (F(w), pair, params.n)


class TestP2GSuffixScanner:
    def test_every_feed(self, params5, params6):
        """After every feed, the scanner answers for the suffix fed so
        far as the P2G reference does, its pn is the capped
        reference profile of that suffix's hat, and once it is dead no
        longer suffix is critical."""
        rng = random.Random(71)
        hits = 0
        for params in (params5, params6):
            for pair in ("ab", "bc"):
                z = ord(commuting_z(pair)) - 97
                for letters in (tuple(range(6)), pair_letters(pair)
                                + (z, z + 3)):
                    for _ in range(300):
                        w = random_reduced_word(rng, rng.randint(1, 14),
                                                letters)
                        scan = P2GSuffixScanner(pair, params)
                        for s in range(len(w) - 1, -1, -1):
                            scan.feed(w[s])
                            u = w[s:]
                            want = p2g_critical_reference(u, pair, params)
                            hits += want
                            assert scan.critical == want, \
                                (F(w), s, pair)
                            if scan.dead:
                                assert not want, (F(w), s, pair)
                                continue
                            hat = tuple(l for l in u if l % 3 != z)
                            if hat:
                                pr = profile(hat, pair, params)
                                assert scan.pn == (pr.p, pr.n), \
                                    (F(w), s, pair)
        assert hits > 200
