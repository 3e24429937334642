import itertools
import random

import pytest

from artinword.abc_critical import (
    _ur_candidates,
    is_abc_critical,
    shortest_abc_critical_suffix,
    tau_abc,
)
from artinword.core import (GroupParams, format_word, make_alternating,
                            parse_word)
from artinword.oracle import OracleConfig, oracle_equal
from artinword.reducer import reduce_to_geodesic
from artinword.rrs import Meter

from helpers import (
    abc_witness_reference,
    random_abc_flavoured,
    random_raw_word,
    random_reduced_word,
    ur_candidates_reference,
)

P = parse_word
F = format_word


class TestRecognition:
    def test_example_3_9(self, params5):
        wit = is_abc_critical(P("bcbcaba"), params5)
        assert wit is not None
        assert F(wit.u_p) == "b" and F(wit.u_q) == "cbc"
        assert F(wit.u_r) == "aba"
        assert wit.bab[:3] == (1, 1, 1)
        assert F(wit.u_sharp) == "bcbcb"
        assert wit.alpha == 0 and wit.beta == 0 and wit.epsilon == 1

    def test_absent(self, params5):
        assert is_abc_critical(P("aba"), params5) is None
        assert is_abc_critical(P("bcbcab"), params5) is None
        assert is_abc_critical((), params5) is None

    def test_n6_instance(self, params6):
        # (b,c)_{n-1} aba with n=6: (b,c)_5 ends with c, so cbcbc aba
        w = P("cbcbcaba")
        wit = is_abc_critical(w, params6)
        assert wit is not None
        assert F(wit.u_sharp) == "cbcbcb"
        assert F(tau_abc(wit, params6)) == "bcbcbacb"

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_witness_matches_reference(self, n):
        """Witnesses equal, field by field, on every suffix of seeded
        words, reduced or not; at n=5 also on every word of up to six
        letters."""
        params = GroupParams(n)
        rng = random.Random(50 + n)
        words = []
        for i in range(900):
            if i % 3 == 0:
                # a raw prefix, a one-signed {b,c}-alternation near n - 1
                # letters, then a cut abc-flavoured word: many suffixes
                # of these are critical
                b, c = rng.choice(((1, 2), (4, 5)))
                x, y = rng.choice(((b, c), (c, b)))
                words.append(random_raw_word(rng, rng.randint(0, 4))
                             + make_alternating(x, y, rng.randint(n - 3, n),
                                                "end")
                             + random_abc_flavoured(rng, params)
                             [rng.randint(0, 4):])
            elif i % 3 == 1:
                words.append(random_reduced_word(rng, rng.randint(1, 24)))
            else:
                words.append(random_raw_word(rng, rng.randint(1, 16)))
        found = 0
        for w in words:
            for s in range(len(w) + 1):
                want = abc_witness_reference(w[s:], params)
                assert is_abc_critical(w[s:], params) == want, (F(w), s)
                found += want is not None
        assert found > 40
        if n == 5:
            for length in range(7):
                for w in itertools.product(range(6), repeat=length):
                    assert (is_abc_critical(w, params)
                            == abc_witness_reference(w, params)), F(w)


class TestTauAbc:
    def test_example_3_9_value(self, params5):
        wit = is_abc_critical(P("bcbcaba"), params5)
        assert F(tau_abc(wit, params5)) == "cbcbacb"
        assert len(tau_abc(wit, params5)) == 7

    def test_group_equality(self, params5):
        config = OracleConfig(slack=4)
        assert oracle_equal(P("bcbcaba"), P("cbcbacb"), config, params5)

    def test_fuzz_witnesses(self, params5, params6):
        rng = random.Random(21)
        config = OracleConfig(slack=4)
        found = 0
        for trial in range(6000):
            params = params5 if rng.random() < 0.7 else params6
            if trial % 2:
                w = random_reduced_word(rng, rng.randint(5, 14))
            else:
                w = random_abc_flavoured(rng, params)
            wit = is_abc_critical(w, params)
            if wit is None:
                continue
            found += 1
            t = tau_abc(wit, params)
            assert len(t) == len(w), (F(w), F(t))
            assert t[0] % 3 != w[0] % 3 and t[-1] % 3 != w[-1] % 3
            # epsilon consistency: tau(hat(u_sharp)) = p(...) c^eps
            from artinword.dihedral import tau_2gen
            th = tau_2gen(wit.sharp_witness.hat_witness, params)
            assert th[-1] % 3 == 2
            assert (1 if th[-1] < 3 else -1) == wit.epsilon
            if len(w) <= 11:
                assert oracle_equal(w, t, config, params), (F(w), F(t))
                # derivation chain: u = u_sharp a^jj b^kk beta(u_r)
                from artinword.core import power_word
                chain = (wit.u_sharp + power_word(0, wit.bab.j)
                         + power_word(1, wit.bab.k) + power_word(2, wit.beta))
                assert oracle_equal(w, chain, config, params), F(w)
        assert found > 30


def _start(w, wit):
    """The start of the suffix of w whose witness is wit, or None."""
    return None if wit is None else len(w) - len(wit.word)


class TestShortestSuffix:
    def test_examples(self, params5):
        for word, start in (("abcbcaba", 1), ("bcbcaba", 0), ("bca", None)):
            w = P(word)
            assert _start(w, shortest_abc_critical_suffix(w, params5)) \
                == start

    def test_matches_brute_force(self, params5, params6):
        rng = random.Random(31)
        for params in (params5, params6):
            for _ in range(1500):
                w = random_reduced_word(rng, rng.randint(0, 13))
                got = _start(w, shortest_abc_critical_suffix(w, params))
                want = None
                for s in range(len(w) - 1, -1, -1):
                    if abc_witness_reference(w[s:], params):
                        want = s
                        break
                assert got == want, (F(w), params.n)


class TestUrCandidates:
    # positive, {a,b}-positive, {a,A,b,B}, {a,b,c,C}, all six letters
    ALPHABETS = ((0, 1, 2), (0, 1), (0, 1, 3, 4), (0, 1, 2, 5),
                 tuple(range(6)))

    def test_matches_reference(self):
        rng = random.Random(41)
        for n in (5, 6, 7):
            params = GroupParams(n)
            for letters in self.ALPHABETS:
                for _ in range(80):
                    w = random_reduced_word(rng, rng.randint(1, 40), letters)
                    for end in range(len(w) + 1):
                        assert (_ur_candidates(w, end, params)
                                == ur_candidates_reference(w, end, params)), \
                            (F(w), end, n)

    def test_walk_does_not_span_the_host(self, params5):
        letters = []
        for k in (50, 400):
            host = P("acb") * k + P("a")
            meter = Meter()
            _ur_candidates(host, len(host), params5, meter)
            letters.append(meter.letters)
        assert letters[0] == letters[1]

    def test_acb_power_is_geodesic(self, params5):
        w = P("acb") * 130
        assert reduce_to_geodesic(w, params5)[0] == w
