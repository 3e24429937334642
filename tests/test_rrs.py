import itertools
import random
from collections import Counter

import pytest

from artinword import rrs
from artinword.abc_critical import shortest_abc_critical_suffix, tau_abc
from artinword.core import (GroupParams, ResourceLimitError, format_word,
                            inverse_letter, make_alternating, parse_word)
from artinword.p2g import shortest_p2g_critical_suffix, tau_p2g
from artinword.rrs import (
    ABC,
    CRITICAL_TYPES,
    P2G_AB,
    P2G_BC,
    Meter,
    _PHASES,
    _distinguished,
    apply_rrs,
    chain_head,
    check_rrs,
    find_optimal_rrs,
)
from artinword.reducer import push_letter, reduce_to_geodesic
from artinword.verify import enumerate_all_rrs, is_optimal

from helpers import (distinguished_reference, random_abc_flavoured,
                     random_raw_word, random_reduced_word)
from test_reducer import digest_corpus

P = parse_word
F = format_word


def _push_random_w_word(rng, params, length):
    w = ()
    for _ in range(length):
        w, _ = push_letter(w, rng.randrange(6), params)
    return w


class TestCheckRrs:
    def test_example_4_3(self, params5):
        host = P("bcbcabacbcB")
        rrs = check_rrs(host, (0, 7, 10, 10), (ABC, P2G_BC), params5)
        assert rrs is not None
        assert F(rrs.w_part(1)) == "bcbcaba"
        assert F(rrs.w_part(2)) == "cbc"
        assert rrs.w_part(3) == ()
        assert F(rrs.gamma) == "B"
        # u_2 follows from the chain rule: c^eps b^k beta w_2
        assert F(rrs.us[1][1]) == "cbcbc"
        # wrong typing is rejected
        assert check_rrs(host, (0, 7, 10, 10), (ABC, P2G_AB), params5) is None

    def test_length_zero(self, params5):
        assert check_rrs(P("aA"), (0, 1), (), params5) is not None
        assert check_rrs(P("Aca"), (0, 2), (), params5) is not None

    def test_no_rrs_word(self, params5):
        assert enumerate_all_rrs(P("abc"), params5) == []


class TestCheckRrsRejects:
    """Each malformed factorisation is refused next to an accepted one."""
    HOST = "bcbcabacbcB"
    TYPES = (ABC, P2G_BC)

    def check(self, cuts, params, host=HOST, types=TYPES):
        return check_rrs(P(host), cuts, types, params)

    def test_accepted_neighbours(self, params5):
        assert self.check((0, 7, 10, 10), params5) is not None
        assert self.check((0, 1), params5, "aA", ()) is not None

    def test_wrong_number_of_cuts(self, params5):
        assert self.check((0, 7, 10), params5) is None
        assert self.check((0, 7, 10, 10, 10), params5) is None
        assert self.check((0, 1, 1), params5, "aA", ()) is None

    def test_negative_cut(self, params5):
        # host[-2:1] is "a", so only the bound check refuses it
        assert self.check((-2, 1), params5, "aA", ()) is None
        assert self.check((-1, 7, 10, 10), params5) is None

    def test_unsorted_cuts(self, params5):
        assert self.check((0, 10, 7, 10), params5) is None
        assert self.check((7, 0, 10, 10), params5) is None
        assert self.check((1, 0), params5, "aA", ()) is None

    def test_cut_past_host(self, params5):
        assert self.check((0, 7, 10, 12), params5) is None
        assert self.check((0, 7, 12, 12), params5) is None
        assert self.check((0, 3), params5, "aA", ()) is None

    def test_empty_gamma(self, params5):
        assert self.check((0, 7, 10, 11), params5) is None
        assert self.check((0, 2), params5, "aA", ()) is None

    def test_empty_w_i(self, params5):
        assert self.check((0, 0, 10, 10), params5) is None    # w_1
        assert self.check((0, 7, 7, 10), params5) is None     # w_2

    def test_m0_empty_w1(self, params5):
        assert self.check((0, 0), params5, "aA", ()) is None
        assert self.check((1, 1), params5, "aA", ()) is None


class TestApplyRrs:
    def test_example_4_3(self, params5):
        rrs = check_rrs(P("bcbcabacbcB"), (0, 7, 10, 10), (ABC, P2G_BC),
                        params5)
        result, events = apply_rrs(rrs, params5, want_trace=True)
        assert F(result) == "cbcbabcbc"
        kinds = [e.kind for e in events]
        assert kinds == ["tau_abc", "tau_2gen", "free-cancel"]
        assert events[0].to_json()["before"] == "bcbcaba"

    def test_length_zero_cases(self, params5):
        result, _ = apply_rrs(check_rrs(P("aA"), (0, 1), (), params5),
                              params5)
        assert result == ()
        result, _ = apply_rrs(check_rrs(P("Aca"), (0, 2), (), params5),
                              params5)
        assert F(result) == "c"

    def test_mu_kept_as_is(self, params5):
        # only the tail and the junction are freely reduced: a mu that is
        # not freely reduced stays in the result
        result, _ = apply_rrs(check_rrs(P("aAaA"), (2, 3), (), params5),
                              params5)
        assert F(result) == "aA"
        result, _ = apply_rrs(check_rrs(P("bBAca"), (2, 4), (), params5),
                              params5)
        assert F(result) == "bBc"

    def test_shortens_by_two(self, params5, params6):
        rng = random.Random(17)
        for params in (params5, params6):
            count = 0
            for _ in range(200):
                w = _push_random_w_word(rng, params, rng.randint(0, 10))
                x = rng.randrange(6)
                rrs = find_optimal_rrs(w, x, params)
                if rrs is None:
                    continue
                result, _ = apply_rrs(rrs, params)
                assert len(result) == len(w) - 1
                count += 1
            assert count > 20


class TestEnumerate:
    def test_n4_boundary_word(self, params4):
        assert enumerate_all_rrs(P("bacbcbabcB"), params4) == []

    def test_cancelling_pair(self, params5):
        rs = enumerate_all_rrs(P("aA"), params5)
        assert any(r.m == 0 for r in rs)

    def test_exactly_one_optimal(self, params5):
        rs = enumerate_all_rrs(P("bcbcabacbcB"), params5)
        assert rs
        opt = [r for r in rs if is_optimal(r, params5)]
        assert len(opt) == 1
        assert opt[0].cuts == (0, 7, 10, 10)

    def test_size_guard(self, params5):
        with pytest.raises(ResourceLimitError):
            enumerate_all_rrs(tuple([0, 1] * 9), params5)


class TestIsOptimal:
    def test_condition_ii(self, params5):
        # Acaa admits w_1 = Aca (gamma = a), which repeats f(gamma) inside
        # w_{m+1}; the optimal RRS cuts w_1 down to Ac with gamma = aa
        host = P("Acaa")
        bad = check_rrs(host, (0, 3), (), params5)
        good = check_rrs(host, (0, 2), (), params5)
        assert bad is not None and good is not None
        assert not is_optimal(bad, params5)
        assert is_optimal(good, params5)
        found = find_optimal_rrs(P("Aca"), P("a")[0], params5)
        assert found.cuts == good.cuts

    def test_condition_iii(self, params5):
        # two consecutive {a,b} moves with alpha_2 empty violate (iii)
        host = P("abaabA")
        two_step = check_rrs(host, (0, 3, 5, 5), (P2G_AB, P2G_AB), params5)
        assert two_step is not None
        assert not is_optimal(two_step, params5)
        one_step = check_rrs(host, (0, 5, 5), (P2G_AB,), params5)
        assert one_step is not None
        assert is_optimal(one_step, params5)

    def test_size_guard(self, params5):
        """Condition (i) is decided by enumeration only, so a host past
        its limit is refused, not decided by the search under test."""
        host = P("b" * 16 + "aA")
        rrs = check_rrs(host, (16, 17), (), params5)
        assert rrs is not None
        with pytest.raises(ResourceLimitError):
            is_optimal(rrs, params5)


class TestFindOptimalRrs:
    def test_example_4_3(self, params5):
        rrs = find_optimal_rrs(P("bcbcabacbc"), P("B")[0], params5)
        assert rrs is not None
        assert rrs.cuts == (0, 7, 10, 10)
        assert rrs.types == (ABC, P2G_BC)

    def test_trivial_cancel(self, params5):
        rrs = find_optimal_rrs(P("A"), P("a")[0], params5)
        assert rrs is not None and rrs.m == 0
        assert apply_rrs(rrs, params5)[0] == ()

    def test_absent(self, params5):
        assert find_optimal_rrs(P("ba"), P("c")[0], params5) is None
        assert enumerate_all_rrs(P("bac"), params5) == []

    def test_soundness_and_completeness_fuzz(self, params5, params6):
        rng = random.Random(23)
        for params in (params5, params6):
            for _ in range(120):
                w = _push_random_w_word(rng, params, rng.randint(0, 9))
                for x in range(6):
                    rrs = find_optimal_rrs(w, x, params)
                    every = enumerate_all_rrs(w + (x,), params)
                    assert (rrs is None) == (not every), (F(w), x)
                    if rrs is not None:
                        assert check_rrs(rrs.host, rrs.cuts, rrs.types,
                                         params) is not None
                        assert is_optimal(rrs, params)

    def test_meter_counts(self, params5):
        meter = Meter()
        find_optimal_rrs(P("bcbcabacbc"), P("B")[0], params5, meter=meter)
        assert meter.letters > 0


def _abc_chain_word(n, mid, sign):
    """Example 4.3 at n: w_1 a {b,c} alternation of n - 1 letters ending
    in c, then mid; w_2 a {b,c} alternation of n - 2 letters from c; and
    gamma the inverse of the letter that would continue it.  sign -1
    inverts every letter."""
    head = make_alternating(1, 2, n - 1, "end")
    tail = make_alternating(2, 1, n - 1, "start")
    w = head + P(mid) + tail[:-1] + (inverse_letter(tail[-1]),)
    return w if sign > 0 else tuple(inverse_letter(l) for l in w)


class TestDistinguished:
    """The chain step's one scan finds the (pos, lft) that its two former
    scans found, and meters the same letters."""

    @staticmethod
    def _agree(host, e, phases):
        got, want = Meter(), Meter()
        assert (_distinguished(host, e, phases, got)
                == distinguished_reference(host, e, phases, want)
                == _distinguished(host, e, phases, None)), (F(host), e)
        assert got.letters == want.letters, (F(host), e, phases)

    @pytest.mark.parametrize("ctype", CRITICAL_TYPES)
    def test_short_words(self, ctype):
        for length in range(6):
            for host in itertools.product(range(6), repeat=length):
                for e in range(length + 1):
                    self._agree(host, e, _PHASES[ctype])

    @pytest.mark.parametrize("ctype", CRITICAL_TYPES)
    def test_random_hosts(self, ctype):
        rng = random.Random(67)
        for _ in range(2000):
            host = random_raw_word(rng, 40)
            for e in range(41):
                self._agree(host, e, _PHASES[ctype])


class TestChainRule:
    def test_tau_ends_with_chain_head(self):
        """On every link u_i of every RRS the search returns, tau(u_i)
        ends with chain_head(type_i, witness_i), the letters that
        check_rrs and apply_rrs carry into u_{i+1}.  The corpus holds
        raw words and Example 4.3's shape behind short reduced prefixes,
        so that every type occurs at every n."""
        rng = random.Random(41)
        links = Counter()
        for n in range(5, 9):
            params = GroupParams(n)
            corpus = [random_raw_word(rng, 60) for _ in range(30)]
            corpus += [random_reduced_word(rng, rng.randint(0, 4))
                       + _abc_chain_word(n, mid, sign)
                       for mid in ("aba", "abaa", "baba")
                       for sign in (1, -1) for _ in range(5)]
            for word in corpus:
                w = ()
                for x in word:
                    rrs = find_optimal_rrs(w, x, params)
                    if rrs is None:
                        w += (x,)
                        continue
                    for ctype, u, wit in rrs.us[:-1]:
                        tau = (tau_abc(wit, params) if ctype == ABC
                               else tau_p2g(wit, params))
                        head = chain_head(ctype, wit, params)
                        assert 0 < len(head) <= len(tau), (n, F(u))
                        assert tau[len(tau) - len(head):] == head, \
                            (n, F(u), ctype)
                        links[n, ctype] += 1
                    w = apply_rrs(rrs, params)[0]
        assert all(links[n, t] >= 10 for n in range(5, 9)
                   for t in CRITICAL_TYPES), links


def _check_suffix_witness(host, end, ctype, wit, params):
    """wit, a suffix scan's answer on host[:end], is the witness of the
    suffix it names, as the whole-word check gives it."""
    assert wit.word == host[end - len(wit.word):end], (F(host), end, ctype)
    assert wit == rrs.critical_witness(wit.word, ctype, params), \
        (F(host), end, ctype)


class TestSuffixWitnesses:
    def test_digest_corpus(self, monkeypatch):
        """Every witness the chain search's suffix scans return while the
        digest corpus is reduced."""
        direct_p2g = rrs.shortest_p2g_critical_suffix
        direct_abc = rrs.shortest_abc_critical_suffix
        seen = Counter()

        def p2g_scan(host, pair, params, end=None, meter=None):
            wit = direct_p2g(host, pair, params, end=end, meter=meter)
            if wit is not None:
                ctype = P2G_AB if pair == "ab" else P2G_BC
                _check_suffix_witness(host, end, ctype, wit, params)
                seen[ctype] += 1
            return wit

        def abc_scan(host, params, end=None, meter=None):
            wit = direct_abc(host, params, end=end, meter=meter)
            if wit is not None:
                _check_suffix_witness(host, end, ABC, wit, params)
                seen[ABC] += 1
            return wit
        monkeypatch.setattr(rrs, "shortest_p2g_critical_suffix", p2g_scan)
        monkeypatch.setattr(rrs, "shortest_abc_critical_suffix", abc_scan)
        for params, w in digest_corpus():
            reduce_to_geodesic(w, params)
        assert min(seen[t] for t in CRITICAL_TYPES) > 0, seen

    @pytest.mark.parametrize("n", (5, 6, 8))
    def test_seeded_hosts(self, n):
        """At every end of seeded hosts: freely reduced words, positive
        ones, and a one-signed {b,c}-alternation of about n letters
        followed by a word shaped like an {a,b,c}-critical one."""
        params = GroupParams(n)
        rng = random.Random(4111 + n)
        seen = Counter()
        for _ in range(150):
            b, c = rng.choice(((1, 2), (4, 5)))
            x, y = rng.choice(((b, c), (c, b)))
            abc_shaped = (make_alternating(x, y, rng.randint(n - 3, n), "end")
                          + random_abc_flavoured(rng, params)
                          [rng.randint(0, 4):])
            for host in (random_reduced_word(rng, 30),
                         random_reduced_word(rng, 30, (0, 1, 2)),
                         abc_shaped):
                for end in range(len(host) + 1):
                    for ctype in CRITICAL_TYPES:
                        if ctype == ABC:
                            wit = shortest_abc_critical_suffix(
                                host, params, end=end)
                        else:
                            wit = shortest_p2g_critical_suffix(
                                host, rrs._PAIRS[ctype], params, end=end)
                        if wit is not None:
                            _check_suffix_witness(host, end, ctype, wit,
                                                  params)
                            seen[ctype] += 1
        assert min(seen[t] for t in CRITICAL_TYPES) > 20, seen
