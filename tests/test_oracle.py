import heapq
import itertools
import random
import re

import pytest

from artinword import oracle
from artinword.core import (
    GroupParams,
    ResourceLimitError,
    format_word,
    free_reduce,
    parse_word,
)
from artinword.oracle import (
    OracleConfig,
    oracle_equal,
    oracle_equal_verdict,
    oracle_geodesic_length,
)
from artinword.verify import ball, equivalence_closure, relator_moves

from helpers import random_raw_word

P = parse_word
F = format_word


class TestRelatorMoves:
    def test_examples(self, params5):
        assert P("bab") in relator_moves(P("aba"), params5)
        assert P("ca") in relator_moves(P("ac"), params5)
        moves = relator_moves((), params5)
        assert len(moves) == 6
        assert all(len(m) == 2 and m[0] == (m[1] + 3) % 6 for m in moves)

    def test_alternating_relation(self, params5):
        assert P("cbcbc") in relator_moves(P("bcbcb"), params5)

    def test_deletion(self, params5):
        assert P("c") in relator_moves(P("aAc"), params5)


class TestGeodesicLength:
    def test_examples(self, params5, params4):
        config = OracleConfig(slack=4)
        assert oracle_geodesic_length(P("abaB"), config, params5) == 2
        assert oracle_geodesic_length(P("bcbcabacbcB"), config, params5) == 9
        assert oracle_geodesic_length((), config, params5) == 0

    def test_n4_example(self, params4):
        config = OracleConfig(slack=2)
        assert oracle_geodesic_length(P("bacbcbabcB"), config, params4) == 8

    def test_slack_stability(self, params5, params6):
        rng = random.Random(53)
        for params in (params5, params6):
            for _ in range(80):
                w = random_raw_word(rng, rng.randint(0, 9))
                a = oracle_geodesic_length(w, OracleConfig(slack=2), params)
                b = oracle_geodesic_length(w, OracleConfig(slack=4), params)
                assert a == b, F(w)

    def test_huge_slack(self, params5):
        """The search allots its per-length heaps as lengths are pushed,
        not up to the bound, so a huge slack costs nothing up front."""
        config = OracleConfig(slack=10 ** 9)
        assert oracle_geodesic_length(P("ab"), config, params5) == 2
        assert oracle_equal(P("aba"), P("bab"), config, params5)

    def test_node_cap(self, params5):
        with pytest.raises(ResourceLimitError):
            oracle_geodesic_length(P("bcbcabacbcB"),
                                   OracleConfig(slack=4, node_cap=10),
                                   params5)

    def test_matches_single_heap_search(self, monkeypatch, params4,
                                        params5, params6):
        """The class search finds the length that one (length, word) heap
        over words with the same adaptive bound finds, and expands no more
        classes than that search expands words."""
        expanded = count_expansions(monkeypatch)
        rng = random.Random(59)
        for params in (params4, params5, params6):
            for slack in (0, 1, 2, 4):
                for _ in range(20):
                    w = random_raw_word(rng, rng.randint(0, 7))
                    expanded[0] = 0
                    got = oracle_geodesic_length(w, OracleConfig(slack=slack),
                                                 params)
                    want, word_expanded = single_heap_search(w, slack, params)
                    assert got == want, (F(w), slack)
                    assert expanded[0] <= word_expanded, (F(w), slack)

    @pytest.mark.parametrize("n", (4, 5, 6, 7, 8))
    def test_matches_word_search_wider(self, monkeypatch, n):
        """As above at n = 4..8, on longer raw words and on words built
        from relator sides, so that the {b,c} relators fire."""
        params = GroupParams(n, allow_small_n=True)
        expanded = count_expansions(monkeypatch)
        rng = random.Random(4099 + n)
        for k in range(24):
            if k % 2:
                w = random_raw_word(rng, rng.randint(6, 10))
            else:
                w = relator_rich_word(rng, params, 10)
            slack = 2 if k % 3 else 4
            expanded[0] = 0
            got = oracle_geodesic_length(w, OracleConfig(slack=slack), params)
            want, word_expanded = single_heap_search(w, slack, params)
            assert got == want, (n, F(w), slack)
            assert expanded[0] <= word_expanded, (n, F(w), slack)


def count_expansions(monkeypatch):
    """Count the calls of _Search.expand_one from here on."""
    expanded = [0]
    expand_one = oracle._Search.expand_one

    def counted(self, other_seen=None):
        expanded[0] += 1
        return expand_one(self, other_seen)
    monkeypatch.setattr(oracle._Search, "expand_one", counted)
    return expanded


def relator_rich_word(rng, params, max_len):
    """A raw word of at most max_len letters made of random letters and
    relator sides."""
    sides = [bytes(left) for left, _ in oracle._relator_table(params, max_len)]
    w = b""
    while True:
        piece = rng.choice(sides) if rng.random() < 0.4 else \
            bytes((rng.randrange(6),))
        if len(w) + len(piece) > max_len:
            return tuple(w)
        w += piece


def single_heap_search(w, slack, params):
    """(length, expansions) of the oracle's search written plainly: every
    neighbour in turn, pending words in one heap of (length, word)."""
    table = oracle._relator_table(params)
    start = bytes(free_reduce(w))
    floor = oracle._ab_lower_bound(free_reduce(w), params)
    floor += (len(start) - floor) % 2
    seen, heap = {start}, [(len(start), start)]
    min_len, bound, expansions = len(start), len(start) + slack, 0
    while min_len > floor:
        while heap and heap[0][0] > bound:
            heapq.heappop(heap)
        if not heap:
            break
        _, u = heapq.heappop(heap)
        expansions += 1
        nbrs = [u[:i] + rep + u[i + len(pat):] for pat, rep in table
                for i in range(len(u)) if u.startswith(pat, i)]
        nbrs += [u[:i] + u[i + 2:] for i in range(len(u) - 1)
                 if u[i] == (u[i + 1] + 3) % 6]
        if len(u) + 2 <= bound:
            nbrs += [u[:i] + bytes((l, (l + 3) % 6)) + u[i:]
                     for i in range(len(u) + 1) for l in range(6)]
        for v in nbrs:
            if len(v) <= bound and v not in seen:
                seen.add(v)
                if len(v) < min_len:
                    min_len, bound = len(v), min(bound, len(v) + slack)
                heapq.heappush(heap, (len(v), v))
    return min_len, expansions


def class_members(u):
    """Every word of the a/c commutation class of the canonical word u."""
    parts = re.split(oracle._B_LETTER, u)
    choices = []
    for k, part in enumerate(parts):
        if k % 2:
            choices.append([part])
            continue
        a_run = part.translate(None, oracle._C_NAMES)
        c_run = part.translate(None, oracle._A_NAMES)
        shuffles = []
        for at in itertools.combinations(range(len(part)), len(a_run)):
            letters, a, c = [], iter(a_run), iter(c_run)
            for i in range(len(part)):
                letters.append(next(a) if i in at else next(c))
            shuffles.append(bytes(letters))
        choices.append(shuffles)
    return {b"".join(combo) for combo in itertools.product(*choices)}


def word_neighbours(w, table, insert):
    """Every word one relator substitution, cancelling-pair deletion and,
    with insert, cancelling-pair insertion away from w."""
    out = [w[:i] + rep + w[i + len(pat):] for pat, rep in table
           for i in range(len(w)) if w.startswith(pat, i)]
    out += [w[:i] + w[i + 2:] for i in range(len(w) - 1)
            if w[i] == (w[i + 1] + 3) % 6]
    if insert:
        out += [w[:i] + bytes((l, (l + 3) % 6)) + w[i:]
                for i in range(len(w) + 1) for l in range(6)]
    return out


class TestClassMoves:
    def test_canonical_word(self):
        canon = oracle._canon
        assert canon(bytes(P("cab"))) == bytes(P("acb"))
        assert canon(bytes(P("CaAcbcAB"))) == bytes(P("aACcbAcB"))
        assert canon(b"") == b""
        rng = random.Random(67)
        for _ in range(200):
            u = canon(bytes(random_raw_word(rng, rng.randint(0, 9))))
            assert canon(u) == u
            assert {canon(m) for m in class_members(u)} == {u}

    @pytest.mark.parametrize("n", (4, 5, 6, 7))
    def test_moves_are_the_class_moves(self, n):
        """The classes one move away from the class of u are the classes
        of the words one move away from any word of that class."""
        params = GroupParams(n, allow_small_n=True)
        table = oracle._relator_table(params)
        rng = random.Random(71 + n)
        fired = 0
        for k in range(300):
            if k % 2:
                w = random_raw_word(rng, rng.randint(0, 9))
            else:
                w = relator_rich_word(rng, params, 9)
            u = oracle._canon(bytes(w))
            members = class_members(u)
            for insert in (False, True):
                index = oracle._class_index(params, len(u) + 2 * insert)
                subs, dels = oracle._class_moves(u, index)
                got = set(subs + dels)
                if insert:
                    blocks = oracle._blocks(u)
                    ins = oracle._class_insertions(u, blocks)
                    assert len(ins) == oracle._insertion_count(blocks)
                    got.update(ins)
                want = {oracle._canon(v) for m in members
                        for v in word_neighbours(m, table, insert)}
                assert got - {u} == want - {u}, (n, F(u), insert)
                fired += bool(subs)
        assert fired > 100


class TestEqual:
    def test_relations(self, params5):
        config = OracleConfig(slack=4)
        assert oracle_equal(P("aba"), P("bab"), config, params5)
        assert oracle_equal(P("ac"), P("ca"), config, params5)
        assert not oracle_equal(P("a"), P("b"), OracleConfig(slack=6),
                                params5)

    def test_verdicts(self, params5, params6):
        config = OracleConfig(slack=4)
        assert oracle_equal_verdict(P("ab"), P("ab"), config,
                                    params5) == (True, "identical")
        eq, ev = oracle_equal_verdict(P("aba"), P("bab"), config, params5)
        assert eq and ev == "met-in-search"
        # total exponent sum separates at odd n
        eq, ev = oracle_equal_verdict(P("a"), P("A"), config, params5)
        assert (eq, ev) == (False, "abelianization")
        # (exp_a + exp_b, exp_c) separates at even n
        eq, ev = oracle_equal_verdict(P("a"), P("c"), config, params6)
        assert (eq, ev) == (False, "abelianization")
        # a and b agree in every abelian quotient; only bounded search
        eq, ev = oracle_equal_verdict(P("a"), P("b"), config, params5)
        assert (eq, ev) == (False, "search-exhausted")

    def test_abelianization_reject_exact(self, params5, params6):
        """unequal abelianized vectors always yield certain negatives"""
        from artinword.oracle import _abelianization
        rng = random.Random(59)
        config = OracleConfig(slack=2)
        for params in (params5, params6):
            for _ in range(300):
                u = random_raw_word(rng, rng.randint(0, 8))
                v = random_raw_word(rng, rng.randint(0, 8))
                if _abelianization(u, params) != _abelianization(v, params):
                    eq, ev = oracle_equal_verdict(u, v, config, params)
                    assert (eq, ev) == (False, "abelianization")


class TestEquivalenceClosure:
    def test_examples(self, params5):
        assert equivalence_closure(P("ac"), params5) \
            == {P("ac"), P("ca")}
        assert equivalence_closure(P("aba"), params5) \
            == {P("aba"), P("bab")}
        assert equivalence_closure(P("bcbcb"), params5) \
            == {P("bcbcb"), P("cbcbc")}

    def test_members_preserve_element_and_length(self, params5):
        config = OracleConfig(slack=4)
        rng = random.Random(61)
        from artinword.reducer import reduce_to_geodesic
        for _ in range(20):
            w, _ = reduce_to_geodesic(random_raw_word(rng, 8), params5)
            for v in equivalence_closure(w, params5):
                assert len(v) == len(w)
                assert oracle_equal(v, w, config, params5)

    def test_cap(self, params5):
        with pytest.raises(ResourceLimitError):
            equivalence_closure(P("acacacacac"), params5, cap=5)


class TestHugeN:
    """Relators longer than the length bound are never built, so a huge
    n costs no more than a small one."""

    def test_length_and_equal(self):
        params = GroupParams(10 ** 9)
        config = OracleConfig(slack=4)
        assert oracle_geodesic_length(P("abaB"), config, params) == 2
        assert oracle_equal(P("aba"), P("bab"), config, params)
        assert oracle_equal_verdict(P("bc"), P("cb"), config, params) \
            == (False, "search-exhausted")

    def test_moves_and_ball(self):
        """Below its bc relator's length, n = 10**9 moves like n = 9."""
        huge, small = GroupParams(10 ** 9), GroupParams(9)
        config = OracleConfig(slack=2)
        for word in ("", "bcbcb", "abacbC", "bcbcbc"):
            w = P(word)
            assert relator_moves(w, huge) == relator_moves(w, small)
            assert ball(w, config, huge) == ball(w, config, small)
