import hashlib
import json
import random
import sys
import threading

from artinword.core import GroupParams, format_word, parse_word
from artinword.oracle import OracleConfig, oracle_equal, oracle_geodesic_length
from artinword.reducer import (
    equal_in_g,
    geodesic_length,
    is_geodesic,
    push_letter,
    reduce_to_geodesic,
)
from artinword.rrs import (Meter, chain_memo, enumerate_all_rrs,
                           find_optimal_rrs)

from helpers import random_raw_word, random_reduced_word, relator_pair_word

P = parse_word
F = format_word


class TestPushLetter:
    def test_examples(self, params5):
        assert push_letter((), P("a")[0], params5)[0] == P("a")
        assert push_letter(P("a"), P("A")[0], params5)[0] == ()
        got, _ = push_letter(P("bcbcabacbc"), P("B")[0], params5)
        assert F(got) == "cbcbabcbc"


class TestReduce:
    def test_examples(self, params5):
        assert reduce_to_geodesic(P("aA"), params5)[0] == ()
        assert F(reduce_to_geodesic(P("bcbcabacbcB"), params5)[0]) \
            == "cbcbabcbc"
        assert F(reduce_to_geodesic(P("abaB"), params5)[0]) == "ba"

    def test_accepts_unreduced_input(self, params5):
        assert reduce_to_geodesic(P("abBAcC"), params5)[0] == ()

    def test_trace_events(self, params5):
        _, trace = reduce_to_geodesic(P("bcbcabacbcB"), params5,
                                      want_trace=True)
        assert len(trace) == 1          # one push applied an RRS
        idx, events = trace[0]
        assert idx == 10
        assert [e.kind for e in events] == ["tau_abc", "tau_2gen",
                                            "free-cancel"]


class TestWordProblem:
    def test_relations(self, params5):
        assert equal_in_g(P("aba"), P("bab"), params5)
        assert equal_in_g(P("ac"), P("ca"), params5)
        assert equal_in_g(P("bcbcb"), P("cbcbc"), params5)
        assert not equal_in_g(P("a"), P("b"), params5)

    def test_lengths(self, params5):
        assert geodesic_length(P("abaB"), params5) == 2
        assert geodesic_length(P("bcbcabacbcB"), params5) == 9
        assert geodesic_length((), params5) == 0
        assert is_geodesic(P("bcbcaba"), params5)
        assert not is_geodesic(P("abaB"), params5)


class TestInvariants:
    def test_idempotence(self, params5, params6):
        rng = random.Random(37)
        for params in (params5, params6):
            for _ in range(300):
                w = random_raw_word(rng, rng.randint(0, 14))
                r, _ = reduce_to_geodesic(w, params)
                again, _ = reduce_to_geodesic(r, params)
                assert again == r

    def test_prefixes_stay_in_w(self, params5):
        """Every intermediate word admits no RRS (certified by
        enumeration at desk scale)."""
        rng = random.Random(41)
        for _ in range(40):
            w = random_raw_word(rng, rng.randint(0, 9))
            cur = ()
            for x in w:
                cur, _ = push_letter(cur, x, params5)
                assert enumerate_all_rrs(cur, params5) == [], F(cur)

    def test_oracle_agreement_sample(self, params5, params6):
        rng = random.Random(43)
        config = OracleConfig(slack=4)
        for params in (params5, params6):
            for _ in range(60):
                w = random_raw_word(rng, rng.randint(0, 10))
                r, _ = reduce_to_geodesic(w, params)
                assert len(r) == oracle_geodesic_length(w, config, params)
                assert oracle_equal(w, r, config, params)

    def test_relator_pushes_sample(self, params5):
        """reduce(w + ac) and reduce(w + ca) agree in length and element;
        same for aba/bab and the n-alternating pair."""
        rng = random.Random(47)
        config = OracleConfig(slack=4)
        pairs = [(P("ac"), P("ca")), (P("aba"), P("bab")),
                 (P("bcbcb"), P("cbcbc"))]
        for _ in range(30):
            w = ()
            for _ in range(rng.randint(0, 6)):
                w, _ = push_letter(w, rng.randrange(6), params5)
            for left, right in pairs:
                r1, _ = reduce_to_geodesic(w + left, params5)
                r2, _ = reduce_to_geodesic(w + right, params5)
                assert len(r1) == len(r2), (F(w), F(left))
                assert oracle_equal(r1, r2, config, params5), (F(w), F(left))


# SHA-256 of every reduction and its trace events over the corpus below;
# a change to the reducer must leave every output identical
CORPUS_DIGEST = (
    "803f7cf667869fe3a2d5ca03e14f9ccda5fe37ffda40529d92924a9513a8f5a2")


def digest_corpus():
    """(params, word) pairs: raw, positive, freely reduced and relator-pair
    words at n = 5..8, up to 300 letters."""
    rng = random.Random(4099)
    for n in (5, 6, 7, 8):
        params = GroupParams(n)
        for length in (12, 75, 150, 300):
            yield params, random_raw_word(rng, length)
            yield params, random_reduced_word(rng, length, (0, 1, 2))
            yield params, random_reduced_word(rng, length)
            yield params, relator_pair_word(rng, n, length // 4,
                                            length // 40, length % 2 == 1)


class TestIdenticalOutputs:
    def test_corpus_digest(self):
        h = hashlib.sha256()
        for params, w in digest_corpus():
            r, trace = reduce_to_geodesic(w, params, want_trace=True)
            events = [[idx, [e.to_json() for e in evs]] for idx, evs in trace]
            h.update(f"{params.n} {F(w)} {F(r)} ".encode())
            h.update(json.dumps(events, sort_keys=True).encode() + b"\n")
            cur = ()
            for x in w:
                cur, _ = push_letter(cur, x, params)
            assert r == cur, (params.n, F(w))
        assert h.hexdigest() == CORPUS_DIGEST


class TestMemoScope:
    def test_two_threads(self, params5):
        rng = random.Random(53)
        words = [random_raw_word(rng, 300) for _ in range(2)]
        expected = [reduce_to_geodesic(w, params5)[0] for w in words]
        got = [None, None]
        start = threading.Barrier(2)

        def run(i):
            start.wait()
            got[i] = reduce_to_geodesic(words[i], params5)[0]

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected

    def test_no_memo_after_reduction(self, params5):
        """A memo left over on the returned word would cut the letters a
        later direct call on that very tuple visits."""
        rng = random.Random(59)
        w = random_raw_word(rng, 200)

        def letters(cur):
            out = []
            for x in range(6):
                meter = Meter()
                find_optimal_rrs(cur, x, params5, meter=meter)
                out.append(meter.letters)
            return out

        cur, _ = reduce_to_geodesic(w, params5)
        fresh = letters(tuple(list(cur)))      # an equal, distinct tuple
        assert letters(cur) == fresh
        with chain_memo(cur):
            assert sum(letters(cur)) < sum(fresh)
