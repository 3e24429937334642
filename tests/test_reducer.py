import hashlib
import json
import random
import sys
import threading

import pytest

from artinword import reducer, rrs
from artinword.core import (GroupParams, format_word, free_reduce,
                            inverse_letter, invert_word, is_freely_reduced,
                            parse_word)
from artinword.oracle import OracleConfig, oracle_equal, oracle_geodesic_length
from artinword.reducer import (
    equal_in_g,
    geodesic_length,
    is_geodesic,
    push_letter,
    reduce_to_geodesic,
)
from artinword.rrs import (Meter, apply_rrs, chain_memo, check_rrs,
                           find_optimal_rrs)
from artinword.verify import enumerate_all_rrs, is_optimal

from helpers import (halving_rebase, random_raw_word, random_reduced_word,
                     relator_pair_word)

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


# (letters, pushes) the Meter counts on the stateless push fold over the
# corpus below, a fresh Meter per push as in acceptance criterion 9; a
# change to what the search meters must update it and say why.  It was
# (921_008, 7_874) until a chain step stopped scanning the {a,b} suffix
# at a cut where the {a,b} probe of the step before it had just found
# none; those repeated scans were the 75,674 letters it lost.  It was
# (845_334, 7_874) until the u_r walk of abc_critical read the hat's name
# runs instead of a P2G {a,b} scan: the walk reads on through up to five
# runs, where the scan stopped once p + n passed 3, and sooner on hats
# of alternating signs, whose p + n stays 2; 5,877 letters more in all.
CORPUS_METER = (851_211, 7_874)


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

    def test_corpus_meter(self):
        letters = pushes = 0
        for params, w in digest_corpus():
            cur = ()
            for x in w:
                meter = Meter()
                cur, _ = push_letter(cur, x, params, meter=meter)
                letters += meter.letters
                pushes += 1
        assert (letters, pushes) == CORPUS_METER

    def test_m0_rrs_pass_the_check(self):
        """find_optimal_rrs builds each m = 0 RRS without the checking
        pass; the pass returns every one of them as it is."""
        free = longer = 0
        for params, w in digest_corpus():
            cur = ()
            for x in w:
                found = find_optimal_rrs(cur, x, params)
                if found is not None and found.m == 0:
                    assert check_rrs(found.host, found.cuts, (),
                                     params) == found, (params.n, F(cur), x)
                    if found.cuts == (len(cur) - 1, len(cur)):
                        free += 1
                    else:
                        longer += 1
                cur, _ = push_letter(cur, x, params)
        assert free > 100 and longer > 100


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


def checked_reductions(monkeypatch, corpus):
    """Reduce each (params, word) of corpus, checking that every push
    result is freely reduced and that free-reducing only the rewritten
    tail of an applied RRS gives what free-reducing the whole rewritten
    host gives.  Returns the counts of pushes, applied RRSs, those whose
    rewritten tail is not empty and those whose reduced tail cancels
    against mu."""
    tails = []
    direct_free = rrs.free_reduce
    direct_apply = reducer.apply_rrs
    direct_push = reducer.push_letter
    seen = {"pushes": 0, "applied": 0, "nonempty": 0, "junction": 0}

    def recorded(word):
        tails.append(word)
        return direct_free(word)

    def applied(found, params, want_trace=False):
        tails.clear()
        result, events = direct_apply(found, params, want_trace)
        (tail,) = tails
        mu = found.host[:found.cuts[0]]
        assert result == free_reduce(mu + tail), (params.n, F(found.host))
        reduced = free_reduce(tail)
        seen["applied"] += 1
        seen["nonempty"] += bool(tail)
        seen["junction"] += bool(mu and reduced
                                 and mu[-1] == inverse_letter(reduced[0]))
        return result, events

    def pushed(w, x, params, **kwargs):
        result, events = direct_push(w, x, params, **kwargs)
        assert is_freely_reduced(result), (params.n, F(w), x)
        seen["pushes"] += 1
        return result, events
    monkeypatch.setattr(rrs, "free_reduce", recorded)
    monkeypatch.setattr(reducer, "apply_rrs", applied)
    monkeypatch.setattr(reducer, "push_letter", pushed)
    for params, w in corpus:
        reduce_to_geodesic(w, params)
    return seen


# an n=5 word one push of which cancels at the junction of mu and the
# rewritten tail
JUNCTION_WORD = P("CbcABcabacbaBcbCbAbcbCaCCacACBccaBABACbbcAACCCAAbbaBbABBaac"
                  "cCAcacaaCBBcababAACacCCbcaCAccAcBCBaBcBCbABCB")


class TestFreelyReduced:
    def test_digest_corpus(self, monkeypatch):
        seen = checked_reductions(monkeypatch, digest_corpus())
        assert seen["pushes"] == sum(len(w) for _, w in digest_corpus())
        # 1,427 applies at b4a1b12, of which 537 had a nonempty tail; the
        # other 890 were free cancellations of x^-1 x, which push_letter
        # now makes without apply_rrs
        assert seen["applied"] == seen["nonempty"] == 537

    def test_junction_cancels(self, monkeypatch, params5):
        """At n=5 one push of this word leaves a rewritten tail that
        starts with the inverse of mu's last letter, so the junction must
        cancel too (shrunk from a word-problem pair)."""
        seen = checked_reductions(monkeypatch, [(params5, JUNCTION_WORD)])
        assert seen["junction"] == 1



class TestPushShortcuts:
    def test_free_cancel_as_applied(self, monkeypatch):
        """A push onto a word ending in x^-1 gives the word, the events
        and the metered letters that applying the RRS found gives."""
        adjacent = []

        def pushed(w, x, params, **kwargs):
            if w and w[-1] == inverse_letter(x):
                adjacent.append((w, x, params))
            return push_letter(w, x, params, **kwargs)
        monkeypatch.setattr(reducer, "push_letter", pushed)
        for params, w in digest_corpus():
            reduce_to_geodesic(w, params)
        assert len(adjacent) == 890
        for w, x, params in adjacent:
            pushed_meter, found_meter = Meter(), Meter()
            got = push_letter(w, x, params, want_trace=True,
                              meter=pushed_meter)
            found = find_optimal_rrs(w, x, params, meter=found_meter)
            assert got == apply_rrs(found, params, want_trace=True), \
                (params.n, F(w), x)
            assert pushed_meter.letters == found_meter.letters == 1
            assert push_letter(w, x, params) == (w[:-1], None)

    def test_rebase_keeps_what_halving_kept(self, monkeypatch):
        """Rebasing from the push's cut keeps exactly the chain states
        that the halving search for the first rewritten position kept, on
        the digest corpus and on the word whose junction cancels."""
        direct = rrs.ChainMemo.rebase
        seen = {"rebases": 0, "trimmed": 0, "junction": 0}

        def rebase(memo, word, cut):
            before = {t: list(known) for t, known in memo.states.items()}
            want = {t: list(known) for t, known in memo.states.items()}
            halving_rebase(want, memo.word, word)
            seen["junction"] += len(word) < len(memo.word) - 1
            direct(memo, word, cut)
            assert memo.states == want, (F(memo.word), cut)
            seen["rebases"] += 1
            seen["trimmed"] += want != before
        monkeypatch.setattr(rrs.ChainMemo, "rebase", rebase)
        corpus = list(digest_corpus()) + [(GroupParams(5), JUNCTION_WORD)]
        for params, w in corpus:
            reduce_to_geodesic(w, params)
        assert seen["rebases"] == sum(len(w) for _, w in corpus)
        assert seen["trimmed"] > 500
        assert seen["junction"] == 1

    def test_rebase_from_any_lower_bound(self):
        """Given any cut below the first position where the words differ,
        rebase finds that position, as the halving search did, for a push
        that appends a letter or shortens the word."""
        rng = random.Random(89)
        for _ in range(2000):
            old = random_reduced_word(rng, rng.randint(1, 30), (0, 1, 3))
            if rng.random() < 0.2:
                word = old + (rng.choice((0, 1, 3)),)
            else:
                keep = rng.randint(0, len(old) - 1)
                word = old[:keep] + random_reduced_word(
                    rng, rng.randint(0, len(old) - 1 - keep), (0, 1, 3))
            memo = rrs.ChainMemo(old)
            for known in memo.states.values():
                known.extend(rng.choice((None, (), rrs._BAD))
                             for _ in range(rng.randint(0, len(old) + 1)))
            want = {t: list(known) for t, known in memo.states.items()}
            halving_rebase(want, old, word)
            shared = 0
            while (shared < min(len(old), len(word))
                   and old[shared] == word[shared]):
                shared += 1
            memo.rebase(word, rng.randint(0, shared))
            assert memo.states == want and memo.word is word, \
                (F(old), F(word))

def metamorphic_lengths(w, params):
    """Reduced lengths of w, w^-1, w reversed, w with each letter
    inverted in place, and the free reduction of w.  The first three maps
    preserve the relators and free reduction keeps the element, so
    geodesic length is invariant under all of them."""
    images = (w, invert_word(w), w[::-1],
              tuple(inverse_letter(l) for l in w), free_reduce(w))
    return [len(reduce_to_geodesic(v, params)[0]) for v in images]


class TestMetamorphic:
    @pytest.mark.parametrize("n", (6, 7, 8))
    def test_lengths_agree(self, n):
        """The images agree, and a reduced word reduces to itself."""
        rng = random.Random(7919 + n)
        params = GroupParams(n)
        for length in (13, 50, 150, 300, 450):
            for _ in range(5):
                w = random_raw_word(rng, length)
                lengths = metamorphic_lengths(w, params)
                assert len(set(lengths)) == 1, (n, F(w), lengths)
                out = reduce_to_geodesic(w, params)[0]
                assert reduce_to_geodesic(out, params)[0] == out, (n, F(w))


# n=5 words shrunk from raw random words, with their BFS geodesic lengths
N5_FIXTURES = (("AbaCbAcBCabcb", 11), ("AbCaBcAbacbcb", 11),
               ("abcAbcaBCABCacACB", 11), ("bcbccaBcbaBCbA", 12),
               ("BcbcAbCBabcba", 11), ("CBACBcabcbaBCBc", 13))


# cuts of the only optimal RRS of each fixture's last push, of types
# (p2g-ab, abc, p2g-bc); the last three have none
LAST_PUSH_CUTS = ((0, 3, 10, 12, 12), (0, 4, 9, 12, 12), (0, 4, 10, 12, 12),
                  None, None, None)


class TestN5Fixtures:
    @pytest.mark.parametrize("word,length", N5_FIXTURES)
    def test_oracle_length(self, params5, word, length):
        config = OracleConfig(slack=4)
        assert oracle_geodesic_length(P(word), config, params5) == length

    @pytest.mark.parametrize("word,length", N5_FIXTURES[:3] + (
        pytest.param(*N5_FIXTURES[3], marks=pytest.mark.xfail(
            strict=True, reason=(
                "the reducer returns 14 letters: at n=5 a push misses an "
                "RRS that enumerate_all_rrs misses too"))),) + tuple(
        pytest.param(*fixture, marks=pytest.mark.xfail(strict=True, reason=(
            "returned unchanged: the last push misses an RRS that "
            "enumerate_all_rrs misses too")))
        for fixture in N5_FIXTURES[4:]))
    def test_reducer_length(self, params5, word, length):
        assert len(reduce_to_geodesic(P(word), params5)[0]) == length

    @pytest.mark.parametrize("word,cuts", [
        (w, c) for (w, _), c in zip(N5_FIXTURES, LAST_PUSH_CUTS)])
    def test_last_push(self, params5, word, cuts):
        """The last push, onto the reduced prefix (13 or 14 letters with
        the pushed one): find_optimal_rrs returns exactly the one optimal
        RRS that exhaustive enumeration gives."""
        w = P(word)
        prefix = reduce_to_geodesic(w[:-1], params5)[0]
        host = prefix + w[-1:]
        optimal = [r for r in enumerate_all_rrs(host, params5)
                   if is_optimal(r, params5)]
        found = find_optimal_rrs(prefix, w[-1], params5)
        if cuts is None:
            assert optimal == [] and found is None
            return
        (want,) = optimal
        assert want.cuts == cuts
        assert want.types == (rrs.P2G_AB, rrs.ABC, rrs.P2G_BC)
        assert found == want

    @pytest.mark.parametrize("word", [w for w, _ in N5_FIXTURES[:3]])
    def test_metamorphic(self, params5, word):
        assert len(set(metamorphic_lengths(P(word), params5))) == 1

    @pytest.mark.parametrize("word", [
        pytest.param("cbcbabcBCBACcCBbcba", marks=pytest.mark.xfail(
            strict=True, reason=(
                "reduces to 13 letters, but its free reduction to 11"))),
        pytest.param("CBACBcbabcbaBBCBcaAb", marks=pytest.mark.xfail(
            strict=True, reason=(
                "reduces to 14 letters, and to 12 when reduced again")))])
    def test_stable(self, params5, word):
        """Reducing the free reduction of a word gives a word as long, and
        reducing the result again changes nothing."""
        w = P(word)
        out = reduce_to_geodesic(w, params5)[0]
        assert len(reduce_to_geodesic(free_reduce(w), params5)[0]) == len(out)
        assert reduce_to_geodesic(out, params5)[0] == out


def count_critical_witness(monkeypatch):
    """Count the calls of rrs.critical_witness from here on."""
    calls = [0]
    direct = rrs.critical_witness

    def counted(*args):
        calls[0] += 1
        return direct(*args)
    monkeypatch.setattr(rrs, "critical_witness", counted)
    return calls


class TestCheckedLinks:
    def test_memoised_finds_match_fresh(self, monkeypatch):
        """Every search made inside a reduction, on the memo's verified
        walks, returns what a search with a fresh memo returns on an equal
        copy of the word."""
        direct = reducer.find_optimal_rrs
        seen = {"calls": 0, "accepted": 0}

        def compared(w, x, params, meter=None):
            got = direct(w, x, params, meter=meter)
            assert got == direct(tuple(list(w)), x, params), \
                (params.n, F(w), x)
            seen["calls"] += 1
            seen["accepted"] += got is not None
            return got
        monkeypatch.setattr(reducer, "find_optimal_rrs", compared)
        for params, w in digest_corpus():
            reduce_to_geodesic(w, params)
        assert seen["calls"] == sum(len(w) for _, w in digest_corpus())
        assert 0 < seen["accepted"] < seen["calls"]

    def test_fewer_criticality_checks(self, monkeypatch):
        """Links the checking pass derived on earlier pushes are reused,
        so a reduction checks far fewer words than the stateless fold."""
        calls = count_critical_witness(monkeypatch)
        for params, w in digest_corpus():
            cur = ()
            for x in w:
                cur, _ = push_letter(cur, x, params)
        stateless = calls[0]
        calls[0] = 0
        for params, w in digest_corpus():
            reduce_to_geodesic(w, params)
        assert 3 * calls[0] <= stateless

    def test_no_links_after_reduction(self, params5, monkeypatch):
        calls = count_critical_witness(monkeypatch)
        rng = random.Random(61)
        cur, _ = reduce_to_geodesic(random_raw_word(rng, 200), params5)

        def checks(word):
            calls[0] = 0
            for x in range(6):
                find_optimal_rrs(word, x, params5)
            return calls[0]
        assert checks(cur) == checks(tuple(list(cur))) > 0
