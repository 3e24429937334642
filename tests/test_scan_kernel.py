"""The scan kernel and its one-letter wrappers against the scanners they
replaced (copied into tests/helpers.py): after every letter, on every
field the program reads, and at every stop of a kernel run."""

import random

import pytest

import helpers
from artinword.core import GroupParams, format_word, make_alternating
from artinword.dihedral import CriticalSuffixScanner, scan_letters
from artinword.p2g import P2GSuffixScanner, commuting_z

from helpers import pair_letters, random_reduced_word

F = format_word

# (pair, n, p2g) for every pair and n = 5..8, 10^9, one n per relation
# length, as the scan reads n only through m
COMBOS = tuple({(pair, GroupParams(n).m(pair), p2g): (pair, n, p2g)
                for pair in ("ab", "bc", "ac") for p2g in (False, True)
                for n in (5, 6, 7, 8, 10 ** 9)
                if pair != "ac" or not p2g}.values())


def fields(scan) -> tuple:
    """What the program reads of a scanner: critical and dead and, while
    it lives, the fields of its hat (the reference P2G scanner's inner
    scanner)."""
    if scan.dead:
        return scan.critical, True
    hat = getattr(scan, "inner", scan)
    return (scan.critical, False, hat.shape, hat.pn, hat.raw_p, hat.raw_n,
            hat.neg_count, hat.count)


def state_fields(st: tuple) -> tuple:
    scan = CriticalSuffixScanner.__new__(CriticalSuffixScanner)
    scan.state = st
    return fields(scan)


def scanners(pair, params, p2g):
    if p2g:
        return (helpers.P2GSuffixScanner(pair, params),
                P2GSuffixScanner(pair, params))
    return (helpers.CriticalSuffixScanner(pair, params),
            CriticalSuffixScanner(pair, params))


def kernel_stops(st: tuple, w) -> tuple[list, tuple]:
    """Run the kernel over w from its end, resuming after each critical
    stop: the (letters fed, fields) of every stop, and the end state."""
    stops = []
    i = len(w)
    while i and not st[0]:
        i, st = scan_letters(st, w, i)
        if st[0] or st[1]:
            stops.append((len(w) - i, state_fields(st)))
    return stops, st


def check_word(w, pair, params, p2g) -> tuple[int, bool]:
    """Feed w to a reference scanner and a wrapper, comparing them after
    every letter, then check a kernel run over w against the stops the
    reference makes.  Returns the number of critical stops and whether
    the reference died."""
    ref, new = scanners(pair, params, p2g)
    start = new.state
    want = []
    for t, l in enumerate(reversed(w), 1):
        ref.feed(l)
        new.feed(l)
        got = fields(ref)
        assert fields(new) == got, (F(w), t, pair, params.n, p2g)
        if ref.critical or ref.dead:
            want.append((t, got))
        if ref.dead:
            break
    stops, st = kernel_stops(start, w)
    assert stops == want, (F(w), pair, params.n, p2g)
    assert state_fields(st) == fields(ref), (F(w), pair, params.n, p2g)
    return sum(f[0] for _, f in want), ref.dead


@pytest.mark.parametrize("pair,n,p2g", COMBOS)
def test_every_word_up_to_6(pair, n, p2g):
    """Every word of at most 6 letters over all six letters.  Words are
    grown by prepending letters, and a word the reference scanner leaves
    dead is not grown: its extensions feed a dead scanner, and the check
    of the word asks the wrapper and the kernel to be dead too."""
    params = GroupParams(n)
    stack = [()]
    hits = words = 0
    while stack:
        w = stack.pop()
        for l in range(6):
            u = (l,) + w
            critical, dead = check_word(u, pair, params, p2g)
            hits += bool(critical)
            words += 1
            if not dead and len(u) < 6:
                stack.append(u)
    assert words > 500
    assert hits or params.m(pair) > 6


def alternating_host(rng, pair, params, z):
    """40 letters of alternating runs over the pair, of random lengths up
    to m + 1 (and 40) and random signs, with z-powers between some."""
    x, y = ord(pair[0]) - 97, ord(pair[1]) - 97
    longest = min(params.m(pair) + 1, 40)
    w = []
    while len(w) < 40:
        sign = rng.choice((0, 3))
        if z is not None and rng.random() < 0.3:
            w += [z + rng.choice((0, 3))] * rng.randint(1, 2)
        first, second = rng.sample((x + sign, y + sign), 2)
        w += make_alternating(first, second, rng.randint(1, longest), "start")
    return tuple(w[:40])


@pytest.mark.parametrize("pair,n,p2g", COMBOS)
def test_seeded_hosts(pair, n, p2g):
    """Seeded 40-letter hosts: raw or freely reduced words over all six
    letters, the pair's letters (with z's for a P2G scan) and their
    positive ones, and words of alternating runs."""
    params = GroupParams(n)
    rng = random.Random(f"{pair}{n}{p2g}")
    letters = pair_letters(pair)
    z = ord(commuting_z(pair)) - 97 if p2g else None
    if p2g:
        letters += (z, z + 3)
    hits = 0
    for alphabet in (tuple(range(6)), letters,
                     tuple(l for l in letters if l < 3), None):
        for _ in range(60):
            if alphabet is None:
                w = alternating_host(rng, pair, params, z)
            elif rng.random() < 0.5:
                w = random_reduced_word(rng, 40, alphabet)
            else:
                w = tuple(rng.choice(alphabet) for _ in range(40))
            hits += check_word(w, pair, params, p2g)[0]
    assert hits or params.m(pair) > 40
