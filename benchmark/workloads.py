"""The benchmark's workloads: the inputs each makes from the seed, the one
operation it times, and the checks on that operation's output.

Every check uses ``checkers``, which is independent of the reducer; no
output is compared with a stored copy of an earlier run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from artinword import GroupParams, oracle, reducer

import checkers as ck

RAW_LEN = 450            # letters per reduce-raw word
POSITIVE_LEN = 250       # letters per reduce-positive word
PAIR_LEN = 150           # |w| of a word-problem pair
PAIR_INSERTIONS = 15     # relator words inserted into w to make w2
ORACLE_LEN = 5           # letters per oracle-small word (freely reduced)
ORACLE_CONFIG = oracle.OracleConfig(slack=4)   # as Tier-1 criterion 4


class Case(NamedTuple):
    n: int
    words: tuple[ck.Word, ...]
    label: Optional[bool]   # known verdict of a word-problem pair
    letters: int            # input letters the operation processes


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int              # operations per whole round of the timed loop
    traced_round: int       # operations per round of the traced run
    make: Callable[[random.Random, int], Case]
    run: Callable[[Case, GroupParams], object]
    check: Callable[[Case, object, ck.FpRep], Optional[str]]


# -- inputs ----------------------------------------------------------------

def _one(n: int, w: ck.Word) -> Case:
    return Case(n, (w,), None, len(w))


def _make_raw(rng: random.Random, i: int) -> Case:
    return _one(5, ck.raw_word(rng, RAW_LEN))


def _make_positive(rng: random.Random, i: int) -> Case:
    return _one(5, ck.positive_word(rng, POSITIVE_LEN))


def _make_pair(rng: random.Random, i: int) -> Case:
    # round of four: (n=5, equal), (n=8, equal), (n=5, unequal), (n=8, unequal)
    n, equal = (5, 8)[i % 2], i % 4 < 2
    w, w2 = ck.make_pair(rng, n, PAIR_LEN, PAIR_INSERTIONS, equal)
    return Case(n, (w, w2), equal, len(w) + len(w2))


def _make_small(rng: random.Random, i: int) -> Case:
    return _one((5, 6)[i % 2], ck.reduced_word(rng, ORACLE_LEN))


# -- operations ------------------------------------------------------------
# Calls go through the module attributes, where the traced run wraps them.

def _reduce(case: Case, params: GroupParams):
    return reducer.reduce_to_geodesic(case.words[0], params)[0]


def _equal(case: Case, params: GroupParams):
    return reducer.equal_in_g(case.words[0], case.words[1], params)


def _adjudicate(case: Case, params: GroupParams):
    """The reducer's answer and the BFS oracle's verdict on it."""
    w = case.words[0]
    g = reducer.reduce_to_geodesic(w, params)[0]
    return (g, oracle.oracle_geodesic_length(w, ORACLE_CONFIG, params),
            oracle.oracle_equal(w, g, ORACLE_CONFIG, params))


# -- checks ----------------------------------------------------------------

def _check_reduced(case: Case, g, rep: ck.FpRep) -> Optional[str]:
    w = case.words[0]
    if not ck.is_freely_reduced(g):
        return "output is not freely reduced"
    if (len(w) - len(g)) % 2:
        return "output length has the wrong parity"
    if len(g) > len(ck.free_reduce(w)):
        return "output is longer than the free reduction of the input"
    if len(g) < ck.abelian_lower_bound(w, case.n):
        return "output is shorter than the abelianisation bound"
    if rep.image(g) != rep.image(w):
        return "output and input differ in the F_p representation"
    return None


def _check_positive(case: Case, g, rep: ck.FpRep) -> Optional[str]:
    # the exponent-sum map bounds a positive word's length, so it is
    # geodesic, admits no RRS, and every push only appends
    return None if g == case.words[0] else "a positive word was rewritten"


def _check_pair(case: Case, verdict, rep: ck.FpRep) -> Optional[str]:
    if verdict is not case.label:
        return f"equal_in_g said {verdict}, the construction says {case.label}"
    w, w2 = case.words
    if case.label and rep.image(w) != rep.image(w2):
        return "an equal pair differs in the F_p representation"
    return None


def _check_small(case: Case, out, rep: ck.FpRep) -> Optional[str]:
    g, oracle_len, oracle_eq = out
    if len(g) != oracle_len:
        return f"reducer length {len(g)}, oracle length {oracle_len}"
    if not oracle_eq:
        return "the oracle finds the output unequal to the input"
    if rep.image(g) != rep.image(case.words[0]):
        return "output and input differ in the F_p representation"
    return None


WORKLOADS = {wl.name: wl for wl in (
    Workload("reduce-raw", 1, 8, _make_raw, _reduce, _check_reduced),
    Workload("word-problem", 4, 8, _make_pair, _equal, _check_pair),
    Workload("reduce-positive", 1, 8, _make_positive, _reduce,
             _check_positive),
    Workload("oracle-small", 2, 100, _make_small, _adjudicate, _check_small),
)}

#: every n a workload uses
NS = (5, 6, 8)
