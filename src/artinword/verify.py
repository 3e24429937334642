"""Checks that only the tests use, kept out of the runtime API.

Exhaustive RRS enumeration and the definition-level optimality
predicate test ``rrs.find_optimal_rrs``.  ``relator_moves``, ``ball``
and ``equivalence_closure`` return words, so they work on words where
the oracle's search works on a/c commutation classes.  Nothing in the
package imports this module, so ``import artinword`` does not load it.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .core import (
    GroupParams,
    ResourceLimitError,
    Word,
    commutes,
    free_reduce,
    inverse_letter,
)
from .dihedral import is_critical_2gen, tau_2gen
from .oracle import _INSERT_PAIRS, OracleConfig, _relator_table
from .rrs import (
    ABC,
    CRITICAL_TYPES,
    P2G_AB,
    Rrs,
    chain_head,
    check_rrs,
    critical_witness,
)

# enumerate_all_rrs and is_optimal refuse hosts longer than this, and
# enumerate_all_rrs searches at most STEP_BUDGET steps
MAX_HOST_LEN = 16
STEP_BUDGET = 2_000_000


def _check_host_len(host: Word) -> None:
    if len(host) > MAX_HOST_LEN:
        raise ResourceLimitError(
            f"RRS enumeration limited to {MAX_HOST_LEN} letters, "
            f"got {len(host)}")


def is_optimal(rrs: Rrs, params: GroupParams) -> bool:
    """Definition-level optimality.

    Condition (i), that no RRS starts further right, is decided by
    enumeration, so hosts longer than MAX_HOST_LEN raise
    ResourceLimitError.
    """
    host = rrs.host
    _check_host_len(host)
    # (ii): f(gamma) must not occur in w_{m+1}
    gamma_first = host[rrs.cuts[-1]]
    if gamma_first in rrs.w_part(rrs.m + 1):
        return False
    # (iii): consecutive-type condition
    for i in range(1, rrs.m):
        prev_t, _, _ = rrs.us[i - 1]
        cur_t, _, cur_wit = rrs.us[i]
        if prev_t == ABC:
            continue
        if cur_wit.alpha != 0:
            continue
        if cur_t == ABC:
            ok = prev_t == P2G_AB   # |{x,y} n {b,c}| = 1
        else:
            ok = cur_t != prev_t    # distinct P2G pairs share exactly b
        if not ok:
            return False
    # (i): w_1 starts as far right as any RRS allows
    rival = enumerate_all_rrs(host, params)
    best = max(r.cuts[0] for r in rival) if rival else -1
    return rrs.cuts[0] == best


def enumerate_all_rrs(host: Word, params: GroupParams) -> list[Rrs]:
    """Every valid RRS of host, by exhaustive search (test oracle).

    Guarded: hosts longer than MAX_HOST_LEN or searches exceeding
    STEP_BUDGET steps raise ResourceLimitError.
    """
    _check_host_len(host)
    L = len(host)
    steps = [0]
    results: list[Rrs] = []

    def spend() -> None:
        steps[0] += 1
        if steps[0] > STEP_BUDGET:
            raise ResourceLimitError("enumerate_all_rrs budget exceeded")

    def extend(cuts: list[int], types: list[str], head: Word) -> None:
        # head: the chain head of u_m, () while m = 0
        pos = cuts[-1]
        # close: w_{m+1} = host[pos:g], nonempty when m = 0; gamma = host[g:]
        for g in range(pos if types else pos + 1, L):
            spend()
            u_last = head + host[pos:g]
            if u_last[0] != inverse_letter(host[g]):
                continue
            if any(not commutes(u_last[0], l) for l in u_last[1:]):
                continue
            r = check_rrs(host, tuple(cuts + [g]), tuple(types), params)
            if r is not None:
                results.append(r)
        # or go on: u_{m+1} = head + host[pos:nxt] is critical
        for nxt in range(pos + 1, L):
            spend()
            u_next = head + host[pos:nxt]
            for t in CRITICAL_TYPES:
                wit = critical_witness(u_next, t, params)
                if wit is not None:
                    extend(cuts + [nxt], types + [t],
                           chain_head(t, wit, params))

    for start in range(L):
        extend([start], [], ())
    return results


def _move_index(params: GroupParams, max_len: int) -> list:
    """The moves at a position of a word of at most max_len letters, by
    its first two letters x y.

    Entry 6 x + y is None when x y is a cancelling pair, to be deleted,
    and otherwise holds (right, rest, k) for each relator substitution
    left -> right with left = x y + rest and k = len(left)."""
    index: list = [() for _ in range(36)]
    for left, right in _relator_table(params, max_len):
        index[6 * left[0] + left[1]] += ((right, left[2:], len(left)),)
    for pair in _INSERT_PAIRS:
        index[6 * pair[0] + pair[1]] = None
    return index


def _neighbours(w: bytes, index: list, bound: int) -> list[bytes]:
    """The words one relator substitution or cancelling-pair deletion
    away from w and, when they fit in bound, one insertion away."""
    out = []
    for i in range(len(w) - 1):
        moves = index[6 * w[i] + w[i + 1]]
        if moves is None:
            out.append(w[:i] + w[i + 2:])
            continue
        for right, rest, k in moves:
            if w.startswith(rest, i + 2):
                out.append(w[:i] + right + w[i + k:])
    if len(w) + 2 <= bound:
        out += [w[:i] + pair + w[i:]
                for i in range(len(w) + 1) for pair in _INSERT_PAIRS]
    return out


def relator_moves(w: Word, params: GroupParams) -> list[Word]:
    """All words one relator substitution or one cancelling-pair
    insertion/deletion away from w."""
    index = _move_index(params, len(w))
    moves = _neighbours(bytes(w), index, len(w) + 2)
    return [tuple(v) for v in dict.fromkeys(moves)]


def ball(w: Word, config: OracleConfig, params: GroupParams) -> set[Word]:
    """Every word reachable from free_reduce(w) within its length + slack
    (fixed bound; used to collect complete equal-length representative
    sets for geodesic inputs).  config.node_cap bounds the letters of the
    words seen, as in the class search."""
    start = bytes(free_reduce(w))
    bound = len(start) + config.slack
    index = _move_index(params, bound)
    seen = {start}
    held = len(start)
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in _neighbours(u, index, bound):
            if v not in seen:
                seen.add(v)
                held += len(v)
                if held > config.node_cap:
                    raise ResourceLimitError(
                        f"oracle node cap of {config.node_cap} letters "
                        "exceeded")
                queue.append(v)
    return {tuple(v) for v in seen}


def _two_gen_spans(w: Word) -> Iterable[tuple[int, int, str]]:
    """Spans (i, j, pair) whose letters use exactly two names."""
    L = len(w)
    for i in range(L):
        names = {w[i] % 3}
        for j in range(i + 2, L + 1):
            names.add(w[j - 1] % 3)
            if len(names) > 2:
                break
            if len(names) == 2:
                yield i, j, "".join(sorted("abc"[k] for k in names))


def equivalence_closure(w: Word, params: GroupParams,
                        cap: int = 100_000) -> set[Word]:
    """Closure of {w} under adjacent a/c swaps and tau moves on critical
    2-generator subwords.  All members share w's length and element."""
    seen = {w}
    queue = deque([w])
    while queue:
        u = queue.popleft()
        nbrs: list[Word] = []
        for i in range(len(u) - 1):
            if u[i] % 3 + u[i + 1] % 3 == 2:   # names {a, c} commute
                nbrs.append(u[:i] + (u[i + 1], u[i]) + u[i + 2:])
        for i, j, pair in _two_gen_spans(u):
            wit = is_critical_2gen(u[i:j], pair, params)
            if wit is not None:
                nbrs.append(u[:i] + tau_2gen(wit, params) + u[j:])
        for v in nbrs:
            if v not in seen:
                seen.add(v)
                if len(seen) > cap:
                    raise ResourceLimitError(
                        f"equivalence closure cap {cap} exceeded")
                queue.append(v)
    return seen
