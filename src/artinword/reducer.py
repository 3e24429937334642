"""Incremental geodesic reduction and the word-problem API.

Feeding letters one at a time, each prefix is kept in W (the words that
admit no RRS); a push either appends the letter or applies the unique
optimal RRS, shortening by 2.  W members are exactly the geodesics, so
the fold solves the word problem in quadratic time.
"""

from __future__ import annotations

from typing import Optional

from .core import GroupParams, Letter, Word, invert_word
from .rrs import (Meter, TraceEvent, apply_rrs, chain_memo,
                  find_optimal_rrs, rebase_memo)


def push_letter(w: Word, x: Letter, params: GroupParams,
                want_trace: bool = False, meter: Optional[Meter] = None,
                ) -> tuple[Word, Optional[list[TraceEvent]]]:
    """One incremental step: w must be in W; returns a W-word for w x.

    When w ends in x^-1 the RRS found is that free cancellation, and the
    result is w[:-1] without an apply_rrs pass.  Inside a chain_memo
    block whose memo is on w, the memo moves on to the result.
    """
    L = len(w)
    rrs = find_optimal_rrs(w, x, params, meter=meter)
    events = None
    if rrs is None:
        result, cut = w + (x,), L
    else:
        if rrs.cuts[0] == L - 1:
            # a critical u_1 has two letters or more, so this RRS has m = 0
            # and u_1 = x^-1
            result = w[:-1]
            if want_trace:
                events = [TraceEvent(0, "free-cancel", (L - 1, L + 1),
                                     (w[-1], x), ())]
        else:
            result, events = apply_rrs(rrs, params, want_trace=want_trace)
        # the result keeps w[:cuts[0]] less the letters that cancel against
        # the rewritten tail, each costing two letters beyond the RRS's two
        cut = rrs.cuts[0] - (L - 1 - len(result)) // 2
    rebase_memo(w, result, cut)
    return result, (events if want_trace else None)


def reduce_to_geodesic(w: Word, params: GroupParams,
                       want_trace: bool = False,
                       ) -> tuple[Word, list[tuple[int, list[TraceEvent]]]]:
    """Geodesic representative of w, with optional per-push trace events.

    The trace pairs each letter index with the RRS events of its push.
    The pushes share one chain memo, which lives for this call only.
    """
    cur: Word = ()
    trace: list[tuple[int, list[TraceEvent]]] = []
    with chain_memo(cur):
        for idx, x in enumerate(w):
            cur, events = push_letter(cur, x, params, want_trace=want_trace)
            if want_trace and events:
                trace.append((idx, events))
    return cur, trace


def geodesic_length(w: Word, params: GroupParams) -> int:
    return len(reduce_to_geodesic(w, params)[0])


def is_geodesic(w: Word, params: GroupParams) -> bool:
    return geodesic_length(w, params) == len(w)


def equal_in_g(w1: Word, w2: Word, params: GroupParams) -> bool:
    """Word problem: w1 and w2 represent the same element of G(n)."""
    return geodesic_length(w1 + invert_word(w2), params) == 0
