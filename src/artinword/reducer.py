"""Incremental geodesic reduction and the word-problem API.

Feeding letters one at a time, each prefix is kept in W (the words that
admit no RRS); a push either appends the letter or applies the unique
optimal RRS, shortening by 2.  W members are exactly the geodesics, so
the fold solves the word problem in quadratic time.
"""

from __future__ import annotations

from typing import Optional

from .core import GroupParams, Letter, Word, invert_word
from .rrs import Meter, TraceEvent, apply_rrs, chain_memo, find_optimal_rrs


def push_letter(w: Word, x: Letter, params: GroupParams,
                want_trace: bool = False, meter: Optional[Meter] = None,
                ) -> tuple[Word, Optional[list[TraceEvent]]]:
    """One incremental step: w must be in W; returns a W-word for w x."""
    rrs = find_optimal_rrs(w, x, params, meter=meter)
    if rrs is None:
        return w + (x,), None
    result, events = apply_rrs(rrs, params, want_trace=want_trace)
    return result, (events if want_trace else None)


def reduce_to_geodesic(w: Word, params: GroupParams,
                       want_trace: bool = False,
                       meter: Optional[Meter] = None,
                       ) -> tuple[Word, list[tuple[int, list[TraceEvent]]]]:
    """Geodesic representative of w, with optional per-push trace events.

    The trace pairs each letter index with the RRS events of its push.
    The pushes share one chain memo, which lives for this call only.
    """
    cur: Word = ()
    trace: list[tuple[int, list[TraceEvent]]] = []
    with chain_memo(cur) as memo:
        for idx, x in enumerate(w):
            cur, events = push_letter(cur, x, params, want_trace=want_trace,
                                      meter=meter)
            memo.rebase(cur)
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
