"""Geodesics and the word problem in the rank-3 Artin groups

    G(n) = < a, b, c | aba = bab, ac = ca, n(b,c) = n(c,b) >,   n >= 5.

Words are reduced to geodesic representatives by a quadratic-time
incremental process built on length-preserving tau moves applied in
rightward reducing sequences; an independent brute-force oracle provides
ground truth for testing.  The checks that only tests use (exhaustive RRS
enumeration, word-level oracle moves) live in ``artinword.verify``, which
``import artinword`` does not load.
"""

from .core import (
    EMPTY,
    GroupParams,
    Letter,
    ParseError,
    ResourceLimitError,
    Word,
    format_word,
    free_reduce,
    invert_word,
    make_alternating,
    parse_word,
)
from .dihedral import (
    AlternationProfile,
    TwoGenCriticalWitness,
    delta,
    delta_word,
    is_critical_2gen,
    is_geodesic_2gen,
    shortest_critical_suffix_2gen,
    tau_2gen,
    to_bab_form,
)
from .p2g import (
    P2GWitness,
    decompose_p2g,
    is_p2g_critical,
    shortest_p2g_critical_suffix,
    tau_p2g,
)
from .abc_critical import (
    AbcWitness,
    is_abc_critical,
    shortest_abc_critical_suffix,
    tau_abc,
)
from .rrs import (
    ABC,
    CRITICAL_TYPES,
    Meter,
    P2G_AB,
    P2G_BC,
    Rrs,
    TraceEvent,
    apply_rrs,
    check_rrs,
    find_optimal_rrs,
)
from .reducer import (
    equal_in_g,
    geodesic_length,
    is_geodesic,
    push_letter,
    reduce_to_geodesic,
)
from .oracle import (
    OracleConfig,
    oracle_equal,
    oracle_equal_verdict,
    oracle_geodesic_length,
)

__all__ = [
    # core
    "EMPTY", "GroupParams", "Letter", "ParseError", "ResourceLimitError",
    "Word", "format_word", "free_reduce", "invert_word", "make_alternating",
    "parse_word",
    # dihedral
    "AlternationProfile", "TwoGenCriticalWitness", "delta", "delta_word",
    "is_critical_2gen", "is_geodesic_2gen", "shortest_critical_suffix_2gen",
    "tau_2gen", "to_bab_form",
    # p2g
    "P2GWitness", "decompose_p2g", "is_p2g_critical",
    "shortest_p2g_critical_suffix", "tau_p2g",
    # abc_critical
    "AbcWitness", "is_abc_critical", "shortest_abc_critical_suffix",
    "tau_abc",
    # rrs
    "ABC", "CRITICAL_TYPES", "Meter", "P2G_AB", "P2G_BC", "Rrs",
    "TraceEvent", "apply_rrs", "check_rrs", "find_optimal_rrs",
    # reducer
    "equal_in_g", "geodesic_length", "is_geodesic", "push_letter",
    "reduce_to_geodesic",
    # oracle
    "OracleConfig", "oracle_equal", "oracle_equal_verdict",
    "oracle_geodesic_length",
]
__version__ = "0.1.0"
