#!/usr/bin/env python3
"""Growth of the reducer and the {a,b,c} scan on adversarial words.

    python3 tools/adversarial_growth.py

Run from the root of the repository.  It prints two tables, each time
the best of ``REPEAT`` runs:

* µs per letter of ``reduce_to_geodesic`` at n = 5 on the commuting
  runs ``b^L``, ``a^L``, ``(ac)^k`` and ``(aC)^k`` (k = L/2), and on
  uniform raw words, for L in ``LENGTHS``.  Step 1 of every push walks
  the whole commuting run, so per-letter time grows with L on the first
  four and stays near flat on raw words.
* the letters the ``Meter`` counts, and the seconds, of one call of
  ``_ur_candidates`` and of ``shortest_abc_critical_suffix`` on
  ``bc (ac)^k aba`` at n = 5, for k in ``KS``.  Every start in
  ``(ac)^k aba`` is a u_r candidate there.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from artinword import GroupParams, parse_word, reduce_to_geodesic  # noqa: E402
from artinword.abc_critical import (_ur_candidates,  # noqa: E402
                                    shortest_abc_critical_suffix)
from artinword.rrs import Meter  # noqa: E402

LENGTHS = (1600, 3200, 6400)
KS = (200, 400, 800, 1600)
REPEAT = 2
SEED = 1


def best_time(fn) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def words(length: int) -> dict:
    rng = random.Random(f"adversarial:{SEED}:{length}")
    return {
        "b^L": parse_word("b") * length,
        "a^L": parse_word("a") * length,
        "(ac)^k": parse_word("ac") * (length // 2),
        "(aC)^k": parse_word("aC") * (length // 2),
        "raw": tuple(rng.randrange(6) for _ in range(length)),
    }


def metered(fn, host: tuple) -> tuple[int, float]:
    """(letters, seconds) of fn(host, meter), the letters of one call."""
    meter = Meter()
    fn(host, meter)
    return meter.letters, best_time(lambda: fn(host, None))


def main() -> int:
    params = GroupParams(5)
    print("reduce_to_geodesic, µs per letter")
    print("L\t" + "\t".join(words(2)))
    for length in LENGTHS:
        cells = []
        for w in words(length).values():
            s = best_time(lambda: reduce_to_geodesic(w, params))
            cells.append(f"{s / length * 1e6:.1f}")
        print(f"{length}\t" + "\t".join(cells))

    print()
    print("bc (ac)^k aba: letters metered, seconds")
    print("k\tur_letters\tur_s\tsuffix_letters\tsuffix_s")
    for k in KS:
        host = parse_word("bc" + "ac" * k + "aba")
        ur = metered(lambda w, m: _ur_candidates(w, len(w), m), host)
        suffix = metered(lambda w, m: shortest_abc_critical_suffix(
            w, params, meter=m), host)
        print(f"{k}\t{ur[0]}\t{ur[1]:.4f}\t{suffix[0]}\t{suffix[1]:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
