#!/usr/bin/env python3
"""Growth of reduce-positive with the word length L.

    python3 benchmark/growth.py

Run from the root of the repository.  For each L in ``LENGTHS`` it
reduces ``WORDS`` random positive words at n = 5 (the
``reduce-positive`` inputs) and prints the mean time per word untraced,
then, from a traced pass over the first word, the letters the
program's ``Meter`` counts and the ``decompose_p2g`` calls.  Under the
paper's bound, time and metered letters would grow at most
quadratically.
"""

from __future__ import annotations

import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from artinword import GroupParams, reducer  # noqa: E402

import checkers as ck  # noqa: E402
from tracing import Tracer  # noqa: E402

LENGTHS = (175, 350, 700, 1400)
WORDS = 4
SEED = 1


def main() -> int:
    params = GroupParams(5)
    print("L\ts_per_word\tmeter_letters\tdecompose_calls")
    for length in LENGTHS:
        rng = random.Random(f"growth:{SEED}:{length}")
        words = [ck.positive_word(rng, length) for _ in range(WORDS)]
        times = []
        for w in words:
            t0 = perf_counter()
            reducer.reduce_to_geodesic(w, params)
            times.append(perf_counter() - t0)
        tracer = Tracer()
        tracer.install()
        try:
            reducer.reduce_to_geodesic(words[0], params)
        finally:
            tracer.uninstall()
        counts = tracer.summary()[0]
        print(f"{length}\t{statistics.mean(times):.3f}\t"
              f"{counts['rrs.meter_letters']}\t"
              f"{counts['p2g.decompose.calls']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
