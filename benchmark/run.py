#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload reduce-raw --seed 1 --seconds 25 --trace 0

Run from the root of the repository.  One process and one thread drive
the program as a closed loop: the next operation starts when the last
one returns.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` times operations on a stream of inputs made from the seed
until ``--seconds`` have passed and at least 100 operations have run,
checking every output, and reports the end-to-end metrics.
``--trace 1`` makes one round of inputs from the same seed and runs it
repeatedly until ``--seconds`` have passed, every other time with every
layer wrapped (see ``tracing.py``); it reports the per-layer metrics of
one round and the tracing overhead.  Each
traced round must count exactly what the first one counted.  The first
traced round's spans are written to ``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SPAWNS = 7
# a timed run goes on past --seconds until it has this many operations,
# so that at least ten samples lie beyond op_p90_ms
MIN_OPS = 100

# set-up as a user pays it: a fresh interpreter imports the package and
# builds the presentation
SETUP_CODE = """\
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import artinword
artinword.GroupParams(5)
print(time.perf_counter() - t0)
"""


def setup_seconds() -> float:
    """Median set-up time of several fresh interpreters."""
    code = SETUP_CODE.format(src=str(SRC))
    times = []
    for _ in range(SETUP_SPAWNS):
        done = subprocess.run([sys.executable, "-I", "-c", code],
                              capture_output=True, text=True, check=True,
                              timeout=60)
        times.append(float(done.stdout))
    return statistics.median(times)


class Run:
    """The state one run shares between its operations."""

    def __init__(self, workload, seed: int):
        from artinword import GroupParams
        import checkers
        from workloads import NS

        self.workload = workload
        self.inputs = random.Random(f"{workload.name}:{seed}")
        rep_rng = random.Random(f"fp:{seed}")
        self.params = {n: GroupParams(n) for n in NS}
        self.reps = {n: checkers.FpRep(n, rep_rng) for n in NS}
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def op(self, index: int, case, tracer=None) -> Optional[float]:
        """Run and check one operation; returns its time, or None if it
        raised."""
        wl = self.workload
        self.attempted += 1
        if tracer is not None:
            tracer.op = index
        try:
            t0 = perf_counter()
            out = wl.run(case, self.params[case.n])
            elapsed = perf_counter() - t0
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        error = wl.check(case, out, self.reps[case.n])
        if error is not None:
            self.wrong.append(f"operation {index}: {error}")
        return elapsed


def run_timed(run: Run, seconds: float) -> dict:
    wl = run.workload
    times: list[float] = []
    letters = 0
    index = 0
    deadline = perf_counter() + seconds
    while index < MIN_OPS or perf_counter() < deadline:
        for _ in range(wl.cycle):
            case = wl.make(run.inputs, index)
            elapsed = run.op(index, case)
            index += 1
            if elapsed is not None:
                times.append(elapsed)
                letters += case.letters
    return {
        "letters_per_s": (letters / sum(times), "letters/s"),
        "op_p50_ms": (1000 * statistics.median(times), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(times, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def layer_metrics(counts: dict, secs: dict, overhead_s: float) -> dict:
    """The per-layer metrics of one traced round."""
    c = lambda key: counts.get(key, 0)
    s = lambda key: secs.get(key, 0.0)
    checks, rejected = c("rrs.check.calls"), c("rrs.check.rejected")
    found = c("reducer.pushes_reduced")
    out = {
        "reducer.pushes": (c("reducer.push.calls"), "count"),
        "reducer.pushes_reduced": (found, "count"),
        "reducer.push_self_s": (s("reducer.push.self_s"), "s"),
        "rrs.find.calls": (c("rrs.find.calls"), "count"),
        "rrs.find.self_s": (s("rrs.find.self_s"), "s"),
        "rrs.meter_letters": (c("rrs.meter_letters"), "letters"),
        "rrs.chain_m.mean": (c("rrs.chain_m.total") / found if found else 0.0,
                             "count"),
        "rrs.chain_m.max": (c("rrs.chain_m.max"), "count"),
        "rrs.check.calls": (checks, "count"),
        "rrs.check.rejected": (rejected, "count"),
        "rrs.check.accept_ratio": ((checks - rejected) / checks if checks
                                   else 0.0, "ratio"),
        "rrs.check.s": (s("rrs.check.s"), "s"),
        "rrs.apply.calls": (c("rrs.apply.calls"), "count"),
        "rrs.apply.s": (s("rrs.apply.s"), "s"),
        "core.free_reduce.s": (s("core.free_reduce.s"), "s"),
    }
    for layer in ("p2g.suffix", "p2g.critical", "abc_critical.suffix",
                  "p2g.decompose", "dihedral.bab", "oracle.length",
                  "oracle.equal"):
        out[layer + ".calls"] = (c(layer + ".calls"), "count")
        out[layer + ".s"] = (s(layer + ".s"), "s")
    for key in ("p2g.scanner.built", "p2g.scanner.feeds",
                "dihedral.scanner.feeds", "dihedral.critical.calls",
                "abc_critical.critical.calls", "oracle.expanded"):
        out[key] = (c(key), "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def run_traced(run: Run, seed: int, seconds: float) -> dict:
    from tracing import Tracer, write_spans

    wl = run.workload
    deadline = perf_counter() + seconds
    cases = [wl.make(run.inputs, i) for i in range(wl.traced_round)]
    tracer = Tracer()
    first = None
    secs_total: dict[str, float] = {}
    untraced, traced = [], []
    # untraced and traced rounds alternate, so that both see the same
    # machine; their difference is the tracing overhead
    while len(traced) < 2 or perf_counter() < deadline:
        untraced.append(sum(run.op(i, case) or 0.0
                            for i, case in enumerate(cases)))
        tracer.reset()
        tracer.install()
        try:
            traced.append(sum(run.op(i, case, tracer) or 0.0
                              for i, case in enumerate(cases)))
        finally:
            tracer.uninstall()
        counts, secs = tracer.summary()
        for key, value in secs.items():
            secs_total[key] = secs_total.get(key, 0.0) + value
        if first is None:
            first, first_spans = counts, tracer.spans
        elif counts != first:
            run.wrong.append(f"traced round {len(traced)} counted "
                             "differently from the first")
    write_spans(first_spans,
                HERE / "out" / f"spans-{wl.name}-seed{seed}.tsv.gz")
    secs_mean = {k: v / len(traced) for k, v in secs_total.items()}
    return layer_metrics(first, secs_mean,
                         statistics.mean(traced) - statistics.mean(untraced))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "artinword" / "__init__.py").is_file():
        print(f"run.py: the artinword sources are missing under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    run = Run(WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics = run_traced(run, args.seed, args.seconds)
    else:
        setup = setup_seconds()
        metrics = run_timed(run, args.seconds)
        metrics["setup_s"] = (setup, "s")
    for line in run.wrong[:20]:
        print(f"run.py: wrong output: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
