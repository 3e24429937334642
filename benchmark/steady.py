#!/usr/bin/env python3
"""Steadiness of the benchmark: run workloads over several seeds and
report each metric's median and quartiles.

    python3 benchmark/steady.py --seeds 1-10 reduce-raw oracle-small

Run from the root of the repository.  Runs are made one after another,
each in a fresh process, exactly as ``run.py`` is run on its own, with
tracing off and ``run_seconds`` from ``BENCHMARK.json``.  The
spread of a metric is (q3 - q1) / median over the seeds, with the
quartiles of ``statistics.quantiles(values, n=4)``; the bounds in
``BENCHMARK.json`` are set from these figures.  The summary is printed
and also written to ``benchmark/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {
        "runs": len(results),
        "all_correct": all(r["correct"] for r in results),
        "failed_shares": sorted({r["failed"] / r["attempted"]
                                 for r in results}),
        "attempted": [r["attempted"] for r in results],
        "metrics": {},
    }
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out["metrics"][name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = ap.parse_args(argv)
    seconds = json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            results.append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed}: done", file=sys.stderr)
        summary = summarise(results)
        summary.update(workload=workload, seeds=args.seeds, seconds=seconds)
        path = HERE / "out" / f"steady-{workload}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"{workload}: {summary['runs']} runs, all correct: "
              f"{summary['all_correct']}, failed shares: "
              f"{summary['failed_shares']}, attempted: "
              f"{min(summary['attempted'])}-{max(summary['attempted'])}")
        for name, m in summary["metrics"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"  {name:28s} median {m['median']:14.6g} {m['unit']:9s} "
                  f"q1 {m['q1']:12.6g} q3 {m['q3']:12.6g} spread {spread}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
