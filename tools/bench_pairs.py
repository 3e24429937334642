#!/usr/bin/env python3
"""Benchmark a base commit against the working tree, in alternating pairs.

    python3 tools/bench_pairs.py --base REV --out BENCH_<n>.json

Run from the root of the repository.  The base side is a `git archive`
of REV in a temporary directory; the change side is the working tree.
The workloads, the run length and the end-to-end metrics come from
BENCHMARK.json.  For each workload and each of 10 pairs i, both sides
run `benchmark/run.py --trace 0` on seed i + 1, one after the other,
with the base first on even i and the change first on odd i.  Then each
side runs one `--trace 1` round per workload on seed 1.  Last, each
side times `import artinword; GroupParams(5)` in 40 fresh interpreters,
the sides alternating spawn by spawn.  Every run's result line is kept
as printed; the file also holds, per workload and end-to-end metric,
each side's median and quartiles and the number of pairs the change
won, per workload both sides' traced per-layer counts (every traced
metric not measured in seconds), and the interleaved set-up times'
medians and quartiles as `setup_interleaved`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SETUP_SPAWNS = 40

# the set-up that benchmark/run.py times as setup_s, in one fresh
# interpreter
SETUP_CODE = """\
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import artinword
artinword.GroupParams(5)
print(time.perf_counter() - t0)
"""


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(side_dir: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=side_dir, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def setup_interleaved(sides: dict[str, Path]) -> dict:
    """Set-up seconds of SETUP_SPAWNS fresh interpreters per side, the
    sides alternating, so that both meet the same machine load."""
    times: dict[str, list[float]] = {side: [] for side in sides}
    order = list(sides)
    for i in range(SETUP_SPAWNS):
        for side in order if i % 2 == 0 else order[::-1]:
            code = SETUP_CODE.format(src=str(sides[side] / "src"))
            done = subprocess.run([sys.executable, "-I", "-c", code],
                                  check=True, capture_output=True, text=True)
            times[side].append(float(done.stdout))
    out: dict = {"spawns": SETUP_SPAWNS}
    out.update((side, quartiles(vals)) for side, vals in times.items())
    return out


def summarise(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: medians, quartiles and pairs won."""
    out: dict = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload and r["trace"] == 0:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]
        rows = {}
        for name, direction in better.items():
            values = {"base": [], "change": []}
            wins = 0
            for sides in pairs.values():
                b = sides["base"]["metrics"][name]["value"]
                c = sides["change"]["metrics"][name]["value"]
                values["base"].append(b)
                values["change"].append(c)
                wins += c > b if direction == "higher" else c < b
            row = {"better": direction, "change_wins": wins,
                   "pairs": len(pairs)}
            for side, vals in values.items():
                row[side] = quartiles(vals)
            rows[name] = row
        traced = {r["side"]: r["result"]["metrics"] for r in runs
                  if r["workload"] == workload and r["trace"] == 1}
        if traced:
            rows["traced_counts"] = {
                name: {side: traced[side][name]["value"]
                       for side in ("base", "change")}
                for name, metric in traced["base"].items()
                if metric["unit"] != "s"}
        out[workload] = rows
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    base_rev = git("rev-parse", args.base)
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = Path(tmp)
        archive = subprocess.run(["git", "archive", base_rev], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_dir)], input=archive,
                       check=True)
        sides = {"base": base_dir, "change": ROOT}

        def record(side: str, workload: str, seed: int, trace: int) -> None:
            result = run_once(sides[side], workload, seed, seconds, trace)
            runs.append({"side": side, "workload": workload, "seed": seed,
                         "trace": trace, "result": result})
            print(json.dumps(runs[-1]), flush=True)

        for workload in workloads:
            for i in range(PAIRS):
                order = ("base", "change") if i % 2 == 0 else ("change",
                                                               "base")
                for side in order:
                    record(side, workload, 1 + i, 0)
        for workload in workloads:
            for side in ("base", "change"):
                record(side, workload, 1, 1)
        setup = setup_interleaved(sides)
        print(json.dumps({"setup_interleaved": setup}), flush=True)
    report = {
        "command": " ".join(["python3", "tools/bench_pairs.py",
                             *(argv if argv is not None else sys.argv[1:])]),
        "base": base_rev,
        "change": f"working tree over {git('rev-parse', 'HEAD')}",
        "run_seconds": seconds,
        "machine": {"python": platform.python_version(),
                    "arch": platform.machine(),
                    "cpus": len(os.sched_getaffinity(0))},
        "summary": {**summarise(runs, better),
                    "setup_interleaved": setup},
        "runs": runs,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
