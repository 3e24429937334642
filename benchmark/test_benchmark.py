"""Tests of the benchmark's own checkers, checks and tracing.

    PYTHONPATH=src python -m pytest -q benchmark
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from artinword import GroupParams, equal_in_g, reduce_to_geodesic  # noqa: E402
from artinword import abc_critical, oracle, p2g, reducer  # noqa: E402

import checkers as ck  # noqa: E402
from tracing import SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IDENTITY = (1, 0, 0, 0, 1, 0, 0, 0, 1)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_representation_satisfies_relators_and_separates(n):
    rep = ck.FpRep(n, random.Random(n))
    assert rep.p % (2 * n) == 1
    for r in ck.relator_words(n):
        assert rep.image(r) == IDENTITY
    assert (rep.image(ck.alternation(1, 2, n - 1))
            != rep.image(ck.alternation(2, 1, n - 1)))


@pytest.mark.parametrize("n", [5, 8])
def test_representation_agrees_with_reducer(n):
    rng = random.Random(100 + n)
    rep, params = ck.FpRep(n, rng), GroupParams(n)
    for _ in range(3):
        w = ck.raw_word(rng, 300)
        assert rep.image(reduce_to_geodesic(w, params)[0]) == rep.image(w)


def test_representation_catches_one_letter_changes():
    rng = random.Random(7)
    rep, params = ck.FpRep(5, rng), GroupParams(5)
    g = reduce_to_geodesic(ck.raw_word(rng, 200), params)[0]
    image = rep.image(g)
    for i in rng.sample(range(len(g)), 10):
        for shift in range(1, 6):
            bad = g[:i] + ((g[i] + shift) % 6,) + g[i + 1:]
            assert rep.image(bad) != image


def test_abelian_lower_bound():
    rng = random.Random(3)
    for n in (5, 6):
        assert ck.abelian_lower_bound(ck.positive_word(rng, 40), n) == 40
        for _ in range(20):
            w = ck.raw_word(rng, 60)
            g = reduce_to_geodesic(w, GroupParams(n))[0]
            assert ck.abelian_lower_bound(w, n) <= len(g)
    # a and b are conjugate, and b and c only for odd n
    assert ck.abelian_lower_bound((0, 4), 6) == 0
    assert ck.abelian_lower_bound((1, 5), 5) == 0
    assert ck.abelian_lower_bound((1, 5), 6) == 2


@pytest.mark.parametrize("n", [5, 8])
def test_pairs_have_their_construction_verdicts(n):
    rng = random.Random(n)
    rep, params = ck.FpRep(n, rng), GroupParams(n)
    for equal in (True, False, True, False):
        w, w2 = ck.make_pair(rng, n, 40, 6, equal)
        assert equal_in_g(w, w2, params) is equal
        assert (rep.image(w) == rep.image(w2)) is equal


def _case(name: str, seed: int = 1):
    wl = WORKLOADS[name]
    case = wl.make(random.Random(seed), 0)
    params = GroupParams(case.n)
    return wl, case, wl.run(case, params), ck.FpRep(case.n, random.Random(0))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_pass_on_the_real_output(name):
    wl, case, out, rep = _case(name)
    assert wl.check(case, out, rep) is None


def test_checks_reject_wrong_outputs():
    wl, case, g, rep = _case("reduce-raw")
    i = len(g) // 2
    assert wl.check(case, g[:i] + ((g[i] + 1) % 6,) + g[i + 1:], rep)
    assert wl.check(case, g + (0, 3), rep)          # not freely reduced
    assert wl.check(case, g[:-2], rep)              # shorter, other element
    wl, case, verdict, rep = _case("word-problem")
    assert wl.check(case, not verdict, rep)
    wl, case, g, rep = _case("reduce-positive")
    assert wl.check(case, g[::-1], rep)
    wl, case, (g, length, eq), rep = _case("oracle-small")
    assert wl.check(case, (g, length + 2, eq), rep)
    assert wl.check(case, (g, length, False), rep)


def test_traced_counts_repeat_and_wrappers_come_off():
    originals = {(m, a): getattr(m, a) for m, a, _ in SPANS}
    scanner = p2g.P2GSuffixScanner
    rng = random.Random(5)
    words = [ck.raw_word(rng, 120) for _ in range(3)]
    params = GroupParams(5)
    tracer = Tracer()
    summaries = []
    for _ in range(2):
        tracer.reset()
        tracer.install()
        try:
            for w in words:
                reducer.reduce_to_geodesic(w, params)
            oracle.oracle_geodesic_length((0, 1, 3, 4), oracle.OracleConfig(),
                                          params)
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())
    counts = summaries[0][0]
    assert counts == summaries[1][0]
    assert counts["reducer.push.calls"] == 360
    assert counts["rrs.find.calls"] == 360
    assert counts["rrs.meter_letters"] > 0
    assert counts["p2g.scanner.feeds"] > 0
    assert counts["dihedral.scanner.feeds"] > 0
    assert counts["oracle.expanded"] > 0
    seconds = summaries[0][1]
    assert 0 < seconds["rrs.find.self_s"] < seconds["rrs.find.s"]
    for (module, attr), fn in originals.items():
        assert getattr(module, attr) is fn
    assert p2g.P2GSuffixScanner is scanner
    assert abc_critical.P2GSuffixScanner is scanner


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmark/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_every_declared_metric(trace, key):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    done = _run(ROOT, "--workload", "oracle-small", "--seed", "3",
                "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "reduce-raw", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
