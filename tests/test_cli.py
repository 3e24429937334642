import json
import random
import subprocess
import sys
from pathlib import Path

import artinword
from artinword.core import GroupParams
from artinword.reducer import push_letter
from artinword.rrs import Meter


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "artinword.cli", *args],
                          capture_output=True, text=True, timeout=300)


class TestCommands:
    def test_reduce(self):
        r = run_cli("reduce", "bcbcabacbcB", "--n", "5")
        assert r.returncode == 0
        assert r.stdout.strip() == "cbcbabcbc"

    def test_reduce_empty(self):
        r = run_cli("reduce", "")
        assert r.returncode == 0
        assert r.stdout.strip() == ""

    def test_length(self):
        r = run_cli("length", "abaB")
        assert r.returncode == 0 and r.stdout.strip() == "2"

    def test_equal(self):
        r = run_cli("equal", "aba", "bab")
        assert r.returncode == 0 and r.stdout.strip() == "true"
        r = run_cli("equal", "a", "b")
        assert r.returncode == 0 and r.stdout.strip() == "false"

    def test_json_output(self):
        r = run_cli("reduce", "abaB", "--json")
        doc = json.loads(r.stdout)
        assert doc == {"command": "reduce", "input": "abaB",
                       "result": "ba", "length": 2}

    def test_trace_schema(self):
        r = run_cli("trace", "bcbcabacbcB")
        events = json.loads(r.stdout)
        assert isinstance(events, list) and events
        for i, ev in enumerate(events):
            assert set(ev) == {"step", "kind", "span", "before", "after"}
            assert ev["step"] == i
            assert isinstance(ev["span"], list) and len(ev["span"]) == 2

    def test_oracle_length(self):
        r = run_cli("oracle-length", "bcbcabacbcB", "--slack", "4")
        assert r.returncode == 0 and r.stdout.strip() == "9"
        r = run_cli("oracle-length", "abaB", "--n", str(10 ** 9))
        assert r.returncode == 0 and r.stdout.strip() == "2"

    def test_fuzz_deterministic(self):
        r1 = run_cli("fuzz", "--count", "25", "--max-len", "8",
                     "--seed", "7", "--json")
        r2 = run_cli("fuzz", "--count", "25", "--max-len", "8",
                     "--seed", "7", "--json")
        assert r1.returncode == r2.returncode == 0
        assert r1.stdout == r2.stdout
        assert json.loads(r1.stdout)["violations"] == 0

    def test_bench_smoke(self):
        r = run_cli("bench", "--len", "60", "--repeat", "2", "--json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["len"] == 60 and doc["c_quadratic"] > 0
        # letters visited come from the stateless per-push fold
        rng, params, letters = random.Random(0), GroupParams(5), 0
        for _ in range(2):
            cur = ()
            for x in tuple(rng.randrange(6) for _ in range(60)):
                meter = Meter()
                cur, _ = push_letter(cur, x, params, meter=meter)
                letters += meter.letters
        assert doc["letters_visited"] == letters


class TestExitCodes:
    def test_usage_error(self):
        assert run_cli("bogus").returncode == 1
        assert run_cli().returncode == 1

    def test_parse_error(self):
        r = run_cli("reduce", "abd")
        assert r.returncode == 1
        assert "index 2" in r.stderr
        for text in ("a^\u0663", "a^\u00b2"):
            r = run_cli("reduce", text)
            assert r.returncode == 1, text
            assert "parse error" in r.stderr, text
            assert "Traceback" not in r.stderr, text

    def test_small_n_guard(self):
        r = run_cli("reduce", "abc", "--n", "4")
        assert r.returncode == 1
        r = run_cli("reduce", "abc", "--n", "4", "--allow-small-n")
        assert r.returncode == 0

    def test_word_size_limit(self):
        """A word that would expand past the letter cap is refused before
        any letter is allocated."""
        for text in ("a^1000000000", "b^-" + "9" * 5000, "a^600000b^600000"):
            r = run_cli("reduce", text)
            assert r.returncode == 3, text
            assert "resource limit" in r.stderr

    def test_bad_counts(self):
        """Counts out of range are usage errors, not tracebacks or a
        silent success."""
        for args in (("bench", "--len", "0"), ("bench", "--len", "-3"),
                     ("bench", "--repeat", "0"), ("fuzz", "--count", "-1"),
                     ("fuzz", "--max-len", "-1"), ("fuzz", "--slack", "-1"),
                     ("oracle-length", "abc", "--slack", "-1")):
            r = run_cli(*args)
            assert r.returncode == 1, args
            assert "Traceback" not in r.stderr, args
            assert "must be at least" in r.stderr, args

    def test_bench_length_limit(self):
        r = run_cli("bench", "--len", str(10 ** 6 + 1))
        assert r.returncode == 3
        assert "resource limit" in r.stderr

    def test_fuzz_length_limit(self):
        """fuzz --max-len past the letter cap is refused before the first
        word is drawn."""
        r = run_cli("fuzz", "--max-len", str(10 ** 9))
        assert r.returncode == 3
        assert "resource limit" in r.stderr


def test_import_loads_no_verification_code():
    """import artinword leaves artinword.verify, the test-only checks,
    unloaded; an isolated interpreter keeps other tests' imports out."""
    src = str(Path(artinword.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, %r); import artinword; "
            "print(artinword.__file__, 'artinword.verify' in sys.modules)"
            % src)
    r = subprocess.run([sys.executable, "-I", "-c", code],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    path, loaded = r.stdout.rsplit(maxsplit=1)
    assert Path(path).resolve() == Path(artinword.__file__).resolve()
    assert loaded == "False"


def test_import_loads_no_dataclasses():
    """The records are NamedTuples, so import artinword loads neither
    dataclasses nor the inspect module it pulls in."""
    src = str(Path(artinword.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, %r); import artinword; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
            % src)
    r = subprocess.run([sys.executable, "-I", "-c", code],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_oracle_length_bounds_memory():
    """On (aB)^50000 the first expansion would build about 500,000
    insertion classes of 100,002 letters; the letter cap stops it before
    it builds them.  The peak RSS is the child's alone."""
    code = ("import resource, subprocess, sys; "
            "r = subprocess.run(sys.argv[1:], capture_output=True); "
            "print(r.returncode, "
            "resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    r = subprocess.run([sys.executable, "-c", code, sys.executable, "-m",
                        "artinword.cli", "oracle-length", "aB" * 50_000],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    exit_code, max_rss_kb = map(int, r.stdout.split())
    assert exit_code == 3
    assert max_rss_kb < 100 * 1024
