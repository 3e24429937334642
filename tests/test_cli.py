import json
import random
import subprocess
import sys

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
