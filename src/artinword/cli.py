"""Command line interface.

Exit codes: 0 success, 1 usage errors, 2 fuzz violation, 3 resource
limits.  With --json every invocation prints a single JSON document;
`trace` always prints the JSON event array.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from typing import Optional

from .core import (
    MAX_WORD_LETTERS,
    GroupParams,
    ParseError,
    ResourceLimitError,
    Word,
    format_word,
    parse_word,
)
from .oracle import OracleConfig, oracle_equal, oracle_geodesic_length
from .reducer import geodesic_length, push_letter, reduce_to_geodesic
from .rrs import Meter


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _at_least(least: int):
    """An argparse type: an int no smaller than least."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        return value
    parse.__name__ = "int"      # argparse names the type in its errors
    return parse


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=5,
                        help="relation length of the b,c pair (default 5)")
    common.add_argument("--allow-small-n", action="store_true",
                        help="permit n in {3,4} (geodesic claims void)")
    common.add_argument("--json", action="store_true",
                        help="emit a single JSON document")

    p = _Parser(prog="artinword",
                description="Geodesic reduction and the word problem in the "
                            "Artin groups <a,b,c | aba=bab, ac=ca, "
                            "n(b,c)=n(c,b)>.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("reduce", parents=[common],
                        help="print a geodesic representative")
    sp.add_argument("word")
    sp = sub.add_parser("length", parents=[common],
                        help="print the geodesic length")
    sp.add_argument("word")
    sp = sub.add_parser("equal", parents=[common],
                        help="decide equality of two words in G")
    sp.add_argument("word1")
    sp.add_argument("word2")
    sp = sub.add_parser("trace", parents=[common],
                        help="print per-prefix RRS applications as JSON")
    sp.add_argument("word")
    sp = sub.add_parser("fuzz", parents=[common],
                        help="run the invariant suite on random words")
    sp.add_argument("--count", type=_at_least(0), default=100)
    sp.add_argument("--max-len", type=_at_least(0), default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--slack", type=_at_least(0), default=4)
    sp = sub.add_parser("bench", parents=[common],
                        help="time reductions and report complexity fits")
    sp.add_argument("--len", type=_at_least(1), default=1000, dest="length")
    sp.add_argument("--repeat", type=_at_least(1), default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp = sub.add_parser("oracle-length", parents=[common],
                        help="print the brute-force BFS geodesic length")
    sp.add_argument("word")
    sp.add_argument("--slack", type=_at_least(0), default=4)
    return p


def _params(args) -> GroupParams:
    return GroupParams(n=args.n, allow_small_n=args.allow_small_n)


def _emit(args, payload: dict, plain: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(plain)


def _random_word(rng: random.Random, max_len: int) -> Word:
    length = rng.randint(0, max_len)
    return tuple(rng.randrange(6) for _ in range(length))


def _fuzz_violation(w: Word, params: GroupParams,
                    config: OracleConfig) -> Optional[str]:
    reduced, _ = reduce_to_geodesic(w, params)
    if (len(w) - len(reduced)) % 2 != 0:
        return "length parity changed"
    if reduce_to_geodesic(reduced, params)[0] != reduced:
        return "reduction not idempotent"
    if len(reduced) != oracle_geodesic_length(w, config, params):
        return "length disagrees with BFS oracle"
    if not oracle_equal(w, reduced, config, params):
        return "result not equal to input in G"
    return None


def _minimize(w: Word, params: GroupParams, config: OracleConfig) -> Word:
    current = w
    shrunk = True
    while shrunk:
        shrunk = False
        for i in range(len(current)):
            cand = current[:i] + current[i + 1:]
            if _fuzz_violation(cand, params, config) is not None:
                current = cand
                shrunk = True
                break
    return current


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1

    try:
        params = _params(args)
    except ValueError as exc:
        print(f"artinword: error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command in ("reduce", "length", "trace", "oracle-length"):
            try:
                word = parse_word(args.word)
            except ParseError as exc:
                print(f"artinword: parse error: {exc}", file=sys.stderr)
                return 1
        if args.command == "reduce":
            result, _ = reduce_to_geodesic(word, params)
            text = format_word(result)
            _emit(args, {"command": "reduce", "input": args.word,
                         "result": text, "length": len(result)}, text)
        elif args.command == "length":
            n = geodesic_length(word, params)
            _emit(args, {"command": "length", "input": args.word,
                         "length": n}, str(n))
        elif args.command == "equal":
            try:
                w1, w2 = parse_word(args.word1), parse_word(args.word2)
            except ParseError as exc:
                print(f"artinword: parse error: {exc}", file=sys.stderr)
                return 1
            from .reducer import equal_in_g
            eq = equal_in_g(w1, w2, params)
            _emit(args, {"command": "equal", "equal": eq},
                  "true" if eq else "false")
        elif args.command == "trace":
            _, trace = reduce_to_geodesic(word, params, want_trace=True)
            events = []
            step = 0
            for _, push_events in trace:
                for ev in push_events:
                    d = ev.to_json()
                    d["step"] = step
                    step += 1
                    events.append(d)
            print(json.dumps(events))
        elif args.command == "fuzz":
            config = OracleConfig(slack=args.slack)
            rng = random.Random(args.seed)
            for k in range(args.count):
                w = _random_word(rng, args.max_len)
                reason = _fuzz_violation(w, params, config)
                if reason is not None:
                    small = _minimize(w, params, config)
                    payload = {"command": "fuzz", "checked": k,
                               "violation": reason,
                               "word": format_word(w),
                               "minimized": format_word(small)}
                    _emit(args, payload,
                          f"violation after {k} words: {reason}\n"
                          f"  word:      {format_word(w)}\n"
                          f"  minimized: {format_word(small)}")
                    return 2
            _emit(args, {"command": "fuzz", "checked": args.count,
                         "violations": 0},
                  f"ok: {args.count} words, no violations")
        elif args.command == "bench":
            if args.length > MAX_WORD_LETTERS:
                raise ResourceLimitError(
                    f"--len is over {MAX_WORD_LETTERS} letters")
            rng = random.Random(args.seed)
            times = []
            total_letters = 0
            push_ratio = 0.0
            for _ in range(args.repeat):
                w = tuple(rng.randrange(6) for _ in range(args.length))
                t0 = time.perf_counter()
                reduce_to_geodesic(w, params)
                times.append(time.perf_counter() - t0)
                # letters visited by the stateless per-push fold, which is
                # what the quadratic and per-push linear bounds are about
                cur: Word = ()
                for x in w:
                    meter = Meter()
                    cur, _ = push_letter(cur, x, params, meter=meter)
                    total_letters += meter.letters
                    push_ratio = max(push_ratio,
                                     meter.letters / max(1, len(cur)))
            payload = {
                "command": "bench", "len": args.length,
                "repeat": args.repeat,
                "mean_s": statistics.mean(times),
                "median_s": statistics.median(times),
                "letters_visited": total_letters,
                "c_quadratic": total_letters / (args.repeat
                                                * args.length ** 2),
                "c_push_linear": push_ratio,
            }
            _emit(args, payload,
                  f"len={args.length} repeat={args.repeat} "
                  f"mean={payload['mean_s']:.4f}s "
                  f"median={payload['median_s']:.4f}s "
                  f"letters={total_letters} "
                  f"c={payload['c_quadratic']:.3f} "
                  f"c'={payload['c_push_linear']:.1f}")
        elif args.command == "oracle-length":
            config = OracleConfig(slack=args.slack)
            n = oracle_geodesic_length(word, config, params)
            _emit(args, {"command": "oracle-length", "input": args.word,
                         "length": n, "slack": args.slack}, str(n))
    except ResourceLimitError as exc:
        print(f"artinword: resource limit: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
