"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the module attributes through which the
program calls into each layer (``reducer.find_optimal_rrs``,
``rrs.check_rrs``, ...) with wrappers that record a span per call: name,
start, end, parent span and operation index.  Spans stay in memory and
are written out once the run ends; self time is derived from them.  The
suffix scanners are counted by subclasses put in place of the scanner
classes, and the oracle by a counting ``_Search.expand_one``.  The
program's own ``Meter`` is passed into every ``find_optimal_rrs`` call.

``uninstall`` puts every original back.
"""

from __future__ import annotations

import gzip
from collections import Counter
from pathlib import Path
from time import perf_counter

from artinword import abc_critical, oracle, p2g, reducer, rrs
from artinword.rrs import Meter

# (module, attribute, span name); the same name may sit at several
# attributes when more than one module calls the function
SPANS = (
    (reducer, "push_letter", "reducer.push"),
    (reducer, "find_optimal_rrs", "rrs.find"),
    (reducer, "apply_rrs", "rrs.apply"),
    (rrs, "check_rrs", "rrs.check"),
    (rrs, "free_reduce", "core.free_reduce"),
    (rrs, "shortest_p2g_critical_suffix", "p2g.suffix"),
    (rrs, "shortest_abc_critical_suffix", "abc_critical.suffix"),
    (rrs, "is_p2g_critical", "p2g.critical"),
    (abc_critical, "is_p2g_critical", "p2g.critical"),
    (rrs, "is_abc_critical", "abc_critical.critical"),
    (p2g, "is_critical_2gen", "dihedral.critical"),
    (p2g, "decompose_p2g", "p2g.decompose"),
    (abc_critical, "decompose_p2g", "p2g.decompose"),
    (abc_critical, "to_bab_form", "dihedral.bab"),
    (oracle, "oracle_geodesic_length", "oracle.length"),
    (oracle, "oracle_equal", "oracle.equal"),
)


class Tracer:
    def __init__(self) -> None:
        self.op = -1
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget the spans and counts of the previous round."""
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.chain_m: list[int] = []
        self.meter = Meter()

    # -- installation ------------------------------------------------------

    def _replace(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        for module, attr, name in SPANS:
            fn = getattr(module, attr)
            if attr == "find_optimal_rrs":
                fn = self._metered_find(fn)
            self._replace(module, attr, self._wrap(name, fn))
        counting = self._counting_scanner(p2g.P2GSuffixScanner, "p2g.scanner")
        for module in (p2g, abc_critical):
            self._replace(module, "P2GSuffixScanner", counting)
        self._replace(p2g, "CriticalSuffixScanner",
                      self._counting_scanner(p2g.CriticalSuffixScanner,
                                             "dihedral.scanner"))
        self._replace(oracle._Search, "expand_one",
                      self._counting_expand(oracle._Search.expand_one))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        after = {"rrs.find": self._after_find,
                 "rrs.check": self._after_check}.get(name)

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, tracer.op)
            if after is not None:
                after(result)
            return result
        return traced

    def _metered_find(self, fn):
        tracer = self

        def find(w, x, params, meter=None):
            return fn(w, x, params, meter=tracer.meter)
        return find

    def _after_find(self, found) -> None:
        if found is not None:
            self.counts["reducer.pushes_reduced"] += 1
            self.chain_m.append(found.m)

    def _after_check(self, checked) -> None:
        if checked is None:
            self.counts["rrs.check.rejected"] += 1

    def _counting_scanner(self, base, prefix: str):
        tracer = self
        built, fed = prefix + ".built", prefix + ".feeds"

        class CountingScanner(base):
            def __init__(self, *args):
                super().__init__(*args)
                tracer.counts[built] += 1

            def feed(self, l):
                tracer.counts[fed] += 1
                base.feed(self, l)
        return CountingScanner

    def _counting_expand(self, fn):
        tracer = self

        def expand_one(search, *args, **kwargs):
            tracer.counts["oracle.expanded"] += 1
            return fn(search, *args, **kwargs)
        return expand_one

    # -- results -----------------------------------------------------------

    def summary(self) -> tuple[dict, dict]:
        """(counts, seconds) of the current round.

        counts holds the calls per span name plus the scanner, oracle,
        meter and chain counts; seconds holds each span name's total
        and self time (total minus the time its child spans cover).
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        counts = Counter(self.counts)
        seconds: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            counts[name + ".calls"] += 1
            seconds[name + ".s"] += end - start
            seconds[name + ".self_s"] += end - start - child[i]
        counts["rrs.meter_letters"] = self.meter.letters
        counts["rrs.chain_m.total"] = sum(self.chain_m)
        counts["rrs.chain_m.max"] = max(self.chain_m, default=0)
        return dict(counts), dict(seconds)


def write_spans(spans: list, path: Path) -> None:
    """One tab-separated line per span: name, start, end, parent, op."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as out:
        out.write("name\tstart\tend\tparent\top\n")
        for name, start, end, parent, op in spans:
            out.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
