"""Spans and counters around the public functions of the `apa` layers.

A traced child process calls `install()` before it runs anything. That
replaces the public functions of `fileformat`, `dynamics`, `semantics`,
`ctl`, `dot` and `cli` with timing wrappers, on every `apa` module
attribute that refers to them, so calls between modules are seen too. The
package itself is not changed. Spans (name, start, end, parent) are kept
in memory and written by `Tracer.dump` when the child ends, with per-name
totals and the counters below. `summarize` adds up the dumps of one pass
into the benchmark's per-layer metrics.

`successor_states`, `is_admissible`, `is_complete` and `complete_sets` are
`lru_cache`d; their `cache_info()` tells a miss from a hit. A cache hit of
`successor_states` is timed and counted but recorded as no span: it runs
too often for a span each. Candidates tested are the misses of
`is_admissible`; the admissible ones among them are counted by a bare
counter on `is_defended`, which only `is_admissible` calls, and only for a
proper, conflict-free candidate.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "fileformat", "dynamics", "semantics", "ctl", "dot")
LABELS = ("ad", "co", "pr", "st", "gr")


class Tracer:
    def __init__(self):
        self.spans = []  # [id, name, start, end, parent id or -1]
        self.next_id = 0
        self.stack = []  # [span id, name, child time]
        self.total = defaultdict(float)  # span name -> inclusive time
        self.self_time = defaultdict(float)  # span name -> exclusive time
        self.calls = defaultdict(int)
        self.count = defaultdict(float)  # counters named as metrics
        self.max_possible_acts = 0
        self.semantics_depth = 0
        self.caches = {}

    def timed(self, name_of, fn, after=None):
        """Wrap `fn`; `name_of(args)` names the span, and `after(args,
        result, seconds)` may return False to leave the call out of the
        span list (its time is then kept under `<name>.unrecorded`)."""
        tracer = self

        def wrapper(*args, **kwargs):
            name = name_of(args) if callable(name_of) else name_of
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else -1
            frame = [span_id, name, 0.0]
            tracer.stack.append(frame)
            semantic = name.startswith("semantics.")
            tracer.semantics_depth += semantic
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.semantics_depth -= semantic
            seconds = end - start
            if after is None or after(args, result, seconds) is not False:
                tracer.spans.append([span_id, name, start, end, parent])
            else:
                name += ".unrecorded"
            tracer.total[name] += seconds
            tracer.self_time[name] += seconds - frame[2]
            tracer.calls[name] += 1
            if tracer.stack:  # the parent's self time leaves out this
                tracer.stack[-1][2] += time.perf_counter() - start  # bookkeeping
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path: str) -> None:
        roots = sum(s[3] - s[2] for s in self.spans if s[4] < 0)
        doc = {
            "spans": self.spans,
            "total": self.total,
            "self": self.self_time,
            "calls": self.calls,
            "count": self.count,
            "max_possible_acts": self.max_possible_acts,
            "caches": {k: fn() for k, fn in self.caches.items()},
            "root_s": roots,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _replace(orig, new) -> None:
    """Point every `apa` module attribute that holds `orig` at `new`."""
    for modname, module in list(sys.modules.items()):
        if modname == "apa" or modname.startswith("apa."):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, new)


def install() -> Tracer:
    import apa.cli  # noqa: F401  (loads every layer the CLI uses)
    from apa import ctl, dot, dynamics, fileformat, semantics

    tracer = Tracer()
    count = tracer.count
    expand = dynamics.successor_states
    admissible = semantics.is_admissible

    def after_expand(args, result, seconds):
        if tracer.semantics_depth:
            count["semantics.elimination_s"] += seconds
        misses = expand.cache_info().misses
        if misses == after_expand.misses:
            count["dynamics.expansion_hits"] += 1
            return False
        after_expand.misses = misses
        fw, refset, state = args
        k = len(dynamics.possible_acts(fw, refset, state))
        tracer.max_possible_acts = max(tracer.max_possible_acts, k)
        count["dynamics.expansions"] += 1
        count["dynamics.expand_s"] += seconds
        count["dynamics.subsets_tried"] += (1 << k) - 1
        count["dynamics.distinct_successors"] += len(result)
        return True

    after_expand.misses = expand.cache_info().misses

    def after_reachable(args, lts, seconds):
        count["dynamics.states"] += len(lts.states)
        count["dynamics.edges"] += len(lts.edges)

    defended = semantics.is_defended

    def counted_defended(fw, candidate, state):
        result = defended(fw, candidate, state)
        count["semantics.admissible_found"] += result
        return result

    def outermost(prefix):
        """Span names `<prefix>.<label>`, or `<prefix>.nested` inside a
        span of the same prefix (`extensions` for st calls itself for pr),
        so that a label's total counts only its own calls."""
        def name_of(args):
            if any(f[1].startswith(prefix + ".") for f in tracer.stack):
                return prefix + ".nested"
            return f"{prefix}.{args[1]}"
        return name_of

    wrappers = [
        (fileformat.parse_framework,
         tracer.timed("fileformat.parse_framework", fileformat.parse_framework)),
        (ctl.parse_query, tracer.timed("ctl.parse_query", ctl.parse_query)),
        (ctl.check, tracer.timed("ctl.check", ctl.check)),
        (dynamics.reachable,
         tracer.timed("dynamics.reachable", dynamics.reachable, after_reachable)),
        (expand, tracer.timed("dynamics.successor_states", expand, after_expand)),
        (semantics.extensions,
         tracer.timed(outermost("semantics.extensions"), semantics.extensions)),
        (semantics.holds, tracer.timed(outermost("semantics.holds"), semantics.holds)),
        (defended, counted_defended),
        (dot.export_dot, tracer.timed("dot.export_dot", dot.export_dot)),
        (apa.cli.main, tracer.timed("cli.main", apa.cli.main)),
    ]
    for orig, new in wrappers:
        _replace(orig, new)
    dynamics.LTS.successors_of = tracer.timed(
        "dynamics.successors_of", dynamics.LTS.successors_of
    )
    tested = admissible.cache_info().misses
    tracer.caches = {
        "candidates_tested": lambda: admissible.cache_info().misses - tested,
        "dynamics": lambda: expand.cache_info().currsize,
        "semantics": lambda: sum(
            f.cache_info().currsize
            for f in (admissible, semantics.is_complete, semantics.complete_sets)
        ),
    }
    return tracer


def unit_of(metric: str) -> str:
    if metric.endswith("_ratio"):
        return "ratio"
    if any(part.endswith("_s") for part in metric.split(".")):
        return "s"
    return "count"


def summarize(docs: list, walls: list) -> dict:
    """Per-layer metrics of one traced pass, from its children's dumps and
    their wall times."""
    total, self_time, calls, count = (defaultdict(float) for _ in range(4))
    for doc in docs:
        for acc, key in ((total, "total"), (self_time, "self"),
                         (calls, "calls"), (count, "count")):
            for name, value in doc[key].items():
                acc[name] += value
    tried = count["dynamics.subsets_tried"]
    tested = sum(d["caches"]["candidates_tested"] for d in docs)
    out = {
        "fileformat.parse_s": total["fileformat.parse_framework"],
        "ctl.parse_s": total["ctl.parse_query"],
        "dynamics.reachable_s": self_time["dynamics.reachable"],
        "dynamics.expand_s": count["dynamics.expand_s"],
        "dynamics.expansions": count["dynamics.expansions"],
        "dynamics.expansion_hits": count["dynamics.expansion_hits"],
        "dynamics.subsets_tried": tried,
        "dynamics.distinct_successors": count["dynamics.distinct_successors"],
        "dynamics.useful_ratio": (
            count["dynamics.distinct_successors"] / tried if tried else 0.0
        ),
        "dynamics.max_possible_acts": max(d["max_possible_acts"] for d in docs),
        "dynamics.cache_entries": max(d["caches"]["dynamics"] for d in docs),
        "dynamics.states": count["dynamics.states"],
        "dynamics.edges": count["dynamics.edges"],
        "dynamics.successors_of_calls": calls["dynamics.successors_of"],
        "dynamics.successors_of_s": total["dynamics.successors_of"],
    }
    for label in LABELS:
        out[f"semantics.extensions_s.{label}"] = total[f"semantics.extensions.{label}"]
    for label in LABELS:
        out[f"semantics.holds_s.{label}"] = total[f"semantics.holds.{label}"]
    out.update({
        "semantics.elimination_s": count["semantics.elimination_s"],
        "semantics.candidates_tested": tested,
        "semantics.admissible_found": count["semantics.admissible_found"],
        "semantics.admissible_ratio": (
            count["semantics.admissible_found"] / tested if tested else 0.0
        ),
        "semantics.cache_entries": max(d["caches"]["semantics"] for d in docs),
        "ctl.check_s": total["ctl.check"],
        "ctl.check_self_s": self_time["ctl.check"],
        "ctl.checks": calls["ctl.check"],
        "cli.self_s": self_time["cli.main"],
        "dot.export_s": total["dot.export_dot"],
    })
    layer_self = defaultdict(float)
    for name, value in self_time.items():
        layer_self[name.split(".")[0]] += value
    for layer in LAYERS:
        out[f"self_s.{layer}"] = layer_self[layer]
    out["self_s.outside"] = sum(walls) - sum(d["root_s"] for d in docs)
    out["trace.spans"] = sum(len(d["spans"]) for d in docs)
    return out
