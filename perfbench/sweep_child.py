"""Checks many query files against one framework in one interpreter, through
the library, the way a script sweeping candidate sets would.

    python3 perfbench/sweep_child.py [--spans SPANS.json] FRAMEWORK QUERY...

Prints one JSON list with, per query, its value, its witness (prefix and
cycle as lists of visible sets) and its labeling: for every subformula, in
postorder, the reachable states where it holds (as comma-joined visible
sets), so that every subformula can be checked, not only the verdict. Queries share the package's process-wide
caches, which is what this workload measures. The last line of standard
error is a JSON object with each query's wall and CPU time (parsing,
checking and building its result): {"query_s": [...], "query_cpu_s": [...]}.
With --spans the tracer is installed and its spans are written to
SPANS.json at the end.
"""

import json
import sys
import time


def postorder(node, out: list) -> list:
    for attr in ("sub", "left", "right"):
        child = getattr(node, attr, None)
        if child is not None and not isinstance(child, str):
            postorder(child, out)
    out.append(node)
    return out


def main(argv: list) -> int:
    tracer = None
    if argv[:1] == ["--spans"]:
        from tracer import install

        tracer, spans, argv = install(), argv[1], argv[2:]
    from apa import ctl, fileformat

    with open(argv[0], encoding="utf-8") as handle:
        fw = fileformat.parse_framework(handle.read())
    results, walls, cpus = [], [], []
    for path in argv[1:]:
        start, cpu = time.perf_counter(), time.process_time()
        with open(path, encoding="utf-8") as handle:
            query = ctl.parse_query(handle.read())
        result = ctl.check(fw, query)
        lasso = result.witness
        results.append({
            "value": result.value,
            "labeling": [
                [",".join(sorted(s.visible)) for s in result.labeling.sat[node]]
                for node in postorder(query.formula, [])
            ],
            "witness": None if lasso is None else {
                "prefix": [sorted(s.visible) for s in lasso.prefix],
                "cycle": [sorted(s.visible) for s in lasso.cycle],
            },
        })
        walls.append(time.perf_counter() - start)
        cpus.append(time.process_time() - cpu)
    print(json.dumps(results))
    print(json.dumps({"query_s": walls, "query_cpu_s": cpus}), file=sys.stderr)
    if tracer is not None:
        tracer.dump(spans)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
