"""Runs the `apa` command line with the benchmark's tracer installed.

    python3 perfbench/apa_traced.py SPANS.json -- <apa arguments>

Behaves like `apa <arguments>` and, when the command ends, writes the spans
and counters of the run to SPANS.json (see tracer.py).
"""

import sys

from tracer import install


def main() -> int:
    spans, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: apa_traced.py SPANS.json -- <apa arguments>")
    tracer = install()
    import apa.cli

    try:
        return apa.cli.main(argv)
    finally:
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main())
