"""Run ``repro serve`` with the layer wrappers installed.

    python3 perfbench/serve_traced.py --trace-out spans.json serve [serve options]

Installs the tracer's wrappers (``perfbench.layers.install_service``),
then calls ``repro.cli.main`` with the remaining arguments.  Spans are
kept in memory and written to ``--trace-out`` when the server returns
(after SIGTERM has drained it).
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print("usage: serve_traced.py --trace-out FILE serve ...", file=sys.stderr)
        return 2
    trace_out, rest = argv[1], argv[2:]
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.layers import install_service
    from perfbench.tracing import Tracer
    from repro.cli import main as repro_main

    tracer = Tracer()
    install_service(tracer)
    try:
        return repro_main(rest)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
