"""``repro-nay serve`` with the layer wrappers installed in the server process.

Usage: ``python e2ebench/serve_traced.py --spans FILE serve [serve options]``.
The wrappers go in before the CLI runs; the spans are written to FILE when
the server stops on SIGINT.  Spans inside the solve-fabric worker
are not recorded: the forked worker calls straight through the wrappers.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_arguments = sys.argv[2], sys.argv[3:]

    import repro.cli
    import tracing
    from workload import import_targets, load_json

    wrappers = load_json("layers.json")["wrappers"]
    import_targets(wrappers)
    tracer = tracing.Tracer()
    tracing.install(tracer, wrappers)
    try:
        return repro.cli.main(cli_arguments)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
