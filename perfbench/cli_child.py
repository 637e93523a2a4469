"""Run clpslice's command line with the benchmark tracer installed.

    python3 perfbench/cli_child.py SPANS_PATH CLPSLICE_ARGS...

Imports ``clpslice.cli`` (timed as ``import_s``), wraps the layers,
runs ``main`` inside one op span and, on the way out, writes the spans
as JSON to SPANS_PATH.  Exit code and uncaught exceptions are those of
``python3 -m clpslice.cli``.
"""

import json
import sys
from time import perf_counter

from tracer import Tracer


def _main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import clpslice.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.enable()
    try:
        with tracer.op(0):
            return clpslice.cli.main(argv)
    finally:
        tracer.disable()
        with open(spans_path, "w", encoding="utf-8") as out:
            json.dump({**tracer.dump(), "import_s": import_s}, out)


if __name__ == "__main__":
    sys.exit(_main())
