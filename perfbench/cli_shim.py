"""``python -m brim.cli`` with the tracer installed, for traced passes.

Usage: ``python cli_shim.py TRACE_OUT.json <brim arguments...>``.  Runs the
CLI exactly as ``-m brim.cli`` would, then writes its spans, counts and the
moment brim finished importing (for start-up time) to TRACE_OUT.json.
"""

import json
import sys
import time

import brim.cli

imported = time.perf_counter()

from tracing import Tracer  # noqa: E402  (imported after the timestamp on purpose)


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.query = "cli"
    span = tracer.open("cli.main", "cli")
    try:
        code = brim.cli.main(argv)
    finally:
        tracer.close(span)
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts, "imported": imported}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
