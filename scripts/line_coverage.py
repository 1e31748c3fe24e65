#!/usr/bin/env python3
"""Print every executable line of ``src/brim`` that the test suite never runs.

Usage, from the checkout root:

    python3 scripts/line_coverage.py [PYTEST ARGS...]

The suite (``tests/`` unless other pytest arguments are given) runs in this
process under a ``sys.settrace`` collector that records only the lines of
files in ``src/brim``.  The ``python -m brim.cli`` children the CLI tests
start are traced too: a generated ``sitecustomize`` module, first on their
``PYTHONPATH``, starts the same collector in each child and writes its lines
to a shared temporary directory at exit.

A line is executable when an instruction of some code object compiled from
its file maps to it (``co_lines``); ``__main__.py`` is left out.  Each
unreached line is printed as ``path:line  source``, then the counts.  The
exit status is pytest's.  Tracing makes the suite about 2.5 times slower.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "brim"

# The collector, run in this process and, through sitecustomize, in every
# child.
COLLECTOR = '''
import atexit, json, os, sys


def _collect(prefix, hits):
    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(start)


def _dump(hits, out):
    sys.settrace(None)
    path = os.path.join(out, f"{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({name: sorted(lines) for name, lines in hits.items()}, fh)
'''
# sitecustomize's tail, after PREFIX and OUT are set
CHILD_START = '''
_hits = {}
_collect(PREFIX, _hits)
atexit.register(_dump, _hits, OUT)
'''


def executable_lines(path: Path) -> set:
    """The lines some instruction of the file's code objects maps to."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list) -> int:
    prefix = str(PACKAGE) + os.sep
    collector = {}
    exec(COLLECTOR, collector)
    hits = {}
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp) / "site", Path(tmp) / "out"
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(
            f"PREFIX = {prefix!r}\nOUT = {str(out)!r}\n" + COLLECTOR + CHILD_START,
            encoding="utf-8",
        )
        old = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(site), str(SRC), old]))
        sys.path.insert(0, str(SRC))
        import pytest

        collector["_collect"](prefix, hits)
        try:
            status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
        finally:
            sys.settrace(None)
        for dump in out.glob("*.json"):
            for name, lines in json.loads(dump.read_text(encoding="utf-8")).items():
                hits.setdefault(name, set()).update(lines)
    unreached = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__main__.py":
            continue
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        missed = sorted(lines - hits.get(str(path), set()))
        unreached += len(missed)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}  {source[line - 1].strip()}")
    print(f"{unreached} of {total} executable lines in src/brim never run")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
