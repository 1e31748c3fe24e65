#!/usr/bin/env python3
"""End-to-end demo: writes a spec file and walks through the main commands.

Covers the three flavors of question the tool answers:
  * multiplicities (ebr / tilde-ebr / mixed / assoc / gmult),
  * reduction and joint-reduction decisions,
  * the multiplicity-equality criteria (Rees, converse, Risler-Teissier).
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import brim

# The commands run in a temporary directory (the CLI caches into
# ./.brim-cache), where a relative PYTHONPATH no longer resolves, so the
# children get the source directory of the brim imported here.
BRIM_SRC = str(Path(brim.__file__).resolve().parent.parent)

SPEC = {
    "ring": {"field": "QQ", "d": 2, "p": 1},
    "modules": {
        "m": {"tdeg": 1, "gens": ["x1*t1", "x2*t1"]},
        "I": {"tdeg": 1, "gens": ["x1^2*t1", "x2*t1"]},
        "m2": {"tdeg": 1, "gens": ["x1^2*t1", "x1*x2*t1", "x2^2*t1"]},
        "U": {"tdeg": 1, "gens": ["x1^2*t1", "x2^2*t1"]},
        "M2": {"tdeg": 2, "gens": ["x1*t1^2", "x2^2*t1^2"]},
        "Q": {"tdeg": 1, "gens": ["x1^2*t1+x2^2*t1", "x1*x2*t1"]},
        "A": {"tdeg": 1, "gens": ["x1^3*t1+x2^2*t1", "x1*x2*t1", "x2^3*t1"]},
        # non-integer coefficients: exact ranks clear the denominators first
        "Qr": {"tdeg": 1, "gens": ["1/2*x1^2*t1+2/3*x2^2*t1", "3/4*x1*x2*t1"]},
    },
    "elements": {"a1": "x1*t1", "a2": "x2*t1", "b1": "x1^2*t1"},
}

COMMANDS = [
    ["length", "-m", "m,I", "-n", "1,1"],
    ["ebr", "-m", "m"],
    ["tilde-ebr", "-m", "M2"],
    ["ebr", "-m", "Q"],
    ["ebr", "-m", "Qr"],
    ["mixed", "-m", "m,I", "-d", "1,1"],
    ["mixed", "-m", "A,A", "-d", "1,1"],
    ["assoc", "-m", "m", "-d", "1", "-j", "1"],
    ["gmult", "-e", "a1,a2"],
    ["check", "reduction", "-u", "U", "-m", "m2"],
    ["check", "joint", "-x", "a1,a2", "-m", "m,m"],
    ["check", "converse", "-x", "a1,a2", "-m", "m,I"],
    ["check", "risler", "-m", "m", "-d", "2", "--seed", "0"],
    ["check", "risler", "-m", "Q", "-d", "2"],
]


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [BRIM_SRC, env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps(SPEC, indent=2))
        for cmd in COMMANDS:
            if cmd[0] == "check":
                argv = [cmd[0], cmd[1], str(spec), *cmd[2:]]
            else:
                argv = [cmd[0], str(spec), *cmd[1:]]
            print(f"\n$ brim {' '.join(argv)}")
            proc = subprocess.run(
                [sys.executable, "-m", "brim.cli", *argv],
                capture_output=True,
                text=True,
                cwd=tmp,
                env=env,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            doc = json.loads(proc.stdout)
            print(json.dumps(doc["payload"], indent=2, sort_keys=True)[:2000])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
