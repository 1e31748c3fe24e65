#!/usr/bin/env python3
"""Run a fixed set of brim CLI commands against two checkouts and compare.

Usage, from the checkout root:

    python3 scripts/cli_equivalence.py --checkout DIR

Each command runs as ``python3 -m brim.cli ...`` once on this tree's
``src/`` and once on ``DIR/src``, each time in a fresh directory holding
only the spec file, with the length-table cache on.  The set covers every
subcommand and all seven check kinds over QQ, GF(32003) and GF(7), where
coefficient products wrap often, with non-monomial modules, rational and
negative coefficients over QQ, Koszul slices over R32 whose t- and
x-degrees both vary, and user-error (exit 2) and limit (exit 3) cases.

A command differs when its stdout outside the ``runtime`` key, its stderr,
its exit code or the names of the ``.brim-cache`` entries it wrote differ.
Every difference is printed; the exit status is 1 when any command differs
and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

R21_MODULES = {
    "m": {"tdeg": 1, "gens": ["x1*t1", "x2*t1"]},
    "I": {"tdeg": 1, "gens": ["x1^2*t1", "x2*t1"]},
    "m2": {"tdeg": 1, "gens": ["x1^2*t1", "x1*x2*t1", "x2^2*t1"]},
    "U": {"tdeg": 1, "gens": ["x1^2*t1", "x2^2*t1"]},
    "A": {"tdeg": 1, "gens": ["x1^3*t1+x2^2*t1", "x1*x2*t1", "x2^3*t1"]},
    "UA": {"tdeg": 1, "gens": ["x1^3*t1+x2^2*t1", "x1*x2*t1"]},
    "m2sq": {"tdeg": 2, "gens": ["x1^2*t1^2", "x1*x2*t1^2", "x2^2*t1^2"]},
    "line": {"tdeg": 1, "gens": ["x1*t1"]},
    # m2 with coefficients other than one, nonzero mod 7
    "m2s": {"tdeg": 1, "gens": ["2*x1^2*t1", "3*x1*x2*t1", "4*x2^2*t1"]},
}
R21_ELEMENTS = {
    "a1": "x1*t1",
    "a2": "x2*t1",
    "b1": "x1^2*t1",
    "g1": "x1*t1+x2*t1",
    "g2": "x1*t1+2*x2*t1",
    "mixedt": "x1*t1 + x2^2*t1",
    "h1": "x1^3*t1+x2^2*t1",
    "h2": "x1*x2*t1",
    "h3": "x2^3*t1",
    "z": "0",
    # an element of t-degree 2, for the degree-1 modules' element checks
    "w2": "x1*t1^2",
}
R22_MODULES = {
    "mF": {"tdeg": 1, "gens": [["x1", "0"], ["x2", "0"], ["0", "x1"], ["0", "x2"]]},
    "E": {"tdeg": 1, "gens": ["x1^2*t1+x2^3*t1", "x2*t1", "x1*t2+x2^2*t2", "x2^2*t2"]},
    # two more presentations of mF: one submodule under three names
    "mFt": {"tdeg": 1, "gens": ["x2*t2", "x1*t2", "x2*t1", "x1*t1"]},
    "mFr": {"tdeg": 1, "gens": ["x1*t1+x2*t2", "x1*t1", "x2*t1", "x1*t2", "x2*t2+x1*t2"]},
    # a parameter module of mF: three generators that are a reduction of mF
    "P": {"tdeg": 1, "gens": ["x1*t1", "x2*t2", "x1*t2+x2*t1"]},
    # mF with coefficients other than one, nonzero mod 7
    "mFs": {"tdeg": 1, "gens": ["3*x1*t1", "5*x2*t1", "6*x1*t2", "2*x2*t2"]},
    # not x-homogeneous across positions: its reduced basis keeps
    # x1*t1 + x2^2*t2 and x2^2*t1 + x1*t2, so its cells take Buchberger
    "B": {"tdeg": 1, "gens": ["x1*t1+x2^2*t2", "x2^2*t1+x1*t2", "x1^2*t2", "x2^3*t2", "x1*x2*t1"]},
}
R22_ELEMENTS = {"c1": "x1*t1", "c2": "x2*t1+x1*t2", "c3": "x2*t2"}
# D = d+p-1 = 4: mF, and a parameter span c1..c4 of it over R32
R32_MODULES = {"mF": {"tdeg": 1, "gens": [f"x{i}*t{j}" for j in (1, 2) for i in (1, 2, 3)]}}
R32_ELEMENTS = {"c1": "x1*t1", "c2": "x2*t1+x1*t2", "c3": "x3*t1+x2*t2", "c4": "x3*t2"}
# the same parameter elements with a rational coefficient, for gmult over QQ
R32_RATIONAL_ELEMENTS = dict(R32_ELEMENTS, c2="x2*t1 - 3/2*x1*t2")
R23_MODULES = {"mF": {"tdeg": 1, "gens": [f"x{i}*t{j}" for j in (1, 2, 3) for i in (1, 2)]}}
R12_MODULES = {"E": {"tdeg": 1, "gens": ["x1*t1+x1^2*t2", "x1^2*t2"]}}
# rational and negative coefficients over QQ: a parameter module of mF, and E
# rescaled; r1 is superficial for Pq, q1 lies in m*Eq and is not
R22_RATIONAL_MODULES = {
    "Pq": {
        "tdeg": 1,
        "gens": ["1/2*x1*t1 - 3/4*x2*t2", "-2/3*x2*t1 + x1*t2", "x1*t1 + 5/4*x2*t2 - x2*t1"],
    },
    "Eq": {
        "tdeg": 1,
        "gens": ["-1/2*x1^2*t1 + 3/4*x2^3*t1", "-x2*t1", "2/3*x1*t2 - x2^2*t2", "-5/3*x2^2*t2"],
    },
}
R22_RATIONAL_ELEMENTS = {"r1": "1/2*x1*t1 - 3/4*x2*t2", "q1": "1/2*x1^2*t1 - 3/4*x1*x2*t2"}
# x1^65536 does not fit a 16-bit slot
R21_BIG_MODULES = {"big": {"tdeg": 1, "gens": ["x1^65536*t1", "x2*t1"]}}
GF = {"GF": 32003}
GF7 = {"GF": 7}


def spec(field, d, p, modules, elements=None) -> dict:
    doc = {"ring": {"field": field, "d": d, "p": p}, "modules": modules}
    if elements:
        doc["elements"] = elements
    return doc


SPECS = {
    "r21-qq": spec("QQ", 2, 1, R21_MODULES, R21_ELEMENTS),
    "r21-gf": spec(GF, 2, 1, R21_MODULES, R21_ELEMENTS),
    "r22-qq": spec("QQ", 2, 2, R22_MODULES, R22_ELEMENTS),
    "r22-gf": spec(GF, 2, 2, R22_MODULES, R22_ELEMENTS),
    "r21-gf7": spec(GF7, 2, 1, R21_MODULES, R21_ELEMENTS),
    "r22-gf7": spec(GF7, 2, 2, R22_MODULES, R22_ELEMENTS),
    "r12-qq": spec("QQ", 1, 2, R12_MODULES),
    "r22-qq-rational": spec("QQ", 2, 2, R22_RATIONAL_MODULES, R22_RATIONAL_ELEMENTS),
    "r21-big": spec("QQ", 2, 1, R21_BIG_MODULES),
    "r32-gf": spec(GF, 3, 2, R32_MODULES, R32_ELEMENTS),
    "r32-gf7": spec(GF7, 3, 2, R32_MODULES, R32_ELEMENTS),
    "r32-qq-rational": spec("QQ", 3, 2, R32_MODULES, R32_RATIONAL_ELEMENTS),
    "r23-gf": spec(GF, 2, 3, R23_MODULES),
    "d-float": spec("QQ", 2.9, 1, {"m": R21_MODULES["m"]}),
    "p-bool": spec("QQ", 2, True, {"m": R21_MODULES["m"]}),
    "gf-float": spec({"GF": 32003.7}, 2, 1, {"m": R21_MODULES["m"]}),
    "tdeg-float": spec("QQ", 2, 1, {"m": {"tdeg": 1.5, "gens": ["x1*t1", "x2*t1"]}}),
}

# Commands run over every field: (spec prefix, argv after the subcommand's spec).
PER_FIELD = [
    ("r21", "length -m m,m2 -n 1,1"),
    ("r21", "length -m A -n 2 -q 1 --quotient a1"),
    # two-factor q = 0 graded cells: the length comes from the product's sweep
    ("r22", "length -m E,mF -n 2,1"),
    ("r22", "length -m mF -n 3"),
    # graded cells that sweep the product's minimal generators afresh: q > 0
    # with a quotient element, the q axis, and a two-factor product at q > 0
    ("r21", "length -m m2 -n 2 -q 1 --quotient a1"),
    ("r22", "assoc -m mF -d 2 -j 1"),
    ("r22", "length -m mF,P -n 1,1 -q 1"),
    ("r21", "ebr -m m2"),
    ("r21", "ebr -m A"),
    ("r22", "ebr -m E"),
    ("r21", "tilde-ebr -m m2sq"),
    ("r21", "mixed -m m,I -d 1,1"),
    # equal submodules share length cells: one object named twice, two
    # presentations of one submodule (UA = A), three names for mF
    ("r21", "mixed -m A,A -d 1,1"),
    ("r21", "mixed -m A,UA -d 1,1"),
    ("r22", "check converse -x c1,c2,c3 -m mF,mFt,mFr"),
    ("r21", "mixed -m A -d 2"),
    ("r22", "mixed -m E,mF -d 2,1"),
    # graded products whose chain drops the last module: (P, mF)^(n, 1) is
    # formed from P^n, and (mF, P)^(1, n) from mF
    ("r22", "mixed -m P,mF -d 2,1"),
    ("r22", "mixed -m mF,P -d 1,2"),
    # scaled monomial modules: their graded products are swept as sets of
    # codes, beside E (monomial reduced basis) and the non-homogeneous A
    ("r22", "mixed -m mFs,E -d 2,1"),
    ("r22", "assoc -m mFs -d 2 -j 1"),
    ("r21", "mixed -m m2s,A -d 1,1"),
    ("r21", "assoc -m m -d 1 -j 1"),
    # heavier Buchberger-path bases: A^12, and two positions of B^4; E's
    # reduced basis is monomial, so E^4 is the graded count beside it
    ("r21", "length -m A -n 12"),
    ("r22", "length -m B -n 4"),
    ("r22", "length -m E -n 4"),
    ("r21", "gmult -e a1,a2"),
    ("r21", "gmult -e b1,a2 -t 3"),
    # homology dimensions of a rank-two module, and of higher exponents
    ("r22", "gmult -e c1,c2,c3"),
    ("r21", "gmult -e b1,h3"),
    ("r21", "check reduction -u U -m m2"),
    ("r21", "check reduction -u U -m m"),
    ("r21", "check joint -x a1,a2 -m m,m"),
    ("r21", "check joint -x g1,g2 -m m,m"),
    ("r21", "check joint -x a1,a1 -m m,m"),
    ("r21", "check joint -x a1,a2 -m m,I"),
    ("r21", "check mn-joint -x a1,a2 -n 1"),
    ("r21", "check superficial -x a1 -m m"),
    ("r21", "check superficial -x b1 -m m2"),
    # a false verdict whose failing cell shares a length cell with an
    # earlier one, and two equal classes merged
    ("r21", "check superficial -x h2 -m I,m"),
    ("r22", "check superficial -x c2 -m mF,mF"),
    # a false verdict over the non-homogeneous A: Buchberger colengths count
    # the cells, then linear algebra finds the counterexample; and c1 = 0
    ("r21", "check superficial -x h3 -m A"),
    ("r21", "check superficial -x a1 -m m --c1 0"),
    # a false verdict whose counterexample comes from the n1 = 4 slices
    ("r21", "check superficial -x h2 -m I,m --c1 2"),
    # the zero candidate with c1 = 0 fails at n = [2], q = 0, whose U is the
    # empty product: its slice is the whole degree-1 slice
    ("r21", "check superficial -x z -m m --c1 0"),
    ("r21", "check superficial -x z -m A --c1 0"),
    ("r21", "check rees -u U -m m2"),
    ("r21", "check converse -x a1,a2 -m m,m"),
    ("r21", "check converse -x g1,g2 -m m,m"),
    ("r21", "check risler -m m,m2 -d 1,1 --seed 3"),
    # deciders over the non-homogeneous A, whose products take the Buchberger path
    ("r21", "check reduction -u UA -m A"),
    ("r21", "check rees -u UA -m A"),
    ("r21", "check joint -x h1,h2 -m A,A"),
    ("r21", "check joint -x h2,h2 -m A,A"),
    ("r21", "check converse -x h1,h2 -m A,A"),
    ("r22", "check risler -m mF -d 3"),
    # the graded m at position 1, modulo the non-homogeneous sample of A
    # (exit 3); and k = 1, whose joint left side at n = 1 is x times the unit
    ("r21", "check risler -m A,m -d 1,1"),
    ("r21", "check joint -x a1 -m m"),
    ("r21", "check joint -x h1 -m A"),
    # user errors (exit 2)
    ("r21", "ebr -m line"),
    ("r21", "ebr -m nosuch"),
    ("r21", "check rees -u nosuch -m other"),
    ("r21", "gmult -e mixedt"),
    ("r21", "mixed -m m,m -d 1,2"),
    ("r21", "check joint -x a1 -m m,m"),
    ("r21", "check reduction -u U"),
    ("r21", "check reduction -m m2"),
    ("r21", "length -m m -n 1,x"),
    ("r21", "check risler -m m -d 1.5"),
    ("r21", "gmult -e a1 -t x"),
    ("r21", "assoc -m m -d 1 -j x"),
    ("r21", "check risler"),
    ("r21", "length -m m2 -n 1 -q -1"),
    ("r22", "length -m mF -n 1 -q -1"),
    # limits (exit 3): generic samples for (m, I) vanish off the origin
    ("r21", "check risler -m m,I -d 1,1"),
]

COMMANDS = [
    (f"{prefix}-{field}", argv)
    for field in ("qq", "gf", "gf7")
    for prefix, argv in PER_FIELD
] + [
    ("r12-qq", "assoc -m E -d 1 -j 1"),
    ("r22-qq-rational", "ebr -m Pq"),
    ("r22-qq-rational", "ebr -m Eq"),
    ("r22-qq-rational", "check superficial -x r1 -m Pq"),
    ("r22-qq-rational", "check superficial -x q1 -m Eq"),
    # a degree at the slot base (exit 3)
    ("r21-big", "ebr -m big"),
    # parameter spans with D = 4, whose e_BR tables run to n = 8
    ("r32-gf", "check risler -m mF -d 4"),
    ("r32-gf", "check converse -x c1,c2,c3,c4 -m mF,mF,mF,mF"),
    ("r23-gf", "check risler -m mF -d 4"),
    # Koszul slices whose t- and x-degrees both vary: t = 13 by default and
    # t = 6, with homology at x-degree 1
    ("r32-qq-rational", "gmult -e c1,c2,c3,c4"),
    ("r32-gf7", "gmult -e c1,c2,c3,c4"),
    ("r32-gf7", "gmult -e c1,c2,c3,c4 -t 6"),
    ("r21-qq", "check rees -u U"),
    ("r21-qq", "check superficial -m m"),
    # each decider's contract errors: an element of the wrong t-degree,
    # U not inside E, n = 0 for a span that fails the gate, and a module
    # that fails the primarity gate `mixed` runs
    ("r21-qq", "check converse -x w2,a2 -m m,m"),
    ("r21-qq", "check joint -x w2,a2 -m m,m"),
    ("r21-qq", "check rees -u line -m m2"),
    ("r21-qq", "check mn-joint -x a1 -n 0"),
    ("r21-qq", "check risler -m line,m -d 1,1"),
    ("d-float", "ebr -m m"),
    ("p-bool", "ebr -m m"),
    ("gf-float", "ebr -m m"),
    ("tdeg-float", "ebr -m m"),
]


def run(checkout: Path, spec_name: str, argv: str) -> dict:
    """Outcome of one command in a fresh directory on the checkout's brim."""
    words = argv.split()
    # the spec file follows the subcommand (and the check kind)
    at = 2 if words[0] == "check" else 1
    words[at:at] = ["spec.json"]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout / "src")
    env["BRIM_CACHE"] = "on"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        (cwd / "spec.json").write_text(json.dumps(SPECS[spec_name]))
        proc = subprocess.run(
            [sys.executable, "-m", "brim.cli", *words],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
        )
        cache = sorted(p.name for p in (cwd / ".brim-cache").glob("*"))
    try:
        report = json.loads(proc.stdout)
        report.pop("runtime", None)
        stdout = json.dumps(report, sort_keys=True)
    except (json.JSONDecodeError, AttributeError):
        stdout = proc.stdout
    return {
        "exit": proc.returncode,
        "stdout": stdout,
        "stderr": proc.stderr,
        "cache": cache,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", required=True, type=Path, help="the other checkout")
    args = parser.parse_args()
    other = args.checkout.resolve()
    differ = 0
    for spec_name, argv in COMMANDS:
        here = run(ROOT, spec_name, argv)
        there = run(other, spec_name, argv)
        fields = [key for key in here if here[key] != there[key]]
        label = f"[{spec_name}] {argv}"
        if not fields:
            print(f"same   exit {here['exit']}  {label}")
            continue
        differ += 1
        print(f"DIFFER {label}")
        for key in fields:
            print(f"    {key}: this tree {here[key]!r}")
            print(f"    {key}: {other}  {there[key]!r}")
    print(f"{len(COMMANDS)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
