"""Write tests/data/reduced_bases.txt: random generator sets and their reduced bases.

Usage: PYTHONPATH=src python3 scripts/make_basis_fixture.py [OUT]

The cases are drawn from a fixed seed, so the generator sets never change;
the bases are whatever ``brim.buchberger`` returns.  The committed file was
written by the Buchberger of commit 1c9bc1d (chain criterion, one
``GroebnerBasis`` per element for tail reduction), so
``tests/test_groebner.py`` checks later implementations against it.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from brim import GeneratorSet, Monomial, Polynomial, RingSpec, buchberger
from brim.poly import compositions_desc
from brim.ring import QQ, PrimeField

SEED = 20231
CASES = 40
SHAPES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3)]
FIELDS = [QQ, PrimeField(7), PrimeField(32003)]


def random_case(rng: random.Random, index: int):
    d, p = SHAPES[index % len(SHAPES)]
    ring = RingSpec(d=d, p=p, field=FIELDS[index % len(FIELDS)])
    tdeg = 1 + rng.randrange(2)
    positions = [tuple(t) for t in compositions_desc(tdeg, p)]
    top = 2 if d == 3 else 3
    x_homogeneous = rng.random() < 0.4
    monomial_only = rng.random() < 0.1
    gens = []
    for _ in range(rng.randint(3, 5)):
        xdeg = rng.randint(1, top)
        terms = []
        for _ in range(1 if monomial_only else rng.randint(2, 4)):
            if x_homogeneous:
                xexp = rng.choice(list(compositions_desc(xdeg, d)))
            else:
                xexp = tuple(rng.randint(0, top) for _ in range(d))
            terms.append((Monomial(rng.choice(positions), xexp), rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])))
        g = Polynomial(ring, terms)
        if g:
            gens.append(g)
    return ring, tdeg, gens


def field_name(ring: RingSpec) -> str:
    return "QQ" if ring.field == QQ else str(ring.field.p)


def main(out: Path):
    rng = random.Random(SEED)
    lines = [
        "# Reduced Groebner bases (degrevlex-x) of random generator sets.",
        "# Written by scripts/make_basis_fixture.py; see its docstring.",
        "# case: d p field tdeg; gen: one input generator; basis: one element, in order.",
    ]
    for index in range(CASES):
        ring, tdeg, gens = random_case(rng, index)
        basis = buchberger(GeneratorSet(ring, tdeg, tuple(gens)))
        lines.append(f"case {ring.d} {ring.p} {field_name(ring)} {tdeg}")
        lines += [f"gen {g}" for g in gens]
        lines += [f"basis {g}" for g in basis]
    out.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path("tests/data/reduced_bases.txt"))
