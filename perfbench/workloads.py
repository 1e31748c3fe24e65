"""The four benchmark workloads: inputs from a seed, queries, outcomes.

Each workload is one closed-loop client: the worker issues a query, waits for
its answer, then issues the next.  ``build(name, seed)`` does the set-up
(parsing every input into immutable specs); each query constructs fresh
``GradedSubmodule`` objects from those specs when it runs, so no power or
basis memoized by one query serves another.

What the seed changes: the coefficients of the generic families (small
integers, redrawn until the family is generic) and the Risler seed base.
The expected outcome of every query, in ``oracle.json``, holds for every
draw.  Every brim function is looked up through its module when a query
runs, so the tracer's wrappers see the call.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import brim.cli
from brim import hilbert, jointred, koszul
from brim.poly import parse_polynomial
from brim.rees import GradedSubmodule, SubmoduleSpec
from brim.ring import QQ, PrimeField, RingSpec

HERE = Path(__file__).resolve().parent
ORACLE = json.loads((HERE / "oracle.json").read_text())
WORKLOADS = ("graded-ebr", "nonhomog-mixed", "deciders", "cli-cache")
GF = PrimeField(32003)
MF22 = ["x1*t1", "x2*t1", "x1*t2", "x2*t2"]


@dataclass
class Query:
    qid: str
    run: Callable[[], object]


@dataclass
class Workload:
    name: str
    queries: list
    cli: "CliClient | None" = None


def spec(ring, gens, tdeg=1):
    """Immutable presentation; a query wraps it in a fresh GradedSubmodule."""
    return SubmoduleSpec(ring, tdeg, [parse_polynomial(ring, g) for g in gens])


def fresh(*specs):
    return [GradedSubmodule(s) for s in specs]


def _fresh_sweeps():
    # koszul memoizes sweeps module-wide, keyed by value; a repeated query
    # would be served from it, so every query starts without it.
    cache = getattr(koszul, "_sweep_cache", None)
    if cache is not None:
        cache.clear()


# ---------------------------------------------------------------------------
# generic draws
#
# The check that a draw is generic uses its own small rank routine rather
# than brim's, so that the inputs a seed gives never depend on the code
# being measured.


def _rank_mod_p(rows, p=32003):
    rows = [[v % p for v in r] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        prow = [(v * inv) % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
        rank += 1
    return rank


def _monomials(nvars, deg):
    if nvars == 1:
        return [(deg,)]
    return [(a,) + rest for a in range(deg, -1, -1) for rest in _monomials(nvars - 1, deg - a)]


def generic_ternary_quadrics(rng):
    """Three quadrics in x1..x3 with small integer coefficients that form a
    complete intersection: the map (S_2)^3 -> S_4, (u_i) -> sum u_i q_i, is
    onto mod 32003, so the quotient is zero in degree 4 (hence Artinian, of
    length 8) over GF(32003) and over QQ alike."""
    quad = _monomials(3, 2)
    quart = {m: i for i, m in enumerate(_monomials(3, 4))}
    while True:
        coeffs = [[rng.randint(1, 9) for _ in quad] for _ in range(3)]
        cols = []
        for q in coeffs:
            for u in quad:
                col = [0] * len(quart)
                for c, m in zip(q, quad):
                    col[quart[tuple(a + b for a, b in zip(m, u))]] += c
                cols.append(col)
        if _rank_mod_p(cols) == len(quart):
            return [
                "+".join(
                    f"{c}*" + "*".join(f"x{i + 1}^{e}" for i, e in enumerate(m) if e) + "*t1"
                    for c, m in zip(q, quad)
                )
                for q in coeffs
            ]


def parameter_module(rng):
    """(x1 t1, x2 t1 + c x1 t2, x2 t2 + c' x1 t1) over R22: its maximal minors
    generate m^2 for every nonzero c, c', so it is a parameter module."""
    c, c2 = rng.randint(1, 9), rng.randint(1, 9)
    return ["x1*t1", f"x2*t1+{c}*x1*t2", f"x2*t2+{c2}*x1*t1"]


# ---------------------------------------------------------------------------
# outcomes


def _gmult_outcome(res):
    return {
        "value": res.value,
        "t": res.t,
        "homology_dims": sorted([i, delta, v] for (i, delta), v in res.homology_dims.items() if v),
    }


def _criterion_outcome(rep):
    return {
        "lhs": rep.lhs_mult.value,
        "rhs": rep.rhs_mult.value,
        "verdict": rep.decision.verdict.value,
        "consistent": rep.consistent,
    }


def _decision_outcome(dec):
    return {"verdict": dec.verdict.value, "witness_n0": dec.witness_n0}


# ---------------------------------------------------------------------------
# workloads


def graded_ebr(rng, qq, gf):
    R22q, R22g = RingSpec(2, 2, qq), RingSpec(2, 2, gf)
    R31q, R31g = RingSpec(3, 1, qq), RingSpec(3, 1, gf)
    par_q = spec(R22q, parameter_module(rng))
    par_g = spec(R22g, parameter_module(rng))
    quad22 = spec(R22g, ["x1^2*t1+x2^2*t2", "x1*x2*t1", "x2^2*t1", "x1^2*t2", "x1*x2*t2"])
    cub_q = spec(R31q, generic_ternary_quadrics(rng))
    cub_g = spec(R31g, generic_ternary_quadrics(rng))
    table_e = spec(R22q, parameter_module(rng))
    table_m = spec(R22q, MF22)

    def lengths(s, n_hi):
        def run():
            (e,) = fresh(s)
            ev = hilbert.Evaluator()
            return [hilbert.length(hilbert.LengthQuery((e,), (n,)), ev) for n in range(1, n_hi + 1)]

        return run

    def two_module_table():
        mods = fresh(table_e, table_m)
        return hilbert.table(mods, [(1, 3), (1, 3)]).to_json()["values"]

    return [
        Query("ebr-param-R22-QQ", lambda: hilbert.ebr(*fresh(par_q)).value),
        Query("ebr-param-R22-GF", lambda: hilbert.ebr(*fresh(par_g)).value),
        Query("ebr-quadrics-R22-GF", lambda: hilbert.ebr(*fresh(quad22)).value),
        Query("length-ci-quadrics-R31-QQ", lengths(cub_q, 3)),
        Query("length-ci-quadrics-R31-GF", lengths(cub_g, 3)),
        Query("table-param-mF-R22-QQ", two_module_table),
    ]


def nonhomog_mixed(rng, qq, gf):
    R21q, R21g = RingSpec(2, 1, qq), RingSpec(2, 1, gf)
    R22g, R12q = RingSpec(2, 2, gf), RingSpec(1, 2, qq)
    a_gens = ["x1^3*t1+x2^2*t1", "x1*x2*t1", "x2^3*t1"]
    a_q, a_g = spec(R21q, a_gens), spec(R21g, a_gens)
    i_q = spec(R21q, ["x1^2*t1", "x2*t1"])
    e22 = spec(R22g, ["x1^2*t1+x2^3*t1", "x2*t1", "x1*t2+x2^2*t2", "x2^2*t2"])
    mf22 = spec(R22g, MF22)
    e12 = spec(R12q, ["x1*t1+x1^2*t2", "x1^2*t2"])

    def mixed(dvec, *specs):
        return lambda: hilbert.mixed(fresh(*specs), dvec).value

    return [
        Query("mixed11-A-A-R21-GF", mixed((1, 1), a_g, a_g)),
        Query("mixed11-A-I-R21-QQ", mixed((1, 1), a_q, i_q)),
        Query("mixed21-E-mF-R22-GF", mixed((2, 1), e22, mf22)),
        Query("assoc-E-R12-QQ", lambda: hilbert.assoc_mixed(fresh(e12), (1,), 1).value),
    ]


def deciders(rng, qq, gf):
    R22q, R21q, R12q = RingSpec(2, 2, qq), RingSpec(2, 1, qq), RingSpec(1, 2, qq)
    R32g, R22g, R13q = RingSpec(3, 2, gf), RingSpec(2, 2, gf), RingSpec(1, 3, qq)
    base = rng.randrange(1000)
    mf22 = spec(R22q, ["x1*t1+x2*t2", "x2*t1", "x1*t2", "x2*t2"])
    e12 = spec(R12q, ["x1^2*t1+x1^3*t2", "x1^3*t2"])
    m21 = spec(R21q, ["x1*t1+x2*t1", "x2*t1"])
    m2_21 = spec(R21q, ["x1^2*t1+x2^2*t1", "x1*x2*t1", "x2^2*t1"])
    u21 = spec(R21q, ["x1^2*t1+x2^2*t1", "x1*x2*t1"])
    xs = [parse_polynomial(R21q, s) for s in ("x1*t1+x2*t1", "x1*t1+2*x2*t1")]

    def risler(dvec, *specs):
        return lambda: _criterion_outcome(
            jointred.risler_teissier_check(fresh(*specs), dvec, seeds=(base,))
        )

    def gmult(ring, elems):
        polys = [parse_polynomial(ring, s) for s in elems]

        def run():
            _fresh_sweeps()
            return _gmult_outcome(koszul.g_mult_et(koszul.KoszulSpec(ring, polys)))

        return run

    return [
        Query("risler-mF-R22-QQ", risler((3,), mf22)),
        Query("risler-E-R12-QQ", risler((2,), e12)),
        Query("risler-m-m2-R21-QQ", risler((1, 1), m21, m2_21)),
        Query("risler-U-m-R21-QQ", risler((1, 1), u21, m21)),
        Query(
            "is-reduction-U-m2-R21-QQ",
            lambda: _decision_outcome(jointred.is_reduction(*fresh(u21, m2_21))),
        ),
        Query(
            "converse-m-m-R21-QQ",
            lambda: _criterion_outcome(jointred.converse_criterion(xs, fresh(m21, m21))),
        ),
        Query(
            "is-joint-reduction-m-m-R21-QQ",
            lambda: _decision_outcome(jointred.is_joint_reduction(xs, fresh(m21, m21))),
        ),
        Query(
            "gmult-param-R32-GF",
            gmult(R32g, ["x1*t1", "x2*t1+x1*t2", "x3*t1+x2*t2", "x3*t2"]),
        ),
        Query(
            "gmult-quadrics-R22-GF",
            gmult(
                R22g,
                [
                    "x1^2*t1+2*x2^2*t2+x1*x2*t2",
                    "3*x1*x2*t1+x2^2*t1+x1^2*t2",
                    "x2^2*t1+5*x1^2*t1+4*x1*x2*t2+x2^2*t2",
                ],
            ),
        ),
        Query("gmult-R13-QQ", gmult(R13q, ["x1*t1", "x1*t2", "x1*t3"])),
    ]


# ---------------------------------------------------------------------------
# cli-cache: sequential `python -m brim.cli` invocations


def _field_doc(field):
    return "QQ" if field == QQ else {"GF": field.p}


def _mf_doc(d, p, field):
    return {
        "ring": {"field": _field_doc(field), "d": d, "p": p},
        "modules": {
            "mF": {
                "tdeg": 1,
                "gens": [f"x{i}*t{j}" for j in range(1, p + 1) for i in range(1, d + 1)],
            }
        },
    }


class CliClient:
    """Runs brim's CLI in a child process per query, in the pass directory.

    Untraced, the child is ``python -m brim.cli``; traced, it is
    ``cli_shim.py``, which installs the tracer and writes its spans next to
    the spec files.  Every invocation's wall time, reported compute time and
    cache role (cold: table written; warm: table read back) is kept.
    """

    def __init__(self, src: Path, docs: dict):
        self.src = src
        self.docs = docs
        self.cwd = None
        self.traced = False
        self.records = []
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        env.pop("BRIM_CACHE", None)
        self.env = env

    def start_pass(self, cwd: Path, traced: bool):
        self.cwd = cwd
        self.traced = traced
        self.records = []
        for name, doc in self.docs.items():
            (cwd / f"{name}.json").write_text(json.dumps(doc))

    def invoke(self, role, argv):
        idx = len(self.records)
        if self.traced:
            cmd = [sys.executable, str(HERE / "cli_shim.py"), f"trace-{idx}.json", *argv]
        else:
            cmd = [sys.executable, "-m", "brim.cli", *argv]
        started = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.cwd, env=self.env, capture_output=True, text=True)
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            raise RuntimeError(f"brim {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
        report = json.loads(proc.stdout)
        self.records.append(
            {
                "role": role,
                "spawned": started,
                "wall_s": wall,
                "compute_s": report["runtime"]["elapsed_s"],
                "trace": str(self.cwd / f"trace-{idx}.json") if self.traced else None,
            }
        )
        return report["payload"]

    def cache_entries(self):
        cache = self.cwd / brim.cli.CACHE_DIR
        return len(list(cache.glob("*.json"))) if cache.is_dir() else 0


def cli_cache(src: Path, qq, gf):
    docs = {f"mF{d}{p}": _mf_doc(d, p, qq) for d, p in ((2, 2), (2, 3), (3, 2))}
    docs["small"] = {
        "ring": {"field": _field_doc(gf), "d": 2, "p": 1},
        "modules": {
            "A": {"tdeg": 1, "gens": ["x1^2*t1+x2^2*t1", "x1*x2*t1"]},
            "m": {"tdeg": 1, "gens": ["x1*t1+x2*t1", "x2*t1"]},
            "m2": {"tdeg": 1, "gens": ["x1^2*t1", "x1*x2*t1", "x2^2*t1"]},
        },
        "elements": {"a1": "x1*t1+x2*t1", "a2": "x1*t1-x2*t1"},
    }
    docs["small12"] = {
        "ring": {"field": _field_doc(gf), "d": 1, "p": 2},
        "modules": {"E": {"tdeg": 1, "gens": ["x1*t1+x1^2*t2", "x1^2*t2"]}},
    }
    client = CliClient(src, docs)

    def cached(qid, argv):
        """Cold then warm: the cold run must write one table, the warm run
        must read it back and write none."""

        def run():
            before = client.cache_entries()
            cold = client.invoke("cold", argv)
            written = client.cache_entries() - before
            warm = client.invoke("warm", argv)
            if client.cache_entries() - before != written or written != 1:
                raise RuntimeError(f"{qid}: cache wrote {written} tables, expected 1 then 0")
            if warm != cold:
                raise RuntimeError(f"{qid}: warm payload differs from cold payload")
            return cold["value"]

        return Query(qid, run)

    def uncached(qid, argv, outcome):
        return Query(qid, lambda: outcome(client.invoke("uncached", argv)))

    queries = [
        cached(f"cli-ebr-mF-{d}{p}", ["ebr", f"mF{d}{p}.json", "-m", "mF"])
        for d, p in ((2, 2), (2, 3), (3, 2))
    ]
    queries += [
        cached("cli-mixed11-A-m", ["mixed", "small.json", "-m", "A,m", "-d", "1,1"]),
        cached("cli-assoc-E12", ["assoc", "small12.json", "-m", "E", "-d", "1", "-j", "1"]),
        uncached(
            "cli-gmult-a1-a2",
            ["gmult", "small.json", "-e", "a1,a2"],
            lambda p: {"value": p["value"], "t": p["t"], "homology_dims": p["homology_dims"]},
        ),
        uncached(
            "cli-check-reduction-A-m2",
            ["check", "reduction", "small.json", "-u", "A", "-m", "m2"],
            lambda p: {
                "verdict": p["decision"]["verdict"],
                "witness_n0": p["decision"]["witness_n0"],
            },
        ),
    ]
    return queries, client


def build(name: str, seed: int, src: Path, swap_fields: bool = False) -> Workload:
    """The workload's queries on inputs drawn from the seed.  With
    swap_fields every QQ input is posed over GF(32003) and vice versa, which
    is how freeze.py checks that the two fields agree."""
    rng = random.Random(f"{name}:{seed}")
    fields = (GF, QQ) if swap_fields else (QQ, GF)
    if name == "graded-ebr":
        return Workload(name, graded_ebr(rng, *fields))
    if name == "nonhomog-mixed":
        return Workload(name, nonhomog_mixed(rng, *fields))
    if name == "deciders":
        return Workload(name, deciders(rng, *fields))
    if name == "cli-cache":
        queries, client = cli_cache(src, *fields)
        return Workload(name, queries, cli=client)
    raise ValueError(f"unknown workload {name!r}")
