"""Batch front-end: JSON spec files in, deterministic JSON reports out.

Exit codes: 0 success, 2 user error, 3 computational limit, 4 internal
invariant failure.  Reports are byte-identical for identical inputs and seed;
wall-clock timing and the cache mode live in the separate "runtime" key,
which golden comparisons drop.

Length tables backing the multiplicity commands are cached on disk under
./.brim-cache/, keyed by a SHA-256 of the canonicalized spec and semantic
command together with the brim version and the extraction settings
(``hilbert.N_MAX``, ``STAB_WIDTH``, ``MAX_EXTENSIONS``, ``EXTENSION_STEP``),
so a table computed by other code is never served; each entry is written to
a temporary file and renamed into place.  BRIM_CACHE=off disables the cache.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
from functools import partial
from pathlib import Path

from . import __version__, hilbert
from .errors import BrimError, ComputationLimit, InternalError, InvalidInput
from .hilbert import (
    Evaluator,
    LengthQuery,
    LengthTable,
    MultiplicityResult,
    assoc_mixed,
    ebr,
    length,
    mixed,
    stabilized_difference,
    tilde_ebr,
)
from .jointred import (
    CriterionReport,
    Decision,
    converse_criterion,
    is_joint_reduction,
    is_reduction,
    mn_joint_reduction_witness,
    rees_equivalence_check,
    risler_teissier_check,
    verify_superficial,
)
from .koszul import KoszulSpec, g_mult_et
from .poly import Polynomial, parse_polynomial
from .rees import GradedSubmodule, RingSpec
from .ring import field_from_config

CACHE_DIR = ".brim-cache"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _named_blocks(doc: dict, key: str):
    """The (name, block) pairs of the spec's ``key`` object, names nonempty."""
    blocks = doc.get(key) or {}
    if not isinstance(blocks, dict):
        raise InvalidInput(f"'{key}' must be an object mapping names to entries")
    for name in blocks:
        if not name:
            raise InvalidInput(f"{key[:-1]} names must be nonempty")
    return blocks.items()


def _json_int(value, field: str) -> int:
    """A spec number: a JSON integer, never a float or a boolean."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInput(f"{field} {value!r} is not an integer")
    return value


class SpecFile:
    """Parsed spec document: ring block, named modules, named elements."""

    def __init__(self, doc: dict):
        if not isinstance(doc, dict) or "ring" not in doc:
            raise InvalidInput("spec file must be a JSON object with a 'ring' block")
        rb = doc["ring"]
        try:
            d, p, field = rb["d"], rb["p"], rb.get("field", "QQ")
        except (KeyError, TypeError) as exc:
            raise InvalidInput(f"malformed ring block: {exc}") from exc
        self.ring = RingSpec(
            d=_json_int(d, "ring: d"), p=_json_int(p, "ring: p"), field=field_from_config(field)
        )
        self.modules = {}
        for name, block in _named_blocks(doc, "modules"):
            if not isinstance(block, dict):
                raise InvalidInput(f"module {name}: expected an object with 'tdeg' and 'gens'")
            tdeg = _json_int(block.get("tdeg", 1), f"module {name}: tdeg")
            gens = block.get("gens", [])
            if not isinstance(gens, list):
                raise InvalidInput(f"module {name}: gens must be a list")
            for g in gens:
                entries = g if isinstance(g, list) else [g]
                if not all(isinstance(e, str) for e in entries):
                    raise InvalidInput(
                        f"module {name}: generator {g!r} is neither a polynomial string "
                        "nor a list of polynomial strings"
                    )
            strings = [g for g in gens if isinstance(g, str)]
            vectors = [g for g in gens if isinstance(g, list)]
            if strings and vectors:
                raise InvalidInput(
                    f"module {name}: mix of polynomial and vector generators"
                )
            if vectors:
                self.modules[name] = GradedSubmodule.from_vectors(self.ring, tdeg, vectors)
            else:
                self.modules[name] = GradedSubmodule.from_gens(self.ring, tdeg, strings)
        self.elements = {}
        for name, text in _named_blocks(doc, "elements"):
            if not isinstance(text, str):
                raise InvalidInput(f"element {name}: {text!r} is not a polynomial string")
            self.elements[name] = parse_polynomial(self.ring, text)
        self.doc = doc

    def module(self, name: str) -> GradedSubmodule:
        if name not in self.modules:
            raise InvalidInput(f"unknown module {name!r}")
        return self.modules[name]

    def element(self, name: str) -> Polynomial:
        if name not in self.elements:
            raise InvalidInput(f"unknown element {name!r}")
        return self.elements[name]


def load_specfile(path: str) -> SpecFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise InvalidInput(f"spec file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"spec file is not valid JSON: {exc}") from exc
    return SpecFile(doc)


# ---------------------------------------------------------------------------
# serialization of result objects


def mult_to_json(res: MultiplicityResult) -> dict:
    return {
        "value": res.value,
        "kind": res.kind,
        "certificate": res.certificate,
        "table": res.table.to_json(),
    }


def decision_to_json(dec: Decision) -> dict:
    return {
        "verdict": dec.verdict.value,
        "witness_n0": dec.witness_n0,
        "counterexample": dec.counterexample,
        "window": dec.window,
    }


def criterion_to_json(rep: CriterionReport) -> dict:
    out = {
        "lhs": mult_to_json(rep.lhs_mult),
        "rhs": mult_to_json(rep.rhs_mult),
        "heights_ok": rep.heights_ok,
        "radical_ok": rep.radical_ok,
        "decision": decision_to_json(rep.decision),
        "consistent": rep.consistent,
    }
    if rep.candidates:
        out["candidates"] = [
            {
                "element": str(c.element),
                "seed": str(c.seed),
                "coefficients": [str(v) for v in c.coefficients],
            }
            for c in rep.candidates
        ]
    if rep.values_by_seed:
        out["values_by_seed"] = rep.values_by_seed
    return out


# ---------------------------------------------------------------------------
# cache


def cache_enabled() -> bool:
    return os.environ.get("BRIM_CACHE", "on").lower() != "off"


def cache_key(spec: SpecFile, command: dict) -> str:
    """Hash of the canonical spec and semantic command: the report's inputs_hash."""
    blob = canonical_json({"spec": spec.doc, "command": command})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_entry_key(spec: SpecFile, command: dict) -> str:
    """Name of a cache entry: the inputs plus the code and settings that
    computed its table."""
    blob = canonical_json(
        {
            "inputs": cache_key(spec, command),
            "version": __version__,
            "config": {
                "n_max": hilbert.N_MAX,
                "stab_width": hilbert.STAB_WIDTH,
                "max_extensions": hilbert.MAX_EXTENSIONS,
                "extension_step": hilbert.EXTENSION_STEP,
            },
        }
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cache_load_table(key: str):
    """The cached table, or None (a miss) when the entry is absent or does
    not decode to a full table."""
    path = Path(CACHE_DIR) / f"{key}.json"
    if not path.is_file():
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return LengthTable.from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError):
        return None


def cache_store_table(key: str, table: LengthTable):
    """Write the entry to a temporary file, then rename it into place, so a
    failed write never leaves a partial entry under the key."""
    directory = Path(CACHE_DIR)
    tmp = directory / f"{key}.{os.getpid()}.tmp"
    try:
        directory.mkdir(exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(table.to_json(), fh, sort_keys=True, separators=(",", ":"))
        os.replace(tmp, directory / f"{key}.json")
    except OSError:  # caching is best-effort
        with contextlib.suppress(OSError):
            tmp.unlink()


def cached_multiplicity(spec, command, kind, orders, compute):
    """Reuse the cached length table when present; the extraction itself is a
    pure function of the table."""
    key = cache_entry_key(spec, command)
    if cache_enabled():
        table = cache_load_table(key)
        if table is not None:
            try:
                value, cert = stabilized_difference(table, orders)
                return MultiplicityResult(value, kind, cert, table)
            except BrimError:
                pass  # stale or incompatible cache entry: recompute
    result = compute()
    if cache_enabled():
        cache_store_table(key, result.table)
    return result


# ---------------------------------------------------------------------------
# subcommands


def _split(text: str):
    return [part for part in (text or "").split(",") if part]


def _ints(text: str, flag: str) -> list:
    """The comma list of integers given to ``flag``."""
    try:
        return [int(v) for v in _split(text)]
    except ValueError:
        raise InvalidInput(f"{flag} {text!r} is not a comma list of integers") from None


def _int(text: str, flag: str) -> int:
    values = _ints(text, flag)
    if len(values) != 1:
        raise InvalidInput(f"{flag} {text!r} is not one integer")
    return values[0]


def _names(text: str, command: str, what: str, flag: str) -> list:
    """The names given to ``flag``, of which the command needs one or more."""
    names = _split(text)
    if not names:
        raise InvalidInput(f"{command} requires at least one {what} ({flag})")
    return names


def cmd_length(spec: SpecFile, args) -> dict:
    names = _names(args.modules, "length", "module", "-m")
    exps = _ints(args.exponents, "-n")
    mods = [spec.module(n) for n in names]
    quotient = tuple(spec.element(n) for n in _split(args.quotient))
    value = length(
        LengthQuery(tuple(mods), tuple(exps), int(args.q), quotient), Evaluator()
    )
    return {"length": value}


def _mult_command(spec: SpecFile, args, kind: str) -> dict:
    names = _split(args.modules)
    mods = [spec.module(n) for n in names]
    if kind in ("ebr", "tilde_ebr"):
        if len(mods) != 1:
            raise InvalidInput(f"{kind} takes exactly one module")
        fields = {}
        orders = (spec.ring.d + spec.ring.p - 1,)
        compute = partial(ebr if kind == "ebr" else tilde_ebr, mods[0])
    elif kind == "mixed":
        dvec = tuple(_ints(args.dvec, "-d"))
        fields = {"dvec": list(dvec)}
        orders = dvec
        compute = partial(mixed, mods, dvec)
    else:
        dvec = tuple(_ints(args.dvec, "-d"))
        j = _int(args.j, "-j")
        fields = {"dvec": list(dvec), "j": j}
        orders = dvec + (j,)
        compute = partial(assoc_mixed, mods, dvec, j)
    res = cached_multiplicity(
        spec,
        {"subcommand": kind, "modules": names, **fields},
        {"type": kind, **fields},
        orders,
        compute,
    )
    return mult_to_json(res)


def cmd_gmult(spec: SpecFile, args) -> dict:
    names = _names(args.elements, "gmult", "element", "-e")
    elems = [spec.element(n) for n in names]
    kspec = KoszulSpec(spec.ring, elems)
    t = _int(args.t, "-t") if args.t is not None else None
    res = g_mult_et(kspec, t)
    dims = sorted((i, delta, v) for (i, delta), v in res.homology_dims.items())
    return {
        "value": res.value,
        "t": res.t,
        "homology_dims": [[i, delta, v] for i, delta, v in dims],
    }


def cmd_check(spec: SpecFile, args) -> dict:
    kind = args.kind
    n_max = int(args.nmax)
    if kind in ("reduction", "rees"):
        u = spec.module(_names(args.u, f"check {kind}", "module", "-u")[0])
        e = spec.module(_names(args.modules, f"check {kind}", "module", "-m")[0])
        if kind == "reduction":
            return {"decision": decision_to_json(is_reduction(u, e, n_max))}
        return {"criterion": criterion_to_json(rees_equivalence_check(u, e, n_max))}
    if kind == "joint":
        xs = [spec.element(n) for n in _split(args.x)]
        mods = [spec.module(n) for n in _split(args.modules)]
        dec = is_joint_reduction(xs, mods, n_max)
        return {"decision": decision_to_json(dec)}
    if kind == "mn-joint":
        xs = [spec.element(n) for n in _split(args.x)]
        dec = mn_joint_reduction_witness(xs, int(args.n), n_max)
        return {"decision": decision_to_json(dec)}
    if kind == "superficial":
        x = spec.element(_names(args.x, "check superficial", "element", "-x")[0])
        mods = [spec.module(n) for n in _split(args.modules)]
        dec = verify_superficial(x, mods, int(args.c1))
        return {"decision": decision_to_json(dec)}
    if kind == "converse":
        xs = [spec.element(n) for n in _split(args.x)]
        mods = [spec.module(n) for n in _split(args.modules)]
        rep = converse_criterion(xs, mods, n_max)
        return {"criterion": criterion_to_json(rep)}
    if kind == "risler":
        mods = [spec.module(n) for n in _split(args.modules)]
        dvec = _ints(args.dvec, "-d")
        base = int(args.seed)
        rep = risler_teissier_check(mods, dvec, seeds=[base, base + 1, base + 2])
        return {"criterion": criterion_to_json(rep)}
    raise InvalidInput(f"unknown check kind {kind!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brim",
        description="Exact multiplicities and reduction checks for graded submodules.",
    )
    parser.add_argument("--version", action="version", version=f"brim {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("specfile")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("length", help="one exact length cell")
    add_common(p)
    p.add_argument("-m", "--modules", required=True)
    p.add_argument("-n", "--exponents", required=True)
    p.add_argument("-q", type=int, default=0)
    p.add_argument("--quotient", default="")

    for name in ("ebr", "tilde-ebr"):
        p = sub.add_parser(name, help=f"{name} multiplicity")
        add_common(p)
        p.add_argument("-m", "--modules", required=True)

    p = sub.add_parser("mixed", help="mixed multiplicity of a family")
    add_common(p)
    p.add_argument("-m", "--modules", required=True)
    p.add_argument("-d", "--dvec", required=True)

    p = sub.add_parser("assoc", help="associated mixed multiplicity")
    add_common(p)
    p.add_argument("-m", "--modules", required=True)
    p.add_argument("-d", "--dvec", required=True)
    p.add_argument("-j", required=True)

    p = sub.add_parser("gmult", help="Koszul g-multiplicity")
    add_common(p)
    p.add_argument("-e", "--elements", required=True)
    p.add_argument("-t", default=None)

    p = sub.add_parser("check", help="reduction / joint-reduction / theorem checks")
    p.add_argument(
        "kind",
        choices=["reduction", "joint", "mn-joint", "superficial", "rees", "converse", "risler"],
    )
    add_common(p)
    p.add_argument("-m", "--modules", default="")
    p.add_argument("-u", default=None)
    p.add_argument("-x", default="")
    p.add_argument("-d", "--dvec", default="")
    p.add_argument("-n", type=int, default=1)
    p.add_argument("--c1", type=int, default=1)
    p.add_argument("--nmax", type=int, default=6)

    return parser


def semantic_command(args) -> dict:
    """The mathematically relevant part of the invocation (no execution knobs)."""
    skip = {"specfile", "threads", "subcommand"}
    out = {"subcommand": args.subcommand}
    for key, value in sorted(vars(args).items()):
        if key in skip or value in (None, ""):
            continue
        out[key] = value
    return out


def run(args) -> dict:
    spec = load_specfile(args.specfile)
    started = time.monotonic()
    sub = args.subcommand
    if sub == "length":
        payload = cmd_length(spec, args)
    elif sub in ("ebr", "tilde-ebr", "mixed", "assoc"):
        payload = _mult_command(spec, args, sub.replace("-", "_"))
    elif sub == "gmult":
        payload = cmd_gmult(spec, args)
    elif sub == "check":
        payload = cmd_check(spec, args)
    else:  # pragma: no cover
        raise InvalidInput(f"unknown subcommand {sub!r}")
    elapsed = time.monotonic() - started
    command = semantic_command(args)
    return {
        "command": command,
        "inputs_hash": cache_key(spec, command),
        "seed": args.seed,
        "payload": payload,
        "runtime": {
            "elapsed_s": round(elapsed, 6),
            "threads": args.threads,
            "cache": "on" if cache_enabled() else "off",
        },
    }


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    try:
        report = run(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationLimit as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except BrimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    print(canonical_json(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
