"""Spans and counters recorded around calls into brim's modules.

Nothing inside ``src/`` is instrumented.  ``Tracer.install`` replaces names
where brim looks them up (a module global, or a method in a class dict) with
wrappers that record a span or bump a counter, and ``Tracer.uninstall`` puts
the originals back.  Spans stay in memory; ``layer_metrics`` turns them into
per-layer counts and self times once a pass is over.

A span is ``[name, layer, parent, query, start, end, info]``; ``parent`` is
the index of the enclosing span (or None) and ``info`` holds counts taken at
the boundary, such as input generators and basis size for Buchberger.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from statistics import median

NAME, LAYER, PARENT, QUERY, START, END, INFO = range(7)

# (module, attribute, span name, layer).  A function imported by name into
# several modules is wrapped in each of them, because brim looks it up there.
SPANNED = [
    ("brim.rees", "buchberger", "groebner.buchberger", "groebner"),
    ("brim.koszul", "buchberger", "groebner.buchberger", "groebner"),
    ("brim.groebner", "normal_form", "groebner.normal_form", "groebner"),
    ("brim.jointred", "normal_form", "groebner.normal_form", "groebner"),
    ("brim.rees", "colength", "groebner.colength", "groebner"),
    ("brim.koszul", "colength", "groebner.colength", "groebner"),
    ("brim.rees", "product", "rees.product", "rees"),
    ("brim.hilbert", "product", "rees.product", "rees"),
    ("brim.rees.GradedSubmodule", "power", "rees.power", "rees"),
    ("brim.rees", "mprimary_check", "rees.mprimary_check", "rees"),
    ("brim.jointred", "mprimary_check", "rees.mprimary_check", "rees"),
    ("brim.hilbert.Evaluator", "length", "hilbert.length", "hilbert"),
    ("brim.hilbert", "_length_uncached", "hilbert.cell", "hilbert"),
    ("brim.hilbert", "build_slice_submodule", "hilbert.build_slice", "hilbert"),
    ("brim.jointred", "build_slice_submodule", "hilbert.build_slice", "hilbert"),
    ("brim.hilbert", "stabilized_difference", "hilbert.stabilized_difference", "hilbert"),
    ("brim.cli", "stabilized_difference", "hilbert.stabilized_difference", "hilbert"),
    ("brim.hilbert", "table", "hilbert.table", "hilbert"),
    ("brim.hilbert", "length", "hilbert.query", "hilbert"),
    ("brim.hilbert", "ebr", "hilbert.query", "hilbert"),
    ("brim.hilbert", "mixed", "hilbert.query", "hilbert"),
    ("brim.hilbert", "assoc_mixed", "hilbert.query", "hilbert"),
    ("brim.jointred", "ebr", "hilbert.query", "hilbert"),
    ("brim.jointred", "mixed", "hilbert.query", "hilbert"),
    ("brim.cli", "length", "hilbert.query", "hilbert"),
    ("brim.cli", "ebr", "hilbert.query", "hilbert"),
    ("brim.cli", "mixed", "hilbert.query", "hilbert"),
    ("brim.cli", "assoc_mixed", "hilbert.query", "hilbert"),
    ("brim.koszul", "matrix_rank", "linalg.rank", "linalg"),
    ("brim.linalg.PairedSpan", "add", "linalg.paired_span", "linalg"),
    ("brim.koszul", "g_mult_et", "koszul.g_mult_et", "koszul"),
    ("brim.cli", "g_mult_et", "koszul.g_mult_et", "koszul"),
    ("brim.koszul", "chain_dim", "koszul.chain_dim", "koszul"),
    ("brim.jointred", "verify_superficial", "jointred.verify_superficial", "jointred"),
    ("brim.cli", "verify_superficial", "jointred.verify_superficial", "jointred"),
    ("brim.jointred", "sample_superficial", "jointred.sample_superficial", "jointred"),
    ("brim.jointred", "is_reduction", "jointred.decider", "jointred"),
    ("brim.jointred", "is_joint_reduction", "jointred.decider", "jointred"),
    ("brim.jointred", "converse_criterion", "jointred.decider", "jointred"),
    ("brim.jointred", "risler_teissier_check", "jointred.decider", "jointred"),
    ("brim.jointred", "rees_equivalence_check", "jointred.decider", "jointred"),
    ("brim.cli", "is_reduction", "jointred.decider", "jointred"),
    ("brim.cli", "is_joint_reduction", "jointred.decider", "jointred"),
    ("brim.cli", "converse_criterion", "jointred.decider", "jointred"),
    ("brim.cli", "risler_teissier_check", "jointred.decider", "jointred"),
    ("brim.cli", "rees_equivalence_check", "jointred.decider", "jointred"),
    ("brim.cli", "cache_load_table", "cli.cache_load", "cli"),
    ("brim.cli", "cache_store_table", "cli.cache_store", "cli"),
]

# Hot calls that are counted, not timed: a span each would swamp the run.
COUNTED = [
    ("brim.poly.Polynomial", "__mul__", "poly.mul"),
    ("brim.poly.MonomialOrder", "key", "poly.order_key"),
]


def _resolve(path: str):
    """Module or class named by a dotted path under brim."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


def _boundary_info(name, args, result):
    """Work counts read at a span's boundary, from arguments and result."""
    if name == "groebner.buchberger":
        gens = args[0].gens
        return {
            "input_gens": len(gens),
            "basis_elems": len(result),
            "monomial": all(g.num_terms() == 1 for g in gens),
        }
    if name == "groebner.colength":
        return {"std_monomials": result.value or 0}
    if name == "rees.product":
        return {"gens_formed": len(result.spec.gens)}
    if name == "linalg.rank":
        rows = args[0]
        return {"entries": len(rows) * (len(rows[0]) if rows else 0)}
    if name == "linalg.paired_span":
        return {"new": result[0] == "new"}
    if name == "jointred.verify_superficial":
        return {"accepted": result.verdict.value == "true"}
    if name == "hilbert.length":
        query = args[1]
        return {"window": max((*query.exponents, query.qdeg))}
    if name == "cli.cache_load":
        return {"hit": result is not None}
    return None


class Tracer:
    """Records spans and counts for the calls it wraps while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.query = None
        self._stack = []
        self._saved = []

    def install(self):
        """Wrap every listed name; a name brim no longer has raises, so a
        rename cannot silently zero its layer's metrics."""
        for path, attr, name, layer in SPANNED:
            owner = _resolve(path)
            self._patch(owner, attr, self._spanned(getattr(owner, attr), name, layer))
        for path, attr, name in COUNTED:
            owner = _resolve(path)
            self._patch(owner, attr, self._counted(getattr(owner, attr), name))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, fn, name, layer):
        def wrapper(*args, **kwargs):
            result = None
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(span)
                if result is not None:
                    span[INFO] = _boundary_info(name, args, result)

        return wrapper

    def open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        span = [name, layer, parent, self.query, time.perf_counter(), None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()


def self_times(spans):
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once.
    """
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(idx)
    out = []
    for idx, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered = 0.0
        run_lo = run_hi = None
        for c in sorted(children[idx], key=lambda i: spans[i][START]):
            a, b = max(spans[c][START], lo), min(spans[c][END], hi)
            if b <= a:
                continue
            if run_hi is None or a > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((hi - lo) - covered)
    return out


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, counts):
    """Per-layer counts and self times of one pass, keyed by metric name."""
    counts = Counter(counts)
    selfs = self_times(spans)
    calls = Counter()
    self_by_name = Counter()
    self_by_layer = Counter()
    info = defaultdict(Counter)
    window_max = 0
    for span, own in zip(spans, selfs):
        name = span[NAME]
        calls[name] += 1
        self_by_name[name] += own
        self_by_layer[span[LAYER]] += own
        for key, value in (span[INFO] or {}).items():
            if key == "window":
                window_max = max(window_max, value)
            else:
                info[name][key] += int(value)
    bb = info["groebner.buchberger"]
    cells = calls["hilbert.cell"]
    requests = calls["hilbert.length"]
    loads = calls["cli.cache_load"]
    hits = info["cli.cache_load"]["hit"]
    return {
        "poly.mul.calls": counts["poly.mul"],
        "poly.order_key.calls": counts["poly.order_key"],
        "groebner.buchberger.calls": calls["groebner.buchberger"],
        "groebner.buchberger.self_s": self_by_name["groebner.buchberger"],
        "groebner.buchberger.input_gens": bb["input_gens"],
        "groebner.buchberger.basis_elems": bb["basis_elems"],
        "groebner.buchberger.kept_frac": _frac(bb["basis_elems"], bb["input_gens"]),
        "groebner.buchberger.monomial_frac": _frac(bb["monomial"], calls["groebner.buchberger"]),
        "groebner.normal_form.calls": calls["groebner.normal_form"],
        "groebner.normal_form.self_s": self_by_name["groebner.normal_form"],
        "groebner.colength.calls": calls["groebner.colength"],
        "groebner.colength.self_s": self_by_name["groebner.colength"],
        "groebner.colength.std_monomials": info["groebner.colength"]["std_monomials"],
        "rees.product.calls": calls["rees.product"],
        "rees.product.self_s": self_by_name["rees.product"],
        "rees.product.gens_formed": info["rees.product"]["gens_formed"],
        "rees.power.calls": calls["rees.power"],
        "rees.mprimary_check.calls": calls["rees.mprimary_check"],
        "rees.mprimary_check.self_s": self_by_name["rees.mprimary_check"],
        "hilbert.length.requests": requests,
        "hilbert.cells.computed": cells,
        "hilbert.memo_hit_frac": _frac(requests - cells, requests),
        "hilbert.build_slice.self_s": self_by_name["hilbert.build_slice"],
        "hilbert.stabilized_difference.calls": calls["hilbert.stabilized_difference"],
        "hilbert.window_max": window_max,
        "hilbert.self_s": self_by_layer["hilbert"],
        "linalg.rank.calls": calls["linalg.rank"],
        "linalg.rank.self_s": self_by_name["linalg.rank"],
        "linalg.rank.entries": info["linalg.rank"]["entries"],
        "linalg.paired_span.adds": calls["linalg.paired_span"],
        "linalg.paired_span.self_s": self_by_name["linalg.paired_span"],
        "linalg.paired_span.new_frac": _frac(
            info["linalg.paired_span"]["new"], calls["linalg.paired_span"]
        ),
        "koszul.g_mult_et.calls": calls["koszul.g_mult_et"],
        "koszul.chain_dim.calls": calls["koszul.chain_dim"],
        "koszul.self_s": self_by_layer["koszul"],
        "jointred.verify_superficial.calls": calls["jointred.verify_superficial"],
        "jointred.verify_superficial.self_s": self_by_name["jointred.verify_superficial"],
        "jointred.superficial.accept_frac": _frac(
            info["jointred.verify_superficial"]["accepted"],
            calls["jointred.verify_superficial"],
        ),
        "jointred.sample_superficial.calls": calls["jointred.sample_superficial"],
        "jointred.deciders.self_s": self_by_name["jointred.decider"],
        "cli.cache.hits": hits,
        "cli.cache.misses": loads - hits,
        "cli.cache.hit_frac": _frac(hits, loads),
        "trace.spans": len(spans),
    }


def median_metrics(per_pass):
    """Median of each metric over passes (counts repeat, so they are exact)."""
    return {key: median(m[key] for m in per_pass) for key in per_pass[0]}
