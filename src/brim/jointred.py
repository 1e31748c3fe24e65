"""Superficial elements, reduction and joint-reduction deciders, and the
multiplicity-equality criterion checkers.

The deciders are honest semidecision procedures: the defining equalities are
quantified over all large exponents, so a single verified exponent certifies
a True verdict (the equality propagates upward by multiplying through), while
exhaustion of the window yields InconclusiveWithinWindow together with the
last concrete counterexample monomial.

Superficiality is verified by counting lengths: the colon condition holds
at a cell exactly when multiplication by the candidate is injective on U/V,
where U is the intersection bound and V the expected colon value, and that
holds exactly when U/V and its image have the same length.  Four length
cells decide each cell; only a failing cell runs exact linear algebra on
its finite-dimensional slice quotients, for the counterexample.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dc_field
from enum import Enum
from functools import partial
from typing import Optional, Sequence

from .errors import (
    InfiniteColength,
    InternalError,
    InvalidDegree,
    InvalidInput,
    NotDeskCase,
    NotMember,
    NotSubmodule,
    ResourceLimit,
    SuperficialSamplingFailed,
    SupportOffOrigin,
    ZeroModule,
)
from .groebner import normal_form
from .hilbert import (
    STAB_WIDTH,
    Evaluator,
    LengthQuery,
    LengthTable,
    MultiplicityResult,
    build_slice_submodule,
    check_type_vector,
    ebr,
    mixed,
    stabilized_difference,
)
from .linalg import PairedSpan
from .poly import Monomial, Polynomial, compositions_desc, t_monomials
from .rees import GradedSubmodule, SubmoduleSpec, mprimary_check

SAMPLING_ATTEMPTS = 5
N1_SPAN = 2
OTHER_MAX = 1
Q_MAX = 1
# the largest slice quotient, in standard monomials, on which
# ``_injective_on_quotient`` eliminates for a counterexample
WITNESS_QUOTIENT_CAP = 10_000
# the parameter-span cells computed and checked against the closed form
N_CHECK = 3


class Verdict(Enum):
    TRUE = "true"
    FALSE = "false"
    INCONCLUSIVE = "inconclusive-within-window"


@dataclass
class Decision:
    verdict: Verdict
    witness_n0: Optional[int] = None
    counterexample: Optional[str] = None
    window: dict = dc_field(default_factory=dict)


@dataclass
class SuperficialCandidate:
    element: Polynomial
    seed: object
    coefficients: tuple


def _window(c1: int) -> dict:
    """The superficial window as reported: n1 in [c1, c1 + N1_SPAN], the
    remaining exponents in [0, OTHER_MAX], q in [0, Q_MAX]."""
    return {"c1": c1, "n1_span": N1_SPAN, "other_max": OTHER_MAX, "q_max": Q_MAX}


@dataclass
class CriterionReport:
    lhs_mult: MultiplicityResult
    rhs_mult: MultiplicityResult
    heights_ok: bool
    radical_ok: bool
    decision: Decision
    consistent: bool
    candidates: tuple = ()
    values_by_seed: dict = dc_field(default_factory=dict)


def _report(lhs, rhs, decision, consistent, **extra) -> CriterionReport:
    # heights_ok and radical_ok are reported true, not computed (ROADMAP
    # item 5: make the converse criterion's hypotheses real checks)
    return CriterionReport(lhs, rhs, True, True, decision, consistent, **extra)


def sample_superficial(modules: Sequence[GradedSubmodule], seed) -> SuperficialCandidate:
    """Deterministic random field-linear combination of the first module's
    minimal generators, in reduced-basis order, or of its reduced basis when
    that is not x-homogeneous.  A non-minimal basis element would make every
    combination x-inhomogeneous (x2^3*t1 in the basis of (x1^2+x2^2, x1x2)t1).
    Either set is linearly independent (minimal generators even modulo m
    times the module; basis elements by distinct leading monomials), and no
    coefficient is zero, so the combination is nonzero."""
    if not modules:
        raise InvalidInput("need at least one module")
    e1 = modules[0]
    gens = e1.gens
    minimal = e1.minimal_gens
    if minimal is not None:
        minimal = set(minimal)
        gens = [g for g in gens if g in minimal]
    if not gens:
        raise ZeroModule("cannot sample from the zero module")
    rng = random.Random(f"superficial:{seed}")
    fld = e1.ring.field
    coeffs = tuple(fld.random_nonzero(rng) for _ in gens)
    elem = Polynomial.zero(e1.ring)
    for c, g in zip(coeffs, gens):
        elem = elem + g.scale(c)
    return SuperficialCandidate(element=elem, seed=seed, coefficients=coeffs)


def _injective_on_quotient(x, u_sub, v_sub, w_sub):
    """Is multiplication by x injective on U/V as a map into A'/W?

    Returns None when injective, else a witness polynomial in U \\ V whose
    x-multiple lies in W.  Precondition: the cells of V and W are counted
    finite, with at most ``WITNESS_QUOTIENT_CAP`` standard monomials each.
    ``verify_superficial`` calls it on failing cells only, which have
    l(A/V) > 0: were V the whole slice, U = V and xU <= W would make both
    counts 0.  The columns are the normal forms' monomial codes, and their order
    does not change the witness: the preimages that enlarged the image span
    have independent images, so the kernel vector is the new preimage minus
    the one combination of them whose images give its image.
    """
    ring = u_sub.ring
    span = PairedSpan(ring.field)
    xshifts = [
        Monomial((0,) * ring.p, tuple(1 if j == i else 0 for j in range(ring.d)))
        for i in range(ring.d)
    ]
    queue = [normal_form(g, v_sub.basis) for g in u_sub.gens]
    while queue:
        rep = queue.pop(0)
        if rep.is_zero():
            continue
        image = normal_form(x * rep, w_sub.basis)
        status, kernel = span.add(image._terms, rep._terms)
        if status == "kernel":
            coerce = ring.field.coerce
            return Polynomial._raw(rep.pack, {c: coerce(v) for c, v in kernel.items()})
        if status == "new":
            for shift in xshifts:
                queue.append(normal_form(rep.mul_term(shift, 1), v_sub.basis))
    return None


def verify_superficial(
    x: Polynomial,
    modules: Sequence[GradedSubmodule],
    c1: int = 1,
    quotient_elems: Sequence[Polynomial] = (),
    evaluator: Optional[Evaluator] = None,
) -> Decision:
    """Check the defining colon equality of a superficial element over the
    window of ``_window(c1)``; True means the equality held at every tested
    cell.  With P = E2^r2...Ek^rk, a cell (n1, r, q) tests that
    multiplication by x is injective from U/V into A'/W, where
    V = E1^(n1-1) P S_q, W = E1^n1 P S_q and U = E1^c1 P S_slack lies in
    V's slice.  Cells with n1 <= c1 + 1 have U/V = 0 and are skipped.

    Since V <= U and xV <= W, x maps U/V onto (xU + W)/W, and it is
    injective exactly when l(A/V) - l(A/U) = l(A'/W) - l(A'/(W + xU)).  The
    four lengths are Evaluator cells, so they share its memo with every
    other cell of the computation; W + xU is W's cell with x times the
    ``Evaluator.generators`` of E1^c1 P added to the quotient elements.
    Only a cell whose two counts differ builds the slices of U, V and W,
    once the counts of V and W are within ``WITNESS_QUOTIENT_CAP``, and
    linear algebra on them gives the counterexample; finding none there is
    an internal error."""
    modules = tuple(modules)
    if not modules:
        raise InvalidInput("need at least one module")
    if c1 < 0:
        raise InvalidInput("c1 must be non-negative")
    e1 = modules[0]
    if not x.is_zero() and x.tdeg_if_homogeneous() != e1.tdeg:
        raise InvalidDegree(
            f"candidate t-degree {x.tdeg_if_homogeneous()} != module degree {e1.tdeg}"
        )
    if not x.is_zero() and not e1.contains(x):
        raise NotMember("candidate is not an element of the first module")
    for m in modules:
        m.primarity()
    evaluator = evaluator or Evaluator()
    quotient_elems = tuple(quotient_elems)

    def query(exps, q, elems=()):
        return LengthQuery(modules, exps, q, quotient_elems + elems)

    rest_ranges = [range(0, OTHER_MAX + 1)] * (len(modules) - 1)
    # no cell with n1 <= c1 + 1 can fail: at n1 = c1 + 1, U is V, and at
    # n1 = c1, U = E1^c1 P S_(q-e) lies in V = E1^(c1-1) P S_q
    for n1 in range(c1 + 2, max(c1, 1) + N1_SPAN + 1):
        for rest in itertools.product(*rest_ranges):
            for q in range(0, Q_MAX + 1):
                # U sits in V's slice: e * (n1 - 1 - c1) + q above E1^c1 P
                slack = e1.tdeg * (n1 - 1 - c1) + q
                cell = {"n": [n1, *rest], "q": q}
                where = f"superficial cell n={cell['n']}, q={q}"
                u = query((c1,) + rest, slack)
                v, w = query((n1 - 1,) + rest, q), query((n1,) + rest, q)
                try:
                    v_len = evaluator.length(v)
                    domain = v_len - evaluator.length(u)
                    x_u = () if x.is_zero() else tuple(
                        x * g for g in evaluator.generators(modules, u.exponents)
                    )
                    w_len = evaluator.length(w)
                    image = w_len - evaluator.length(query(w.exponents, q, x_u))
                    if domain == image:
                        continue
                    for slice_query, n in ((v, v_len), (w, w_len)):
                        if n > WITNESS_QUOTIENT_CAP:
                            raise ResourceLimit(
                                f"slice quotient of t-degree {slice_query.ambient_tdeg()} "
                                f"has {n} standard monomials (cap {WITNESS_QUOTIENT_CAP})"
                            )
                    witness = _injective_on_quotient(
                        x, *(build_slice_submodule(c, evaluator) for c in (u, v, w))
                    )
                except (InfiniteColength, ResourceLimit) as exc:
                    raise type(exc)(f"{where}: {exc}") from exc
                if witness is None:
                    raise InternalError(
                        f"{where}: l(U/V) = {domain} but l((xU + W)/W) = {image}, "
                        "and linear algebra finds no kernel"
                    )
                return Decision(
                    verdict=Verdict.FALSE,
                    witness_n0=None,
                    counterexample=str(witness),
                    window={**_window(c1), "failed_cell": cell},
                )
    return Decision(verdict=Verdict.TRUE, witness_n0=c1, counterexample=None, window=_window(c1))


def _check_n_max(n_max: int):
    """A decider's window must test at least one exponent: with none, the
    verdict would be inconclusive with no counterexample."""
    if n_max < 1:
        raise InvalidInput("n_max must be >= 1")


def _elements_of(xs, modules) -> tuple:
    """(xs, modules) as tuples, once there is one nonzero element per
    module, of that module's t-degree and inside it."""
    xs = tuple(xs)
    modules = tuple(modules)
    if len(xs) != len(modules) or not xs:
        raise InvalidInput("need one element per module")
    for x, m in zip(xs, modules):
        if x.is_zero() or x.tdeg_if_homogeneous() != m.tdeg:
            raise InvalidDegree("element t-degree does not match its module")
        if not m.contains(x):
            raise NotMember(f"{x} is not in its module")
    return xs, modules


def _first_exponent(missing_at, n_max: int) -> Decision:
    """True at the first n <= n_max where ``missing_at(n)`` is None, else
    inconclusive with the last counterexample it returned."""
    window = {"n_max": n_max}
    counterexample = None
    for n in range(1, n_max + 1):
        counterexample = missing_at(n)
        if counterexample is None:
            return Decision(Verdict.TRUE, n, None, window)
    return Decision(Verdict.INCONCLUSIVE, None, counterexample, window)


def _first_missing(basis, gens):
    """Leading monomial, as text, of the normal form of the first of gens
    outside the span of the basis; None when all are inside."""
    for g in gens:
        r = normal_form(g, basis)
        if not r.is_zero():
            lt, _ = r.leading_term()
            return str(Polynomial.from_monomial(basis.ring, lt, 1))
    return None


def is_reduction(
    u: GradedSubmodule,
    e: GradedSubmodule,
    n_max: int = 6,
    evaluator: Optional[Evaluator] = None,
) -> Decision:
    """Decide whether U is a reduction of E: E^(n+1) = U E^n at some n <= n_max.

    One verified exponent suffices (multiplying the equality by E propagates
    it); exhaustion returns InconclusiveWithinWindow with the last uncovered
    monomial, except that an infinite-colength U against an m-primary E is a
    permanent failure and yields False.
    """
    _check_n_max(n_max)
    if u.ring != e.ring or u.tdeg != e.tdeg:
        raise InvalidInput("reduction requires submodules of the same slice")
    if not all(map(e.contains, u.gens)):
        raise NotSubmodule("U is not contained in E")
    return _reduction(u, e, n_max, evaluator or Evaluator())


def _reduction(u, e, n_max: int, evaluator: Evaluator) -> Decision:
    """``is_reduction``'s decision for U <= E, once the inputs are checked."""
    e_primary = True
    try:
        e.primarity()
    except (InfiniteColength, SupportOffOrigin):
        e_primary = False
    power_of = partial(evaluator.product_of_powers, (u, e))

    def missing_at(n):
        return _first_missing(power_of((1, n)).basis, power_of((0, n + 1)).gens)

    if e_primary and not u.colength_report().finite:
        # a reduction of an m-primary module must itself be m-primary
        window = {"n_max": n_max, "reason": "infinite colength"}
        return Decision(Verdict.FALSE, None, missing_at(1), window)
    decision = _first_exponent(missing_at, n_max)
    n = decision.witness_n0
    if n is not None:
        nxt = missing_at(n + 1)
        if nxt is not None:
            raise InternalError(
                f"reduction equality E^{n + 1} = U E^{n} holds but "
                f"E^{n + 2} = U E^{n + 1} fails at {nxt}"
            )
    return decision


def _joint_lhs(xs, modules, n, evaluator):
    """Generators of [sum_i x_i * prod_{j != i} E_j] * (prod E)^(n-1): x_i
    times the ``Evaluator.generators`` of the product over the modules with
    exponent n-1 at i, n elsewhere."""
    gens = []
    for i, x in enumerate(xs):
        exps = (n,) * i + (n - 1,) + (n,) * (len(modules) - i - 1)
        gens.extend(x * g for g in evaluator.generators(modules, exps))
    return GradedSubmodule(SubmoduleSpec(modules[0].ring, n * sum(m.tdeg for m in modules), gens))


def is_joint_reduction(
    xs: Sequence[Polynomial],
    modules: Sequence[GradedSubmodule],
    n_max: int = 6,
    evaluator: Optional[Evaluator] = None,
) -> Decision:
    """Decide the joint-reduction equality
    (sum_i x_i prod_{j != i} E_j)(prod E)^(n-1) = (prod E)^n at some
    n <= n_max; True at the first verified n (the equality propagates)."""
    _check_n_max(n_max)
    xs, modules = _elements_of(xs, modules)
    for m in modules:
        m.primarity()
    evaluator = evaluator or Evaluator()

    def missing_at(n):
        lhs = _joint_lhs(xs, modules, n, evaluator)
        rhs = evaluator.product_of_powers(modules, (n,) * len(modules))
        return _first_missing(lhs.basis, rhs.gens)

    return _first_exponent(missing_at, n_max)


def mn_joint_reduction_witness(
    xs: Sequence[Polynomial],
    n: int,
    n_max: int = 6,
) -> Decision:
    """Joint-reduction decision for the sequence ((x_i) + m^n F); the gate
    requires the submodule generated by the x_i to be m-primary in F."""
    _check_n_max(n_max)
    if n < 1:
        raise InvalidInput("n must be >= 1")
    xs = tuple(xs)
    if not xs:
        raise InvalidInput("need at least one element")
    ring = xs[0].ring
    for x in xs:
        if x.is_zero() or x.tdeg_if_homogeneous() != 1:
            raise InvalidDegree("elements must be t-homogeneous of degree 1")
    span = GradedSubmodule(SubmoduleSpec(ring, 1, xs))
    mprimary_check(span)  # propagate gate failures
    mnf_gens = [
        Polynomial.from_monomial(ring, Monomial(tuple(pos), tuple(xe)), 1)
        for pos in t_monomials(ring, 1)
        for xe in compositions_desc(n, ring.d)
    ]
    modules = [
        GradedSubmodule(SubmoduleSpec(ring, 1, [x] + mnf_gens)) for x in xs
    ]
    return is_joint_reduction(xs, modules, n_max)


def rees_equivalence_check(
    u: GradedSubmodule,
    e: GradedSubmodule,
    n_max: int = 6,
) -> CriterionReport:
    """Reduction iff multiplicity equality, for m-primary U <= E in F."""
    _check_n_max(n_max)
    if u.tdeg != 1 or e.tdeg != 1:
        raise InvalidInput("the equivalence check requires degree-1 submodules")
    if not all(map(e.contains, u.gens)):
        raise NotSubmodule("U is not contained in E")
    u.primarity()
    e.primarity()
    evaluator = Evaluator()
    lhs = ebr(u, evaluator)
    rhs = ebr(e, evaluator)
    decision = _reduction(u, e, n_max, evaluator)
    consistent = (lhs.value == rhs.value) == (decision.verdict is Verdict.TRUE)
    return _report(lhs, rhs, decision, consistent)


def _parameter_ebr(span: GradedSubmodule, evaluator: Evaluator) -> MultiplicityResult:
    """e_BR of a span E of D = d+p-1 elements that passed the primarity
    gate, a parameter module.  Over a Cohen-Macaulay ring
    l(F^n/E^n) = l(F/E) * C(n+D-1, D) for every n >= 1 (Buchsbaum-Rim,
    Trans. AMS 111, 1964).  The cells n <= N_CHECK are computed, and one
    that differs from the closed form is an internal error; the rest of the
    window ``ebr`` would stop at, n <= D + STAB_WIDTH + 1, is the closed
    form.  So the value (the colength), certificate and table are those of
    ``ebr``."""
    D = span.ring.d + span.ring.p - 1
    colength = span.primarity().colength
    hi = D + STAB_WIDTH + 1
    values = {}
    for n in range(1, hi + 1):
        closed = values[(n,)] = colength * math.comb(n + D - 1, D)
        if n <= N_CHECK:
            computed = evaluator.length(LengthQuery((span,), (n,)))
            if computed != closed:
                raise InternalError(
                    f"parameter span cell n={n}: computed length {computed}, "
                    f"closed form l(F/E)*C(n+D-1, D) = {closed}"
                )
    table = LengthTable(("n1",), ((1, hi),), values)
    value, certificate = stabilized_difference(table, (D,))
    return MultiplicityResult(value, {"type": "ebr"}, certificate, table)


def converse_criterion(
    xs: Sequence[Polynomial],
    modules: Sequence[GradedSubmodule],
    n_max: int = 6,
) -> CriterionReport:
    """Multiplicity equality predicts joint reduction (and inequality predicts
    its absence); only the m-primary case with k = d+p-1 is implemented."""
    _check_n_max(n_max)
    xs, modules = _elements_of(xs, modules)
    ring = modules[0].ring
    k = len(xs)
    if k != ring.d + ring.p - 1:
        raise NotDeskCase(f"k = {k} != d+p-1 = {ring.d + ring.p - 1}")
    if any(m.tdeg != 1 for m in modules):
        raise NotDeskCase("all modules must sit inside the degree-1 slice")
    span = GradedSubmodule(SubmoduleSpec(ring, 1, xs))
    try:
        span.primarity()
        for m in modules:
            m.primarity()
    except (InfiniteColength, SupportOffOrigin) as exc:
        raise NotDeskCase(f"primarity gate failed: {exc}") from exc
    evaluator = Evaluator()
    lhs = _parameter_ebr(span, evaluator)
    rhs = mixed(modules, (1,) * k, evaluator)
    decision = is_joint_reduction(xs, modules, n_max, evaluator)
    if lhs.value == rhs.value:
        consistent = decision.verdict is Verdict.TRUE
    else:
        consistent = decision.verdict is not Verdict.TRUE and (
            decision.counterexample is not None
        )
    return _report(lhs, rhs, decision, consistent)


def _sample_verified_sequence(e_list, seed, evaluator):
    last_failure = "no attempt made"
    for attempt in range(SAMPLING_ATTEMPTS):
        derived = f"{seed}:{attempt}"
        candidates = []
        elems = []
        for j in range(len(e_list)):
            cand = sample_superficial(e_list[j:], f"{derived}#{j}")
            decision = verify_superficial(
                cand.element, e_list[j:], quotient_elems=tuple(elems), evaluator=evaluator
            )
            if decision.verdict is not Verdict.TRUE:
                last_failure = f"superficiality failed at position {j}: {decision.counterexample}"
                break
            candidates.append(cand)
            elems.append(cand.element)
        else:
            span = GradedSubmodule(SubmoduleSpec(e_list[0].ring, 1, elems))
            try:
                span.primarity()
                return candidates, span
            except (InfiniteColength, SupportOffOrigin) as exc:
                # global colengths only equal local lengths for quotients
                # supported at the origin, so such a sample cannot be used
                last_failure = f"sampled span fails the primarity gate: {exc}"
    raise SuperficialSamplingFailed(
        f"no verified superficial sequence after {SAMPLING_ATTEMPTS} attempts (seed {seed});"
        f" last failure: {last_failure}"
    )


def risler_teissier_check(
    modules: Sequence[GradedSubmodule],
    dvec: Sequence[int],
    seeds: Sequence = (0, 1, 2),
) -> CriterionReport:
    """Mixed multiplicity equals the multiplicity of a verified superficial
    sequence, exactly and independently of the seed."""
    modules, dvec = check_type_vector(modules, dvec)
    if any(m.tdeg != 1 for m in modules):
        raise InvalidInput("the check requires degree-1 submodules")
    evaluator = Evaluator()
    lhs = mixed(modules, dvec, evaluator)  # gates every module, in order
    e_list = [m for m, d in zip(modules, dvec) for _ in range(d)]
    all_candidates = []
    values = {}
    rhs = None
    for seed in seeds:
        candidates, span = _sample_verified_sequence(e_list, seed, evaluator)
        rhs = _parameter_ebr(span, Evaluator())
        values[str(seed)] = rhs.value
        all_candidates.extend(candidates)
    vals = set(values.values())
    consistent = len(vals) == 1 and vals == {lhs.value}
    # every sampled element was verified with verify_superficial's c1 = 1
    decision = Decision(
        verdict=Verdict.TRUE if consistent else Verdict.INCONCLUSIVE,
        witness_n0=1,
        counterexample=None,
        window={**_window(1), "seeds": [str(s) for s in seeds]},
    )
    return _report(
        lhs, rhs, decision, consistent, candidates=tuple(all_candidates), values_by_seed=values
    )
