"""Exact Buchsbaum-Rim, mixed, associated, and Koszul multiplicities for
finitely generated submodules of free modules over polynomial rings, with
reduction and joint-reduction deciders."""

__version__ = "0.2.0"

from .errors import (  # noqa: F401
    BrimError,
    ComputationLimit,
    DegreeDeficiency,
    InfiniteColength,
    InternalError,
    InvalidDegree,
    InvalidInput,
    NoStabilization,
    NotDeskCase,
    NotMember,
    NotMultiplicitySystem,
    NotSubmodule,
    ResourceLimit,
    SuperficialSamplingFailed,
    SupportOffOrigin,
    Undefined,
    WindowTooSmall,
    ZeroModule,
)
from .groebner import (  # noqa: F401
    ColengthReport,
    GeneratorSet,
    GroebnerBasis,
    buchberger,
    colength,
    contains,
    normal_form,
)
from .hilbert import (  # noqa: F401
    Evaluator,
    LengthQuery,
    LengthTable,
    MultiplicityResult,
    assoc_mixed,
    ebr,
    finite_difference,
    length,
    mixed,
    table,
    tilde_ebr,
)
from .jointred import (  # noqa: F401
    CriterionReport,
    Decision,
    SuperficialCandidate,
    Verdict,
    converse_criterion,
    is_joint_reduction,
    is_reduction,
    mn_joint_reduction_witness,
    rees_equivalence_check,
    risler_teissier_check,
    sample_superficial,
    verify_superficial,
)
from .koszul import GMultResult, KoszulSpec, chain_dim, g_mult_et  # noqa: F401
from .poly import (  # noqa: F401
    DEGREVLEX_X,
    Monomial,
    MonomialOrder,
    Polynomial,
    format_polynomial,
    parse_polynomial,
)
from .rees import (  # noqa: F401
    GradedSubmodule,
    PrimarityCertificate,
    RingSpec,
    SubmoduleSpec,
    mprimary_check,
    product,
)
from .ring import QQ, PrimeField, Rationals, field_from_config  # noqa: F401
