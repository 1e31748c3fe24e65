"""Exception taxonomy shared by all brim modules.

Exit-code mapping used by the CLI: InvalidInput and its subclasses are user
errors (exit 2), ComputationLimit and its subclasses are resource/stabilization
failures (exit 3), InternalError and anything else is an internal failure
(exit 4).
"""


class BrimError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(BrimError):
    """Malformed or inconsistent user input."""


class Undefined(InvalidInput):
    """Quantity undefined for the given argument (e.g. bidegree of 0)."""


class InvalidDegree(InvalidInput):
    """An element's t-degree does not match the required slice degree."""


class NotSubmodule(InvalidInput):
    """Claimed containment U <= E fails a membership check."""


class NotMember(InvalidInput):
    """An element is not contained in the module it was paired with."""


class ZeroModule(InvalidInput):
    """Operation requires a nonzero module."""


class NotDeskCase(InvalidInput):
    """Criterion only implemented for k = d+p-1 with m-primary data."""


class NotMultiplicitySystem(InvalidInput):
    """Koszul input whose degree-t quotient slice has infinite length."""


class WindowTooSmall(InvalidInput):
    """Finite-difference order exceeds the available table window."""


class InfiniteColength(InvalidInput):
    """Quotient by the submodule is not finite dimensional."""


class SupportOffOrigin(InvalidInput):
    """Finite colength but the quotient is not supported only at the origin."""


class ComputationLimit(BrimError):
    """Base for desk-scale resource and stabilization failures."""


class ResourceLimit(ComputationLimit):
    """Generator count, monomial count or window size exceeded a cap."""


class NoStabilization(ComputationLimit):
    """Finite differences did not become constant within the window."""


class DegreeDeficiency(ComputationLimit):
    """Top-order differences vanish although the length table is nonzero."""


class SuperficialSamplingFailed(ComputationLimit):
    """No sampled candidate passed superficiality verification."""


class InternalError(BrimError):
    """An internal invariant failed: a bug in brim, not in the input."""
