"""Exception taxonomy shared by all ehv modules.

Every error raised on a mathematical precondition failure derives from
EHVError so the CLI can map the whole family to a structured exit-2 report.
"""


class EHVError(Exception):
    """Base class for all library errors."""


class NonConvergent(EHVError):
    """An infinite product/series was requested outside its convergence region."""


class TruncationFailure(EHVError):
    """A truncation policy was exhausted before the tail bound was met."""


class DomainError(EHVError):
    """An argument lies outside the function's domain (e.g. z = 0)."""


class PoleHit(EHVError):
    """Evaluation point is within guard distance of a pole lattice."""


class NotTerminating(EHVError):
    """No parameter of a sum matches the required q^(-N) termination form."""


class BalancingViolation(EHVError):
    """A series parameter set violates its balancing constraint."""


class ConstraintViolation(EHVError):
    """An explicit parameter constraint (e.g. a fixed product) is violated."""


class DegenerateConfiguration(EHVError):
    """Parameters collide in a way that makes an identity's terms singular."""


class SingularStep(EHVError):
    """A recurrence step has a vanishing leading coefficient."""


class UnsupportedFamily(EHVError):
    """The requested operation is not defined for this integrand family."""


class DomainViolation(EHVError):
    """An integrand parameter set fails its inequality checklist."""


class InadmissibleContour(EHVError):
    """The unit circle does not separate the integrand's pole sequences."""


class ResourceLimit(EHVError):
    """A node or work budget (EHV_MAX_NODES) would be exceeded."""
