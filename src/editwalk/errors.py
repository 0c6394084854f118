"""Exception and warning types shared across the package.

Validation errors (bad inputs, contract violations) subclass both
EditWalkError and ValueError so callers may catch either. Cap errors are
kept separate because the CLI maps them to a distinct exit code.
"""


class EditWalkError(Exception):
    """Base class for all library errors."""


class ValidationError(EditWalkError, ValueError):
    """Input violates a documented precondition."""


class VertexOutOfRange(ValidationError):
    pass


class SelfLoop(ValidationError):
    pass


class DuplicateEdge(ValidationError):
    pass


class EdgeOutOfRange(ValidationError):
    pass


class HostMismatch(ValidationError):
    """Operands refer to hosts with different edge counts."""


class NotAChamber(ValidationError):
    """Edit does not assign a sign to every host edge."""


class NotAFlat(ValidationError):
    pass


class BadRepresentative(ValidationError):
    """Representative edit's support does not equal its flat."""


class ProbabilityOutOfRange(ValidationError):
    """Edge probabilities must lie strictly between 0 and 1."""


class EmptyEdgeSet(ValidationError):
    pass


class BadDistribution(ValidationError):
    """Weights are not a probability distribution."""


class LengthMismatch(ValidationError):
    pass


class DegenerateGap(ValidationError):
    """Spectral gap is zero; the mixing bound is undefined."""


class CapExceeded(EditWalkError):
    """An enumeration would exceed the configured state/flat cap."""


class ClosureTooLarge(CapExceeded):
    pass


class NotIrreducible(EditWalkError):
    """Hitting-time system is singular; chain is not irreducible."""


class NotReversible(EditWalkError):
    """Detailed balance fails; spectral backend not applicable."""


class SupportNotCovering(UserWarning):
    """Generator supports do not cover the host edge set.

    Analysis proceeds on the covered sub-host; uncovered edges are frozen
    at their initial values.
    """
