"""Exception and warning types shared across the package.

Validation errors (bad inputs, contract violations) subclass both
EditWalkError and ValueError so callers may catch either. Cap errors are
kept separate because the CLI maps them to a distinct exit code.
Every enumeration counts its items against a cap through `check_cap`, and
`check_keys` refuses a config key the loader does not read.
"""

STATE_CAP = 1 << 20


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


def check_cap(count: int, cap: int, what: str) -> None:
    """Raise CapExceeded when `count` enumerated items exceed `cap`; `what`
    names the items, with their count when it is known ("2^21 states")."""
    if count > cap:
        raise CapExceeded(f"{what} exceed the cap of {cap}")


def check_keys(obj: dict, path: str, accepted) -> None:
    """Raise ValidationError naming the first key of the config object at
    `path` ("" at the top level) that is not in `accepted`."""
    for key in obj:
        if key not in accepted:
            name = f"{path}.{key}" if path else key
            raise ValidationError(f"{name}: unknown key, expected {', '.join(accepted)}")


class NotIrreducible(EditWalkError):
    """Hitting-time system is singular; chain is not irreducible."""


class SupportNotCovering(UserWarning):
    """Generator supports do not cover the host edge set.

    Analysis proceeds on the covered sub-host; uncovered edges are frozen
    at their initial values.
    """
