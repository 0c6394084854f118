"""The graph edit semigroup: reduced edits, products, and their notation.

An edit is a partial assignment of signs to host edges: + means the edge
is forced present, - means forced absent. Applying an edit is idempotent
and later factors of a product never override earlier ones, which is the
left-regular-band structure everything downstream relies on:

    compose(x, x) == x            compose(compose(x, y), x) == compose(x, y)

Edits are stored in reduced form as a pair of disjoint bitmasks, so
structural equality and hashing are canonical. Total edits (every edge
signed) are the chambers and correspond bijectively to subgraph states.
The engine itself reads edits as mask arrays (`WeightedEdits.plus` and
`.minus`); an `Edit` is what the custom model's text parses into.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import EdgeOutOfRange, HostMismatch, ValidationError


class Sign(enum.Enum):
    PLUS = "+"
    MINUS = "-"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Edit:
    """Reduced edit: disjoint bitmasks of forced-present / forced-absent edges."""

    m: int
    plus: int = 0
    minus: int = 0

    def __post_init__(self) -> None:
        if self.plus & self.minus:
            raise ValidationError(
                f"plus and minus masks overlap on {self.plus & self.minus:#x}"
            )
        if self.plus < 0 or self.minus < 0 or (self.plus | self.minus) >> self.m:
            raise EdgeOutOfRange(
                f"edit touches edges outside the {self.m} host edges"
            )

    @classmethod
    def identity(cls, m: int) -> "Edit":
        return cls(m, 0, 0)

    @property
    def support_mask(self) -> int:
        return self.plus | self.minus

    @property
    def is_chamber(self) -> bool:
        return self.support_mask == (1 << self.m) - 1

    def sign_of(self, e: int) -> Sign | None:
        if not 0 <= e < self.m:
            raise EdgeOutOfRange(f"edge index {e} not in [0, {self.m})")
        if self.plus >> e & 1:
            return Sign.PLUS
        if self.minus >> e & 1:
            return Sign.MINUS
        return None

    def __repr__(self) -> str:
        return f"Edit({format_edit(self)!r}, m={self.m})" if self.support_mask else f"Edit(identity, m={self.m})"


def simple_edit(e: int, sign: Sign, m: int) -> Edit:
    """The edit forcing a single edge present (+) or absent (-)."""
    if not 0 <= e < m:
        raise EdgeOutOfRange(f"edge index {e} not in [0, {m})")
    bit = 1 << e
    return Edit(m, bit, 0) if sign is Sign.PLUS else Edit(m, 0, bit)


def compose(x: Edit, y: Edit) -> Edit:
    """Product xy: y acts first, x acts last, so x wins where both act."""
    if x.m != y.m:
        raise HostMismatch(f"edge counts differ: {x.m} != {y.m}")
    free = ~x.support_mask
    return Edit(x.m, x.plus | (y.plus & free), x.minus | (y.minus & free))


def format_edit(x: Edit) -> str:
    """Canonical textual form, e.g. '+0 -3 +5' (identity prints as '').

    Tokens are emitted in edge-index order; since each edge carries at most
    one sign in reduced form, token order does not affect the meaning.
    """
    parts = []
    for e in range(x.m):
        if x.plus >> e & 1:
            parts.append(f"+{e}")
        elif x.minus >> e & 1:
            parts.append(f"-{e}")
    return " ".join(parts)


def parse_edit(text: str, m: int) -> Edit:
    """Parse '+0 -3 +5' into a reduced edit.

    Tokens form a product read left to right with the rightmost factor
    applied first, so on a repeated edge the leftmost token wins.
    """
    result = Edit.identity(m)
    for token in text.split():
        sign = token[0]
        if sign not in "+-" or not (token[1:].isascii() and token[1:].isdigit()):
            raise ValidationError(f"bad edit token {token!r}, expected e.g. '+3' or '-0'")
        e = int(token[1:])
        result = compose(result, simple_edit(e, Sign.PLUS if sign == "+" else Sign.MINUS, m))
    return result
