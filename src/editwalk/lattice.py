"""Support lattice of an edit family, its Mobius function, and multiplicities.

The supports of a generating family of edits, closed under union and
seeded with the empty set, form a join semilattice of "flats". Each flat X
indexes one eigenvalue of the chamber walk: the total weight of generators
whose support lies inside X. Eigenvalue multiplicities follow by Mobius
inversion of chamber counts over the flat order.

Mobius values and chamber counts are exact integers throughout; eigenvalues
stay exact rationals whenever the driving weights are rational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .edits import Edit, compose, leq
from .errors import (
    BadRepresentative,
    ClosureTooLarge,
    NotAFlat,
    NotComparable,
    ValidationError,
)
from .hostgraph import EdgeSet

DEFAULT_CLOSURE_CAP = 1 << 20


@dataclass(frozen=True)
class SupportLattice:
    """Union-closed family of edge sets containing the empty set.

    flats are sorted by (cardinality, bitmask) for deterministic iteration.
    witnesses maps each flat's mask to a tuple of generator indices whose
    supports union to that flat (empty tuple for the bottom).
    """

    m: int
    flats: tuple[EdgeSet, ...]
    generator_supports: tuple[EdgeSet, ...]
    witnesses: dict[int, tuple[int, ...]]
    _index: dict[int, int] = field(repr=False, default_factory=dict)
    _mobius: dict[tuple[int, int], int] = field(repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        self._index.update({x.mask: i for i, x in enumerate(self.flats)})

    @property
    def top(self) -> EdgeSet:
        return self.flats[-1]

    @property
    def bottom(self) -> EdgeSet:
        return self.flats[0]

    def __len__(self) -> int:
        return len(self.flats)

    def __contains__(self, x: EdgeSet) -> bool:
        return x.m == self.m and x.mask in self._index

    def index_of(self, x: EdgeSet) -> int:
        if x.m != self.m or x.mask not in self._index:
            raise NotAFlat(f"{x!r} is not a flat of this lattice")
        return self._index[x.mask]

    def _mobius_row(self, i: int) -> None:
        # mu(X, Y) for all flats Y >= X, filled in cardinality order so every
        # strictly intermediate Z is already available. `mobius` fills each
        # row once, on first use.
        x = self.flats[i].mask
        above = [j for j in range(len(self.flats)) if self.flats[j].mask & x == x]
        for j in above:
            y = self.flats[j].mask
            if y == x:
                self._mobius[(i, j)] = 1
                continue
            total = 0
            for k in above:
                z = self.flats[k].mask
                if z != y and z & y == z:
                    total += self._mobius[(i, k)]
            self._mobius[(i, j)] = -total


def closure(
    supports: Sequence[EdgeSet], cap: int = DEFAULT_CLOSURE_CAP
) -> SupportLattice:
    """Union-closure of the given supports, seeded with the empty set.

    Raises ClosureTooLarge when the closure would exceed `cap` flats.
    """
    if not supports:
        raise ValidationError("need at least one generator support")
    m = supports[0].m
    for s in supports:
        if s.m != m:
            raise ValidationError("generator supports disagree on host edge count")

    witnesses: dict[int, tuple[int, ...]] = {0: ()}
    frontier = [0]
    for i, s in enumerate(supports):
        if s.mask not in witnesses:
            witnesses[s.mask] = (i,)
            frontier.append(s.mask)

    # Saturate: union every known flat with every generator support until no
    # new masks appear. Generator-wise closure suffices because every union
    # of flats is a union of generator supports.
    while frontier:
        x = frontier.pop()
        for i, s in enumerate(supports):
            u = x | s.mask
            if u not in witnesses:
                if len(witnesses) >= cap:
                    raise ClosureTooLarge(
                        f"support closure exceeds cap of {cap} flats"
                    )
                witnesses[u] = witnesses[x] + (i,)
                frontier.append(u)

    flats = tuple(
        EdgeSet(m, mask)
        for mask in sorted(witnesses, key=lambda v: (v.bit_count(), v))
    )
    return SupportLattice(
        m=m,
        flats=flats,
        generator_supports=tuple(supports),
        witnesses=witnesses,
    )


def mobius(lat: SupportLattice, x: EdgeSet, y: EdgeSet) -> int:
    """Mobius function of the flat order: mu(X, X) = 1 and for X < Y,
    mu(X, Y) = -sum of mu(X, Z) over flats X <= Z < Y."""
    i = lat.index_of(x)
    j = lat.index_of(y)
    if x.mask & ~y.mask:
        raise NotComparable(f"{x!r} is not contained in {y!r}")
    if (i, j) not in lat._mobius:
        lat._mobius_row(i)
    return lat._mobius[(i, j)]


def _support_masses(dist) -> Mapping[int, object]:
    """Accept a WeightedEdits or a plain {support mask: weight} mapping."""
    masses = getattr(dist, "support_masses", None)
    if callable(masses):
        return masses()
    if isinstance(dist, Mapping):
        return dist
    raise ValidationError(f"cannot read support masses from {type(dist).__name__}")


def eigenvalue(lat: SupportLattice, x: EdgeSet, dist):
    """Total weight of generators whose support lies inside the flat X.

    The bottom flat collects only weight carried by identity-support edits;
    the top flat always evaluates to the full mass 1.
    """
    lat.index_of(x)  # raises NotAFlat
    exact = True
    acc = 0
    for mask, w in _support_masses(dist).items():
        if mask & ~x.mask == 0:
            acc += w
            if not isinstance(w, (Fraction, int)):
                exact = False
    return Fraction(acc) if exact else float(acc)


@dataclass(frozen=True)
class SpectrumEntry:
    flat: EdgeSet
    eigenvalue: object  # Fraction in exact mode, float otherwise
    multiplicity: int


@dataclass(frozen=True)
class SpectrumReport:
    """Per-flat eigenvalues and multiplicities of a chamber walk."""

    entries: tuple[SpectrumEntry, ...]

    @property
    def total_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entries)

    @property
    def top(self) -> EdgeSet:
        return max(self.entries, key=lambda e: len(e.flat)).flat

    def eigenvalue_multiset(self) -> list[float]:
        """All eigenvalues expanded by multiplicity, descending."""
        values: list[float] = []
        for e in self.entries:
            values.extend([float(e.eigenvalue)] * e.multiplicity)
        values.sort(reverse=True)
        return values

    def by_value(self) -> list[tuple[float, int]]:
        """Aggregated (eigenvalue, total multiplicity), descending by value."""
        agg: dict[float, int] = {}
        for e in self.entries:
            agg[float(e.eigenvalue)] = agg.get(float(e.eigenvalue), 0) + e.multiplicity
        return sorted(agg.items(), key=lambda kv: -kv[0])

    def second_largest(self) -> float:
        """Largest eigenvalue over flats other than the top."""
        top_mask = self.top.mask
        rest = [float(e.eigenvalue) for e in self.entries if e.flat.mask != top_mask]
        if not rest:
            raise ValidationError("spectrum has no flat below the top")
        return max(rest)

    def to_csv_rows(self) -> list[tuple[str, int, str, int]]:
        return [
            (e.flat.hex(), len(e.flat), str(e.eigenvalue), e.multiplicity)
            for e in self.entries
        ]

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "flat": e.flat.hex(),
                "size": len(e.flat),
                "eigenvalue": str(e.eigenvalue),
                "multiplicity": e.multiplicity,
            }
            for e in self.entries
        ]


def representatives_for(
    lat: SupportLattice, generators: Sequence[Edit]
) -> dict[EdgeSet, Edit]:
    """One edit per flat with support equal to that flat, built by composing
    the closure witnesses. The bottom flat maps to the identity edit."""
    if len(generators) != len(lat.generator_supports):
        raise ValidationError(
            "generator list does not match the lattice's support list"
        )
    reps: dict[EdgeSet, Edit] = {}
    for flat in lat.flats:
        edit = Edit.identity(lat.m)
        for i in lat.witnesses[flat.mask]:
            edit = compose(edit, generators[i])
        if edit.support_mask != flat.mask:
            raise BadRepresentative(
                f"witness composition has support {edit.support_mask:#x}, "
                f"expected {flat.mask:#x}"
            )
        reps[flat] = edit
    return reps


def chamber_count_above(
    flat: EdgeSet, representative: Edit, chambers: Sequence[Edit]
) -> int:
    """Number of chambers extending the representative's signs on the flat."""
    if representative.support_mask != flat.mask:
        raise BadRepresentative(
            f"representative support {representative.support_mask:#x} "
            f"!= flat {flat.mask:#x}"
        )
    return sum(1 for c in chambers if leq(representative, c))


def multiplicities(
    lat: SupportLattice,
    chambers: Sequence[Edit],
    representatives: Mapping[EdgeSet, Edit],
    dist=None,
) -> SpectrumReport:
    """Eigenvalue multiplicities by Mobius inversion of chamber counts.

    For each flat X, c_X counts chambers whose signs extend a representative
    edit with support X; then m_X = sum over flats Y >= X of mu(X, Y) c_Y.
    The multiplicities sum back to the chamber count (the walk's dimension).
    When `dist` is given, each entry also carries its eigenvalue.
    """
    counts: dict[int, int] = {}
    for flat in lat.flats:
        counts[flat.mask] = chamber_count_above(flat, representatives[flat], chambers)

    entries = []
    for flat in lat.flats:
        mult = 0
        for other in lat.flats:
            if flat.mask & ~other.mask == 0:
                mult += mobius(lat, flat, other) * counts[other.mask]
        if mult < 0:
            raise ValidationError(
                f"negative multiplicity {mult} at flat {flat.hex()}; "
                "chamber list is not the full chamber set"
            )
        lam = eigenvalue(lat, flat, dist) if dist is not None else None
        entries.append(SpectrumEntry(flat, lam, mult))

    report = SpectrumReport(tuple(entries))
    if report.total_multiplicity != len(chambers):
        raise ValidationError(
            f"multiplicities sum to {report.total_multiplicity}, "
            f"expected {len(chambers)} chambers"
        )
    return report
