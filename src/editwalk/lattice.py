"""Support lattice of an edit family, its eigenvalues, and multiplicities.

The supports of a generating family of edits, closed under union and
seeded with the empty set, form a join semilattice of "flats". Each flat X
indexes one eigenvalue of the chamber walk: the total weight of generators
whose support lies inside X. The chamber counts satisfy
c_X = sum over flats Y >= X of m_Y, so the multiplicities m_X follow by
back-substitution over the flat order, from the top flat down.

Chamber counts and multiplicities are exact integers throughout; eigenvalues
stay exact rationals whenever the driving weights are rational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .edits import Edit, compose
from .errors import STATE_CAP, BadRepresentative, HostMismatch, NotAFlat, ValidationError, check_cap
from .hostgraph import EdgeSet, mask_dtype


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


def closure(supports: Sequence[EdgeSet], cap: int = STATE_CAP) -> SupportLattice:
    """Union-closure of the given supports, seeded with the empty set.

    Raises CapExceeded when the closure would exceed `cap` flats.
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
                check_cap(len(witnesses) + 1, cap, "support-closure flats")
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
        keys = ("flat", "size", "eigenvalue", "multiplicity")
        return [dict(zip(keys, row)) for row in self.to_csv_rows()]


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


def multiplicities(
    lat: SupportLattice,
    masks: np.ndarray,
    representatives: Mapping[EdgeSet, Edit],
    dist=None,
) -> SpectrumReport:
    """Eigenvalue multiplicities by back-substitution over the flat order.

    `masks` is the recurrent class, as the mask array of dtype
    `mask_dtype(lat.m)` that `recurrent_class` returns; a mask with bits
    outside the host raises HostMismatch. Each state is a chamber: the total
    edit with + on the state's edges and - elsewhere. For each flat X, c_X
    counts chambers whose signs extend a representative edit with support
    X. Since c_X = sum over flats Y >= X of m_Y, and flats are sorted by
    size, one pass from the top gives every multiplicity:
    m_X = c_X - sum over flats Y > X of m_Y. The multiplicities sum back to
    the chamber count (the walk's dimension). When `dist` is given, each
    entry also carries its eigenvalue.
    """
    for flat in lat.flats:
        rep = representatives[flat]
        if rep.support_mask != flat.mask:
            raise BadRepresentative(
                f"representative support {rep.support_mask:#x} != flat {flat.mask:#x}"
            )
    if len(masks) and (masks.min() < 0 or int(masks.max()) >> lat.m):
        raise HostMismatch(f"state masks must lie on the lattice's host of {lat.m} edges")

    dtype = mask_dtype(lat.m)
    flats = np.array([x.mask for x in lat.flats], dtype=dtype)
    signs = np.array([representatives[x].plus for x in lat.flats], dtype=dtype)
    mults = np.zeros(len(flats), dtype=np.int64)
    for i in reversed(range(len(flats))):
        x = flats[i]
        # a chamber signs every edge, so it extends the representative
        # exactly when the two agree on which edges of X are present
        count = np.count_nonzero((masks & x) == signs[i])
        mults[i] = count - mults[i + 1 :][(flats[i + 1 :] & x) == x].sum()
        if mults[i] < 0:
            raise ValidationError(
                f"negative multiplicity {mults[i]} at flat {lat.flats[i].hex()}; "
                "mask array is not the full recurrent class"
            )

    masses = None if dist is None else _support_masses(dist)  # built once for every flat
    report = SpectrumReport(tuple(
        SpectrumEntry(flat, None if masses is None else eigenvalue(lat, flat, masses), int(mult))
        for flat, mult in zip(lat.flats, mults)
    ))
    if report.total_multiplicity != len(masks):
        raise ValidationError(
            f"multiplicities sum to {report.total_multiplicity}, "
            f"expected {len(masks)} chambers"
        )
    return report
