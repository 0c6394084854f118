"""Support lattice of an edit family, its eigenvalues, and multiplicities.

The supports of a generating family of edits, closed under union and
seeded with the empty set, form a join semilattice of "flats". Each flat X
indexes one eigenvalue of the chamber walk: the total weight of generators
whose support lies inside X. The chamber counts satisfy
c_X = sum over flats Y >= X of m_Y, so the multiplicities m_X follow by
back-substitution over the flat order, from the top flat down. The closure
and the eigenvalues read the edits' grouping `WeightedEdits.support_groups`.

Flats are masks, and each carries one representative: a product of
generators whose support is the flat, kept as its + mask. Any such product
serves, since c -> yc maps the chambers above one representative one to one
onto those above another of the same support (Brown 2000). The closure
builds the representatives as it goes, by the backward-product step
F.y = (F+ | y+ & ~S_F, F- | y- & ~S_F) that the face recursion also takes.

Chamber counts and multiplicities are exact integers throughout; eigenvalues
are exact rationals whenever the driving weights are rational, and otherwise
the exact sum of the float weights rounded once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import STATE_CAP, HostMismatch, ValidationError, check_cap
from .hostgraph import _popcount, find_masks


@dataclass(frozen=True, eq=False)
class SupportLattice:
    """Union-closed family of edge sets containing the empty set.

    `flats` is a read-only mask array sorted by (cardinality, mask), and
    `signs[i]` the + mask of a representative edit whose support is
    `flats[i]`; both have the dtype of the generators' masks.
    """

    m: int
    flats: np.ndarray
    signs: np.ndarray

    def __len__(self) -> int:
        return len(self.flats)


def _backward_step(plus, minus, y_plus, y_minus):
    """The product F.y of faces F with edits y (arrays that broadcast): F
    keeps its signs and y adds its own outside F's support."""
    free = ~(plus | minus)
    return plus | y_plus & free, minus | y_minus & free


def closure(dist, cap: int = STATE_CAP) -> SupportLattice:
    """Union-closure of the supports of `dist`'s edits, seeded with the
    empty set, with one representative per flat.

    Level by level: every flat found in the last level is multiplied by the
    first edit of each distinct support, and binary search in the sorted known
    flats drops the products whose support is already a flat. Raises
    CapExceeded when the closure would exceed `cap` flats, checked per level.
    """
    if not len(dist.plus):
        raise ValidationError("need at least one generator support")
    _, first, _ = dist.support_groups
    y_plus, y_minus = dist.plus[first], dist.minus[first]
    seen = plus = minus = np.zeros(1, y_plus.dtype)
    flats, signs = [seen], [plus]
    while len(plus):
        plus, minus = (a.ravel() for a in _backward_step(plus[:, None], minus[:, None], y_plus, y_minus))
        reach = plus | minus
        new = np.flatnonzero(find_masks(seen, reach) < 0)
        reach, keep = np.unique(reach[new], return_index=True)
        plus, minus = plus[new[keep]], minus[new[keep]]
        check_cap(len(seen) + len(reach), cap, "support-closure flats")
        seen = np.insert(seen, np.searchsorted(seen, reach), reach)
        flats.append(reach)
        signs.append(plus)
    flats, signs = np.concatenate(flats), np.concatenate(signs)
    order = np.lexsort((flats, _popcount(flats)))
    flats, signs = flats[order], signs[order]
    flats.flags.writeable = signs.flags.writeable = False
    return SupportLattice(dist.m, flats, signs)


def _eigenvalues(dist, flats: np.ndarray) -> tuple[list, np.ndarray]:
    """Total weight of the edits whose support lies inside each flat, as the
    distinct totals in ascending order and each flat's index into them. The
    sum is exact: a Fraction per total when every weight is rational, else
    the exact sum of the weights rounded once to a float, so a flat holding
    every edit reads exactly 1 whenever the weights sum to 1 exactly."""
    nums, den = dist.integer_weights
    supports, _, group = dist.support_groups
    mass = np.zeros(len(supports), dtype=object)
    np.add.at(mass, group, nums)
    totals, index = np.unique(((supports & ~flats[:, None]) == 0).astype(object) @ mass, return_inverse=True)
    return [Fraction(t, den) if dist.is_exact else t / den for t in totals.tolist()], index


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Per-flat eigenvalues and multiplicities of a chamber walk: `flats` a
    read-only mask array sorted by (size, mask), so the top flat comes last;
    `levels` the distinct eigenvalues, Fractions when exact, else floats;
    `index` each flat's position in `levels`; `multiplicities` int64. Each
    level is converted and formatted once, whatever the number of flats."""

    flats: np.ndarray
    levels: list
    index: np.ndarray
    multiplicities: np.ndarray

    @property
    def eigenvalues(self) -> np.ndarray:
        """One eigenvalue per flat: shared Fractions in an object array when
        exact, else float64."""
        return np.array(self.levels)[self.index]

    @property
    def total_multiplicity(self) -> int:
        return int(self.multiplicities.sum())

    @cached_property
    def _floats(self) -> np.ndarray:
        return np.array(self.levels, dtype=float)[self.index]

    def eigenvalue_multiset(self) -> list[float]:
        """All eigenvalues expanded by multiplicity, descending."""
        return np.sort(np.repeat(self._floats, self.multiplicities))[::-1].tolist()

    def by_value(self) -> list[tuple[float, int]]:
        """Aggregated (eigenvalue, total multiplicity), descending by value."""
        values = self._floats
        order = np.argsort(-values)
        values = values[order]
        # runs of equal values, found without np.unique (it imports numpy.ma)
        starts = np.flatnonzero(np.append(True, values[1:] != values[:-1]))
        totals = np.add.reduceat(self.multiplicities[order], starts)
        return list(zip(values[starts].tolist(), totals.tolist()))

    def second_largest(self) -> float:
        """Largest eigenvalue over the flats below the top of positive
        multiplicity (0.0 if none): a flat of multiplicity 0 is no eigenvalue."""
        if len(self.flats) < 2:
            raise ValidationError("spectrum has no flat below the top")
        return float(self._floats[:-1][self.multiplicities[:-1] > 0].max(initial=0.0))

    def to_csv_rows(self) -> list[tuple[str, int, str, int]]:
        return list(zip(
            map(hex, self.flats.tolist()),
            _popcount(self.flats).tolist(),
            np.array(list(map(str, self.levels)), dtype=object)[self.index].tolist(),
            self.multiplicities.tolist(),
        ))


def multiplicities(lat: SupportLattice, masks: np.ndarray, dist) -> SpectrumReport:
    """Eigenvalue multiplicities by back-substitution over the flat order.

    `masks` is the recurrent class, as the mask array of dtype
    `mask_dtype(lat.m)` that `recurrent_class` returns; a mask with bits
    outside the host raises HostMismatch. Each state is a chamber: the total
    edit with + on the state's edges and - elsewhere. For each flat X, c_X
    counts chambers whose signs extend the flat's representative. Since
    c_X = sum over flats Y >= X of m_Y, and flats are sorted by size, one
    pass from the top gives every multiplicity:
    m_X = c_X - sum over flats Y > X of m_Y. The multiplicities sum back to
    the chamber count (the walk's dimension). The report holds `lat.flats`
    themselves, each with its eigenvalue under `dist`.
    """
    if len(masks) and (masks.min() < 0 or int(masks.max()) >> lat.m):
        raise HostMismatch(f"state masks must lie on the lattice's host of {lat.m} edges")

    flats, signs = lat.flats, lat.signs
    mults = np.zeros(len(flats), dtype=np.int64)
    for i in reversed(range(len(flats))):
        x = flats[i]
        # a chamber signs every edge, so it extends the representative
        # exactly when the two agree on which edges of X are present
        count = np.count_nonzero((masks & x) == signs[i])
        mults[i] = count - mults[i + 1 :][(flats[i + 1 :] & x) == x].sum()
        if mults[i] < 0:
            raise ValidationError(
                f"negative multiplicity {mults[i]} at flat {int(x):#x}; "
                "mask array is not the full recurrent class"
            )

    report = SpectrumReport(flats, *_eigenvalues(dist, flats), mults)
    if report.total_multiplicity != len(masks):
        raise ValidationError(
            f"multiplicities sum to {report.total_multiplicity}, "
            f"expected {len(masks)} chambers"
        )
    return report
