"""Exact desk-scale engine for chamber-walk chains.

Builds transition matrices over subgraph states, evaluates the closed-form
stationary law and eigenvectors of the per-edge update chain, computes
spectra of compound chains through the support lattice, and derives mixing
bounds, total-variation decay, and hitting/commute times.

Every enumeration reads a distribution's mask arrays (`WeightedEdits.plus`,
`.minus`), and collections of states are sorted mask arrays: the recurrent
class, the chambers of a stationary law, the states of a chain. A chain is
kept as its nonzero cells: one step applies one weighted edit, so N states
have at most (edits * N) cells, all found in one vectorized pass over the
edits. The dense float64 matrix, for the compound `commute` solves, is
derived on first request; the dense exact matrix only when something
reads it. The stationary law of a compound chain needs no chain at all:
it is the law of the backward product of drawn edits, carried face by
face (`stationary_faces`).

Two numeric modes coexist: float64, and exact rationals whenever the driving
weights and edge probabilities are Fractions, carried as Python-int numerators
over one denominator; a Fraction is built only for a value returned or printed.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    STATE_CAP,
    CapExceeded,
    DegenerateGap,
    LengthMismatch,
    NotIrreducible,
    SupportNotCovering,
    ValidationError,
    check_cap,
)
from .hostgraph import EdgeSet, HostGraph, _new_masks, _popcount, find_masks, mask_dtype
from .lattice import SpectrumReport, _backward_step, closure, multiplicities
from .process import WeightedEdits, _is_exact, _kron, _per_edge_probabilities

SOLVE_RESIDUAL_TOL = 1e-8
FACE_BLOCK = 1 << 12  # faces per vectorized step of the face recursion
FACE_MERGE_ROWS = 1 << 18  # unmerged moves a support level holds before a merge


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic matrix over the states of an m-edge host, given by
    their ascending mask array `masks` and kept as its nonzero cells in
    row-major order: cell k sits at (rows[k], cols[k]) and holds
    numerators[k] / denominator. Exact chains hold Python-int numerators
    over a common denominator, float chains float64 values over 1.

    Derived on first use and cached: `to_float()` (the dense float64
    matrix) and `entries` (the dense matrix in the chain's own arithmetic,
    Fractions when exact). The dense views are read-only."""

    m: int
    masks: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    numerators: np.ndarray
    denominator: int = 1

    @property
    def size(self) -> int:
        return len(self.masks)

    @property
    def exact(self) -> bool:
        return self.numerators.dtype == object

    def index_of(self, state: EdgeSet | int) -> int:
        mask = state.mask_on(self.m) if isinstance(state, EdgeSet) else int(state)
        at = -1 if mask >> self.m else find_masks(self.masks, mask)
        if at < 0:
            raise ValidationError(f"state {mask:#x} is not in this chain")
        return at

    def _dense(self, zero, values: np.ndarray) -> np.ndarray:
        dense = np.full((self.size, self.size), zero, dtype=values.dtype)
        dense[self.rows, self.cols] = values
        dense.flags.writeable = False
        return dense

    @cached_property
    def float_values(self) -> np.ndarray:
        """The cell values as float64."""
        # int / int division rounds correctly, as float(Fraction) does
        return (self.numerators / self.denominator).astype(float)

    @cached_property
    def _dense_float(self) -> np.ndarray:
        return self._dense(0.0, self.float_values)

    def to_float(self) -> np.ndarray:
        return self._dense_float

    @cached_property
    def entries(self) -> np.ndarray:
        if not self.exact:
            return self._dense_float
        cells = np.array([Fraction(v, self.denominator) for v in self.numerators], dtype=object)
        return self._dense(Fraction(0), cells)

    def _transpose_gap(self, values: np.ndarray) -> tuple[np.ndarray, bool]:
        """|v_ij - v_ji| at each cell (a missing v_ji reads 0), and whether every cell is paired."""
        at = find_masks(self.rows * self.size + self.cols, self.cols * self.size + self.rows)
        paired = at >= 0
        return np.abs(values - np.where(paired, values[at], 0)), bool(paired.all())

    def row_sum_residual(self):
        if self.exact:
            sums = np.zeros(self.size, dtype=object)
            np.add.at(sums, self.rows, self.numerators)
            return Fraction(max(abs(s - self.denominator) for s in sums), self.denominator)
        return float(np.abs(np.bincount(self.rows, self.float_values, self.size) - 1.0).max())

    def left_apply(self, vectors) -> np.ndarray:
        """vectors @ P for one row vector or a stack of them, summed over the
        nonzero cells and left over `denominator`, so integer vectors stay ints."""
        terms = np.asarray(vectors)[..., self.rows] * self.numerators
        out = np.zeros(terms.shape[:-1] + (self.size,), dtype=terms.dtype)
        np.add.at(out.T, self.cols, terms.T)
        return out

    def right_apply(self, vectors) -> np.ndarray:
        """P @ v for each vector v, over the cells as `left_apply` takes v @ P."""
        terms = np.asarray(vectors)[..., self.cols] * self.numerators
        out = np.zeros(terms.shape[:-1] + (self.size,), dtype=terms.dtype)
        np.add.at(out.T, self.rows, terms.T)
        return out


def _explicit(dist: WeightedEdits, g: HostGraph) -> None:
    """Enumerations need every edit listed, on the host's edges."""
    if dist.m != g.m:
        raise ValidationError(f"distribution edge count {dist.m} != host {g.m}")
    if dist.is_lazy:
        raise CapExceeded("cannot enumerate a lazy distribution; use explicit mode")


def build_chain(
    dist: WeightedEdits,
    g: HostGraph,
    masks: np.ndarray | None = None,
    cap: int = STATE_CAP,
) -> TransitionMatrix:
    """Transition matrix of the walk driven by `dist` on the states `masks`:
    a strictly ascending mask array closed under every edit, such as the
    recurrent class `recurrent_class` enumerates or the chambers
    `stationary_faces` returns. None means all 2^m subsets of host edges,
    counted against `cap`. Each cell sums its edits' weights: exactly when
    every weight is rational, else in float64 in edit order.
    """
    _explicit(dist, g)
    if masks is None:
        check_cap(1 << g.m, cap, f"2^{g.m} states")
        masks = np.arange(1 << g.m, dtype=mask_dtype(g.m))
        masks.flags.writeable = False

    n = len(masks)
    if not (masks[1:] > masks[:-1]).all():
        raise ValidationError("chain states must be in ascending mask order")
    # edit-major: edit k, state i at k * n + i
    cols = find_masks(masks, ((masks | dist.plus[:, None]) & ~dist.minus[:, None]).ravel())
    if (cols < 0).any():
        raise ValidationError("an edit leaves the state set")
    cells, where = np.unique(np.tile(np.arange(n), len(dist.weights)) * n + cols, return_inverse=True)
    nums, den = dist.integer_weights if dist.is_exact else (np.array(dist.weights, float), 1)
    sums = np.zeros(len(cells), dtype=nums.dtype)
    np.add.at(sums, where, np.repeat(nums, n))  # each cell sums in edit order
    return TransitionMatrix(g.m, masks, cells // n, cells % n, sums, den)


def _covered(dist: WeightedEdits, g: HostGraph) -> int:
    """Union of the generator supports. Warns when it misses host edges,
    which then stay frozen at the initial state's values."""
    _explicit(dist, g)
    covered = int(np.bitwise_or.reduce(dist.support_groups[0]))
    full = (1 << g.m) - 1
    if covered != full:
        warnings.warn(
            f"generator supports cover only {covered:#x} of {full:#x}; "
            "uncovered edges are frozen at the initial state",
            SupportNotCovering,
            stacklevel=3,
        )
    return covered


def recurrent_class(
    dist: WeightedEdits,
    g: HostGraph,
    initial: EdgeSet | None = None,
    cap: int = STATE_CAP,
) -> np.ndarray:
    """The unique closed communicating class of the walk: states reachable
    after every edge in the covered region has been acted on at least once,
    closed under all generator applications, as a read-only ascending mask
    array of dtype `mask_dtype(g.m)`.

    The start is the product of all edits applied to `initial`, which lies
    in the class. A breadth-first search then applies each edit to a whole
    level; binary search in the sorted seen states drops the known ones,
    so only new states are sorted and merged in. The new states are counted
    against the cap as each edit's destinations arrive (`_new_masks`).

    If the generator supports do not cover the host edges, a warning is
    issued and the uncovered edges stay frozen at the initial state's values.
    A start from another host raises HostMismatch.
    """
    _covered(dist, g)
    start = initial.mask_on(g.m) if initial is not None else 0
    for plus, minus in zip(dist.plus[::-1].tolist(), dist.minus[::-1].tolist()):
        start = (start | plus) & ~minus
    seen = frontier = np.array([start], dtype=mask_dtype(g.m))
    while len(frontier):
        level = (((frontier | plus) & keep,) for plus, keep in zip(dist.plus, ~dist.minus))
        frontier, = _new_masks(level, seen, cap, "recurrent-class states")
        seen = np.insert(seen, np.searchsorted(seen, frontier), frontier)
    seen.flags.writeable = False
    return seen


def _is_recurrent(dist: WeightedEdits, g: HostGraph, state: int) -> bool:
    """Whether a walk started from `state` is in its recurrent class, i.e.
    some product of edits covering the covered edges agrees with it (Brown
    2000), found without enumeration: S grows from the empty set by the
    supports of the edits whose conflicts with the state lie inside S.
    Exact: in an agreeing product, the first factor to leave S agrees with
    the state outside S, so it grows S too; recurrent iff S covers. A lazy
    distribution's edits rewrite whole blocks, so its state is recurrent iff
    every block holds a number of edges that some edit leaves there."""
    if dist.is_lazy:
        lazy, block, sizes = dist.lazy, (1 << dist.lazy.width) - 1, set(dist.lazy.sizes.tolist())
        return all((state >> v * lazy.width & block).bit_count() in sizes for v in range(lazy.blocks))
    covered = _covered(dist, g)
    supports, _, rank = dist.support_groups
    s, reached = dist.plus.dtype.type(state), dist.plus.dtype.type(0)
    conflict, support = dist.plus & ~s | dist.minus & s, supports[rank]
    while True:
        grown = np.bitwise_or.reduce(support[(conflict & ~reached) == 0], initial=reached)
        if grown == reached:
            return int(reached) == covered
        reached = grown


# ---------------------------------------------------------------------------
# stationary laws
# ---------------------------------------------------------------------------


def stationary_closed_form(g: HostGraph, p, cap: int = STATE_CAP):
    """Product-form stationary law of the per-edge update chain over all
    2^m states in ascending mask order: each edge is independently present
    with its own probability.

    Returns a list of Fractions when p is rational, else a float array.
    """
    return phi(g.full_set(), g, p, cap)


def _stationary_floats(g: HostGraph, p, cap: int = STATE_CAP) -> np.ndarray:
    """`stationary_closed_form` as float64, with no Fraction built: the
    integer numerators over their denominator, an int / int division that
    rounds as float(Fraction) does."""
    factors, den = _phi_factors(g, p, cap)
    return (_kron([f[1] for f in factors]) / den).astype(float)


def stationary_faces(
    dist: WeightedEdits,
    g: HostGraph,
    initial: EdgeSet | None = None,
    cap: int = STATE_CAP,
    exact: bool | None = None,
) -> tuple[np.ndarray, object]:
    """Stationary law of the walk on its recurrent class, as the law of the
    infinite backward product x1 x2 x3 ... of drawn edits (Brown & Diaconis
    1998). A face F, a product of edits with support S, stays put with
    probability lambda_S, the weight of the edits inside S, and otherwise
    becomes F.y, which keeps F's signs and adds y's outside S, with
    probability w(y) / (1 - lambda_S). Supports only grow, so one pass over
    the faces by support size carries all the mass to the chambers. No
    chain or matrix is built, and memory is O(faces).

    Returns the recurrent states as `recurrent_class` does, a read-only
    ascending mask array, with their masses: Fractions when `exact`
    (default: whether the weights are rational), else a float64 array.
    Uncovered edges keep the initial state's values. Raises CapExceeded
    beyond `cap` faces, HostMismatch for a start from another host."""
    covered = _covered(dist, g)
    frozen = (initial.mask_on(g.m) if initial is not None else 0) & ~covered
    exact = dist.is_exact if exact is None else exact
    dtype, supports = mask_dtype(g.m), dist.supports
    w = dist.integer_weights[0] if exact else np.array([float(x) for x in dist.weights])
    one = np.array([Fraction(1)] if exact else [1.0], dtype=w.dtype)
    pending = {0: [(np.zeros(1, dtype), np.zeros(1, dtype), one)]}
    top, faces = covered.bit_count(), 0
    for size in range(top + 1):
        if size not in pending:
            continue
        plus, minus, mass = _merge_faces(pending.pop(size), g.m)
        faces += len(mass)
        check_cap(faces, cap, "face-recursion faces")
        if size == top:
            break
        for start in range(0, len(mass), FACE_BLOCK):
            block = slice(start, start + FACE_BLOCK)
            for level, chunk in _face_moves(plus[block], minus[block], mass[block], dist, supports, w):
                chunks = pending.setdefault(level, [])
                chunks.append(chunk)
                if sum(len(c[2]) for c in chunks[1:]) > max(FACE_MERGE_ROWS, len(chunks[0][2])):
                    chunks[:] = [_merge_faces(chunks, g.m)]
                    # bounds what waits
                    check_cap(faces + len(chunks[0][2]), cap, "face-recursion faces")
    masks = plus | frozen
    order = np.argsort(masks, kind="stable")
    masks = masks[order]
    masks.flags.writeable = False
    return masks, list(mass[order]) if exact else mass[order]


def _face_moves(plus, minus, mass, dist, supports, w):
    """Each face's moves to F.y over the edits y leaving its support,
    grouped by the support size they reach: (size, (plus, minus, mass))."""
    f, y = np.nonzero(supports & ~(plus | minus)[:, None])
    out = _sum_at(f, w[y], len(mass))
    moved = (*_backward_step(plus[f], minus[f], dist.plus[y], dist.minus[y]),
             mass[f] * w[y] / out[f])  # an exact mass is a Fraction, so Fraction * int / int
    reach = _popcount(moved[0] | moved[1])
    order = np.argsort(reach, kind="stable")
    levels, starts = np.unique(reach[order], return_index=True)
    for level, part in zip(levels.tolist(), np.split(order, starts[1:])):
        yield level, tuple(a[part] for a in moved)


def _merge_faces(chunks, m: int):
    """One row per distinct face, its masses summed in row order. The faces
    come out in the byte order of their little-endian (plus, minus) masks,
    the order every later float sum follows: the numeric order of the
    byteswapped masks, packed into one uint64 key up to 32 edges and
    lexsorted as two up to 64. Object masks order by plus << m | minus."""
    plus, minus, mass = (np.concatenate(a) for a in zip(*chunks))
    if plus.dtype != object and m > 32:
        order = np.lexsort((minus.byteswap(), plus.byteswap()))  # stable, as np.unique's return_index
        p, q = plus[order], minus[order]
        start = np.append(True, (p[1:] != p[:-1]) | (q[1:] != q[:-1]))
        first, inverse = order[start], np.empty(len(order), np.intp)
        inverse[order] = np.cumsum(start) - 1
    else:
        if plus.dtype == object:
            keys = plus << m | minus
        else:  # the top B = 8 ceil(m / 8) bits of each byteswapped mask hold its bytes
            low = 64 - 8 * -(-m // 8)
            keys = plus.byteswap() >> low << (64 - low) | minus.byteswap() >> low
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return plus[first], minus[first], _sum_at(inverse, mass, len(first))


def _sum_at(index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sums of values by index, in row order: exact for object arrays."""
    if values.dtype != object:
        return np.bincount(index, values, minlength=size)
    total = np.zeros(size, dtype=object)
    np.add.at(total, index, values)
    return total


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


def eigenvalues_simple(m: int, cap: int = STATE_CAP) -> SpectrumReport:
    """Closed-form spectrum of the per-edge update chain: one eigenvalue
    |T|/m per edge subset T, each with multiplicity one (so the value k/m
    appears C(m, k) times in the multiset), independent of the edge
    probabilities."""
    if m < 1:
        raise ValidationError("need at least one edge")
    check_cap(1 << m, cap, f"2^{m} states")
    masks = np.arange(1 << m, dtype=mask_dtype(m))
    flats = masks[np.lexsort((masks, _popcount(masks)))]
    flats.flags.writeable = False
    levels = [Fraction(k, m) for k in range(m + 1)]
    return SpectrumReport(flats, levels, _popcount(flats), np.ones(1 << m, dtype=np.int64))


def spectrum(
    dist: WeightedEdits,
    g: HostGraph,
    cap: int = STATE_CAP,
    masks: np.ndarray | None = None,
) -> SpectrumReport:
    """Spectrum of a compound chain: one eigenvalue per flat of the support
    lattice (the weight mass inside the flat), with multiplicities obtained
    from the chamber counts by back-substitution over the flat order.
    `masks` is the recurrent class, such as a chain's masks; None means
    `recurrent_class(dist, g, cap=cap)`."""
    _explicit(dist, g)
    lat = closure(dist, cap=cap)
    if masks is None:
        masks = recurrent_class(dist, g, cap=cap)
    return multiplicities(lat, masks, dist)


def block_spectrum(rates: Sequence, sizes: Sequence[int]) -> list[tuple[object, int, int]]:
    """Spectrum of a product of independent block refreshes: block b is
    drawn with total rate c_b = rates[b] and redrawn from a positive law on
    s_b = sizes[b] patterns, so the eigenvalues are sum(c_b, b in S) over the
    block subsets S, with multiplicity prod(s_b - 1, b not in S) (Levin,
    Peres & Wilmer, section 12.4). Returns (eigenvalue, multiplicity, subsets)
    per distinct value, ascending, the counts Python ints; blocks with equal
    (c_b, s_b) enter together, as binomial terms."""
    levels = {0: (1, 1)}
    for (c, s), k in Counter(zip(rates, sizes)).items():
        terms = [(j * c, math.comb(k, j) * (s - 1) ** (k - j), math.comb(k, j)) for j in range(k + 1)]
        grown = {}
        for level, (mult, count) in levels.items():
            for step, times, ways in terms:
                old_mult, old_count = grown.get(level + step, (0, 0))
                grown[level + step] = (old_mult + mult * times, old_count + count * ways)
        levels = grown
    return sorted((level, mult, count) for level, (mult, count) in levels.items())


# ---------------------------------------------------------------------------
# eigenvectors of the per-edge update chain
# ---------------------------------------------------------------------------


def _phi_factors(g: HostGraph, p, cap: int) -> tuple[list[np.ndarray], int]:
    """The per-edge 2x2 factors of phi (row: is e in T, column: is e in E) and
    their denominator: [[-d_e, d_e], [d_e - a_e, a_e]] over prod d_e, with
    (a_e, d_e) the Python ints of p_e = a_e/d_e when every p_e is rational,
    else (p_e, 1) as floats, which gives [[-1, 1], [1-p_e, p_e]] over 1."""
    probs = _per_edge_probabilities(g, p)
    check_cap(1 << g.m, cap, f"2^{g.m} states")
    exact = all(_is_exact(pe) for pe in probs)
    ratios = [(pe.numerator, pe.denominator) if exact else (float(pe), 1) for pe in probs]
    factors = [np.array([[-d, d], [d - a, a]], object if exact else float) for a, d in ratios]
    return factors, math.prod(d for _, d in ratios)


def phi(T: EdgeSet, g: HostGraph, p, cap: int = STATE_CAP):
    """Left eigenvector indexed by an edge subset T, over all 2^m states in
    ascending mask order. Entry at state E is

        (-1)^(#edges outside E and T) * prod(p_e, e in T and E)
                                      * prod(1-p_e, e in T not in E)

    and satisfies phi_T P = (|T|/m) phi_T; at T = all edges it equals the
    stationary law. The Kronecker product of row T_e of each per-edge
    factor; a list of Fractions when p is rational, else a float array."""
    factors, den = _phi_factors(g, p, cap)
    mask = T.mask_on(g.m)
    row = _kron([f[mask >> e & 1] for e, f in enumerate(factors)])
    return [Fraction(v, den) for v in row] if row.dtype == object else row


# ---------------------------------------------------------------------------
# total variation and mixing bounds
# ---------------------------------------------------------------------------


def tv_decay(
    tm: TransitionMatrix, initial: EdgeSet | int, pi, t_max: int
) -> np.ndarray:
    """Exact distance-to-stationarity curve for t = 0..t_max, starting from
    a point mass and iterating row-vector products over the nonzero cells.
    A curve too long to allocate raises CapExceeded."""
    if t_max < 0:
        raise ValidationError(f"t_max must be >= 0, got {t_max}")
    values = tm.float_values
    target = np.asarray(pi, dtype=float)
    if target.shape[0] != tm.size:
        raise LengthMismatch(f"pi has {target.shape[0]} entries, chain has {tm.size}")
    dist = np.zeros(tm.size)
    dist[tm.index_of(initial)] = 1.0
    try:
        curve = np.empty(t_max + 1)
    except (ValueError, MemoryError) as exc:
        raise CapExceeded(f"a mixing curve of {t_max + 1} rows cannot be allocated") from exc
    for t in range(t_max + 1):
        curve[t] = 0.5 * np.abs(dist - target).sum()
        if t < t_max:
            dist = np.bincount(tm.cols, dist[tm.rows] * values, minlength=tm.size)
    return curve


def brown_tv_bound(report: SpectrumReport, t: int) -> float:
    """Spectral upper bound on distance to stationarity from any chamber:
    sum of m_X * lambda_X^t over all flats X below the top (the last flat),
    with 0^0 = 1."""
    return float((report.multiplicities[:-1] * report._floats[:-1] ** t).sum())


def simple_tv_bound(m: int, t: int) -> float:
    """Closed-form decay envelope 2m(1-1/m)^t, valid once t >= 2m ln m."""
    return 2.0 * m * (1.0 - 1.0 / m) ** t


def _steps(bound: float) -> int:
    """A mixing bound as a whole step count; one past the float range
    (a huge c) is refused rather than rounded from infinity."""
    if not math.isfinite(bound):
        raise ValidationError(f"mixing bound of {bound} steps is not finite; choose a smaller c")
    return math.ceil(bound)


def _check_c(c: float) -> None:
    """The e^(-c) target of a mixing bound needs a finite c > 0."""
    if not (c > 0 and math.isfinite(c)):
        raise ValidationError(f"c must be positive and finite, got {c}")


def mixing_bound_simple(m: int, c: float) -> int:
    """Steps guaranteeing distance <= e^(-c) for the per-edge update chain:
    ceil(m(c + 2 ln m)). Natural logarithm."""
    _check_c(c)
    if m < 1:
        raise ValidationError("need at least one edge")
    return _steps(m * (c + 2.0 * math.log(m)))


def mixing_bound_compound(
    lambda_star: float, m: int, c: float, chamber_count: int | None = None
) -> int:
    """Steps guaranteeing distance <= e^(-c) for a compound chain started
    from a chamber: ceil((m ln 2 + c) / (1 - lambda_star)), sharpened to
    ceil((ln M + c) / (1 - lambda_star)) when the chamber count M is known."""
    _check_c(c)
    if not 0 <= lambda_star < 1:
        if lambda_star >= 1:
            raise DegenerateGap(f"second eigenvalue {lambda_star} leaves no gap")
        raise ValidationError(f"lambda_star {lambda_star} is outside [0, 1)")
    gap = 1.0 - float(lambda_star)
    if chamber_count is not None:
        if chamber_count < 1:
            raise ValidationError("chamber count must be positive")
        return _steps((math.log(chamber_count) + c) / gap)
    if m < 1:
        raise ValidationError("need at least one edge")
    return _steps((m * math.log(2.0) + c) / gap)


def moran_complete_mixing_bound(n: int, c: float) -> int:
    """Specialization for neighborhood resampling on the complete graph:
    ceil((n^2 ln n + c n) / 2)."""
    if n < 2:
        raise ValidationError("need at least two vertices")
    _check_c(c)
    return _steps((n * n * math.log(n) + c * n) / 2.0)


def intersection_mixing_bound(n: int, N: int, c: float) -> int:
    """Specialization for bipartite neighborhood reassignment:
    ceil(N n^2 ln 2 + c n)."""
    if n < 1 or N < 1:
        raise ValidationError("need n, N >= 1")
    _check_c(c)
    return _steps(N * n * n * math.log(2.0) + c * n)


# ---------------------------------------------------------------------------
# hitting and commute times
# ---------------------------------------------------------------------------


def _times_linear(coeffs: list, pairs) -> list:
    """[c_0..c_n] of sum_k c_k t^k (1-t)^(n-k), times q(1-t) + n*t for each
    (q, n) in pairs: each step only adds products, so positive inputs never cancel."""
    for q, n in pairs:
        coeffs = [q * a + n * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


@dataclass(frozen=True)
class _SumTerms:
    """The data of `_spectral_sum` that depends on the host and p alone: each
    edge's factors ((q_e, n_e lacking), (q_e, n_e held)), the weight of each
    basis member, and the common denominator when p is rational (else None)."""

    factors: list
    weights: list
    denominator: int | None


def _sum_terms(g: HostGraph, p) -> _SumTerms:
    """Built once per host and p; rational p_e make every factor an integer
    pair, q = a (d-a): 1/(1-p) = d a / q (lacking), 1/p = d (d-a) / q (held).
    In float mode q = 1.0, which changes no bit of the sum."""
    probs = _per_edge_probabilities(g, p)
    binomials = [math.comb(g.m - 1, k) for k in range(g.m)]
    if not all(_is_exact(pe) for pe in probs):
        factors = [((1.0, 1.0 / (1.0 - pe)), (1.0, 1.0 / pe)) for pe in map(float, probs)]
        return _SumTerms(factors, [1 / c for c in binomials], None)
    factors = [((a * (d - a), d * a), (a * (d - a), d * (d - a))) for a, d in
               ((pe.numerator, pe.denominator) for pe in probs)]
    lcm = math.lcm(*binomials)
    denominator = lcm * math.prod(lacking[0] for lacking, _ in factors)
    return _SumTerms(factors, [lcm // c for c in binomials], denominator)


def _spectral_sum(E: int, F: int, terms: _SumTerms, commute: bool):
    """The spectral sum between state masks E and F over edge subsets T
    grouped by j = m - |T|: sum_{j>=1}
    (m/j) [t^j] C(t) Z(t) = m * integral_0^1 C(t) Z(t) dt/t. With D = E xor F
    and a_e = (1-p_e)/p_e (edge held) or p_e/(1-p_e) (lacking), C multiplies
    1 + t a_e = (1-t) + t(1 + a_e) over the edges outside D, X and Y over D
    with E's and F's a_e, and Z = X + Y - 2(1-t)^|D| (commute) or
    Y - (1-t)^|D| (hitting E -> F). In the basis t^k (1-t)^(m-k), whose k-th
    member integrates to 1/(k C(m, k)) = 1/(m C(m-1, k-1)) against dt/t, every
    coefficient is positive ((1-t)^|D| only zeroes k = 0), so floats lose no
    precision."""
    factors, m, delta = terms.factors, len(terms.factors), E ^ F
    diff, shared = ([e for e in range(m) if (delta >> e & 1) == side] for side in (1, 0))
    x, y, c = ([factors[e][mask >> e & 1] for e in edges]
               for mask, edges in ((E, diff), (F, diff), (E, shared)))
    z = _times_linear([1], y)
    if commute:
        z = [yk + xk for yk, xk in zip(z, _times_linear([1], x))]
    z[0] = 0
    b = _times_linear(z, c)  # C(t) Z(t); float from the first float q on
    total = sum(bk * w for bk, w in zip(b[1:], terms.weights))
    if terms.denominator is not None:
        return Fraction(total, terms.denominator)
    if not math.isfinite(total):
        kind = "commute" if commute else "hitting"
        raise CapExceeded(f"float {kind} time overflows at m = {m} edges; use rational mode")
    return total


def _basis_sums(choices: list, terms: _SumTerms) -> np.ndarray:
    """The basis-weighted coefficient sum of `_spectral_sum` (k >= 1) of
    every product that takes one linear factor (q, n) per edge from that
    edge's list of choices. With c choices per edge, entry sum_e i_e c^e
    takes choice i_e of edge e. One edge-by-edge recursion, in the operation
    order of `_times_linear`, builds the coefficient rows of all but the
    last edge. The sum is linear, so the last factor q(1-t) + n t gives
    q * sum(rows (1-t)) + n * sum(rows t): times 1-t a row keeps its
    coefficient k, times t it moves to k + 1."""
    dtype = float if terms.denominator is None else object
    rows = np.ones((1, 1), dtype)
    for options in choices[:-1]:
        zero = np.zeros((len(rows), 1), dtype)
        low, high = np.hstack([rows, zero]), np.hstack([zero, rows])
        rows = np.concatenate([q * low + n * high for q, n in options])
    w = terms.weights
    by_q = sum(rows[:, k] * w[k - 1] for k in range(1, len(w)))
    by_n = sum(rows[:, k] * w[k] for k in range(len(w)))
    return np.concatenate([q * by_q + n * by_n for q, n in choices[-1]])


@dataclass(frozen=True)
class _CommuteTable:
    """Every commute time of the per-edge update chain, from the linearity
    of `_spectral_sum`: C X multiplies each edge's factor for its bit in E
    over all edges, C Y the same for F, and C (1-t)^|D| takes q_e(1-t) on
    the edges of D = E xor F. So commute(E, F) = S(E) + S(F) - 2 T(key),
    with S one sum per state and T one per key = sum_e 3^e code_e, code 0
    for an edge in neither state, 1 in both, 2 in one. The cells are exact
    integers over `denominator` when p is rational, else floats."""

    singles: np.ndarray
    shared: np.ndarray
    ternary: np.ndarray  # sum_e 3^e bit_e per mask
    denominator: int | None

    def rows(self, states: np.ndarray) -> np.ndarray:
        """Cells from each mask in `states` (rows) to every state (columns)."""
        E, F = states[:, None], np.arange(len(self.singles))
        key = self.ternary[E & F] + 2 * self.ternary[E ^ F]
        return self.singles[E] + self.singles - 2 * self.shared[key]


def _commute_table(g: HostGraph, p) -> _CommuteTable:
    """2^m + 3^m coefficient sums in place of one spectral sum per pair; in
    float mode, a cell that would overflow raises CapExceeded as
    `_spectral_sum` does (T(key) <= min(S(E), S(F)), so every cell is finite
    when twice every S is)."""
    terms = _sum_terms(g, p)
    with np.errstate(over="ignore"):
        singles = _basis_sums(terms.factors, terms)
    if terms.denominator is None and not np.isfinite(2 * singles).all():
        raise CapExceeded(f"float commute time overflows at m = {g.m} edges; use rational mode")
    shared = _basis_sums([(lack, held, (lack[0], 0)) for lack, held in terms.factors], terms)
    ternary = np.zeros(1, np.int64)
    for e in range(g.m):
        ternary = np.concatenate([ternary, ternary + 3**e])
    return _CommuteTable(singles, shared, ternary, terms.denominator)


def commute_time(E: EdgeSet, F: EdgeSet, g: HostGraph, p):
    """Expected round-trip time between two states of the per-edge update
    chain: the sum over the proper edge subsets T of

        m/(m-|T|) * prod(p_e(1-p_e), e not in T) * (phi_T(E)/pi(E) - phi_T(F)/pi(F))^2,

    computed in O(m^2) from products of per-edge linear polynomials, with
    no cap on m. Exact and symmetric in E and F; a Fraction when p is
    rational. A float result that overflows (it grows like 1/pi) raises
    CapExceeded."""
    return _spectral_sum(E.mask_on(g.m), F.mask_on(g.m), _sum_terms(g, p), commute=True)


def hitting_time_closed(E: EdgeSet, F: EdgeSet, g: HostGraph, p):
    """Expected steps from E until first visiting F, per-edge update chain,
    by the closed-form spectral sum computed as in `commute_time`: O(m^2),
    no cap on m, exact for rational p, CapExceeded on float overflow."""
    return _spectral_sum(E.mask_on(g.m), F.mask_on(g.m), _sum_terms(g, p), commute=False)


def _hitting_columns(tm: TransitionMatrix, targets: Sequence[int]) -> np.ndarray:
    """Expected steps from every state (rows) to each target index (columns),
    from dense solves for pi and for the target columns of the fundamental
    matrix Z = (I - P + 1 pi)^-1: H(i -> t) = (Z_tt - Z_it) / pi_t (Kemeny &
    Snell, Finite Markov Chains, ch. 4). A target outside the closed class
    (pi_t = 0) is never reached from it and raises NotIrreducible."""
    n, t = tm.size, np.asarray(targets, dtype=np.intp)
    A, b = tm.to_float().T.copy(), np.zeros(n)
    A.flat[:: n + 1] -= 1.0
    A[-1, :] = b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
        if np.abs(A @ pi - b).max() > SOLVE_RESIDUAL_TOL or pi.min() < -SOLVE_RESIDUAL_TOL:
            raise NotIrreducible("stationary solve left a large residual")
        pi = np.clip(pi, 0.0, None) / pi.sum()
        if (pi[t] <= 0).any():
            raise NotIrreducible("a hitting target lies outside the closed class")
        A = pi - tm.to_float()  # every row of 1 pi is pi
        A.flat[:: n + 1] += 1.0
        B = (np.arange(n)[:, None] == t).astype(float)
        Z = np.linalg.solve(A, B)
    except np.linalg.LinAlgError as exc:
        raise NotIrreducible("stationary or fundamental-matrix system is singular") from exc
    if np.abs(A @ Z - B).max(initial=0.0) > SOLVE_RESIDUAL_TOL * max(1.0, np.abs(Z).max(initial=0.0)):
        raise NotIrreducible("fundamental-matrix solve left a large residual")
    return (Z[t, np.arange(len(t))] - Z) / pi[t]


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def to_dot(tm: TransitionMatrix, g: HostGraph | None = None, labels: str = "hex") -> str:
    """DOT rendering of the state graph: one node per state, directed edges
    weighted by transition probability, self-loops suppressed."""
    if labels not in ("hex", "edges"):
        raise ValidationError(f"labels must be 'hex' or 'edges', got {labels!r}")
    if labels == "edges" and g is None:
        raise ValidationError("labels='edges' needs the host graph")

    if labels == "hex":
        names = [format(mask, "#x") for mask in tm.masks.tolist()]
    else:
        edge_names = list(enumerate(f"{u}-{v}" for u, v in g.edges))
        names = ["{" + ",".join(name for e, name in edge_names if mask >> e & 1) + "}"
                 for mask in tm.masks.tolist()]
    keep = (tm.rows != tm.cols) & (tm.numerators > 0)
    values, which = np.unique(tm.numerators[keep], return_inverse=True)  # each distinct label formatted once
    text = [str(Fraction(v, tm.denominator)) if tm.exact else f"{v:.6g}" for v in values.tolist()]
    lines = ["digraph states {"] + [f'  "{name}";' for name in names]
    lines += [f'  "{names[i]}" -> "{names[j]}" [label="{text[k]}"];'
              for i, j, k in zip(tm.rows[keep].tolist(), tm.cols[keep].tolist(), which.tolist())]
    lines.append("}")
    return "\n".join(lines) + "\n"
