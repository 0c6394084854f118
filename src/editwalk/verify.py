"""Self-checking oracle suite behind the CLI's verify command.

Each check tests a closed form or the given law against the chain's
nonzero cells, with no linear solve, and reports its residual against one
fixed tolerance: 1e-12 for the identities (row sums, the stationary fixed
point and the coupling bound on its error, detailed balance, Q's symmetry,
the bound on phi_T P - lambda_T phi_T); 1e-10 for the bound on the psi
rows' Gram matrix less I; 1e-8 for the eigenvalue multiset and the hitting
and commute times; 0 for the counts. Checks return results rather than
raise, so the CLI prints a full table; rational mode gives exact zeros. No
eigensolve and no dense matrix runs on the simple and intersection chains:
their cells show they are products of block refreshes (`_block_product`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_
from typing import NamedTuple

import numpy as np

from .errors import STATE_CAP, CapExceeded, ValidationError
from .hostgraph import EdgeSet, HostGraph, _first_rows, find_masks
from .lattice import SupportLattice, closure, multiplicities
from .process import WeightedEdits, _common_denominator, _is_exact, _kron, _per_edge_probabilities, _ratios
from .spectral import (
    TransitionMatrix,
    _basis_sums,
    _phi_factors,
    _spectral_sum,
    _sum_at,
    _sum_terms,
    block_spectrum,
    build_chain,
    eigenvalues_simple,
    stationary_faces,
)

# Power sums run mod a prime below PRIME_BOUND: N residue products of
# (p - 1)^2 < 2^34 each sum below 2^53, exact in float64, for N < p.
PRIME_BOUND = 1 << 17
U = np.finfo(float).eps / 2  # unit roundoff of float64
IMAG_TOL = 1e-8  # the largest imaginary residue the general eigensolve may leave


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.name}: residual {self.residual:.3e} (tol {self.tolerance:.1e}){extra}"


def _result(name: str, residual, tol: float, detail: str = "") -> CheckResult:
    r = float(abs(residual))
    return CheckResult(name, r, tol, r <= tol, detail)


def check_row_stochastic(tm: TransitionMatrix) -> CheckResult:
    return _result("row_stochastic", tm.row_sum_residual(), 1e-12)


def _law(tm: TransitionMatrix, nums: np.ndarray, den: int) -> tuple:
    """The chain and pi = nums / den in one arithmetic, as (chain, n, D, pi P - pi),
    with pi_i P_ij = n_i N_ij / D for the cell numerators N and the gap over D:
    `tm` and pi's Python-int numerators when both are exact, else the chain's
    float cells and pi as float64, D = 1."""
    if not (tm.exact and nums.dtype == object):
        tm = TransitionMatrix(tm.m, tm.masks, tm.rows, tm.cols, tm.float_values)
        nums, den = np.asarray(nums / den, float), 1  # int / int rounds as float(Fraction) does
    return tm, nums, den * tm.denominator, tm.left_apply(nums) - tm.denominator * nums


def check_stationary_fixed_point(law: tuple) -> CheckResult:
    """pi P = pi over the nonzero cells, from `law = _law(...)`."""
    chain, _, den, gap = law
    return _result("stationary_fixed_point", np.abs(gap).max() / den, 1e-12, "exact" if chain.exact else "")


def _coupling_time(dist: WeightedEdits):
    """H_k / w_min >= E[T], T the first step at which the drawn supports cover
    the covered edges: k supports drawn with the least weight w_min each come later."""
    supports, _, rank = dist.support_groups
    nums, den = dist.integer_weights if dist.is_exact else (np.array(dist.weights, float), 1)
    mass = _sum_at(rank, nums, len(supports))[supports != 0]
    return sum(Fraction(1, j) for j in range(1, len(mass) + 1)) * den / min(mass, default=1)


def check_stationary_vs_solve(dist: WeightedEdits, law: tuple) -> CheckResult:
    """||pi - pi*||_1 <= ||r||_1 E[T] + |1 - sum pi| for the chain's law pi* and
    r = pi P - pi (`law = _law(...)`): walks driven by the same
    edits meet once the drawn supports cover the covered edges, so P^s contracts
    by P(T > s) (Brown & Diaconis 1998; Seneta, ch. 3), E[T] <= `_coupling_time`.
    A float ||r||_1 gains (c + 1) u sum pi, c the most cells in one column."""
    chain, nums, den, gap = law
    norm = np.abs(gap).sum() + (0 if chain.exact else (np.bincount(chain.cols).max() + 1) * U * nums.sum())
    mass = abs(den - chain.denominator * nums.sum())  # |1 - sum pi| over den
    return _result("stationary_vs_linear_solve", (norm * _coupling_time(dist) + mass) / den, 1e-12)


def check_detailed_balance(law: tuple, gaps: np.ndarray) -> CheckResult:
    """max |pi_i P_ij - pi_j P_ji| over the nonzero cells (a pair with both
    cells zero balances), from `law = _law(...)` and its cell gaps `gaps`."""
    chain, _, den, _ = law
    return _result("detailed_balance", gaps.max() / den, 1e-12, "exact" if chain.exact else "")


def check_eigenvector_residuals(factors, report, product: BlockProduct | None) -> CheckResult:
    """phi_T P = lambda_T phi_T for every edge subset T, read off the m
    per-edge factors `factors = _phi_factors(g, p, cap)` (phi_T the
    Kronecker product of rows f_e[T_e]), the report's eigenvalues and the
    chain's block product P = K + E, whose blocks must be the m single
    edges, with no 2^m x 2^m array. K is then the Kronecker sum of
    M_e = [[b_e, a_e], [b_e, a_e]], whose left eigenvectors f_e[0] and
    f_e[1] belong to 0 and a_e + b_e, so for c the midpoint of E's range and
    s_T = sum(a_e + b_e, e in T) + c,

        phi_T P - lambda_T phi_T = (s_T - lambda_T) phi_T + phi_T (E - c I)
            + sum_e (phi_T with f_e[T_e] replaced by its residual under M_e).

    The residual is the sup-norm bound max_T |s_T - lambda_T| ||phi_T||
    + sum_e r_e prod_(e' != e) ||f_e'|| + radius ||phi||, r_e the larger
    factor residual of edge e. Python ints over one denominator when p and
    the chain are exact (detail `exact`), else float64 plus 4 m u ||phi||:
    phi's float entries carry m - 1 roundings, which P (column sums at most
    2) and lambda <= 1 move by at most 3 (m - 1) u ||phi||; the rest covers
    the factor residuals' own rounding."""
    rows, den = factors
    if product is None or product.blocks != [1 << e for e in range(len(rows))]:
        return CheckResult("eigenvector_residual", math.inf, 1e-12, False, "the chain is no two-state product")
    rates = np.array([v[::-1] for v in product.values], object)  # (a_e, b_e) over scale
    levels = reduce(lambda s, c: np.concatenate([s, s + c]), rates.sum(axis=1), np.zeros(1, object))  # s_T
    levels, radius, scale, exact = levels + product.shift, product.radius, product.den, product.exact
    exact = exact and rows[0].dtype == object
    nums, L = _common_denominator(report.levels)  # the report's level at each mask, over L
    claimed = np.empty(len(levels), object)
    claimed[report.flats] = nums[report.index]
    if not exact:  # float64, each factor over its d_e = f_e[0, 1]
        rates, levels = ((x / scale).astype(float) for x in (rates, levels))
        radius, scale, claimed, L = radius / scale, 1, (claimed / L).astype(float), 1
        rows, den = [(f / f[0, 1]).astype(float) for f in rows], 1
    norms = [np.abs(f).max(axis=1) for f in rows]  # ||f_e[0]||, ||f_e[1]||
    widest = [n.max() for n in norms]
    worst = []
    for f, (a, b) in zip(rows, rates.tolist()):
        moved = f @ np.array([[b, a], [b, a]], f.dtype)
        moved[1] -= (a + b) * f[1]
        worst.append(np.abs(moved).max())
    eigen = (np.abs(levels * L - claimed * scale) * _kron(norms)).max()
    factor = sum(r * math.prod(widest[:e] + widest[e + 1:]) for e, r in enumerate(worst))
    bound = eigen + L * (factor + radius * math.prod(widest))
    if exact:
        return _result("eigenvector_residual", Fraction(bound, scale * L * den), 1e-12, "exact")
    return _result("eigenvector_residual", bound + 4 * len(rows) * U * math.prod(widest), 1e-12)


def check_orthonormality(factors) -> CheckResult:
    """max |Gram - I| of the psi rows, from the factors: psi_T is phi_T
    scaled by prod(sqrt(p_e (1 - p_e)), e not in T) in l2(1/pi), pi the
    Kronecker product of the rows f_e[1], so the Gram matrix is the
    Kronecker product of the 2x2 Grams G_e = S_e F_e diag(1/pi_e) F_e^T S_e,
    F_e = f_e / d_e with d_e = f_e[0, 1], S_e = diag(sqrt(v_e), 1) and
    v_e = f_e[1, 0] f_e[1, 1] / d_e^2. Each entry of (kron G_e) - I is at
    most prod(1 + delta_e) - 1, delta_e = max |G_e - I|, which reads
    v_e H_00 - 1, H_11 - 1 and sqrt(v_e H_01^2) off H = F_e diag(1/pi_e) F_e^T:
    rational p gives Fractions, and a square root only when H_01 is not 0."""
    rows, _ = factors
    exact = rows[0].dtype == object
    bound = 1
    for f in rows:
        (x0, x1), (y0, y1) = f.tolist()
        d = Fraction(x1) if exact else x1
        corner = (y1 * x0 * x0 + y0 * x1 * x1) / d ** 3  # v_e H_00
        cross = y0 * y1 * (x0 + x1) ** 2 / d ** 4  # v_e H_01^2
        bound *= 1 + max(abs(corner - 1), abs((y0 + y1) / d - 1), math.sqrt(cross) if cross else 0)
    return _result("orthonormality", bound - 1, 1e-10, "exact" if exact else "")


def check_q_symmetry(law: tuple, gaps: np.ndarray) -> CheckResult:
    """max |Q - Q^T| for Q = D^(1/2) P D^(-1/2), over the nonzero cells: the
    gaps |pi_i P_ij - pi_j P_ji| of `law = _law(...)`, scaled by
    1/sqrt(pi_i pi_j) only where they are not 0, so an exact law gives an
    exact 0. A float law that underflows to 0 has no D^(-1/2): residual inf."""
    chain, nums, *_ = law
    if not (chain.exact or nums.all()):
        detail = f"the law underflows to 0 at {np.sum(nums == 0)} of {len(nums)} states; use rational mode"
        return _result("q_symmetry", math.inf, 1e-12, detail)
    hit = np.flatnonzero(gaps)
    i, j = chain.rows[hit], chain.cols[hit]
    if not chain.exact:  # over sqrt(pi_i) sqrt(pi_j), whose product may underflow
        root = np.sqrt(nums)
        return _result("q_symmetry", (gaps[hit] / root[i] / root[j]).max(initial=0.0), 1e-12)
    # (gap / (den d))^2 / (pi_i pi_j) = gap^2 / (d^2 n_i n_j), d the chain's denominator
    worst = max(map(Fraction, gaps[hit] ** 2, nums[i] * nums[j] * chain.denominator ** 2), default=0)
    return _result("q_symmetry", math.sqrt(worst) if worst < 1e300 else math.inf, 1e-12)


def check_spectrum_multiset(report, tm: TransitionMatrix, product: BlockProduct | None) -> CheckResult:
    """The report's eigenvalue multiset against the chain's, by one of three
    proofs. A block product (`_block_product(tm)`) on a float chain, or with
    radius 0 on an exact one, needs no eigensolve: by Weyl the chain's
    sorted spectrum lies within radius / den of the product's sorted levels
    (`block_spectrum`), so the residual is the largest gap between the two
    sorted multisets plus radius / den, one Fraction (detail `product`), or
    1 when the report counts another number of eigenvalues; an exact chain
    passes only at 0 and prints 1 otherwise. Any other exact chain is proved
    by `_spectrum_certificate` (residual 0, or 1 and what failed), any other
    float chain compared by `_dense_fallback`."""
    if product is not None and (not tm.exact or product.radius == 0):
        nums, L = _common_denominator(report.levels)
        claimed = np.array(sorted(np.repeat(nums[report.index] * product.den, report.multiplicities)), object)
        levels = block_spectrum([sum(v) for v in product.values], [len(v) for v in product.values])
        proved = np.repeat(np.array([(level + product.shift) * L for level, _, _ in levels], object),
                           [k for _, k, _ in levels])
        residual = 1 if len(claimed) != len(proved) else Fraction(
            np.abs(claimed - proved).max(initial=0) + product.radius * L, product.den * L)
        if not tm.exact:
            return _result("spectrum_multiset", residual, 1e-8, "product")
        fault = None if residual == 0 else "the multiplicities differ from the product's"
    elif not tm.exact:
        return _dense_fallback(report, tm)
    else:
        fault = _spectrum_certificate(report, tm)
    return CheckResult("spectrum_multiset", float(fault is not None), 1e-8, fault is None,
                       "exact" if fault is None else f"exact: {fault}")


def _dense_fallback(report, tm: TransitionMatrix) -> CheckResult:
    """The largest gap between the report's sorted multiset and the float
    chain's, from the general dense eigensolve `eigvals`, whose imaginary
    residue above IMAG_TOL fails: the chamber-walk matrices are
    diagonalizable with real spectrum. The reversible chains (the simple
    and intersection models) are block products, which need no eigensolve."""
    claimed = np.sort(np.asarray(report.eigenvalue_multiset(), dtype=float))
    if len(claimed) != tm.size:
        return _result("spectrum_multiset", math.inf, 1e-8, f"{len(claimed)} eigenvalues reported, {tm.size} states")
    values = np.linalg.eigvals(tm.to_float())
    imag = np.abs(values.imag).max()
    if imag > IMAG_TOL:
        return _result("spectrum_multiset", math.inf, 1e-8, f"the eigenvalues have imaginary parts up to {imag:.3e}")
    return _result("spectrum_multiset", np.abs(np.sort(values.real) - claimed).max(), 1e-8)


class BlockProduct(NamedTuple):
    """A chain P = K + E read off its cells by `_block_product`, every value
    a Python int over `den`: `blocks` holds the blocks' edge masks, and
    `values[b]` holds c_b nu_b(y) at each pattern y of block b in ascending
    order; E's diagonal spans [shift - radius, shift + radius] / 2."""

    blocks: list
    values: list
    shift: int
    radius: int
    den: int
    exact: bool


def _block_product(tm: TransitionMatrix) -> BlockProduct | None:
    """The chain as a product of block refreshes when its cells make it one,
    else None. The blocks are the finest partition of the edges in which
    every off-diagonal cell flips one block; the states must be all
    combinations of the blocks' patterns, each must move to every state that
    differs from it in one block, and each cell that sets block b to pattern
    y must hold one value c_b nu_b(y) > 0, whatever the source. Then P = K + E,
    E diagonal and K the sum of refreshes that redraw block b from nu_b at
    rate c_b, which the product law symmetrizes, with eigenvalues
    sum(c_b, b in S) (`block_spectrum`); by Weyl, P's sorted eigenvalues lie
    within max |E_ii - c| of theirs plus c, the midpoint of E's range. The
    two-state chain [[1 - a, a], [b, 1 - b]] is the width-1 block with
    c = a + b, nu = (b, a) / c. Float cells are read as the ratios they store
    (`_ratios`): an exact chain of whole-block rewrites has radius 0."""
    n, masks, off = tm.size, tm.masks, tm.rows != tm.cols
    flip = masks[tm.rows[off]] ^ masks[tm.cols[off]]
    if not len(flip):
        return None
    bit = flip & -flip  # the lowest edge each cell flips, as a mask
    lowest = (np.frompyfunc(int.bit_length, 1, 1)(bit) - 1 if bit.dtype == object else np.bitwise_count(bit - 1))
    lowest = lowest.astype(np.intp)
    reach = np.zeros(tm.m, flip.dtype)  # the edges that flip with each lowest edge
    np.bitwise_or.at(reach, lowest, flip)
    blocks = []
    for r in filter(None, reach.tolist()):
        joined = [b for b in blocks if b & r]
        blocks = [b for b in blocks if not b & r] + [reduce(or_, joined, r)]
    blocks.sort(key=lambda b: b & -b)
    first = np.append(masks[tm.cols[:np.searchsorted(tm.rows, 1)]], masks[0])  # row 0 reaches every pattern
    kind, owner, index, sizes = masks.dtype.type, np.zeros(tm.m, np.intp), [], []
    for b, block in enumerate(blocks):
        owner[[e for e in range(tm.m) if block >> e & 1]] = b
        support, = _first_rows([(first & kind(block),)])
        local = masks & kind(block)
        at = np.minimum(np.searchsorted(support, local), len(support) - 1)
        if (support[at] != local).any():
            return None
        index.append(at.astype(np.int32))  # each state's pattern in block b, as an index into its support
        sizes.append(len(support))
    if n != math.prod(sizes) or (np.bincount(tm.rows[off], minlength=n) != sum(sizes) - len(sizes)).any():
        return None  # not the product of the supports, or a state misses a neighbour
    offset, index, which = np.cumsum([0] + sizes), np.stack(index), owner[lowest]
    key = offset[which] + index[which, tm.cols[off]]
    cells, values = tm.numerators[off], np.zeros(offset[-1], tm.numerators.dtype)
    values[key] = cells
    if not ((cells == values[key]).all() and (values > 0).all()):
        return None
    diagonal = np.zeros(n, values.dtype)
    diagonal[tm.rows[~off]] = tm.numerators[~off]
    both = np.concatenate([values, diagonal])
    ints, den = (both, tm.denominator) if tm.exact else _ratios(both)
    if sum(ints[:len(values)].tolist()) >> 62:  # K's diagonal sums up to sum(c_b)
        ints = ints.astype(object)
    values, diagonal = ints[:len(values)], ints[len(values):]
    shift = diagonal - sum(values[offset[b] + index[b]] for b in range(len(blocks)))  # E
    low, high = int(shift.min()), int(shift.max())
    values = [[2 * v for v in values[offset[b]:offset[b + 1]].tolist()] for b in range(len(blocks))]
    return BlockProduct(blocks, values, low + high, high - low, 2 * den, tm.exact)


def _candidate_primes(n: int):
    """Primes p with n < p < PRIME_BOUND, largest first."""
    for p in range(PRIME_BOUND - 1, n, -1):
        if p % 2 and all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            yield p


def _trace_product(a: np.ndarray, b: np.ndarray, p: int) -> int:
    """tr(a b) mod p for float64 residue matrices: each row's inner product
    stays below 2^53, so it is exact before it is reduced."""
    return int(np.fmod(np.einsum("ij,ji->i", a, b), p).sum()) % p


def _spectrum_certificate(report, tm: TransitionMatrix) -> str | None:
    """None when the exact chain's eigenvalue multiset is the report's, else
    what failed. The report's D distinct levels are a_j / L, with totals t_j
    (the multiplicities of each level's flats summed); the chain is the
    integer cells N over `den`. Two tests prove the claim:

    - Annihilator: v prod_j (L N - a_j den I) = 0 exactly, for two random
      integer vectors v from a generator of its own, so verify's other
      draws stay as they were (a nonzero product survives each with
      probability at most 2^-31). A zero product means every eigenvalue is
      a level and P is diagonalizable.
    - Power sums: tr(N^k) L^k = den^k sum_j t_j a_j^k mod a prime p for
      k < D, with N < p < PRIME_BOUND, p dividing neither den nor L, and the
      a_j distinct mod p. The true multiplicities satisfy the same D
      equations, whose Vandermonde matrix is invertible mod p, so each t_j
      equals its multiplicity mod p, and as both lie in [0, N], exactly.

    The traces come from float64 residue matrices: powers of N mod p up to
    ceil((D - 1) / 2), tr(N^(i + j)) = tr(N^i N^j) by row-wise inner
    products, at most three N x N arrays held at once."""
    nums, L = _common_denominator(report.levels)
    a = nums.tolist()
    totals = np.zeros(len(a), np.int64)  # each level's multiplicities summed over its flats
    np.add.at(totals, report.index, report.multiplicities)
    n, den = tm.size, tm.denominator
    if totals.min() < 0 or totals.max() > n:
        return f"a multiplicity total lies outside [0, {n}]"

    v = np.random.default_rng(0).integers(0, 1 << 31, size=(2, n)).astype(object)
    for level in a:
        v = L * tm.left_apply(v) - (level * den) * v
    if (v != 0).any():
        return "the levels do not annihilate the chain"

    for p in _candidate_primes(n):
        if den % p and L % p and len({x % p for x in a}) == len(a):
            break
    else:
        return f"no prime in ({n}, {PRIME_BOUND}) suits the denominators and levels"
    R = tm._dense(0.0, (tm.numerators % p).astype(float))
    traces = [n % p, int(R.trace()) % p, _trace_product(R, R, p)]
    power = R  # R^j, whose traces through 2j are known
    while len(traces) < len(a):
        step = power @ R
        np.fmod(step, p, out=step)
        traces += [_trace_product(power, step, p), _trace_product(step, step, p)]
        power = step
    for k, trace in enumerate(traces[:len(a)]):
        claimed = sum(t * pow(x, k, p) for t, x in zip(totals.tolist(), a))
        if (trace * pow(L, k, p) - pow(den, k, p) * claimed) % p:
            return f"power sum {k} differs mod {p}"
    return None


def _hitting_column(F: int, terms) -> np.ndarray:
    """h(E, F) at every state mask E, S(F) - T(key(E, F)) of `_CommuteTable`:
    per edge its factor for F's bit where E agrees with F, else q_e (1 - t)."""
    choices = [[lack, (lack[0], 0)] if not F >> e & 1 else [(lack[0], 0), held]
               for e, (lack, held) in enumerate(terms.factors)]
    sums = _basis_sums(choices, terms)
    return sums[F] - sums


@np.errstate(over="ignore", invalid="ignore")
def check_commute_backends(g: HostGraph, p, tm: TransitionMatrix, states) -> CheckResult:
    """The hitting column h to each drawn state F of the per-edge chain (its
    masks are its indices) against the first-step equations h = 1 + P h off F
    that fix it (Kemeny & Snell, Finite Markov Chains, ch. 4), as
    max |h - 1 - P h| / (1 + |h| + P|h|), exact when p is rational; then each
    pair's `_spectral_sum` against h(E, F) + h(F, E). Past the float range: inf."""
    probs = _per_edge_probabilities(g, p)
    exact, detail = tm.exact and all(map(_is_exact, probs)), f"{len(states) * (len(states) - 1) // 2} pairs"
    chain = tm if exact else TransitionMatrix(tm.m, tm.masks, tm.rows, tm.cols, tm.float_values)
    terms = _sum_terms(g, p if exact else [float(x) for x in probs])
    one, h, worst = terms.denominator * tm.denominator if exact else 1.0, {}, 0.0
    try:
        for F in states:
            h[F] = _hitting_column(F, terms)
            moved, size = chain.right_apply(h[F]), np.abs(h[F])
            scale = chain.denominator * size + one + (moved if (h[F] >= 0).all() else chain.right_apply(size))
            if not (exact or np.isfinite(scale).all()):
                raise CapExceeded(f"float hitting time overflows at m = {g.m} edges; use rational mode")
            gap = chain.denominator * h[F] - one - moved
            gap[F] = 0
            worst = max(worst, (np.abs(gap) / scale).max())
        for E, F in itertools.combinations(states, 2):
            via = Fraction(h[F][E] + h[E][F], terms.denominator) if exact else h[F][E] + h[E][F]
            worst = max(worst, abs(_spectral_sum(E, F, terms, commute=True) - via) / max(1, abs(via)))
    except CapExceeded as exc:
        return _result("commute_backends", math.inf, 1e-8, f"{detail}, {exc}")
    return _result("commute_backends", worst, 1e-8, detail)


def check_closure_idempotent(dist: WeightedEdits, lat: SupportLattice) -> CheckResult:
    """The flats of `lat` are closed: the empty set, every generator support
    and the join flat | support of every flat with every support are flats."""
    supports, flats = dist.support_groups[0], np.sort(lat.flats)
    joins = np.concatenate([np.zeros(1, supports.dtype), supports, (flats[:, None] | supports).ravel()])
    closed = bool((find_masks(flats, joins) >= 0).all())
    return CheckResult("closure_idempotent", 0.0 if closed else 1.0, 0.0, closed)


def run_verification(
    g: HostGraph,
    dist: WeightedEdits,
    p=None,
    rng: np.random.Generator | None = None,
    exact: bool | None = None,
    cap: int = STATE_CAP,
    initial: EdgeSet | None = None,
) -> list[CheckResult]:
    """Full oracle suite for one model; p enables the per-edge closed forms.
    The chain is `initial`'s recurrent class, as `stationary` reads it. One
    law serves every check that reads pi: the Kronecker product of the
    per-edge factors' rows f_e[1], else the face law in the arithmetic
    `exact` sets (default: exact when the weights are rational). Every
    enumeration (states, faces, flats) counts against `cap`."""
    rng = rng or np.random.default_rng(0)
    simple_model = p is not None

    if simple_model:  # pi is phi_T at T = all edges
        factors = _phi_factors(g, p, cap)  # Python ints over prod d_e when p is rational
        masks, nums, den = None, _kron([f[1] for f in factors[0]]), factors[1]
    else:  # the face recursion's chambers are the recurrent class, its law Fractions when exact
        masks, pi = stationary_faces(dist, g, initial, cap, exact)
        nums, den = _common_denominator(pi) if isinstance(pi, list) else (pi, 1)
    tm = build_chain(dist, g, cap=cap, masks=masks)
    chain, nums, *_ = law = _law(tm, nums, den)  # one law and one fixed-point gap for every check that reads pi
    lat = closure(dist, cap)  # one lattice for the spectrum and the closure check
    product = _block_product(tm)  # one pass for the spectrum and the eigenvectors
    results = [check_row_stochastic(tm), check_stationary_fixed_point(law), check_stationary_vs_solve(dist, law)]

    if simple_model:
        report = eigenvalues_simple(g.m, cap)
        gaps, _ = chain._transpose_gap(nums[chain.rows] * chain.numerators)  # one for both balance checks
        results.append(check_detailed_balance(law, gaps))
        results.append(check_eigenvector_residuals(factors, report, product))
        results.append(check_orthonormality(factors))
        results.append(check_q_symmetry(law, gaps))
        results.append(check_spectrum_multiset(report, tm, product))
        states = rng.choice(tm.size, size=min(5, tm.size), replace=False)  # masks are indices here
        results.append(check_commute_backends(g, p, tm, states.tolist()))
    else:
        try:
            report = multiplicities(lat, tm.masks, dist)
        except ValidationError as exc:  # no spectrum to compare; both checks name the refusal
            results += [_result(name, math.inf, tol, str(exc))
                        for name, tol in (("spectrum_multiset", 1e-8), ("multiplicity_sum", 0.0))]
        else:
            results.append(check_spectrum_multiset(report, tm, product))
            mismatch = report.total_multiplicity - tm.size
            results.append(_result("multiplicity_sum", mismatch, 0.0, f"{tm.size} chambers"))
    results.append(check_closure_idempotent(dist, lat))
    return results
