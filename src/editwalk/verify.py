"""Self-checking oracle suite behind the CLI's verify command.

Each check tests a closed form or the given law against the chain's
nonzero cells, with no linear solve, and reports its residual against one
fixed tolerance: 1e-12 for the identities (row sums, the stationary fixed
point and the coupling bound on its error, detailed balance, Q's symmetry,
the bound on phi_T P - lambda_T phi_T); 1e-10 for the bound on the psi
rows' Gram matrix less I; 1e-8 for the eigenvalue multiset and the hitting
and commute times; 0 for the counts. Checks return results rather than
raise, so the CLI prints a full table; rational mode gives exact zeros. No
eigensolve and no dense matrix runs on the per-edge chain: its cells show
it is a product of two-state chains (`_two_state_product`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import STATE_CAP, CapExceeded, ValidationError
from .hostgraph import EdgeSet, HostGraph, find_masks
from .lattice import SupportLattice, closure, multiplicities
from .process import WeightedEdits, _common_denominator, _is_exact, _kron, _per_edge_probabilities
from .spectral import (
    TransitionMatrix,
    _basis_sums,
    _phi_factors,
    _spectral_sum,
    _sum_at,
    _sum_terms,
    build_chain,
    eigenvalues_simple,
    stationary_faces,
)

# Power sums run mod a prime below PRIME_BOUND: N residue products of
# (p - 1)^2 < 2^34 each sum below 2^53, exact in float64, for N < p.
PRIME_BOUND = 1 << 17
U = np.finfo(float).eps / 2  # unit roundoff of float64
REVERSIBILITY_TOL = 1e-10  # the largest max |Q - Q^T| the dense fallback symmetrizes
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


def check_eigenvector_residuals(factors, report, product: TwoStateProduct | None) -> CheckResult:
    """phi_T P = lambda_T phi_T for every edge subset T, read off the m
    per-edge factors `factors = _phi_factors(g, p, cap)` (phi_T the
    Kronecker product of rows f_e[T_e]), the report's eigenvalues and the
    chain's two-state product P = K + E, with no 2^m x 2^m array. K is the
    Kronecker sum of M_e = [[b_e, a_e], [b_e, a_e]], whose left
    eigenvectors f_e[0] and f_e[1] belong to 0 and a_e + b_e, so for c the
    midpoint of E's range and s_T = sum(a_e + b_e, e in T) + c,

        phi_T P - lambda_T phi_T = (s_T - lambda_T) phi_T + phi_T (E - c I)
            + sum_e (phi_T with f_e[T_e] replaced by its residual under M_e).

    The residual is the sup-norm bound max_T |s_T - lambda_T| ||phi_T||
    + sum_e r_e prod_(e' != e) ||f_e'|| + radius ||phi||, r_e the larger
    factor residual of edge e. Python ints over one denominator when p and
    the chain are exact (detail `exact`), else float64 plus 4 m u ||phi||:
    phi's float entries carry m - 1 roundings, which P (column sums at most
    2) and lambda <= 1 move by at most 3 (m - 1) u ||phi||; the rest covers
    the factor residuals' own rounding."""
    if product is None:
        return CheckResult("eigenvector_residual", math.inf, 1e-12, False, "the chain is no two-state product")
    rows, den = factors
    rates, levels, radius, scale, exact = product  # over scale
    exact = exact and rows[0].dtype == object
    claimed, L = _mask_levels(report, len(levels))
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


def check_spectrum_multiset(report, tm: TransitionMatrix, product: TwoStateProduct | None, pi=None) -> CheckResult:
    """The report's eigenvalue multiset against the chain's, by one of three
    proofs. A two-state product (`_two_state_product(tm)`) on a float chain,
    or with radius 0 on an exact one, needs no eigensolve: by Weyl its sorted
    spectrum lies within radius / den of the levels, so the residual is
    max_S |levels_S / den - lambda_S| + radius / den, one Fraction (detail
    `product`), or 1 unless the report names every mask once with
    multiplicity 1; an exact chain passes only at 0 (`exact`). Any other
    exact chain is proved by `_spectrum_certificate` (residual 0, or 1 and
    what failed), any other float chain compared by `_dense_fallback`."""
    if product is not None and (not tm.exact or product.radius == 0):
        levels, den, n = product.levels, product.den, len(product.levels)
        residual = 1
        if np.array_equal(np.sort(report.flats), np.arange(n)) and (report.multiplicities == 1).all():
            claimed, L = _mask_levels(report, n)
            residual = Fraction(np.abs(levels * L - claimed * den).max() + product.radius * L, den * L)
        if not tm.exact:
            return _result("spectrum_multiset", residual, 1e-8, "product")
        return CheckResult("spectrum_multiset", float(residual), 1e-8, residual == 0,
                           "exact" if residual == 0 else "exact: the multiplicities differ from the product's")
    if not tm.exact:
        return _dense_fallback(report, tm, pi)
    fault = _spectrum_certificate(report, tm)
    return CheckResult("spectrum_multiset", float(fault is not None), 1e-8, fault is None,
                       "exact" if fault is None else f"exact: {fault}")


def _mask_levels(report, n: int) -> tuple[np.ndarray, int]:
    """The report's level at each of the n masks, in mask order, as Python
    ints over their common denominator L (a float level read as the ratio
    it stores)."""
    nums, L = _common_denominator(report.levels)
    claimed = np.empty(n, object)
    claimed[report.flats] = nums[report.index]
    return claimed, L


def _dense_fallback(report, tm: TransitionMatrix, pi) -> CheckResult:
    """The largest gap between the report's sorted multiset and the float
    chain's, from a dense eigensolve: `eigvalsh` of the symmetric
    D^(1/2) P D^(-1/2) when pi > 0 and the chain is reversible, else the
    general `eigvals` (no law, a law with zeros, a non-reversible chain),
    whose imaginary residue above IMAG_TOL fails: the chamber-walk matrices
    are diagonalizable with real spectrum. Reversibility makes
    Q_ij = sqrt(P_ij P_ji), so the test max |Q - Q^T| <= REVERSIBILITY_TOL
    is scale-free; it is taken over the nonzero cells, every one of which
    needs its transpose."""
    claimed = np.sort(np.asarray(report.eigenvalue_multiset(), dtype=float))
    if len(claimed) != tm.size:
        return _result("spectrum_multiset", math.inf, 1e-8, f"{len(claimed)} eigenvalues reported, {tm.size} states")
    law = np.asarray([] if pi is None else pi, dtype=float)
    if law.size and law.min() > 0:
        root = np.sqrt(law)
        q = tm.float_values * root[tm.rows] / root[tm.cols]
        gaps, paired = tm._transpose_gap(q)
        if paired and gaps.max() <= REVERSIBILITY_TOL:
            Q = np.zeros((tm.size, tm.size))
            Q[tm.rows, tm.cols] += q / 2  # (Q + Q^T) / 2, cell by cell
            Q[tm.cols, tm.rows] += q / 2
            return _result("spectrum_multiset", np.abs(np.linalg.eigvalsh(Q) - claimed).max(), 1e-8)
    values = np.linalg.eigvals(tm.to_float())
    imag = np.abs(values.imag).max()
    if imag > IMAG_TOL:
        return _result("spectrum_multiset", math.inf, 1e-8, f"the eigenvalues have imaginary parts up to {imag:.3e}")
    return _result("spectrum_multiset", np.abs(np.sort(values.real) - claimed).max(), 1e-8)


class TwoStateProduct(NamedTuple):
    """A chain P = K + E read off its cells by `_two_state_product`, every
    value a Python int over `den`: `rates` row e holds (a_e, b_e), `levels`
    holds s_S + c for each mask S, with c the midpoint of the diagonal E's
    range and `radius` its half-width; `exact` says whether the chain's
    cells were exact."""

    rates: np.ndarray
    levels: np.ndarray
    radius: int
    den: int
    exact: bool


def _two_state_product(tm: TransitionMatrix) -> TwoStateProduct | None:
    """The chain's two-state product when its cells make it a product of m
    two-state chains, else None: every sorted eigenvalue of the chain lies
    within radius / den of the sorted levels / den, levels[S] in mask order.

    The cells must hold all 2^m masks in order, and every state must move
    across each edge e to the one neighbour that differs there, upward
    (setting e) with one value a_e > 0 and downward with one b_e > 0. The
    off-diagonal cells are then those of K, the Kronecker sum of the
    two-state chains [[b_e, a_e], [b_e, a_e]], so P = K + E with E
    diagonal. Each two-state chain is reversible with the positive law
    (b_e, a_e) / (a_e + b_e), so the product law D makes D^(1/2) K
    D^(-1/2) symmetric, with the eigenvalues 0 and a_e + b_e of each
    factor summed: s_S = sum over e in S of (a_e + b_e). For c the
    midpoint of E's range, P = (K + c I) + (E - c I) is similar to a
    symmetric matrix plus a diagonal one, and by Weyl's inequality its
    sorted eigenvalues lie within max |E_ii - c| of the sorted s_S + c.
    Every value is a Python int over one denominator, float cells read as
    the ratios they store: an exact chain of single-edge set and clear
    edits, with or without the empty edit, has radius 0."""
    n, m = tm.size, tm.m
    if n != 1 << m or (tm.masks != np.arange(n)).any():
        return None
    flip = tm.rows ^ tm.cols  # the masks are the indices
    off = flip != 0
    if (flip & (flip - 1)).any() or (np.bincount(tm.rows[off], minlength=n) != m).any():
        return None  # the m off-diagonal cells of a row then flip its m edges
    edge = np.bitwise_count(flip[off] - 1).astype(np.intp)
    key = 2 * edge + (tm.rows[off] >> edge & 1)  # 2e: a_e, 2e + 1: b_e
    values = tm.numerators[off]
    rates = np.zeros(2 * m, values.dtype)
    rates[key] = values
    if not ((values == rates[key]).all() and (rates > 0).all()):
        return None
    diagonal = np.zeros(n, values.dtype)
    diagonal[tm.rows[~off]] = tm.numerators[~off]
    cells, den = _common_denominator(rates.tolist() + diagonal.tolist())
    rates, diagonal, den = cells[:2 * m], cells[2 * m:], den * tm.denominator
    sums, kron = np.zeros(1, object), np.zeros(1, object)  # s_S and K's diagonal, edge by edge
    for a, b in zip(rates[0::2].tolist(), rates[1::2].tolist()):
        sums, kron = np.concatenate([sums, sums + (a + b)]), np.concatenate([kron + b, kron + a])
    shift = diagonal - kron  # E
    low, high = shift.min(), shift.max()
    return TwoStateProduct(2 * rates.reshape(m, 2), 2 * sums + (low + high), high - low, 2 * den, tm.exact)


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
    product = _two_state_product(tm)  # one pass for the spectrum and the eigenvectors
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
            results.append(check_spectrum_multiset(report, tm, product, nums))
            mismatch = report.total_multiplicity - tm.size
            results.append(_result("multiplicity_sum", mismatch, 0.0, f"{tm.size} chambers"))
    results.append(check_closure_idempotent(dist, lat))
    return results
