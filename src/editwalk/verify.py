"""Self-checking oracle suite behind the CLI's verify command.

Each check recomputes a quantity two independent ways (closed form vs
dense float numerics, or vs exact sums over the chain's nonzero cells) and
reports the residual against the check's one fixed tolerance: 1e-12 for
the identities, 1e-10 for orthonormality, 1e-8 for the eigenvalue multiset
and the commute backends, 0 for the counts. Checks return results rather
than raising, so the CLI can print a full table and exit nonzero only at
the end. In rational mode the identity residuals are exact zeros.

No eigensolve runs on the per-edge chain: the eigenvector and
orthonormality checks each leave a witness (a bound on the residual in
psi space, a bound on the Gram's distance from I), and the spectrum check
reads them as a proof of the chain's eigenvalue multiset (Bauer-Fike,
`_eigenbasis_radius`). An exact chain whose multiset no eigenbasis
proves is proved by `_spectrum_certificate`; only a float compound chain,
or a witness that proves nothing, takes a dense eigensolve.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import STATE_CAP
from .hostgraph import EdgeSet, HostGraph, find_masks
from .lattice import SupportLattice, closure, multiplicities
from .process import WeightedEdits, _common_denominator
from .spectral import (
    EigenSystem,
    TransitionMatrix,
    _hitting_columns,
    _law,
    _q_cells,
    build_chain,
    commute_time,
    detailed_balance_residual,
    eigensystem_simple,
    eigenvalue_multiset_residual,
    eigenvalues_simple,
    numeric_eigenvalues,
    stationary_closed_form,
    stationary_faces,
    stationary_numeric,
)

ROW_BLOCK = 1 << 6  # eigenvector rows per exact residual product
# Power sums run mod a prime below PRIME_BOUND: N residue products of
# (p - 1)^2 < 2^34 each sum below 2^53, exact in float64, for N < p.
PRIME_BOUND = 1 << 17
U = np.finfo(float).eps / 2  # unit roundoff of float64
ETA = 2.0 ** -1074  # the least subnormal: absolute error an underflow may add


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the relative error bound of a float64 sum
    of k terms or an inner product of length k (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 3.1)."""
    return k * U / (1 - k * U)


@dataclass(frozen=True)
class CheckResult:
    """One check's outcome. `witness` is a bound a later check reads, not
    printed: the eigenvector check's on the psi-space residual, the
    orthonormality check's on the Gram's distance from I."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    detail: str = ""
    witness: float = field(default=math.inf, compare=False, repr=False)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.name}: residual {self.residual:.3e} (tol {self.tolerance:.1e}){extra}"


def _result(name: str, residual, tol: float, detail: str = "", witness: float = math.inf) -> CheckResult:
    r = float(abs(residual))
    return CheckResult(name, r, tol, r <= tol, detail, witness)


def check_row_stochastic(tm: TransitionMatrix) -> CheckResult:
    return _result("row_stochastic", tm.row_sum_residual(), 1e-12)


def check_stationary_fixed_point(tm: TransitionMatrix, pi) -> CheckResult:
    """pi P = pi as pi_num P_num = den pi_num over the nonzero cells: integers
    when the chain and pi are exact, else float64."""
    chain, nums, den = _law(tm, pi)  # int / int rounds as float(Fraction) does
    residual = np.abs(chain.left_apply(nums) - chain.denominator * nums).max() / (den * chain.denominator)
    return _result("stationary_fixed_point", residual, 1e-12, "exact" if chain.exact else "")


def check_stationary_vs_solve(tm: TransitionMatrix, pi) -> CheckResult:
    solved = stationary_numeric(tm)
    residual = np.abs(np.asarray([float(x) for x in pi]) - solved).max()
    return _result("stationary_vs_linear_solve", residual, 1e-12)


def check_detailed_balance(tm: TransitionMatrix, pi) -> CheckResult:
    residual = detailed_balance_residual(tm, pi)
    return _result("detailed_balance", residual, 1e-12, "exact" if type(residual) is Fraction else "")


def check_eigenvector_residuals(system: EigenSystem, tm: TransitionMatrix) -> CheckResult:
    """phi P = lambda phi. Exact: L (phi_num P_num) = lambda_num den phi_num
    over integers, for eigenvalues lambda_num / L, ROW_BLOCK rows at a time;
    the witness is 0 when every row holds exactly, else inf. Float: the
    witness is `_psi_residual_bound` of the one dense product's residual."""
    if not (system.exact and tm.exact):
        nums, den = system.numerators, system.denominator
        rows = (nums if den == 1 else nums / den).astype(float, copy=False)
        lam = np.array(system.eigenvalues, dtype=float)
        moved = rows @ tm.to_float()
        moved -= lam[:, None] * rows
        np.abs(moved, out=moved)
        residual = moved.max()
        witness = _psi_residual_bound(system, tm, rows[-1], moved)
        return _result("eigenvector_residual", residual, 1e-12, witness=witness)
    lam, scale = _common_denominator(system.eigenvalues)
    worst = 0
    for start in range(0, len(lam), ROW_BLOCK):
        rows, block = system.numerators[start:start + ROW_BLOCK], lam[start:start + ROW_BLOCK]
        moved = scale * tm.left_apply(rows) - (block * tm.denominator)[:, None] * rows
        worst = max(worst, np.abs(moved).max())
    residual = worst / (scale * tm.denominator * system.denominator)
    return _result("eigenvector_residual", residual, 1e-12, "exact", 0.0 if worst == 0 else math.inf)


def _psi_residual_bound(system: EigenSystem, tm: TransitionMatrix, pi: np.ndarray, moved: np.ndarray) -> float:
    """An upper bound on ||C R S^-1||_F for the exact residual R = phi P -
    Lambda phi of the float rows phi, with C = diag(system.scale) and S =
    diag(sqrt(pi)) the scalings that make psi of phi. `moved` holds |R|
    as rounded and is squared in place: the norm is sqrt(c^2 . (R o R) @
    (1 / pi)), with no second N x N array.

    To the norm, enlarged for its own rounding, it adds the rounding of the
    product: entrywise |R - fl(R)| <= gamma_(N+1) |phi| |P| + 3u |phi|
    (Higham, section 3.5), which in psi space is at most (gamma_(N+1)
    ||S |P| S^-1||_2 + 3u) ||Psi||_F, with ||S |P| S^-1||_2 bounded by the
    largest row and column sums of its cells and ||Psi||_F <= sqrt(1.5 N)
    while ||Psi Psi^T - I||_F < 1/2, which `_eigenbasis_radius` requires.
    An absolute term covers underflow. The factors are generous: the bound
    stays near N^1.5 u, far below the 1e-8 it must meet."""
    n = tm.size
    with np.errstate(all="ignore"):
        root = np.sqrt(pi)  # as eigensystem_simple divides psi by it
        c = system.scale
        np.square(moved, out=moved)
        norm = math.sqrt((c * c) @ (moved @ (1 / (root * root)))) * (1 + _gamma(4 * n + 16))
        q = np.abs(tm.float_values) * root[tm.rows] / root[tm.cols]  # the cells of S |P| S^-1
        sums = np.bincount(tm.rows, q, n).max() * np.bincount(tm.cols, q, n).max()
        rounding = (_gamma(n + 1) * math.sqrt(sums) * (1 + _gamma(n + 4)) + 3 * U) * math.sqrt(1.5 * n)
        underflow = n * n * math.sqrt(ETA) * (1 + c.max() / root.min())
    return norm + rounding + float(underflow)


def check_orthonormality(system: EigenSystem) -> CheckResult:
    """Gram matrix of the psi rows of the eigensystem. The witness bounds
    ||Psi Psi^T - I||_F for Psi = C phi S^-1 in exact arithmetic (see
    `_psi_residual_bound`): the rounded Gram's distance, plus the Gram's
    rounding, gamma_N ||psi||_F^2, plus what psi's own roundings (at most
    three an entry: the float phi, the scale, the root, each of which may
    also underflow) move it, 2 ||Psi - psi||_F ||psi||_F + ||Psi - psi||_F^2."""
    gram = system.psi @ system.psi.T
    n = len(gram)
    trace = gram.trace()
    gram.flat[:: n + 1] -= 1.0
    np.abs(gram, out=gram)
    residual = gram.max()
    with np.errstate(all="ignore"):
        size = math.sqrt(trace) / (1 - _gamma(n))  # >= ||psi||_F
        # psi's last row is sqrt(pi) to within 2u, so half its least entry is below S's
        floor = 4 * ETA * (2 + system.scale.max()) / np.abs(system.psi[-1]).min()
        slack = 4 * U / (1 - 4 * U) * size + n * floor  # >= ||Psi - psi||_F
        witness = np.linalg.norm(gram) * (1 + _gamma(n * n + 4)) + _gamma(n) * size**2 + (2 * size + slack) * slack
    return _result("orthonormality", residual, 1e-10, witness=float(witness))


def check_q_symmetry(tm: TransitionMatrix, pi) -> CheckResult:
    """max |Q - Q^T| for Q = D^(1/2) P D^(-1/2), over the nonzero cells."""
    _, gap, _ = _q_cells(tm, pi)
    return _result("q_symmetry", gap, 1e-12)


def check_spectrum_multiset(
    report, tm: TransitionMatrix, eigenvalues=None, residual: float = math.inf, gram: float = math.inf
) -> CheckResult:
    """The report's eigenvalue multiset against the chain's.

    Given the `eigenvalues` of an eigensystem and the witnesses its
    eigenvector (`residual`) and orthonormality (`gram`) checks returned,
    the eigenbasis proves the chain's multiset (`_eigenbasis_radius`), and
    the report is compared with `eigenvalues`, closed form against closed
    form: a float chain's residual is their sorted gap plus the radius
    (detail `eigenbasis`); an exact chain's is 0, or 1 when the multisets
    differ. Without an eigensystem, or when its witnesses prove nothing, a
    float chain's residual is the sorted gap to a dense eigensolve and an
    exact chain's multiset is proved by `_spectrum_certificate` (residual
    0, or 1 and what failed); the detail then names that fallback and why."""
    why = ""
    if eigenvalues is not None:
        radius, why = _eigenbasis_radius(tm, eigenvalues, residual, gram)
        if not why and not tm.exact:
            gap = eigenvalue_multiset_residual(report.eigenvalue_multiset(), eigenvalues)
            return _result("spectrum_multiset", gap + radius, 1e-8, "eigenbasis")
        if not why:
            same = Counter(dict(zip(report.levels, _level_totals(report).tolist()))) == Counter(eigenvalues)
            return CheckResult("spectrum_multiset", float(not same), 1e-8, same,
                               "exact" if same else "exact: the multiplicities differ from the eigenbasis's")
    if not tm.exact:
        residual = eigenvalue_multiset_residual(report.eigenvalue_multiset(), numeric_eigenvalues(tm))
        return _result("spectrum_multiset", residual, 1e-8, why and f"dense eigensolve, {why}")
    fault = _spectrum_certificate(report, tm)
    detail = f"exact by certificate, {why}" if why else "exact"
    return CheckResult("spectrum_multiset", float(fault is not None), 1e-8, fault is None,
                       detail if fault is None else f"{detail}: {fault}")


def _eigenbasis_radius(tm: TransitionMatrix, eigenvalues, residual: float, gram: float) -> tuple[float, str]:
    """(rho, "") when every eigenvalue of the chain lies within rho of the
    matching value of `eigenvalues`, else (inf, why the witnesses do not
    show it).

    With Psi = C phi S^-1 (`_psi_residual_bound`), phi P = Lambda phi + R
    makes P similar to Lambda + R_psi Psi^-1, R_psi = C R S^-1. The
    smallest eigenvalue of Psi Psi^T is at least 1 - gram, so by
    Bauer-Fike (1960) every eigenvalue of P lies within rho = residual /
    sqrt(1 - gram) of a diagonal value of Lambda. Below half the least gap
    between distinct values the discs are disjoint, and along Lambda + t
    R_psi Psi^-1, t from 0 to 1, each keeps as many eigenvalues as Lambda
    puts at its centre, so the sorted multisets lie within rho. rho must
    also be below 1e-8, the check's tolerance. On an exact chain an exact
    zero identity with gram < 1/2 proves the multiset exactly: phi is then
    an invertible matrix of eigenvectors."""
    if tm.exact and residual != 0:
        return math.inf, "no exact eigenvector identity"
    if not (math.isfinite(residual) and math.isfinite(gram)):
        return math.inf, "eigenbasis witness not finite"
    if gram >= 0.5:
        return math.inf, f"eigenbasis Gram distance {gram:.1e} not below 1/2"
    if tm.exact:
        return 0.0, ""
    radius = residual / math.sqrt(1 - gram)
    levels = sorted(set(map(float, eigenvalues)))
    limit = min([1e-8] + [(b - a) / 2 for a, b in zip(levels, levels[1:])])
    if not radius < limit:
        return math.inf, f"eigenbasis radius {radius:.1e} not below {limit:.1e}"
    return radius, ""


def _level_totals(report) -> np.ndarray:
    """The multiplicities of each of the report's levels summed over its flats."""
    totals = np.zeros(len(report.levels), np.int64)
    np.add.at(totals, report.index, report.multiplicities)
    return totals


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
    totals = _level_totals(report)
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


def check_commute_backends(g: HostGraph, p, tm: TransitionMatrix, pairs) -> CheckResult:
    """Closed-form commute times against the fundamental matrix, whose
    columns for every pair endpoint come from one solve."""
    pairs = list(pairs)
    index = [tm.index_of(s) for pair in pairs for s in pair]
    hit = _hitting_columns(tm, index)  # column 2k: times to E_k; 2k + 1: to F_k
    worst = 0.0
    for k, (E, F) in enumerate(pairs):
        spectral_value = float(commute_time(E, F, g, p))
        solved = hit[index[2 * k], 2 * k + 1] + hit[index[2 * k + 1], 2 * k]
        worst = max(worst, abs(spectral_value - solved) / max(1.0, abs(solved)))
    return _result("commute_backends", worst, 1e-8, f"{len(pairs)} pairs")


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
) -> list[CheckResult]:
    """Full oracle suite for one model; p enables the per-edge closed forms.
    `exact` sets the arithmetic of a compound model's stationary law
    (default: exact when the weights are rational). Every enumeration
    (states, faces, flats) counts against `cap`."""
    rng = rng or np.random.default_rng(0)
    simple_model = p is not None

    if simple_model:
        masks, pi = None, stationary_closed_form(g, p, cap)
    else:  # the face recursion's chambers are the recurrent class
        masks, pi = stationary_faces(dist, g, cap=cap, exact=exact)
    tm = build_chain(dist, g, cap=cap, masks=masks)
    lat = closure(dist, cap)  # one lattice for the spectrum and the closure check
    results = [check_row_stochastic(tm)]

    if simple_model:
        system = eigensystem_simple(g, p, cap)
        results.append(check_stationary_fixed_point(tm, pi))
        results.append(check_stationary_vs_solve(tm, pi))
        results.append(check_detailed_balance(tm, pi))
        vectors, gram = check_eigenvector_residuals(system, tm), check_orthonormality(system)
        results += [vectors, gram, check_q_symmetry(tm, pi)]
        results.append(check_spectrum_multiset(eigenvalues_simple(g.m, cap), tm, system.eigenvalues,
                                               vectors.witness, gram.witness))
        draws = [rng.choice(tm.size, size=2, replace=False)
                 for _ in range(min(10, tm.size * (tm.size - 1) // 2))]
        pairs = [tuple(EdgeSet(g.m, mask) for mask in tm.masks[pair].tolist()) for pair in draws]
        results.append(check_commute_backends(g, p, tm, pairs))
    else:
        results.append(check_stationary_fixed_point(tm, pi))
        results.append(check_stationary_vs_solve(tm, pi))
        report = multiplicities(lat, tm.masks, dist)
        results.append(check_spectrum_multiset(report, tm))
        mismatch = report.total_multiplicity - tm.size
        results.append(_result("multiplicity_sum", mismatch, 0.0, f"{tm.size} chambers"))
    results.append(check_closure_idempotent(dist, lat))
    return results
