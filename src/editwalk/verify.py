"""Self-checking oracle suite behind the CLI's verify command.

Each check recomputes a quantity two independent ways (closed form vs
dense float numerics, or vs exact sums over the chain's nonzero cells) and
reports the residual against the check's one fixed tolerance: 1e-12 for
the identities, 1e-10 for orthonormality, 1e-8 for the eigenvalue multiset
and the commute backends, 0 for the counts. Checks return results rather
than raising, so the CLI can print a full table and exit nonzero only at
the end. In rational mode the identity residuals are exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    over integers, for eigenvalues lambda_num / L, ROW_BLOCK rows at a time."""
    if not (system.exact and tm.exact):
        rows = (system.numerators / system.denominator).astype(float, copy=False)
        lam = np.array(system.eigenvalues, dtype=float)
        residual = np.abs(rows @ tm.to_float() - lam[:, None] * rows).max()
        return _result("eigenvector_residual", residual, 1e-12)
    lam, scale = _common_denominator(system.eigenvalues)
    worst = 0
    for start in range(0, len(lam), ROW_BLOCK):
        rows, block = system.numerators[start:start + ROW_BLOCK], lam[start:start + ROW_BLOCK]
        moved = scale * tm.left_apply(rows) - (block * tm.denominator)[:, None] * rows
        worst = max(worst, np.abs(moved).max())
    residual = worst / (scale * tm.denominator * system.denominator)
    return _result("eigenvector_residual", residual, 1e-12, "exact")


def check_orthonormality(system: EigenSystem) -> CheckResult:
    """Gram matrix of the psi rows of the eigensystem."""
    gram = system.psi @ system.psi.T
    residual = np.abs(gram - np.eye(gram.shape[0])).max()
    return _result("orthonormality", residual, 1e-10)


def check_q_symmetry(tm: TransitionMatrix, pi) -> CheckResult:
    """max |Q - Q^T| for Q = D^(1/2) P D^(-1/2), over the nonzero cells."""
    _, gap, _ = _q_cells(tm, pi)
    return _result("q_symmetry", gap, 1e-12)


def check_spectrum_multiset(report, tm: TransitionMatrix) -> CheckResult:
    residual = eigenvalue_multiset_residual(report.eigenvalue_multiset(), numeric_eigenvalues(tm))
    return _result("spectrum_multiset", residual, 1e-8)


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
        results.append(check_eigenvector_residuals(system, tm))
        results.append(check_orthonormality(system))
        results.append(check_q_symmetry(tm, pi))
        results.append(check_spectrum_multiset(eigenvalues_simple(g.m, cap), tm))
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
