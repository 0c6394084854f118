"""`verify` without a linear solve.

`stationary_vs_linear_solve` bounds the L1 error of the law it is given by
its fixed-point gap times a bound on the coupling time, and
`commute_backends` checks the closed-form hitting columns by their
first-step identity h = 1 + P h over the chain's cells. Here the coupling
bound is checked against the true error, taken from the exact closed form
or the exact face recursion, and the coupling time against the exact
expected time for the drawn supports to cover the host. Mutations of the
law, the chain and the closed form must fail the checks by name, and a
float column past the float range must fail with a named detail, never
with `nan`.
"""

import dataclasses
from collections import Counter
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from oracles import verify_law
from test_chain_cells import cycle_family

import editwalk as ew
from editwalk import spectral, verify
from editwalk.spectral import TransitionMatrix, _sum_terms
from editwalk.verify import (
    _coupling_time,
    _hitting_column,
    check_commute_backends,
    check_stationary_vs_solve,
    run_verification,
)

TINY_P = [1e-9, 1e-9, 1e-9, 0.3, 1e-3, 0.5, 0.5, 0.9, 0.1, 0.2]


def path(m):
    return ew.from_edge_list(m + 1, [(i, i + 1) for i in range(m)])


def mixed_p(m, exact):
    return [Fraction(k % 10 + 1, 11) if exact else (k % 10 + 1) / 11 for k in range(m)]


def harmonic(n):
    return sum(Fraction(1, j) for j in range(1, n + 1))


def forbid(monkeypatch, owner, name, raising=True):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} called")
    monkeypatch.setattr(owner, name, fail, raising=raising)


def count_calls(monkeypatch, owner, name, calls: Counter):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


# (host, distribution, p for the per-edge closed forms or None, exact)
SPY = {
    "simple double": lambda: (path(6), ew.simple_edit_weights(path(6), mixed_p(6, False)), mixed_p(6, False), False),
    "simple rational": lambda: (path(6), ew.simple_edit_weights(path(6), mixed_p(6, True)), mixed_p(6, True), True),
    "moran K4 double": lambda: (ew.complete_graph(4), ew.moran_weights(ew.complete_graph(4)), None, False),
    "moran K4 rational": lambda: (ew.complete_graph(4), ew.moran_weights(ew.complete_graph(4)), None, True),
    "intersection 2x3 double": lambda: (ew.intersection_host(2, 3),
                                        ew.intersection_weights(2, 3, [0.1, 0.2, 0.3, 0.4]), None, False),
    "custom cycle m=6 double": lambda: (*cycle_family(6, exact=False), None, False),
}


@pytest.mark.parametrize("name", SPY)
def test_verify_calls_no_solve(monkeypatch, name):
    """No model reaches a linear solve, and the per-edge chain builds no
    dense matrix: its row sums, law and hitting columns are read over the
    cells. Its law is the per-edge factors' row, built by one
    `_phi_factors` call and no `stationary_closed_form` or `phi`, and one
    `_transpose_gap` serves both balance checks."""
    g, dist, p, exact = SPY[name]()
    forbid(monkeypatch, np.linalg, "solve")
    calls = Counter()
    if p is not None:
        forbid(monkeypatch, TransitionMatrix, "_dense")
        forbid(monkeypatch, verify, "stationary_closed_form", raising=False)  # a binding the spectral patch misses
        forbid(monkeypatch, spectral, "stationary_closed_form")
        forbid(monkeypatch, spectral, "phi")
        count_calls(monkeypatch, verify, "_phi_factors", calls)
        count_calls(monkeypatch, TransitionMatrix, "_transpose_gap", calls)
    results = run_verification(g, dist, p=p, exact=exact)
    assert all(r.passed for r in results), [r.line() for r in results if not r.passed]
    assert len(results) == (10 if p is not None else 6)
    if p is not None:
        assert calls == {"_phi_factors": 1, "_transpose_gap": 1}


def simple_law(m, p, g=None):
    """The double-mode law verify checks and the exact law of the float p,
    read as the ratios they store, on the per-edge chain."""
    g = g or path(m)
    dist = ew.simple_edit_weights(g, p)
    tm = ew.build_chain(dist, g)
    return dist, tm, ew.stationary_closed_form(g, p), ew.stationary_closed_form(g, [Fraction(x) for x in p])


def compound_law(g, dist):
    masks, approx = ew.stationary_faces(dist, g, exact=False)
    _, truth = ew.stationary_faces(dist, g, exact=True)
    return dist, ew.build_chain(dist, g, masks), approx, truth


def _intersection(n, N, mu):
    return compound_law(ew.intersection_host(n, N), ew.intersection_weights(n, N, mu))


LAWS = {
    **{f"simple m={m}": (lambda m=m: simple_law(m, mixed_p(m, False))) for m in range(1, 11)},
    "simple m=10 extreme": lambda: simple_law(10, [1e-6, 0.5, 0.999999, 0.3, 1e-3, 0.5, 0.5, 0.9, 0.1, 0.2]),
    "simple k5-tiny": lambda: simple_law(10, TINY_P, ew.complete_graph(5)),
    **{f"moran K{n}": (lambda n=n: compound_law(ew.complete_graph(n), ew.moran_weights(ew.complete_graph(n))))
       for n in range(3, 7)},
    "intersection 2x2 mu0=0": lambda: _intersection(2, 2, [Fraction(0), Fraction(1, 2), Fraction(1, 2)]),
    "intersection 2x3 float": lambda: _intersection(2, 3, [0.1, 0.2, 0.3, 0.4]),
    "intersection 3x2": lambda: _intersection(3, 2, [Fraction(1, 6), Fraction(1, 2), Fraction(1, 3)]),
    "intersection 3x3": lambda: _intersection(3, 3, [Fraction(1, 4)] * 4),
}


@pytest.mark.parametrize("name", LAWS)
def test_coupling_bound_holds_the_true_error(name):
    dist, tm, approx, truth = LAWS[name]()
    result = check_stationary_vs_solve(dist, verify_law(tm, approx))
    error = sum(abs(Fraction(float(a)) - t) for a, t in zip(approx, truth))
    assert result.name == "stationary_vs_linear_solve" and result.passed
    assert result.residual >= float(error)  # 0 when the float law is exact, as on intersection 2x2
    exact = check_stationary_vs_solve(dist, verify_law(tm, truth))
    if tm.exact:  # an exact chain and its exact law: exactly 0
        assert exact.residual == 0.0


@pytest.mark.parametrize("name", ["simple rational", "moran K4 rational"])
def test_rational_bound_is_zero(name):
    g, dist, p, exact = SPY[name]()
    results = {r.name: r for r in run_verification(g, dist, p=p, exact=exact)}
    assert results["stationary_vs_linear_solve"].residual == 0.0


def expected_cover_time(dist):
    """E[T] exactly, T the first step at which the drawn supports cover the
    covered edges, from the chain on the support unions X:
    E[T | X] = (1 + sum over supp y not in X of w(y) E[T | X | supp y]) / (1 - lambda_X)."""
    supports = [int(s) for s in dist.supports]
    weights = [Fraction(w) for w in dist.weights]
    covered = 0
    for s in supports:
        covered |= s

    @cache
    def after(X):
        if X == covered:
            return Fraction(0)
        stay = sum(w for s, w in zip(supports, weights) if not s & ~X)
        moves = sum(w * after(X | s) for s, w in zip(supports, weights) if s & ~X)
        return (1 + moves) / (1 - stay)
    return after(0)


COVERS = {
    **{f"simple m={m}": (lambda m=m: (ew.simple_edit_weights(path(m), mixed_p(m, True)), m * harmonic(m), True))
       for m in (1, 2, 5, 10)},
    "simple k5-tiny": lambda: (ew.simple_edit_weights(ew.complete_graph(5), [Fraction(x) for x in TINY_P]),
                               10 * harmonic(10), True),
    **{f"moran K{n}": (lambda n=n: (ew.moran_weights(ew.complete_graph(n)), n * (harmonic(n) - 1), False))
       for n in range(3, 7)},
    "intersection 2x2 mu0=0": lambda: (ew.intersection_weights(2, 2, [Fraction(0), Fraction(1, 2), Fraction(1, 2)]),
                                       2 * harmonic(2), True),
    "intersection 3x3": lambda: (ew.intersection_weights(3, 3, [Fraction(1, 4)] * 4), 3 * harmonic(3), True),
    "custom cycle m=6": lambda: (cycle_family(6, exact=True)[1], None, False),
}


@pytest.mark.parametrize("name", COVERS)
def test_coupling_time_bounds_the_cover_time(name):
    """H_k / w_min is at least the exact E[T]: equal to it on the simple and
    intersection models (m H_m, n H_n), n H_n against n (H_n - 1) on Moran."""
    dist, closed, tight = COVERS[name]()
    cover = expected_cover_time(dist)
    if closed is not None:
        assert cover == closed
    bound = _coupling_time(dist)
    assert bound == cover if tight else bound > cover
    if name.startswith("moran"):
        n = int(name[len("moran K"):])
        assert bound == n * harmonic(n)


def laws_to_shift(exact):
    """(distribution, chain, law) of simple on a 6-edge path and Moran K4."""
    g = path(6)
    dist = ew.simple_edit_weights(g, mixed_p(6, exact))
    yield dist, ew.build_chain(dist, g), list(ew.stationary_closed_form(g, mixed_p(6, exact)))
    k4 = ew.complete_graph(4)
    dist = ew.moran_weights(k4)
    masks, pi = ew.stationary_faces(dist, k4, exact=exact)
    yield dist, ew.build_chain(dist, k4, masks), list(pi)


@pytest.mark.parametrize("exact", [False, True], ids=["double", "rational"])
def test_a_shifted_law_fails_the_bound(exact):
    d = Fraction(1, 10**9) if exact else 1e-9
    for dist, tm, pi in laws_to_shift(exact):
        for shift in ({3: d}, {3: d, 5: -d}):  # the second keeps the sum
            moved = [x + shift.get(k, 0) for k, x in enumerate(pi)]
            result = check_stationary_vs_solve(dist, verify_law(tm, moved))
            assert not result.passed and result.name == "stationary_vs_linear_solve"
            law = np.array(moved, dtype=float)
            gap = np.abs(law @ tm.to_float() - law).sum()  # the dense ||pi P - pi||_1
            assert result.residual >= 1e-9 and result.residual >= gap * float(_coupling_time(dist)) * (1 - 1e-6)


def commute_states(exact):
    g = path(4)
    p = mixed_p(4, exact)
    return g, p, ew.build_chain(ew.simple_edit_weights(g, p), g), [1, 6, 9, 14, 15]


@pytest.mark.parametrize("exact", [False, True], ids=["double", "rational"])
def test_the_closed_form_passes_the_identity(exact):
    g, p, tm, states = commute_states(exact)
    result = check_commute_backends(g, p, tm, states)
    assert result.passed and result.detail == "10 pairs"
    assert result.residual == 0.0 if exact else result.residual < 1e-14
    # rational p with a float chain, or float p with an exact one, is checked in float64
    other = [float(x) for x in p] if exact else [Fraction(x) for x in p]
    mixed = check_commute_backends(g, other, tm, states)
    assert mixed.passed and 0 < mixed.residual < 1e-14


@pytest.mark.parametrize("exact", [False, True], ids=["double", "rational"])
def test_a_moved_chain_cell_fails_the_identity(exact):
    """1e-6 of row 0's mass moved from the cell to state 1 onto the diagonal:
    the rows still sum to 1, but the hitting columns no longer fit."""
    g, p, tm, states = commute_states(exact)
    scale = 10**6 if exact else 1  # so that an exact chain moves one unit of its new denominator
    nums, d = tm.numerators * scale, tm.denominator if exact else 1e-6
    nums[np.flatnonzero((tm.rows == 0) & (tm.cols == 1))[0]] -= d
    nums[np.flatnonzero((tm.rows == 0) & (tm.cols == 0))[0]] += d
    broken = dataclasses.replace(tm, numerators=nums, denominator=tm.denominator * scale)
    assert broken.row_sum_residual() < 1e-15
    result = check_commute_backends(g, p, broken, states)
    assert not result.passed and result.name == "commute_backends"
    assert 1e-8 < result.residual < 1


@pytest.mark.parametrize("exact", [False, True], ids=["double", "rational"])
def test_a_bumped_hitting_factor_fails_the_identity(monkeypatch, exact):
    """One edge's held factor n_e raised by 1e-6 relative: the columns and
    the pairwise sums still agree with each other, the chain does not."""
    g = path(4)
    p = [Fraction(k * 1234567 % 10**7 + 1, 10**7 + 19) for k in range(1, 5)]
    p = p if exact else [float(x) for x in p]
    tm = ew.build_chain(ew.simple_edit_weights(g, p), g)

    def bumped(g, p):
        terms = _sum_terms(g, p)
        factors = list(terms.factors)
        lack, (q, n) = factors[2]
        factors[2] = (lack, (q, n + n // 10**6 if exact else n * (1 + 1e-6)))
        return dataclasses.replace(terms, factors=factors)
    monkeypatch.setattr(verify, "_sum_terms", bumped)
    result = check_commute_backends(g, p, tm, [1, 6, 9, 14, 15])
    assert not result.passed and 1e-8 < result.residual < 1


def test_an_overflowing_float_column_fails_by_name():
    """With p = 1e-200 on both edges of a path, the full state has pi = 1e-400
    and the times to it overflow float64: the check fails with residual inf
    and says why, never with nan; rational mode has the exact values."""
    g = path(2)
    p = [1e-200, 1e-200]
    tm = ew.build_chain(ew.simple_edit_weights(g, p), g)
    result = check_commute_backends(g, p, tm, [0, 1, 2, 3])
    assert not result.passed and result.residual == np.inf
    assert result.detail == "6 pairs, float hitting time overflows at m = 2 edges; use rational mode"
    with np.errstate(divide="ignore", invalid="ignore"):
        lines = [r.line() for r in run_verification(g, ew.simple_edit_weights(g, p), p=p)]
    commute = next(line for line in lines if "commute_backends" in line)
    assert "nan" not in commute and commute.startswith("FAIL  commute_backends: residual inf")
    exact_p = [Fraction(x) for x in p]
    exact_tm = ew.build_chain(ew.simple_edit_weights(g, exact_p), g)
    assert check_commute_backends(g, exact_p, exact_tm, [0, 1, 2, 3]).residual == 0.0


def test_hitting_column_is_the_closed_form():
    g = path(4)
    p = mixed_p(4, True)
    terms = _sum_terms(g, p)
    for F in range(16):
        column = _hitting_column(F, terms)
        assert [Fraction(h, terms.denominator) for h in column.tolist()] == [
            ew.hitting_time_closed(ew.EdgeSet(4, E), ew.EdgeSet(4, F), g, p) for E in range(16)]


@pytest.mark.parametrize("exact", [False, True], ids=["double", "rational"])
def test_right_apply_is_the_dense_product(exact):
    _, _, tm, _ = commute_states(exact)
    vectors = np.arange(2 * tm.size).reshape(2, tm.size) % 7
    vectors = vectors.astype(object) if exact else vectors.astype(float)
    got = tm.right_apply(vectors)
    if exact:
        assert np.array_equal(got, (tm.entries @ vectors.T).T * tm.denominator)
    else:
        assert np.allclose(got, vectors @ tm.to_float().T, rtol=0, atol=1e-14)
    assert np.array_equal(tm.right_apply(vectors[0]), got[0])
