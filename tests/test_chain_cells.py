"""Chains kept as nonzero cells, checked against the dense construction
they replaced.

The oracles below are the former dense implementations: one exact and one
float loop over the edits writing into an N x N matrix, the double-loop
reorder, the O(N^2) and O(N^3) exact verify residuals, and the N^2 DOT
walk. Cells must reproduce them bit for bit, including the Fraction type
of every exact entry.
"""

import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

import editwalk as ew
from editwalk import spectral, verify
from editwalk.errors import SupportNotCovering, ValidationError
from editwalk.spectral import TransitionMatrix
from oracles import chain_from_dense, from_items, parse_edit, q_matrix, reorder, sign_lex_order
from editwalk.verify import (
    check_detailed_balance,
    check_eigenvector_residuals,
    check_q_symmetry,
    check_stationary_fixed_point,
    run_verification,
)


def chain_states(dist, g, restrict):
    """The states `build_chain` takes: None for all 2^m, else the recurrent class."""
    return None if restrict == "all" else ew.recurrent_class(dist, g)


def dense_chain(dist, g, restrict="all"):
    """The former twin-loop construction: (states, entries, exact)."""
    if restrict == "all":
        states = tuple(ew.EdgeSet(g.m, mask) for mask in range(1 << g.m))
    else:
        states = tuple(ew.EdgeSet(g.m, mask) for mask in ew.recurrent_class(dist, g).tolist())
    index = {s.mask: i for i, s in enumerate(states)}
    n = len(states)
    if dist.is_exact:
        entries = np.empty((n, n), dtype=object)
        entries[:, :] = Fraction(0)
        for plus, minus, w in dist.items:
            for i, s in enumerate(states):
                entries[i, index[(s.mask | plus) & ~minus]] += w
        return states, entries, True
    masks = np.array([s.mask for s in states], dtype=np.int64)
    entries = np.zeros((n, n))
    rows = np.arange(n)
    for plus, minus, w in dist.items:
        cols = np.array([index[int(d)] for d in (masks | plus) & ~minus])
        np.add.at(entries, (rows, cols), float(w))
    return states, entries, False


def dense_to_float(entries, exact):
    if exact:
        return np.array([[float(v) for v in row] for row in entries], dtype=float)
    return entries


def dense_reorder(states, entries, masks):
    index = {s.mask: i for i, s in enumerate(states)}
    perm = [index[mask] for mask in masks]
    out = np.empty(entries.shape, dtype=object)
    for a, i in enumerate(perm):
        for b, j in enumerate(perm):
            out[a, b] = entries[i, j]
    return tuple(states[i] for i in perm), out


def dense_dot(states, entries, exact, label):
    P = dense_to_float(entries, exact)
    lines = ["digraph states {"] + [f'  "{label(s)}";' for s in states]
    for i, j in itertools.product(range(len(states)), repeat=2):
        if i != j and P[i, j] > 0.0:
            w = entries[i, j] if exact else f"{P[i, j]:.6g}"
            lines.append(f'  "{label(states[i])}" -> "{label(states[j])}" [label="{w}"];')
    return "\n".join(lines + ["}"]) + "\n"


def cycle_family(m, exact):
    """Two opposite-signed edits on each pair of adjacent cycle edges, with
    unequal weights; many edits share a cell (every self-loop, at least)."""
    g = ew.from_edge_list(m, [(i, (i + 1) % m) for i in range(m)])
    raw = []
    for i in range(m):
        j = (i + 1) % m
        raw.append((f"+{i} -{j}", 2 * i + 1))
        raw.append((f"-{i} +{j}", 2 * i + 2))
    total = sum(w for _, w in raw)
    items = tuple(
        (parse_edit(text, m), Fraction(w, total) if exact else w / total) for text, w in raw
    )
    return g, from_items(m, items)


def _path(m):
    return ew.from_edge_list(m + 1, [(i, i + 1) for i in range(m)])


def _simple(m, exact):
    g = _path(m) if m != 6 else ew.complete_graph(4)
    p = [Fraction(e + 1, m + 2) for e in range(m)]
    return g, ew.simple_edit_weights(g, p if exact else [float(x) for x in p])


def _intersection(exact):
    mu = [Fraction(1, 6), Fraction(1, 3), Fraction(1, 4), Fraction(1, 4)]
    dist = ew.intersection_weights(2, 3, mu if exact else [float(x) for x in mu])
    return ew.intersection_host(2, 3), dist


FAMILIES = {
    "moran K4": lambda: (ew.complete_graph(4), ew.moran_weights(ew.complete_graph(4)), "recurrent"),
    "moran K5": lambda: (ew.complete_graph(5), ew.moran_weights(ew.complete_graph(5)), "recurrent"),
    **{
        f"simple m={m} {kind}": (lambda m=m, exact=exact: (*_simple(m, exact), "all"))
        for m in range(1, 7)
        for kind, exact in (("rational", True), ("float", False))
    },
    "intersection 2x3 rational": lambda: (*_intersection(True), "all"),
    "intersection 2x3 float": lambda: (*_intersection(False), "all"),
    "cycle m=6 rational": lambda: (*cycle_family(6, True), "recurrent"),
    "cycle m=6 float": lambda: (*cycle_family(6, False), "recurrent"),
}


@pytest.mark.parametrize("name", FAMILIES)
def test_cells_reproduce_dense_construction(name):
    g, dist, restrict = FAMILIES[name]()
    tm = ew.build_chain(dist, g, chain_states(dist, g, restrict))
    states, entries, exact = dense_chain(dist, g, restrict)
    assert tm.masks.tolist() == [s.mask for s in states] and tm.exact == exact
    assert np.array_equal(tm.to_float(), dense_to_float(entries, exact))
    if exact:
        assert tm.entries.dtype == object
        assert all(type(v) is Fraction for v in tm.entries.flat)
    assert np.array_equal(tm.entries, entries)
    assert tm.row_sum_residual() == (0 if exact else np.abs(entries.sum(axis=1) - 1).max())


def test_cycle_family_shares_cells():
    g, dist = cycle_family(6, True)
    tm = ew.build_chain(dist, g, ew.recurrent_class(dist, g))
    assert len(tm.rows) < len(dist.items) * tm.size


def test_edit_leaving_the_states_is_named():
    g = _path(2)
    dist = ew.simple_edit_weights(g, Fraction(1, 2))
    with pytest.raises(ValidationError, match="leaves the state set"):
        ew.build_chain(dist, g, np.array([0b01], np.uint64))


@pytest.mark.parametrize("exact", [True, False])
def test_from_dense_round_trip(exact):
    g, dist = cycle_family(6, exact)
    tm = ew.build_chain(dist, g, ew.recurrent_class(dist, g))
    again = chain_from_dense(tm.m, tm.masks, tm.entries, exact)
    assert np.array_equal(again.entries, tm.entries)
    assert np.array_equal(again.to_float(), tm.to_float())


@pytest.mark.parametrize("exact", [True, False])
def test_reorder_matches_double_loop(exact):
    g, dist = _intersection(exact)
    tm = ew.build_chain(dist, g)
    order = sign_lex_order(g.m)
    states, entries = dense_reorder(*dense_chain(dist, g)[:2], order)
    moved = reorder(tm, order)
    assert moved.masks.tolist() == [s.mask for s in states]
    assert np.array_equal(moved.entries, entries.astype(moved.entries.dtype))
    if exact:
        assert all(type(v) is Fraction for v in moved.entries.flat)


@pytest.mark.parametrize("exact", [True, False])
def test_to_dot_matches_dense_walk(exact):
    for g, dist, restrict in (FAMILIES["moran K4"](), (*cycle_family(6, exact), "recurrent")):
        tm = ew.build_chain(dist, g, chain_states(dist, g, restrict))
        states, entries, is_exact = dense_chain(dist, g, restrict)
        assert ew.to_dot(tm) == dense_dot(states, entries, is_exact, ew.EdgeSet.hex)
        by_edges = dense_dot(states, entries, is_exact, lambda s: "{" + ",".join(
            f"{u}-{v}" for u, v in (g.edges[e] for e in s.indices())) + "}")
        assert ew.to_dot(tm, g, labels="edges") == by_edges


def _fraction_rows(system):
    """The phi rows of an exact eigensystem as lists of Fractions."""
    return [[Fraction(v, system.denominator) for v in row] for row in system.numerators]


def _old_residuals(entries, pi, phi_rows, lams):
    """The former exact verify formulas over the dense matrix."""
    n = len(pi)
    fixed = max(abs(sum(pi[i] * entries[i, j] for i in range(n)) - pi[j]) for j in range(n))
    balance = max(
        abs(pi[i] * entries[i, j] - pi[j] * entries[j, i]) for i in range(n) for j in range(n)
    )
    eigen = Fraction(0)
    for row, lam in zip(phi_rows, lams):
        for j in range(n):
            lhs = sum(row[k] * entries[k, j] for k in range(n))
            eigen = max(eigen, abs(lhs - lam * row[j]))
    return fixed, balance, eigen


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("right", [True, False])
def test_exact_verify_residuals_match_dense_formulas(m, right):
    # right=False feeds a law and eigenvectors for other edge probabilities,
    # so the residuals are nonzero and their values are compared too
    g = _path(m)
    p = [Fraction(e + 1, m + 2) for e in range(m)]
    tm = ew.build_chain(ew.simple_edit_weights(g, p), g)
    other = p if right else [Fraction(1, 2)] * (m - 1) + [Fraction(1, 7)]
    pi = ew.stationary_closed_form(g, other)
    system = ew.eigensystem_simple(g, other)
    fixed, balance, eigen = _old_residuals(
        dense_chain(ew.simple_edit_weights(g, p), g)[1], pi, _fraction_rows(system), system.eigenvalues
    )
    assert (fixed == 0 and balance == 0 and eigen == 0) == right
    results = [
        check_stationary_fixed_point(tm, pi),
        check_detailed_balance(tm, pi),
        check_eigenvector_residuals(system, tm),
    ]
    for result, old in zip(results, (fixed, balance, eigen)):
        assert result.detail == "exact" and result.residual == float(old)


def test_reversibility_residuals_match_the_dense_transpose():
    # the laws are for other edge probabilities, so the residuals are not 0;
    # the cells give the dense max |A - A^T| bit for bit. An exact chain with
    # a float law is read in float, as Moran's double mode pairs them.
    rng = np.random.default_rng(40)
    for _ in range(20):
        m = int(rng.integers(1, 6))
        g = _path(m)
        p, other = ([Fraction(int(rng.integers(1, 12)), 13) for _ in range(m)] for _ in range(2))
        for exact_chain, exact in ((True, True), (False, False), (True, False)):
            tm = ew.build_chain(ew.simple_edit_weights(g, p if exact_chain else [float(x) for x in p]), g)
            pi = ew.stationary_closed_form(g, other if exact else [float(x) for x in other])
            root = np.asarray([float(x) for x in pi])
            Q = q_matrix(tm, root)
            assert check_q_symmetry(tm, pi).residual == float(np.abs(Q - Q.T).max())
            flow = root[:, None] * tm.to_float() if not exact else np.asarray(pi)[:, None] * tm.entries
            balance = spectral.detailed_balance_residual(tm, pi)
            assert type(balance) is (Fraction if exact else float)
            assert balance == np.abs(flow - flow.T).max()
    k4 = ew.complete_graph(4)
    dist = ew.moran_weights(k4)
    masks, pi = ew.stationary_faces(dist, k4, exact=False)
    tm = ew.build_chain(dist, k4, masks)
    assert tm.exact and pi.dtype == float
    flow = pi[:, None] * tm.to_float()
    assert spectral.detailed_balance_residual(tm, pi) == np.abs(flow - flow.T).max() > 0
    fixed = check_stationary_fixed_point(tm, pi)
    assert fixed.passed and fixed.detail == ""
    assert fixed.residual == pytest.approx(np.abs(pi @ tm.to_float() - pi).max(), abs=1e-16)


@pytest.mark.parametrize("block", [3, 64])
def test_exact_eigenvector_residual_of_a_perturbed_eigenvalue(monkeypatch, block):
    # the integer identity must report the residual the Fraction formula gives,
    # whichever block of rows holds the wrong eigenvalue
    monkeypatch.setattr(verify, "ROW_BLOCK", block)
    g = _path(4)
    p = [Fraction(e + 1, 6) for e in range(4)]
    tm = ew.build_chain(ew.simple_edit_weights(g, p), g)
    system = ew.eigensystem_simple(g, p)
    values = list(system.eigenvalues)
    values[7] += Fraction(1, 97)
    wrong = dataclasses.replace(system, eigenvalues=tuple(values))
    pi = ew.stationary_closed_form(g, p)
    dense = dense_chain(ew.simple_edit_weights(g, p), g)[1]
    eigen = _old_residuals(dense, pi, _fraction_rows(system), values)[2]
    result = check_eigenvector_residuals(wrong, tm)
    assert eigen > 0 and result.detail == "exact" and result.residual == float(eigen)


def test_rational_verification_builds_no_fraction_views(monkeypatch):
    g = ew.complete_graph(4)
    p = [Fraction(k, 13) for k in (1, 2, 5, 7, 11, 12)]
    dist = ew.simple_edit_weights(g, p)
    tm = ew.build_chain(dist, g)
    systems = []

    def capture(*args, **kwargs):
        systems.append(ew.eigensystem_simple(*args, **kwargs))
        return systems[-1]

    monkeypatch.setattr(verify, "eigensystem_simple", capture)
    monkeypatch.setattr(verify, "build_chain", lambda *args, **kwargs: tm)
    results = run_verification(g, dist, p=p)
    assert all(r.passed for r in results), [r.line() for r in results]
    ew.to_dot(tm)
    assert len([s for s in systems if s.exact]) == 1
    assert "entries" not in vars(tm)


def test_left_apply_matches_dense_product():
    g, dist = cycle_family(6, False)
    tm = ew.build_chain(dist, g, ew.recurrent_class(dist, g))
    vectors = np.random.default_rng(0).random((3, tm.size))
    assert np.allclose(tm.left_apply(vectors), vectors @ tm.to_float(), rtol=0, atol=1e-15)
    assert np.allclose(tm.left_apply(vectors[0]), vectors[0] @ tm.to_float(), rtol=0, atol=1e-15)


def test_rational_verification_at_seven_edges_is_exact():
    g = _path(7)
    p = [Fraction(k, 11) for k in (1, 2, 3, 5, 7, 8, 10)]
    results = run_verification(g, ew.simple_edit_weights(g, p), p=p)
    assert all(r.passed for r in results), [r.line() for r in results]
    exact = {r.name: r.residual for r in results if r.detail == "exact"}
    assert set(exact) == {
        "stationary_fixed_point", "detailed_balance", "eigenvector_residual", "spectrum_multiset"
    }
    assert all(v == 0.0 for v in exact.values())
    assert next(r for r in results if r.name == "row_stochastic").residual == 0.0


def test_moran_float_solve_builds_no_square_object_array(monkeypatch):
    k5 = ew.complete_graph(5)
    n = len(ew.recurrent_class(ew.moran_weights(k5), k5))
    square_objects = []

    def spy(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if isinstance(out, np.ndarray) and out.dtype == object and out.size >= n * n:
                square_objects.append(fn.__name__)
            return out
        return wrapper

    for name in ("array", "asarray", "empty", "full", "zeros", "vstack"):
        monkeypatch.setattr(np, name, spy(getattr(np, name)))
    dense_chain(ew.moran_weights(k5), k5, "recurrent")  # positive control
    assert square_objects == ["empty"]
    square_objects.clear()
    dist = ew.moran_weights(k5)
    tm = ew.build_chain(dist, k5, ew.recurrent_class(dist, k5))
    pi = ew.stationary_numeric(tm)
    assert tm.exact and abs(pi.sum() - 1) < 1e-12
    assert square_objects == []
    assert "entries" not in vars(tm) and "values" not in vars(tm)


@pytest.mark.parametrize("exact", [True, False])
def test_hosts_beyond_64_edges(exact):
    # two edits swapping edges 0 and 69; the other edges stay frozen
    m = 70
    g = ew.from_edge_list(m, [(i, (i + 1) % m) for i in range(m)])
    half = Fraction(1, 2) if exact else 0.5
    dist = from_items(m, ((parse_edit("+0 -69", m), half), (parse_edit("-0 +69", m), half)))
    with pytest.warns(SupportNotCovering):
        tm = ew.build_chain(dist, g, ew.recurrent_class(dist, g, initial=ew.EdgeSet(m, 0b110)))
    assert tm.masks.tolist() == [0b111, (1 << 69) | 0b110]
    assert np.array_equal(tm.to_float(), np.full((2, 2), 0.5))
    assert tm.exact == exact and np.array_equal(tm.entries, np.full((2, 2), half))
