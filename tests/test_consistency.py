"""Cross-module consistency checks: the generic compound-chain machinery,
the closed forms, and plain simulation must all tell the same story."""

from fractions import Fraction

import numpy as np
import pytest

import editwalk as ew
from editwalk.errors import ValidationError
from oracles import commute_time_chain, intersection_stationary_enumerated, largest_dropped_term, reorder


def test_one_edge_host_end_to_end():
    g = ew.from_edge_list(2, [(0, 1)])
    p = Fraction(2, 5)
    dist = ew.simple_edit_weights(g, [p])
    tm = ew.build_chain(dist, g)
    # both rows are (1-p, p): the single edge is resampled every step
    for i in range(2):
        assert tm.entries[i, 0] == 1 - p and tm.entries[i, 1] == p
    absent, present = ew.EdgeSet(1, 0), ew.EdgeSet(1, 1)
    assert ew.commute_time(absent, present, g, [p]) == 1 / p + 1 / (1 - p)
    assert ew.hitting_time_closed(absent, present, g, [p]) == 1 / p
    report = ew.eigenvalues_simple(1)
    assert list(zip(report.eigenvalues.tolist(), report.multiplicities.tolist())) == [
        (Fraction(0), 1),
        (Fraction(1), 1),
    ]


def test_generic_lattice_path_reproduces_simple_closed_form():
    # running a per-edge distribution through the compound machinery
    # (closure, chamber counts, back-substitution) must give multiplicity
    # one per subset, the same multiset as the closed form
    g = ew.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    dist = ew.simple_edit_weights(g, 0.3)
    generic = ew.spectrum(dist, g)
    closed = ew.eigenvalues_simple(g.m)
    assert set(generic.multiplicities.tolist()) == {1}
    assert generic.eigenvalue_multiset() == closed.eigenvalue_multiset()


def test_commute_backends_agree_at_extreme_probabilities():
    rng = np.random.default_rng(101)
    g = ew.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3)])
    p = list(rng.uniform(0.02, 0.98, size=6))
    tm = ew.build_chain(ew.simple_edit_weights(g, p), g)
    for _ in range(8):
        i, j = rng.choice(64, size=2, replace=False)
        a, b = ew.EdgeSet(6, int(i)), ew.EdgeSet(6, int(j))
        closed = float(ew.commute_time(a, b, g, p))
        assert largest_dropped_term(a, b, g, p) <= 1e-14
        solved = commute_time_chain(tm, a, b)
        assert abs(closed - solved) <= 1e-6 * abs(solved)


def test_compound_decay_dominated_by_spectral_bound():
    k4 = ew.complete_graph(4)
    dist = ew.moran_weights(k4)
    tm = ew.build_chain(dist, k4, ew.recurrent_class(dist, k4))
    report = ew.spectrum(dist, k4)
    pi = ew.stationary_numeric(tm)
    rng = np.random.default_rng(5)
    starts = rng.choice(tm.size, size=5, replace=False)
    for s in starts:
        curve = ew.tv_decay(tm, tm.masks[int(s)], pi, 20)
        for t in range(1, 21):
            assert curve[t] <= ew.brown_tv_bound(report, t) + 1e-12


def test_moran_empirical_matches_stationary():
    # plain simulation agrees with the linear-solve stationary law of the
    # recurrent chain
    k3 = ew.complete_graph(3)
    dist = ew.moran_weights(k3)
    tm = ew.build_chain(dist, k3, ew.recurrent_class(dist, k3))
    pi = ew.stationary_numeric(tm)
    hist = ew.empirical_distribution(
        dist, k3.full_set(), burn_in=100, samples=120_000, seed=77
    )
    sampled = np.array([hist[mask] for mask in tm.masks.tolist()])
    assert hist.sum() == pytest.approx(1.0)
    assert 0.5 * np.abs(sampled - pi).sum() < 0.01


def test_intersection_empirical_matches_product_law():
    n, N = 2, 2
    mu = [0.25, 0.5, 0.25]
    dist = ew.intersection_weights(n, N, mu)
    pi = intersection_stationary_enumerated(n, N, mu)
    hist = ew.empirical_distribution(
        dist, ew.EdgeSet(n * N, 0), burn_in=50, samples=120_000, seed=13
    )
    assert 0.5 * np.abs(hist - pi).sum() < 0.01


def test_reorder_requires_permutation():
    g = ew.from_edge_list(3, [(0, 1), (1, 2)])
    tm = ew.build_chain(ew.simple_edit_weights(g, 0.5), g)
    with pytest.raises(ValidationError):
        reorder(tm, [0, 0, 1, 2])
    with pytest.raises(ValidationError):
        reorder(tm, [0, 1])


def test_simulate_thin_larger_than_steps():
    g = ew.from_edge_list(3, [(0, 1), (1, 2)])
    dist = ew.simple_edit_weights(g, 0.5)
    traj = ew.simulate(dist, g.empty_set(), 5, seed=1, thin=10)
    assert len(traj.masks) == 2  # initial and final
