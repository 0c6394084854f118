"""Acceptance suite: one test per numbered criterion, at the stated
tolerances, each printing a pass line (visible with pytest -s / -v).

Numeric conventions used throughout:
* "exact" assertions use Fraction arithmetic end to end (zero tolerance);
* eigenvalue multisets of reversible chains are extracted through the
  symmetrized similarity transform (identical spectrum, real and stable);
  nonreversible compound chains use the plain dense eigensolver;
* all randomness is seeded.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import editwalk as ew
from oracles import (
    commute_terms_enumerated,
    intersection_stationary_enumerated,
    neighborhood_edges,
    permute_vector,
    q_matrix,
    reorder,
    sign_lex_order,
)
from editwalk.errors import CapExceeded

SEED = 20260810


def random_host(rng, m):
    n = int(rng.integers(3, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while len(pairs) < m:
        n += 1
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    idx = rng.choice(len(pairs), size=m, replace=False)
    return ew.from_edge_list(n, [pairs[i] for i in idx])


def rational_probs(rng, m):
    den = int(rng.choice([7, 9, 11, 13]))
    return [Fraction(int(rng.integers(1, den)), den) for _ in range(m)]


def reversible_numeric_eigenvalues(tm, pi):
    Q = q_matrix(tm, pi)
    return np.sort(np.linalg.eigvalsh((Q + Q.T) / 2.0))[::-1]


def test_criterion_01_golden_path_on_two_edges():
    g = ew.from_edge_list(3, [(0, 1), (1, 2)])
    p = Fraction(1, 4)
    probs = [p, p]
    order = sign_lex_order(2)  # (both, first, second, empty)
    states = [ew.EdgeSet(2, mask) for mask in order]

    dist = ew.simple_edit_weights(g, probs)
    tm = reorder(ew.build_chain(dist, g), order)
    assert tm.exact
    expected_matrix = [
        [p, (1 - p) / 2, (1 - p) / 2, 0],
        [p / 2, Fraction(1, 2), 0, (1 - p) / 2],
        [p / 2, 0, Fraction(1, 2), (1 - p) / 2],
        [0, p / 2, p / 2, 1 - p],
    ]
    for i in range(4):
        for j in range(4):
            assert tm.entries[i, j] == expected_matrix[i][j]

    pi = permute_vector(ew.stationary_closed_form(g, probs), order)
    assert pi == [p**2, p * (1 - p), p * (1 - p), (1 - p) ** 2]

    phi_a = permute_vector(ew.phi(ew.EdgeSet(2, 0b01), g, probs), order)
    phi_b = permute_vector(ew.phi(ew.EdgeSet(2, 0b10), g, probs), order)
    phi_empty = permute_vector(ew.phi(ew.EdgeSet(2, 0), g, probs), order)
    assert phi_a == [p, -p, 1 - p, -(1 - p)]
    assert phi_b == [p, 1 - p, -p, -(1 - p)]
    assert phi_empty == [1, -1, -1, 1]

    report = ew.eigenvalues_simple(2)
    lam = dict(zip(report.flats.tolist(), report.eigenvalues.tolist()))
    assert [lam[mask] for mask in order] == [
        Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(0)
    ]

    # commute matrix, symbolically evaluated at p = 1/4 (exact)
    C = [[ew.commute_time(a, b, g, probs) for b in states] for a in states]
    adjacent = (1 + p) / (p**2 * (1 - p))
    opposite = 1 / (p**2 * (1 - p) ** 2)
    across = 4 / (p * (1 - p))
    to_empty = (2 - p) / (p * (1 - p) ** 2)
    assert C == [
        [0, adjacent, adjacent, opposite],
        [adjacent, 0, across, to_empty],
        [adjacent, across, 0, to_empty],
        [opposite, to_empty, to_empty, 0],
    ]

    # and the displayed integer pattern at p = 1/2
    half = [Fraction(1, 2)] * 2
    C_half = [[ew.commute_time(a, b, g, half) for b in states] for a in states]
    assert C_half == [
        [0, 12, 12, 16],
        [12, 0, 16, 12],
        [12, 16, 0, 12],
        [16, 12, 12, 0],
    ]
    print("\n[criterion 1] PASS golden two-edge path (exact arithmetic)")


def test_criterion_02_simple_spectrum_at_desk_scale():
    rng = np.random.default_rng(SEED + 2)
    worst_multiset = 0.0
    worst_residual = 0.0
    worst_cross = 0.0
    for trial in range(20):
        m = int(rng.integers(3, 11))
        g = random_host(rng, m)
        closed = ew.eigenvalues_simple(m)
        # aggregated multiplicities follow the binomial ladder
        assert closed.by_value() == [
            (k / m, math.comb(m, k)) for k in range(m, -1, -1)
        ]
        closed_multiset = closed.eigenvalue_multiset()

        numeric = {}
        for run in ("first", "second"):
            p = [float(x) for x in rational_probs(rng, m)]
            tm = ew.build_chain(ew.simple_edit_weights(g, p), g)
            pi = ew.stationary_closed_form(g, p)
            numeric[run] = reversible_numeric_eigenvalues(tm, pi)
            worst_multiset = max(
                worst_multiset,
                ew.eigenvalue_multiset_residual(closed_multiset, numeric[run]),
            )
            lam = np.array([mask.bit_count() / m for mask in range(1 << m)])
            Phi = np.vstack(
                [np.asarray(ew.phi(ew.EdgeSet(m, mask), g, p)) for mask in range(1 << m)]
            )
            residual = np.abs(Phi @ tm.entries - lam[:, None] * Phi).max()
            worst_residual = max(worst_residual, residual)
        # the eigenvalue multiset does not depend on the edge probabilities
        worst_cross = max(
            worst_cross,
            ew.eigenvalue_multiset_residual(numeric["first"], numeric["second"]),
        )
    assert worst_multiset < 1e-8
    assert worst_residual < 1e-12
    assert worst_cross < 1e-8
    print(
        f"\n[criterion 2] PASS 20 hosts, multiset gap {worst_multiset:.2e} < 1e-8, "
        f"phi residual {worst_residual:.2e} < 1e-12, p-independence {worst_cross:.2e}"
    )


def test_criterion_03_stationary_and_reversibility():
    rng = np.random.default_rng(SEED + 3)
    worst_fixed = 0.0
    worst_balance = 0.0
    for m in (3, 6, 8):
        g = random_host(rng, m)
        p = list(rng.uniform(0.1, 0.9, size=m))
        tm = ew.build_chain(ew.simple_edit_weights(g, p), g)
        pi = np.asarray(ew.stationary_closed_form(g, p))
        worst_fixed = max(worst_fixed, np.abs(pi @ tm.entries - pi).max())
        worst_balance = max(worst_balance, ew.spectral.detailed_balance_residual(tm, pi))
    assert worst_fixed < 1e-12
    assert worst_balance < 1e-12
    print(
        f"\n[criterion 3] PASS fixed point {worst_fixed:.2e}, "
        f"detailed balance {worst_balance:.2e} (both < 1e-12)"
    )


def test_criterion_04_orthonormal_eigenvectors():
    rng = np.random.default_rng(SEED + 4)
    worst_gram = 0.0
    worst_sym = 0.0
    for m in (5, 8):
        g = random_host(rng, m)
        p = list(rng.uniform(0.15, 0.85, size=m))
        system = ew.eigensystem_simple(g, p)
        gram = system.psi @ system.psi.T
        worst_gram = max(worst_gram, np.abs(gram - np.eye(1 << m)).max())
        tm = ew.build_chain(ew.simple_edit_weights(g, p), g)
        Q = q_matrix(tm, ew.stationary_closed_form(g, p))
        worst_sym = max(worst_sym, np.abs(Q - Q.T).max())
    assert worst_gram < 1e-10
    assert worst_sym < 1e-12
    print(
        f"\n[criterion 4] PASS gram {worst_gram:.2e} < 1e-10, "
        f"Q symmetry {worst_sym:.2e} < 1e-12"
    )


def test_criterion_05_simple_mixing_envelope():
    rng = np.random.default_rng(SEED + 5)
    for m in (4, 6, 8):
        g = random_host(rng, m)
        p = list(rng.uniform(0.1, 0.9, size=m))
        tm = ew.build_chain(ew.simple_edit_weights(g, p), g)
        pi = ew.stationary_closed_form(g, p)
        t_envelope = math.ceil(2 * m * math.log(m))
        t_targets = {c: ew.mixing_bound_simple(m, c) for c in (1.0, 3.0)}
        t_max = max(max(t_targets.values()), t_envelope)
        for start in rng.integers(0, 1 << m, size=4):
            curve = ew.tv_decay(tm, int(start), pi, t_max)
            for t in range(t_envelope, t_max + 1):
                assert curve[t] <= ew.simple_tv_bound(m, t) + 1e-12
            for c, t_c in t_targets.items():
                assert curve[t_c] <= math.exp(-c)
    print("\n[criterion 5] PASS decay envelope and e^-c targets, m in {4, 6, 8}")


def moran_flat_eigenvalue(g, flat):
    # independent re-derivation: mass of vertex stars inside the flat
    total = Fraction(0)
    for v in range(g.n):
        star = neighborhood_edges(g, v)
        if star.mask & ~flat.mask == 0:
            total += Fraction(g.degree(v), 2 * g.m)
    return total


@pytest.mark.parametrize(
    "host",
    [
        ew.complete_graph(4),
        ew.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    ],
    ids=["K4", "C5"],
)
def test_criterion_06_moran_spectra(host):
    dist = ew.moran_weights(host)
    states = ew.recurrent_class(dist, host)
    for mask in states.tolist():
        assert ew.forest_flags(host, [mask])[0]
    report = ew.spectrum(dist, host)
    assert report.total_multiplicity == len(states)
    for flat, value in zip(report.flats.tolist(), report.eigenvalues.tolist()):
        assert value == moran_flat_eigenvalue(host, ew.EdgeSet(host.m, flat))
    tm = ew.build_chain(dist, host, ew.recurrent_class(dist, host))
    numeric = ew.numeric_eigenvalues(tm)
    gap = ew.eigenvalue_multiset_residual(report.eigenvalue_multiset(), numeric)
    assert gap < 1e-8
    print(
        f"\n[criterion 6] PASS neighborhood resampling on {host!r}: "
        f"{len(states)} chambers, multiset gap {gap:.2e} < 1e-8, all states acyclic"
    )


@pytest.mark.parametrize("N", [2, 3])
def test_criterion_07_intersection_model(N):
    n = 2
    host = ew.intersection_host(n, N)
    uniform = [Fraction(1, N + 1)] * (N + 1)
    skewed = [Fraction(k + 1, (N + 1) * (N + 2) // 2) for k in range(N + 1)]
    assert sum(skewed) == 1
    eigen_sets = []
    for mu in (uniform, skewed):
        dist = ew.intersection_weights(n, N, mu)
        report = ew.spectrum(dist, host)
        values = sorted(report.eigenvalues.astype(float).tolist())
        # one eigenvalue |B|/n per subset B of the ground vertices
        assert values == [b / n for b in sorted(
            bin(mask).count("1") for mask in range(1 << n)
        )]
        assert 1.0 - report.second_largest() == pytest.approx(1.0 / n, abs=1e-12)
        eigen_sets.append(values)

        tm = ew.build_chain(dist, host)
        pi_solved = ew.stationary_numeric(tm)
        pi_product = intersection_stationary_enumerated(n, N, mu)
        assert np.abs(pi_solved - pi_product).max() < 1e-10
    assert max(
        abs(a - b) for a, b in zip(eigen_sets[0], eigen_sets[1])
    ) < 1e-10
    print(
        f"\n[criterion 7] PASS bipartite reassignment n=2 N={N}: gap 1/2 for "
        "both size laws, stationary matches the product construction < 1e-10"
    )


def test_criterion_08_commute_backends_agree():
    rng = np.random.default_rng(SEED + 8)
    checked_pairs = 0
    worst_rel = 0.0
    worst_dropped = 0.0
    for m, pair_count in ((3, 16), (5, 17), (8, 17)):
        g = random_host(rng, m)
        p = list(rng.uniform(0.15, 0.85, size=m))
        tm = ew.build_chain(ew.simple_edit_weights(g, p), g)
        for _ in range(pair_count):
            i, j = rng.choice(1 << m, size=2, replace=False)
            a, b = ew.EdgeSet(m, int(i)), ew.EdgeSet(m, int(j))
            spectral_value = float(ew.commute_time(a, b, g, p))
            solved = ew.hitting_time(tm, a, b) + ew.hitting_time(tm, b, a)
            worst_rel = max(worst_rel, abs(spectral_value - solved) / abs(solved))
            delta = a.mask ^ b.mask
            for flat, term in commute_terms_enumerated(a, b, g, p):
                if delta & ~flat.mask == 0:
                    worst_dropped = max(worst_dropped, abs(float(term)))
            checked_pairs += 1
    assert checked_pairs == 50
    assert worst_rel < 1e-8
    assert worst_dropped < 1e-14
    print(
        f"\n[criterion 8] PASS 50 pairs: backend gap {worst_rel:.2e} < 1e-8 rel, "
        f"dropped terms <= {worst_dropped:.2e} < 1e-14"
    )


def test_criterion_09_compound_mixing_bound():
    k4 = ew.complete_graph(4)
    dist = ew.moran_weights(k4)
    states = ew.recurrent_class(dist, k4)
    report = ew.spectrum(dist, k4)
    lam_star = report.second_largest()
    chambers = len(states)
    tm = ew.build_chain(dist, k4, ew.recurrent_class(dist, k4))
    pi = ew.stationary_numeric(tm)
    for c in (1.0, 3.0):
        t_c = ew.mixing_bound_compound(lam_star, k4.m, c, chamber_count=chambers)
        worst = max(ew.tv_decay(tm, s, pi, t_c)[t_c] for s in states)
        assert worst <= math.exp(-c)
    print(
        f"\n[criterion 9] PASS sharpened bound with M={chambers}, "
        f"lambda*={lam_star}: tv(t_c) <= e^-c for c in {{1, 3}}, all chamber starts"
    )


def test_criterion_10_large_scale_is_simulation_only():
    # the 100-vertex complete-graph configuration runs (and reproduces) as a
    # pure simulation; its pixel-level rendering carries no quantitative
    # claim, and every enumeration-based analysis refuses the size
    g = ew.complete_graph(100)
    dist = ew.simple_edit_weights(g, 0.075)
    a = ew.simulate(dist, g.empty_set(), 300, seed=SEED, thin=50)
    b = ew.simulate(dist, g.empty_set(), 300, seed=SEED, thin=50)
    assert a.masks == b.masks
    assert len(a.masks) == 7
    with pytest.raises(CapExceeded):
        ew.build_chain(dist, g)
    with pytest.raises(CapExceeded):
        ew.stationary_closed_form(g, 0.075)
    with pytest.raises(CapExceeded):
        ew.empirical_distribution(dist, g.empty_set(), 0, 10)
    print(
        "\n[criterion 10] PASS 100-vertex configuration simulates "
        "deterministically; enumeration paths refuse the scale"
    )
