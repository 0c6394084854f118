from fractions import Fraction

import numpy as np
import pytest

from editwalk import (
    EdgeSet,
    WeightedEdits,
    build_chain,
    commute_time,
    complete_graph,
    from_edge_list,
    hitting_time,
    hitting_time_closed,
    moran_weights,
    recurrent_class,
    simple_edit_weights,
)
from editwalk.errors import NotIrreducible
from oracles import (
    NotReversible,
    commute_terms_enumerated,
    commute_time_chain,
    hitting_time_spectral,
    largest_dropped_term,
    sign_lex_order,
)

PATH2 = from_edge_list(3, [(0, 1), (1, 2)])


def random_host(rng, m):
    n = int(rng.integers(3, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while len(pairs) < m:
        n += 1
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    idx = rng.choice(len(pairs), size=m, replace=False)
    return from_edge_list(n, [pairs[i] for i in idx])


def test_golden_commute_matrix_symbolic():
    p = Fraction(1, 4)
    states = [EdgeSet(2, mask) for mask in sign_lex_order(2)]
    C = [[commute_time(a, b, PATH2, [p, p]) for b in states] for a in states]
    adj = (1 + p) / (p**2 * (1 - p))
    opp = 1 / (p**2 * (1 - p) ** 2)
    mid = 4 / (p * (1 - p))
    low = (2 - p) / (p * (1 - p) ** 2)
    assert C[0] == [0, adj, adj, opp]
    assert C[1] == [adj, 0, mid, low]
    assert C[2] == [adj, mid, 0, low]
    assert C[3] == [opp, low, low, 0]


def test_golden_commute_matrix_at_half():
    p = Fraction(1, 2)
    states = [EdgeSet(2, mask) for mask in sign_lex_order(2)]
    C = [[commute_time(a, b, PATH2, [p, p]) for b in states] for a in states]
    assert C == [
        [0, 12, 12, 16],
        [12, 0, 16, 12],
        [12, 16, 0, 12],
        [16, 12, 12, 0],
    ]


def test_commute_is_zero_on_diagonal_and_symmetric():
    rng = np.random.default_rng(31)
    g = random_host(rng, 4)
    p = list(rng.uniform(0.15, 0.85, size=4))
    for _ in range(10):
        a = EdgeSet(4, int(rng.integers(16)))
        b = EdgeSet(4, int(rng.integers(16)))
        assert commute_time(a, a, g, p) == 0
        assert commute_time(a, b, g, p) == pytest.approx(
            commute_time(b, a, g, p), rel=1e-12
        )


def test_commute_equals_hitting_sum():
    rng = np.random.default_rng(32)
    g = random_host(rng, 5)
    p = [Fraction(int(rng.integers(1, 8)), 8) for _ in range(5)]
    for _ in range(5):
        a = EdgeSet(5, int(rng.integers(32)))
        b = EdgeSet(5, int(rng.integers(32)))
        total = hitting_time_closed(a, b, g, p) + hitting_time_closed(b, a, g, p)
        assert commute_time(a, b, g, p) == total


def test_spectral_matches_linear_solve():
    rng = np.random.default_rng(34)
    for m in (3, 5, 8):
        g = random_host(rng, m)
        p = list(rng.uniform(0.1, 0.9, size=m))
        tm = build_chain(simple_edit_weights(g, p), g)
        for _ in range(6):
            i, j = rng.choice(1 << m, size=2, replace=False)
            a, b = EdgeSet(m, int(i)), EdgeSet(m, int(j))
            closed = float(commute_time(a, b, g, p))
            assert largest_dropped_term(a, b, g, p) <= 1e-14
            solved = commute_time_chain(tm, a, b)
            assert abs(closed - solved) <= 1e-8 * max(1.0, abs(solved))
            h_closed = float(hitting_time_closed(a, b, g, p))
            h_solved = hitting_time(tm, a, b)
            assert abs(h_closed - h_solved) <= 1e-8 * max(1.0, abs(h_solved))


def test_hitting_spectral_backend_matches_solve():
    rng = np.random.default_rng(35)
    g = random_host(rng, 4)
    p = list(rng.uniform(0.2, 0.8, size=4))
    tm = build_chain(simple_edit_weights(g, p), g)
    for _ in range(5):
        i, j = rng.choice(16, size=2, replace=False)
        a = hitting_time_spectral(tm, int(i), int(j))
        b = hitting_time(tm, int(i), int(j))
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_terms_dropped_by_the_spectral_sum_vanish():
    # the skipped subsets are exactly those containing the symmetric
    # difference; their contributions must be identically zero
    rng = np.random.default_rng(36)
    g = random_host(rng, 5)
    p = [Fraction(int(rng.integers(1, 8)), 8) for _ in range(5)]
    for _ in range(8):
        a = EdgeSet(5, int(rng.integers(32)))
        b = EdgeSet(5, int(rng.integers(32)))
        if a.mask == b.mask:
            continue
        delta = a.mask ^ b.mask
        kept_total = commute_time(a, b, g, p)
        assert largest_dropped_term(a, b, g, p) <= 1e-14
        full_total = Fraction(0)
        for flat, term in commute_terms_enumerated(a, b, g, p):
            if delta & ~flat.mask == 0:
                assert term == 0
            full_total += term
        assert full_total == kept_total


def test_hitting_time_same_state():
    g = random_host(np.random.default_rng(37), 3)
    tm = build_chain(simple_edit_weights(g, 0.5), g)
    assert hitting_time(tm, 3, 3) == 0.0
    assert hitting_time_closed(EdgeSet(3, 3), EdgeSet(3, 3), g, 0.5) == 0


def test_not_irreducible():
    # one all-deleting generator: the empty state absorbs, so hitting times
    # away from it do not exist
    m = 2
    dist = WeightedEdits(m, [0], [0b11], [Fraction(1)])
    tm = build_chain(dist, PATH2)
    assert hitting_time(tm, 0b11, 0b00) == pytest.approx(1.0)
    with pytest.raises(NotIrreducible):
        hitting_time(tm, 0b00, 0b11)


def test_not_reversible():
    k4 = complete_graph(4)
    dist = moran_weights(k4)
    tm = build_chain(dist, k4, recurrent_class(dist, k4))
    with pytest.raises(NotReversible):
        hitting_time_spectral(tm, 0, 1)
    # the fundamental-matrix solve still works
    value = hitting_time(tm, tm.masks[0], tm.masks[1])
    assert value > 0
