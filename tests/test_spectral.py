import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from editwalk import (
    EdgeSet,
    WeightedEdits,
    brown_tv_bound,
    build_chain,
    complete_graph,
    eigenvalues_simple,
    forest_flags,
    from_edge_list,
    intersection_host,
    intersection_mixing_bound,
    intersection_weights,
    mixing_bound_compound,
    mixing_bound_simple,
    moran_complete_mixing_bound,
    moran_weights,
    phi,
    recurrent_class,
    simple_edit_weights,
    simple_tv_bound,
    spectrum,
    stationary_closed_form,
    to_dot,
    tv_decay,
)
from oracles import (
    chain_from_dense,
    eigenvalue_multiset_residual,
    numeric_eigenvalues,
    permute_vector,
    psi_rows_enumerated,
    q_matrix,
    reorder,
    sign_lex_order,
    stationary_numeric,
)
from editwalk import verify
from editwalk.errors import (
    CapExceeded,
    DegenerateGap,
    SupportNotCovering,
    ValidationError,
)

PATH2 = from_edge_list(3, [(0, 1), (1, 2)])
PAPER_ORDER = [0b11, 0b01, 0b10, 0b00]


def random_host(rng, m):
    """Any host with exactly m edges (connectivity not required)."""
    n = int(rng.integers(3, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while len(pairs) < m:
        n += 1
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    idx = rng.choice(len(pairs), size=m, replace=False)
    return from_edge_list(n, [pairs[i] for i in idx])


def random_probs(rng, m, exact=False):
    if exact:
        return [Fraction(int(rng.integers(1, 10)), 11) for _ in range(m)]
    return list(rng.uniform(0.1, 0.9, size=m))


class TestBuildChain:
    def test_golden_matrix_m2(self):
        p = Fraction(1, 4)
        dist = simple_edit_weights(PATH2, [p, p])
        tm = reorder(build_chain(dist, PATH2), sign_lex_order(2))
        expected = [
            [p, (1 - p) / 2, (1 - p) / 2, 0],
            [p / 2, Fraction(1, 2), 0, (1 - p) / 2],
            [p / 2, 0, Fraction(1, 2), (1 - p) / 2],
            [0, p / 2, p / 2, 1 - p],
        ]
        assert tm.exact
        for i in range(4):
            for j in range(4):
                assert tm.entries[i, j] == expected[i][j]

    def test_rows_sum_to_one_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            g = random_host(rng, int(rng.integers(2, 6)))
            dist = simple_edit_weights(g, random_probs(rng, g.m, exact=True))
            tm = build_chain(dist, g)
            assert tm.row_sum_residual() == 0

    def test_rows_sum_to_one_float(self):
        rng = np.random.default_rng(6)
        g = random_host(rng, 5)
        dist = simple_edit_weights(g, random_probs(rng, 5))
        tm = build_chain(dist, g)
        assert tm.row_sum_residual() < 1e-12
        k4 = complete_graph(4)
        moran = moran_weights(k4)
        tm2 = build_chain(moran, k4, recurrent_class(moran, k4))
        assert tm2.row_sum_residual() == 0  # exact Fractions

    def test_matches_direct_simulation_m3(self):
        # oracle: simulate the definition directly (uniform edge, then keep
        # or drop by its probability), count transitions, compare at 3 sigma
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        rng = np.random.default_rng(33)
        p = random_probs(rng, 3)
        tm = build_chain(simple_edit_weights(g, p), g)
        P = tm.to_float()

        steps = 1_000_000
        edges = rng.integers(0, 3, size=steps)
        coins = rng.random(steps)
        visits = np.zeros(8)
        counts = np.zeros((8, 8))
        state = 0
        for t in range(steps):
            e = edges[t]
            nxt = state | (1 << e) if coins[t] < p[e] else state & ~(1 << e)
            visits[state] += 1
            counts[state, nxt] += 1
            state = nxt
        for i in range(8):
            assert visits[i] > 0
            for j in range(8):
                if P[i, j] == 0.0:
                    assert counts[i, j] == 0
                    continue
                phat = counts[i, j] / visits[i]
                sigma = math.sqrt(P[i, j] * (1 - P[i, j]) / visits[i])
                assert abs(phat - P[i, j]) <= 3 * sigma

    def test_lazy_distribution_rejected(self):
        lazy = intersection_weights(2, 2, [0.25, 0.5, 0.25], mode="lazy")
        with pytest.raises(CapExceeded):
            build_chain(lazy, intersection_host(2, 2))

    def test_cap(self):
        g = complete_graph(8)  # m = 28
        dist = simple_edit_weights(g, 0.5)
        with pytest.raises(CapExceeded):
            build_chain(dist, g, cap=1 << 10)


class TestRecurrentClass:
    def test_simple_process_reaches_everything(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        dist = simple_edit_weights(g, 0.5)
        states = recurrent_class(dist, g)
        assert states.tolist() == list(range(8))

    def test_moran_k4_closed_and_acyclic(self):
        k4 = complete_graph(4)
        dist = moran_weights(k4)
        states = recurrent_class(dist, k4)
        masks = set(states.tolist())
        assert forest_flags(k4, states.tolist()).all()
        for s in (EdgeSet(k4.m, mask) for mask in states.tolist()):
            for plus, minus, _ in dist.items:
                assert (s.mask | plus) & ~minus in masks

    def test_single_all_minus_generator(self):
        m = 3
        dist = WeightedEdits(m, [0], [(1 << m) - 1], [Fraction(1)])
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        states = recurrent_class(dist, g)
        assert states.tolist() == [0]

    def test_support_not_covering_warns_and_freezes(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        dist = WeightedEdits(2, [0b01, 0], [0, 0b01], [Fraction(1, 2)] * 2)
        with pytest.warns(SupportNotCovering):
            states = recurrent_class(dist, g)
        assert states.tolist() == [0b00, 0b01]
        with pytest.warns(SupportNotCovering):
            frozen_high = recurrent_class(dist, g, initial=EdgeSet(2, 0b10))
        assert frozen_high.tolist() == [0b10, 0b11]


class TestStationary:
    def test_closed_form_m2(self):
        p = Fraction(1, 4)
        pi = stationary_closed_form(PATH2, [p, p])
        assert permute_vector(pi, PAPER_ORDER) == [
            p**2, p * (1 - p), p * (1 - p), (1 - p) ** 2
        ]

    def test_uniform_at_half(self):
        g = random_host(np.random.default_rng(1), 4)
        pi = stationary_closed_form(g, [Fraction(1, 2)] * 4)
        assert set(pi) == {Fraction(1, 16)}

    def test_matches_linear_solve(self):
        rng = np.random.default_rng(23)
        for m in (3, 5, 8):
            g = random_host(rng, m)
            p = random_probs(rng, m)
            pi = stationary_closed_form(g, p)
            tm = build_chain(simple_edit_weights(g, p), g)
            solved = stationary_numeric(tm)
            assert np.abs(pi - solved).max() < 1e-12

    def test_probability_validation(self):
        from editwalk.errors import ProbabilityOutOfRange

        with pytest.raises(ProbabilityOutOfRange):
            stationary_closed_form(PATH2, [Fraction(1), Fraction(1, 2)])


class TestSpectra:
    def test_simple_m2_diagonal(self):
        report = eigenvalues_simple(2)
        values = dict(zip(report.flats.tolist(), report.eigenvalues.tolist()))
        values = [values[mask] for mask in PAPER_ORDER]
        assert values == [Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(0)]

    def test_simple_matches_numeric(self):
        rng = np.random.default_rng(9)
        g = random_host(rng, 5)
        p = random_probs(rng, 5)
        tm = build_chain(simple_edit_weights(g, p), g)
        residual = eigenvalue_multiset_residual(
            eigenvalues_simple(5).eigenvalue_multiset(), numeric_eigenvalues(tm)
        )
        assert residual < 1e-8

    def test_moran_k4_matches_numeric(self):
        k4 = complete_graph(4)
        dist = moran_weights(k4)
        report = spectrum(dist, k4)
        tm = build_chain(dist, k4, recurrent_class(dist, k4))
        assert report.total_multiplicity == tm.size
        residual = eigenvalue_multiset_residual(
            report.eigenvalue_multiset(), numeric_eigenvalues(tm)
        )
        assert residual < 1e-8
        # eigenvalue ladder: 0, each vertex star 1/4, pairwise unions 1/2, top 1
        by_flat_size = {}
        for flat, value in zip(report.flats.tolist(), report.eigenvalues.tolist()):
            by_flat_size.setdefault(flat.bit_count(), set()).add(value)
        assert by_flat_size[0] == {Fraction(0)}
        assert by_flat_size[3] == {Fraction(1, 4)}
        assert by_flat_size[5] == {Fraction(1, 2)}
        assert by_flat_size[6] == {Fraction(1)}

    def test_intersection_spectrum_and_gap(self):
        n, N = 2, 3
        host = intersection_host(n, N)
        for mu in ([Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)],
                   [Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10)]):
            dist = intersection_weights(n, N, mu)
            report = spectrum(dist, host)
            assert sorted(report.eigenvalues.astype(float).tolist()) == [
                0.0, 0.5, 0.5, 1.0
            ]  # |B|/n over subsets B of the ground set
            assert 1.0 - report.second_largest() == pytest.approx(1.0 / n)

    def test_spectrum_with_frozen_edges(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        dist = WeightedEdits(2, [0b01, 0], [0, 0b01], [Fraction(1, 2)] * 2)
        with pytest.warns(SupportNotCovering):
            report = spectrum(dist, g)
        assert sorted(report.eigenvalues.astype(float).tolist()) == [0.0, 1.0]
        with pytest.warns(SupportNotCovering):
            tm = build_chain(dist, g, recurrent_class(dist, g))
        assert (
            eigenvalue_multiset_residual(
                report.eigenvalue_multiset(), numeric_eigenvalues(tm)
            )
            < 1e-12
        )


class TestEigenvectors:
    def test_phi_golden_m2(self):
        p = Fraction(1, 4)
        probs = [p, p]
        phi_b = permute_vector(phi(EdgeSet(2, 0b10), PATH2, probs), PAPER_ORDER)
        assert phi_b == [p, 1 - p, -p, -(1 - p)]
        phi_a = permute_vector(phi(EdgeSet(2, 0b01), PATH2, probs), PAPER_ORDER)
        assert phi_a == [p, -p, 1 - p, -(1 - p)]
        phi_0 = permute_vector(phi(EdgeSet(2, 0), PATH2, probs), PAPER_ORDER)
        assert phi_0 == [1, -1, -1, 1]

    def test_phi_full_subset_is_stationary(self):
        rng = np.random.default_rng(2)
        g = random_host(rng, 4)
        p = random_probs(rng, 4, exact=True)
        assert phi(g.full_set(), g, p) == stationary_closed_form(g, p)

    def test_phi_residuals(self):
        rng = np.random.default_rng(77)
        for m in (3, 6, 8):
            g = random_host(rng, m)
            p = random_probs(rng, m)
            P = build_chain(simple_edit_weights(g, p), g).to_float()
            lam = np.bitwise_count(np.arange(1 << m)) / m
            rows = np.array([np.asarray(phi(EdgeSet(m, t), g, p), dtype=float) for t in range(1 << m)])
            residual = np.abs(rows @ P - lam[:, None] * rows).max()
            assert residual < 1e-12

    def test_psi_normalization_and_orthogonality(self):
        rng = np.random.default_rng(13)
        g = random_host(rng, 5)
        p = random_probs(rng, 5)
        # same-size subsets share an eigenvalue, where symmetry alone would
        # not force orthogonality
        a, b = psi_rows_enumerated(g, p, np.array([0b00011, 0b01100]))
        assert a @ a == pytest.approx(1.0, abs=1e-10)
        assert b @ b == pytest.approx(1.0, abs=1e-10)
        assert a @ b == pytest.approx(0.0, abs=1e-10)

    def test_psi_full_subset_is_sqrt_pi(self):
        rng = np.random.default_rng(14)
        g = random_host(rng, 4)
        p = random_probs(rng, 4)
        pi = stationary_closed_form(g, p)
        psi = psi_rows_enumerated(g, p, np.array([g.full_set().mask]))[0]
        assert np.abs(psi - np.sqrt(np.asarray(pi, dtype=float))).max() < 1e-12

    def test_gram_identity(self):
        rng = np.random.default_rng(15)
        g = random_host(rng, 6)
        p = random_probs(rng, 6)
        psi = psi_rows_enumerated(g, p, np.arange(1 << 6))
        gram = psi @ psi.T
        assert np.abs(gram - np.eye(1 << 6)).max() < 1e-10

    def test_q_symmetry(self):
        rng = np.random.default_rng(16)
        g = random_host(rng, 6)
        p = random_probs(rng, 6)
        tm = build_chain(simple_edit_weights(g, p), g)
        Q = q_matrix(tm, stationary_closed_form(g, p))
        assert np.abs(Q - Q.T).max() < 1e-12


class TestTotalVariation:
    def test_decay_curve_monotone_enough_and_bounded(self):
        rng = np.random.default_rng(18)
        m = 4
        g = random_host(rng, m)
        p = random_probs(rng, m)
        tm = build_chain(simple_edit_weights(g, p), g)
        pi = stationary_closed_form(g, p)
        t_min = math.ceil(2 * m * math.log(m))
        t_max = t_min + 30
        for start_mask in rng.integers(0, 1 << m, size=4):
            curve = tv_decay(tm, int(start_mask), pi, t_max)
            assert curve[0] == pytest.approx(1 - pi[int(start_mask)])
            for t in range(t_min, t_max + 1):
                assert curve[t] <= simple_tv_bound(m, t) + 1e-12

    def test_brown_bound_dominates(self):
        m = 4
        rng = np.random.default_rng(19)
        g = random_host(rng, m)
        p = random_probs(rng, m)
        tm = build_chain(simple_edit_weights(g, p), g)
        pi = stationary_closed_form(g, p)
        report = eigenvalues_simple(m)
        curve = tv_decay(tm, 0, pi, 25)
        for t in range(1, 26):
            assert curve[t] <= brown_tv_bound(report, t) + 1e-12


class TestMixingBounds:
    def test_simple_bound_example(self):
        assert mixing_bound_simple(2, 1.0) == 5  # ceil(2(1 + 2 ln 2))

    def test_compound_bounds(self):
        # plain: ceil((m ln 2 + c) / (1 - lambda))
        assert mixing_bound_compound(0.5, 4, 1.0) == math.ceil(
            (4 * math.log(2) + 1) / 0.5
        )
        # sharpened by a chamber count
        assert mixing_bound_compound(0.5, 4, 1.0, chamber_count=10) == math.ceil(
            (math.log(10) + 1) / 0.5
        )
        with pytest.raises(DegenerateGap):
            mixing_bound_compound(1.0, 4, 1.0)
        with pytest.raises(ValidationError) as exc:
            mixing_bound_compound(-0.25, 4, 1.0)
        assert exc.type is ValidationError and str(exc.value) == "lambda_star -0.25 is outside [0, 1)"
        with pytest.raises(ValidationError):
            mixing_bound_compound(0.5, 4, -1.0)

    def test_named_model_bounds(self):
        n = 5
        assert moran_complete_mixing_bound(n, 2.0) == math.ceil(
            (n * n * math.log(n) + 2.0 * n) / 2
        )
        assert intersection_mixing_bound(2, 3, 1.0) == math.ceil(
            3 * 4 * math.log(2) + 2
        )

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_every_bound_needs_a_finite_positive_c(self, c):
        for bound in (lambda: mixing_bound_simple(4, c), lambda: mixing_bound_compound(0.5, 4, c),
                      lambda: moran_complete_mixing_bound(4, c),
                      lambda: intersection_mixing_bound(2, 3, c)):
            with pytest.raises(ValidationError, match="c must be positive"):
                bound()


class TestOrderingAndDot:
    def test_sign_lex_order_m2(self):
        assert sign_lex_order(2) == [3, 1, 2, 0]

    def test_sign_lex_order_full_first_empty_last(self):
        order = sign_lex_order(4)
        assert order[0] == 0b1111 and order[-1] == 0
        assert sorted(order) == list(range(16))

    def test_reorder_round_trip(self):
        dist = simple_edit_weights(PATH2, 0.3)
        tm = build_chain(dist, PATH2)
        back = reorder(reorder(tm, sign_lex_order(2)), [0, 1, 2, 3])
        assert np.array_equal(back.entries, tm.entries)

    def test_dot_cycle5_has_32_nodes(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        tm = build_chain(simple_edit_weights(g, 0.5), g)
        text = to_dot(tm)
        assert text.count(";") >= 32
        assert sum(1 for line in text.splitlines() if line.endswith('";')) == 32
        assert "->" in text

    def test_dot_moran_restricted_and_no_self_loops(self):
        k4 = complete_graph(4)
        dist = moran_weights(k4)
        tm = build_chain(dist, k4, recurrent_class(dist, k4))
        text = to_dot(tm, k4, labels="edges")
        node_lines = [l for l in text.splitlines() if l.endswith('";')]
        assert len(node_lines) == tm.size
        for line in text.splitlines():
            if "->" in line:
                src, rest = line.split("->")
                dst = rest.split("[")[0]
                assert src.strip() != dst.strip()


def test_the_dense_fallback_takes_the_sorted_gap():
    """`verify`'s eigensolve on a float chain off the product compares the
    sorted multisets, and fails a report of another size by name."""
    tm = chain_from_dense(1, range(2), np.full((2, 2), 0.5), exact=False)  # eigenvalues 1 and 0

    def gap(values):
        return verify._dense_fallback(SimpleNamespace(eigenvalue_multiset=lambda: values), tm, None)

    assert gap([0.0, 1.0]).residual == gap([1.0, 0.0]).residual <= 1e-15
    assert gap([1.0, 0.1]).residual == pytest.approx(0.1)
    short = gap([1.0])
    assert not short.passed and short.residual == math.inf
    assert short.detail == "1 eigenvalues reported, 2 states"
