from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from editwalk import (
    EdgeSet,
    block_probabilities,
    chung_lu_probabilities,
    complete_graph,
    erdos_renyi_probabilities,
    forest_flags,
    from_edge_list,
    intersection_host,
    intersection_weights,
    make_rng,
    moran_weights,
    simple_edit_weights,
    simulate,
    spectrum,
    stationary_faces,
)
from editwalk.errors import (
    BadDistribution,
    CapExceeded,
    EmptyEdgeSet,
    ProbabilityOutOfRange,
    ValidationError,
)
from editwalk.process import AliasSampler, WeightedEdits
from oracles import (
    apply,
    draw_masks,
    empirical_distribution,
    intersection_stationary_enumerated,
    moran_weights_per_edge,
    neighborhood_edges,
    sample,
    step,
)

PATH2 = from_edge_list(3, [(0, 1), (1, 2)])


class TestSimpleWeights:
    def test_weights_m2(self):
        dist = simple_edit_weights(PATH2, [Fraction(1, 4), Fraction(1, 4)])
        weights = [w for _, _, w in dist.items]
        assert weights == [
            Fraction(1, 8),
            Fraction(3, 8),
            Fraction(1, 8),
            Fraction(3, 8),
        ]
        assert dist.is_exact

    def test_scalar_probability_broadcasts(self):
        dist = simple_edit_weights(PATH2, Fraction(1, 3))
        assert sum(w for _, _, w in dist.items) == 1

    def test_probability_out_of_range(self):
        with pytest.raises(ProbabilityOutOfRange):
            simple_edit_weights(PATH2, [1, Fraction(1, 2)])
        with pytest.raises(ProbabilityOutOfRange):
            simple_edit_weights(PATH2, 0.0)

    def test_probability_errors_name_the_entry(self):
        # a broadcast scalar is checked once, and reported as entry 0
        with pytest.raises(ProbabilityOutOfRange, match=r"^p\[0\] = 1\.5 is outside \(0, 1\)$"):
            simple_edit_weights(complete_graph(5), 1.5)
        with pytest.raises(ProbabilityOutOfRange, match=r"^p\[2\] = 0 is outside \(0, 1\)$"):
            simple_edit_weights(complete_graph(3), [0.5, Fraction(1, 3), 0])
        with pytest.raises(ValidationError, match=r"^expected 3 edge probabilities, got 2$"):
            simple_edit_weights(complete_graph(3), [0.5, 0.5])

    def test_total_mass_exactly_one_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            g = complete_graph(n)
            p = [Fraction(int(rng.integers(1, 9)), 9) for _ in range(g.m)]
            dist = simple_edit_weights(g, p)
            assert sum(w for _, _, w in dist.items) == 1
            assert len(dist.items) == 2 * g.m


class TestMoranWeights:
    def test_k4_oriented_edge(self):
        k4 = complete_graph(4)
        dist = moran_weights(k4)
        # oriented edge (0, 1): clear all edges at 0, then restore {0, 1}
        e01 = k4.index_of(0, 1)
        expected = (1 << e01, neighborhood_edges(k4, 0).mask & ~(1 << e01), Fraction(1, 12))
        assert expected in dist.items

    def test_item_count_and_uniform_weights(self):
        k4 = complete_graph(4)
        dist = moran_weights(k4)
        assert len(dist.items) == 2 * k4.m
        assert {w for _, _, w in dist.items} == {Fraction(1, 12)}

    def test_path_oriented_edge(self):
        dist = moran_weights(PATH2)
        expected = (0b01, 0b10, Fraction(1, 4))  # clear vertex 1's edges, keep {0,1}
        assert expected in dist.items

    def test_supports_are_neighborhoods(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        dist = moran_weights(g)
        seen = {plus | minus for plus, minus, _ in dist.items}
        expected = {neighborhood_edges(g, v).mask for v in range(g.n)}
        assert seen == expected

    def test_requires_edges(self):
        with pytest.raises(EmptyEdgeSet):
            moran_weights(from_edge_list(2, []))

    @pytest.mark.parametrize("g", [
        complete_graph(5),
        complete_graph(6),
        from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (1, 5), (2, 5)]),
    ], ids=["K5", "K6", "cycle with chords"])
    def test_matches_per_edge_construction(self, g):
        assert moran_weights(g).items == moran_weights_per_edge(g).items


class TestIntersectionWeights:
    def test_weight_formula(self):
        mu = [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
        dist = intersection_weights(2, 2, mu)
        by_size = {}
        for plus, _, w in dist.items:
            by_size.setdefault(plus.bit_count(), set()).add(w)
        # |A| = 1: (1/2) * (1/2) / 2 = 1/8
        assert by_size[1] == {Fraction(1, 8)}
        assert sum(w for _, _, w in dist.items) == 1
        assert len(dist.items) == 2 * 4

    def test_point_mass_at_zero(self):
        dist = intersection_weights(2, 2, [1, 0, 0])
        assert all(plus == 0 for plus, _, _ in dist.items)
        # the walk collapses to the empty graph in one sweep
        rng = make_rng(5)
        state = EdgeSet.full(4)
        for _ in range(20):
            state = step(dist, state, rng)
        assert state.mask == 0

    def test_support_is_vertex_star(self):
        dist = intersection_weights(3, 2, [Fraction(1, 3)] * 3)
        host = intersection_host(3, 2)
        stars = {neighborhood_edges(host, v).mask for v in range(3)}
        assert {plus | minus for plus, minus, _ in dist.items} == stars

    def test_bad_mu(self):
        with pytest.raises(BadDistribution):
            intersection_weights(2, 2, [Fraction(1, 2), Fraction(1, 2)])
        with pytest.raises(BadDistribution):
            intersection_weights(2, 2, [Fraction(1, 2), Fraction(1, 4), Fraction(1, 2)])

    def test_cap(self):
        with pytest.raises(CapExceeded):
            intersection_weights(4, 10, [1.0 / 11] * 11, cap=100)

    @pytest.mark.parametrize(
        "mu, mode, error, message",
        [
            ([Fraction(-1, 4), Fraction(3, 4), Fraction(1, 2)], "explicit", BadDistribution,
             "mu has negative entries"),
            ([0.25, 0.5, 0.5], "explicit", BadDistribution, "mu sums to 1.25, expected 1"),
            ([0.25, 0.5, 0.25], "eager", ValidationError,
             "mode must be 'explicit' or 'lazy', got 'eager'"),
        ],
        ids=["negative", "float-sum", "mode"],
    )
    def test_bad_arguments_are_named(self, mu, mode, error, message):
        with pytest.raises(ValidationError) as exc:
            intersection_weights(2, 2, mu, mode=mode)
        assert exc.type is error and str(exc.value) == message

    def test_lazy_matches_explicit_frequencies(self):
        # 1e5 draws from the lazy sampler against the explicit weights, 3 sigma
        n, N = 2, 3
        mu = [0.1, 0.2, 0.3, 0.4]
        lazy = intersection_weights(n, N, mu, mode="lazy")
        explicit = intersection_weights(n, N, mu)
        rng = make_rng(123)
        draws = 100_000
        counts = Counter(zip(*draw_masks(lazy, rng, draws)))
        for plus, minus, w in explicit.items:
            w = float(w)
            sigma = (draws * w * (1 - w)) ** 0.5
            assert abs(counts[plus, minus] - draws * w) <= 3 * sigma
        # each left vertex's block is drawn with mass 1/n
        blocks = Counter()
        for (plus, minus), count in counts.items():
            blocks[plus | minus] += count
        assert sorted(blocks) == [0b111, 0b111000]
        assert all(abs(count - draws / n) <= 3 * (draws / 4) ** 0.5 for count in blocks.values())

    def test_stationary_product_construction(self):
        mu = [0.25, 0.5, 0.25]
        pi = intersection_stationary_enumerated(2, 2, mu)
        assert pi.sum() == pytest.approx(1.0)
        # independent per-vertex factors: P(both vertices fully attached)
        assert pi[-1] == pytest.approx(0.25 * 0.25)
        masks, law = stationary_faces(intersection_weights(2, 2, mu), intersection_host(2, 2))
        assert np.allclose(law, pi[masks], rtol=1e-12, atol=0)


class TestWeightedEdits:
    def test_rejects_bad_weights(self):
        with pytest.raises(BadDistribution):
            WeightedEdits(2, [1], [0], [Fraction(1, 2)])
        with pytest.raises(BadDistribution):
            WeightedEdits(2, [1], [0], [0])
        with pytest.raises(BadDistribution):
            WeightedEdits(2, [], [], [])

    def test_float_tolerance(self):
        WeightedEdits(2, [1, 0], [0, 1], [0.5, 0.5 + 1e-13])
        with pytest.raises(BadDistribution):
            WeightedEdits(2, [1, 0], [0, 1], [0.5, 0.6])

    def test_support_masses_aggregate(self):
        # each flat's eigenvalue is the exact sum of the weights of the
        # edits whose support lies inside it
        dist = simple_edit_weights(PATH2, [Fraction(1, 4), Fraction(3, 4)])
        report = spectrum(dist, PATH2)
        assert dict(zip(report.flats.tolist(), report.eigenvalues.tolist())) == {
            0: 0, 0b01: Fraction(1, 2), 0b10: Fraction(1, 2), 0b11: 1}
        k4 = complete_graph(4)
        dist = moran_weights(k4)
        report = spectrum(dist, k4)
        for flat, value in zip(report.flats.tolist(), report.eigenvalues.tolist()):
            inside = [w for plus, minus, w in dist.items if (plus | minus) & ~flat == 0]
            assert value == sum(inside, Fraction(0))


class TestAliasSampler:
    def test_matches_weights(self):
        weights = [0.1, 0.2, 0.3, 0.4]
        sampler = AliasSampler(weights)
        rng = make_rng(99)
        draws = 200_000
        counts = np.bincount(sampler.draw(rng, draws), minlength=4)
        for i, w in enumerate(weights):
            sigma = (draws * w * (1 - w)) ** 0.5
            assert abs(counts[i] - draws * w) <= 4 * sigma


class TestSimulation:
    def test_zero_steps(self):
        dist = simple_edit_weights(PATH2, 0.5)
        traj = simulate(dist, PATH2.empty_set(), 0, seed=1)
        assert traj.masks == (PATH2.empty_set().mask,)

    def test_reproducible(self):
        dist = simple_edit_weights(PATH2, 0.3)
        a = simulate(dist, PATH2.empty_set(), 500, seed=42)
        b = simulate(dist, PATH2.empty_set(), 500, seed=42)
        assert a.masks == b.masks
        c = simulate(dist, PATH2.empty_set(), 500, seed=43)
        assert a.masks != c.masks

    def test_streams_are_independent(self):
        dist = simple_edit_weights(PATH2, 0.3)
        a = simulate(dist, PATH2.empty_set(), 200, seed=42, stream=0)
        b = simulate(dist, PATH2.empty_set(), 200, seed=42, stream=1)
        assert a.masks != b.masks

    def test_thinning(self):
        dist = simple_edit_weights(PATH2, 0.5)
        traj = simulate(dist, PATH2.empty_set(), 10, seed=0, thin=3)
        # snapshots at t = 0, 3, 6, 9 and the final state at t = 10
        assert len(traj.masks) == 5

    def test_state_idempotence(self):
        dist = moran_weights(complete_graph(4))
        rng = make_rng(7)
        state = EdgeSet.full(6)
        for _ in range(50):
            edit = sample(dist, rng)
            once = apply(edit, state)
            assert apply(edit, once) == once
            state = once

    def test_uniform_stationary_frequencies(self):
        # with even odds per edge the long-run law is uniform over states
        dist = simple_edit_weights(PATH2, 0.5)
        hist = empirical_distribution(
            dist, PATH2.empty_set(), burn_in=200, samples=100_000, seed=8
        )
        tv = 0.5 * np.abs(hist - 0.25).sum()
        assert tv < 0.01

    def test_moran_trajectory_becomes_and_stays_acyclic(self):
        # an update clears one vertex before reattaching it, so applying it
        # to a forest yields a forest; the chain is absorbed into the
        # acyclic class and never leaves it
        k4 = complete_graph(4)
        dist = moran_weights(k4)
        traj = simulate(dist, k4.full_set(), 300, seed=17)
        flags = forest_flags(k4, traj.masks).tolist()
        assert True in flags[1:]
        first = flags.index(True)
        assert all(flags[first:])

    def test_negative_steps(self):
        dist = simple_edit_weights(PATH2, 0.5)
        with pytest.raises(ValidationError):
            simulate(dist, PATH2.empty_set(), -1)

    def test_zero_thin(self):
        dist = simple_edit_weights(PATH2, 0.5)
        with pytest.raises(ValidationError) as exc:
            simulate(dist, PATH2.empty_set(), 10, thin=0)
        assert exc.type is ValidationError and str(exc.value) == "thin must be >= 1, got 0"

    @pytest.mark.parametrize("steps, thin", [(0, 1), (10, 3), (9, 3), (10, 1), (4, 7)])
    def test_times_name_the_recorded_states(self, steps, thin):
        dist = simple_edit_weights(PATH2, 0.5)
        every = simulate(dist, PATH2.empty_set(), steps, seed=3)
        thinned = simulate(dist, PATH2.empty_set(), steps, seed=3, thin=thin)
        assert every.times == list(range(steps + 1))
        assert thinned.times[0] == 0 and thinned.times[-1] == steps
        assert len(thinned.times) == len(thinned.masks)
        assert thinned.masks == tuple(every.masks[t] for t in thinned.times)


class TestEmpirical:
    def test_product_law_m2(self):
        p = 0.25
        dist = simple_edit_weights(PATH2, p)
        hist = empirical_distribution(
            dist, PATH2.empty_set(), burn_in=500, samples=120_000, seed=21
        )
        expected = np.array(
            [(1 - p) ** 2, p * (1 - p), p * (1 - p), p**2]
        )  # ascending mask order
        assert 0.5 * np.abs(hist - expected).sum() < 0.01

    def test_histogram_sums_to_one(self):
        dist = simple_edit_weights(PATH2, 0.5)
        hist = empirical_distribution(dist, PATH2.empty_set(), 0, 500, seed=2)
        assert hist.sum() == pytest.approx(1.0)

    def test_zero_samples_rejected(self):
        dist = simple_edit_weights(PATH2, 0.5)
        with pytest.raises(ValidationError):
            empirical_distribution(dist, PATH2.empty_set(), 0, 0)

    def test_edge_cap(self):
        g = complete_graph(8)  # m = 28
        dist = simple_edit_weights(g, 0.5)
        with pytest.raises(CapExceeded):
            empirical_distribution(dist, g.empty_set(), 0, 10)


class TestProbabilityPresets:
    def test_erdos_renyi(self):
        g = complete_graph(5)
        assert erdos_renyi_probabilities(g, 0.2) == [0.2] * 10
        with pytest.raises(ProbabilityOutOfRange):
            erdos_renyi_probabilities(g, 1.0)

    def test_chung_lu(self):
        g = complete_graph(3)
        probs = chung_lu_probabilities(g, [1, 1, 2])
        # p_uv = k_u k_v / sum(k) with sum(k) = 4
        assert probs == [Fraction(1, 4), Fraction(1, 2), Fraction(1, 2)]
        with pytest.raises(ProbabilityOutOfRange):
            chung_lu_probabilities(g, [1, 1, 10])

    @pytest.mark.parametrize(
        "degrees, message",
        [([1, 1], "expected 3 degrees, got 2"), ([1, 0, 1], "expected degrees must be positive")],
        ids=["length", "zero-degree"],
    )
    def test_chung_lu_bad_degrees(self, degrees, message):
        with pytest.raises(ValidationError) as exc:
            chung_lu_probabilities(complete_graph(3), degrees)
        assert exc.type is ValidationError and str(exc.value) == message

    def test_block(self):
        g = complete_graph(4)
        probs = block_probabilities(g, {0, 1}, 0.6, 0.1)
        expected = {
            (0, 1): 0.6, (0, 2): 0.1, (0, 3): 0.1,
            (1, 2): 0.1, (1, 3): 0.1, (2, 3): 0.6,
        }
        assert probs == [expected[e] for e in g.edges]
        with pytest.raises(ValidationError):
            block_probabilities(g, set(), 0.5, 0.5)

    @pytest.mark.parametrize(
        "block, p_in, error, message",
        [
            ({0, 7}, 0.5, ValidationError, "block contains vertices outside the host"),
            ({0, 1}, 1.5, ProbabilityOutOfRange, "probability 1.5 is outside (0, 1)"),
        ],
        ids=["outside-host", "p-above-one"],
    )
    def test_block_bad_arguments(self, block, p_in, error, message):
        with pytest.raises(ValidationError) as exc:
            block_probabilities(complete_graph(4), block, p_in, 0.1)
        assert exc.type is error and str(exc.value) == message
