"""Randomized end-to-end check of the compound-chain pipeline.

For arbitrary weighted edit families the support closure, chamber
enumeration, and multiplicities by back-substitution over the flat order
must reproduce the full numeric spectrum of the recurrent-class matrix,
entry for entry, and agree with Mobius inversion of the chamber counts.
Seeded random families over small hosts exercise overlapping supports,
identity-support mass, duplicate supports, and non-covering families
(frozen edges) in one sweep.
"""

import warnings
from fractions import Fraction

import numpy as np
from oracles import (
    Edit,
    chamber_count_leq,
    chamber_of,
    closure_by_witness,
    edit_items,
    eigenvalue_multiset_residual,
    lattice_by_witness,
    multiplicities_by_mobius,
    numeric_eigenvalues,
    representatives_for,
    supp,
)

import editwalk as ew
from editwalk.errors import SupportNotCovering


def random_family(rng, m, count):
    cuts = sorted(rng.integers(1, 20, size=count - 1).tolist())
    bounds = [0] + cuts + [20]
    weights = [Fraction(bounds[i + 1] - bounds[i], 20) for i in range(count)]
    weights = [w for w in weights if w > 0]
    plus, minus = [], []
    for _ in weights:
        plus.append(int(rng.integers(0, 1 << m)))
        minus.append(int(rng.integers(0, 1 << m)) & ~plus[-1])
    weights[0] += 1 - sum(weights)  # merge rounding into the first weight
    return ew.WeightedEdits(m, plus, minus, weights)


def hosts_with_m_edges(rng, m):
    n = m + 1
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    idx = rng.choice(len(pairs), size=m, replace=False)
    return ew.from_edge_list(n, [pairs[i] for i in idx])


def seeded_families(seed, count):
    """`count` random (host, family) pairs with 2 to 5 host edges."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(2, 6))
        g = hosts_with_m_edges(rng, m)
        yield g, random_family(rng, m, int(rng.integers(2, 5)))


def recurrent_states(dist, g):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupportNotCovering)
        return ew.recurrent_class(dist, g)


def test_random_compound_families_spectra():
    for g, dist in seeded_families(424242, 20):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SupportNotCovering)
            states = ew.recurrent_class(dist, g)
            tm = ew.build_chain(dist, g, states)
            report = ew.spectrum(dist, g)
        assert report.total_multiplicity == len(states)
        gap = eigenvalue_multiset_residual(
            report.eigenvalue_multiset(), numeric_eigenvalues(tm)
        )
        assert gap < 1e-8


def test_random_families_multiplicities_match_mobius_oracle():
    for g, dist in [*seeded_families(424242, 20), *seeded_families(777, 10)]:
        generators = [e for e, _ in edit_items(dist)]
        oracle = closure_by_witness([supp(e) for e in generators])
        states = recurrent_states(dist, g)
        chambers = [chamber_of(ew.EdgeSet(g.m, mask)) for mask in states.tolist()]
        reps = representatives_for(oracle, generators)
        report = ew.multiplicities(ew.closure(dist), states, dist)
        assert report.multiplicities.tolist() == multiplicities_by_mobius(oracle, chambers, reps)


def test_random_families_uninverted_identity_and_representatives():
    for g, dist in seeded_families(777, 10):
        lat = ew.closure(dist)
        states = recurrent_states(dist, g)
        chambers = [chamber_of(ew.EdgeSet(g.m, mask)) for mask in states.tolist()]
        report = ew.multiplicities(lat, states, dist)
        mult = dict(zip(report.flats.tolist(), report.multiplicities.tolist()))
        # the oracle's representatives, composed from the witnesses in
        # either order, must give identical chamber counts and spectra
        others = [lattice_by_witness(dist), lattice_by_witness(dist, reverse=True)]
        for i, flat in enumerate(lat.flats.tolist()):
            above = sum(count for other, count in mult.items() if other & flat == flat)
            counts = {chamber_count_leq(Edit(g.m, int(x.signs[i]), flat & ~int(x.signs[i])), chambers)
                      for x in (lat, *others)}
            assert counts == {above}
        for other in others:
            assert other.flats.tolist() == lat.flats.tolist()
            assert ew.multiplicities(other, states, dist).to_csv_rows() == report.to_csv_rows()


def test_chamber_counts_ignore_representative_signs():
    # on the full Boolean lattice any sign assignment over a flat is a
    # valid representative; counts must not depend on the signs chosen
    rng = np.random.default_rng(99)
    m = 4
    chambers = [chamber_of(ew.EdgeSet(m, mask)) for mask in range(1 << m)]
    lat = closure_by_witness([ew.EdgeSet.from_indices(m, [e]) for e in range(m)])
    for flat in lat.flats:
        plus_a = int(rng.integers(0, 1 << m)) & flat.mask
        plus_b = int(rng.integers(0, 1 << m)) & flat.mask
        rep_a = Edit(m, plus_a, flat.mask & ~plus_a)
        rep_b = Edit(m, plus_b, flat.mask & ~plus_b)
        count_a = chamber_count_leq(rep_a, chambers)
        count_b = chamber_count_leq(rep_b, chambers)
        assert count_a == count_b == 2 ** (m - flat.mask.bit_count())


def test_exact_and_float_chains_agree():
    rng = np.random.default_rng(31337)
    for _ in range(5):
        m = int(rng.integers(2, 5))
        g = hosts_with_m_edges(rng, m)
        p = [Fraction(int(rng.integers(1, 12)), 13) for _ in range(m)]
        exact = ew.build_chain(ew.simple_edit_weights(g, p), g)
        float_tm = ew.build_chain(
            ew.simple_edit_weights(g, [float(x) for x in p]), g
        )
        assert exact.exact and not float_tm.exact
        assert np.abs(exact.to_float() - float_tm.entries).max() < 1e-15
