import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    Edit,
    EntryReport,
    chamber_count_leq,
    chamber_of,
    closure_by_witness,
    edit_items,
    eigenvalues_simple_by_subset,
    from_items,
    lattice_by_witness,
    mobius_enumerated,
    multiplicities_by_mobius,
    neighborhood_edges,
    parse_edit,
    representatives_for,
    supp,
)
from test_random_families import seeded_families

from editwalk import (
    EdgeSet,
    WeightedEdits,
    brown_tv_bound,
    closure,
    complete_graph,
    eigenvalues_simple,
    from_edge_list,
    intersection_host,
    intersection_weights,
    moran_weights,
    multiplicities,
    numeric_eigenvalues,
    recurrent_class,
    simple_edit_weights,
    spectrum,
)
from editwalk import build_chain, lattice
from editwalk.errors import CapExceeded, HostMismatch, SupportNotCovering, ValidationError
from editwalk.lattice import SpectrumReport, _eigenvalues


def family(m, supports):
    """Edits forcing each support present, with equal weights."""
    supports = list(supports)
    return WeightedEdits(m, supports, [0] * len(supports), [Fraction(1, len(supports))] * len(supports))


def singleton_supports(m):
    return family(m, [1 << e for e in range(m)])


def representative(lat, i):
    """The edit whose + mask is the flat's representative sign."""
    flat, plus = int(lat.flats[i]), int(lat.signs[i])
    return Edit(lat.m, plus, flat & ~plus)


def test_closure_of_singletons_is_boolean_lattice():
    for m in (1, 2, 4):
        lat = closure(singleton_supports(m))
        assert len(lat) == 1 << m
        assert lat.flats[0] == 0
        assert lat.flats[-1] == (1 << m) - 1


def test_closure_single_support():
    s = EdgeSet.from_indices(5, [1, 3])
    lat = closure(family(5, [s.mask]))
    assert lat.flats.tolist() == [0, s.mask]


def test_closure_k4_moran_supports():
    k4 = complete_graph(4)
    lat = closure(moran_weights(k4))
    sizes = sorted(int(f).bit_count() for f in lat.flats)
    assert len(lat) == 12
    assert sizes == [0, 3, 3, 3, 3, 5, 5, 5, 5, 5, 5, 6]
    assert lat.flats[-1] == k4.full_set().mask


def test_closure_is_idempotent():
    k4 = complete_graph(4)
    lat = closure(moran_weights(k4))
    again = closure(family(k4.m, lat.flats))
    assert again.flats.tolist() == lat.flats.tolist()


def test_closure_cap():
    with pytest.raises(CapExceeded):
        closure(singleton_supports(8), cap=10)


def test_closure_needs_supports():
    with pytest.raises(ValidationError):
        closure(intersection_weights(2, 3, [0.25] * 4, mode="lazy"))


def test_mobius_diagonal_and_chain():
    s = EdgeSet.from_indices(3, [0, 2])
    lat = closure_by_witness([s])
    assert mobius_enumerated(lat, lat.bottom, lat.bottom) == 1
    assert mobius_enumerated(lat, s, s) == 1
    assert mobius_enumerated(lat, lat.bottom, s) == -1


def test_mobius_boolean_closed_form():
    # recursion must reproduce (-1)^(|Y| - |X|) on a full Boolean lattice
    for m in (2, 3, 5):
        lat = closure_by_witness([EdgeSet.from_indices(m, [e]) for e in range(m)])
        for x in lat.flats:
            for y in lat.flats:
                if x.mask & ~y.mask == 0:
                    k = y.mask.bit_count() - x.mask.bit_count()
                    assert mobius_enumerated(lat, x, y) == (-1) ** k


def test_eigenvalue_simple_distribution():
    host = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    dist = simple_edit_weights(host, [Fraction(1, 3)] * 4)
    lat = closure(dist)
    levels, index = _eigenvalues(dist, lat.flats)
    values = [levels[i] for i in index]
    assert values == [Fraction(int(flat).bit_count(), 4) for flat in lat.flats]
    assert values[-1] == 1


def test_eigenvalue_k4_moran():
    k4 = complete_graph(4)
    dist = moran_weights(k4)
    lat = closure(dist)
    levels, index = _eigenvalues(dist, lat.flats)
    values = dict(zip(lat.flats.tolist(), (levels[i] for i in index)))
    for v in range(4):
        assert values[neighborhood_edges(k4, v).mask] == Fraction(1, 4)
    assert values[k4.full_set().mask] == 1
    assert values[0] == 0


def test_eigenvalue_counts_identity_mass_at_bottom():
    m = 2
    dist = from_items(m, ((Edit.identity(m), Fraction(1, 4)), (Edit(m, 0b11, 0), Fraction(3, 4))))
    lat = closure(dist)
    assert lat.flats.tolist() == [0, 0b11]
    levels, index = _eigenvalues(dist, lat.flats)
    assert [levels[i] for i in index] == [Fraction(1, 4), 1]


def all_masks(m):
    return np.arange(1 << m, dtype=np.uint64)


def chambers_of(masks, m):
    return [chamber_of(EdgeSet(m, mask)) for mask in masks.tolist()]


def test_multiplicities_simple_semigroup():
    m = 4
    host = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    dist = simple_edit_weights(host, [Fraction(1, 2)] * m)
    lat = closure(dist)
    chambers = chambers_of(all_masks(m), m)
    for i, flat in enumerate(lat.flats.tolist()):
        assert chamber_count_leq(representative(lat, i), chambers) == 2 ** (m - flat.bit_count())
    report = multiplicities(lat, all_masks(m), dist)
    assert report.multiplicities.tolist() == [1] * (1 << m)
    assert report.total_multiplicity == 1 << m
    # aggregated view: eigenvalue k/m appears C(m, k) times
    assert report.by_value() == [
        (k / m, math.comb(m, k)) for k in range(m, -1, -1)
    ]


def test_multiplicities_single_full_support_generator():
    m = 3
    x = Edit(m, 0b101, 0b010)
    dist = from_items(m, ((x, Fraction(1)),))
    lat = closure(dist)
    states = np.array([0b101], np.uint64)  # the one reachable state
    report = multiplicities(lat, states, dist)
    by_flat = dict(zip(report.flats.tolist(), report.multiplicities.tolist()))
    assert by_flat[(1 << m) - 1] == 1
    assert by_flat[0] == 0


def test_multiplicities_representative_independence_k3_moran():
    # the witness oracle composes each flat's generators in either order;
    # both, and the closure's own representatives, give the same counts
    k3 = complete_graph(3)
    dist = moran_weights(k3)
    lat = closure(dist)
    lats = [lat, lattice_by_witness(dist), lattice_by_witness(dist, reverse=True)]
    assert all(other.flats.tolist() == lat.flats.tolist() for other in lats)
    assert lats[1].signs.tolist() != lats[2].signs.tolist()
    states = recurrent_class(dist, k3)
    chambers = chambers_of(states, lat.m)
    for i in range(len(lat)):
        counts = {chamber_count_leq(representative(other, i), chambers) for other in lats}
        assert len(counts) == 1
    reports = [multiplicities(other, states, dist).to_csv_rows() for other in lats]
    assert reports[0] == reports[1] == reports[2]


def test_multiplicities_k3_moran_frozen_values():
    # hand-derived: 6 recurrent states (three single edges, three 2-paths),
    # multiplicity 1 at the top, 1 at each vertex neighborhood, 2 at the bottom
    k3 = complete_graph(3)
    dist = moran_weights(k3)
    lat = closure(dist)
    states = recurrent_class(dist, k3)
    assert len(states) == 6
    report = multiplicities(lat, states, dist)
    by_flat = dict(zip(report.flats.tolist(), report.multiplicities.tolist()))
    assert by_flat[0] == 2
    assert by_flat[k3.full_set().mask] == 1
    for v in range(3):
        assert by_flat[neighborhood_edges(k3, v).mask] == 1
    assert report.total_multiplicity == 6


def test_multiplicities_read_the_support_masses_once(monkeypatch):
    # every flat's eigenvalue comes from one pass over the weights
    k4 = complete_graph(4)
    dist = moran_weights(k4)
    lat = closure(dist)
    states = recurrent_class(dist, k4)
    expected = multiplicities(lat, states, dist).to_csv_rows()
    calls = []
    real = lattice._eigenvalues
    monkeypatch.setattr(lattice, "_eigenvalues", lambda *a: calls.append(1) or real(*a))
    report = multiplicities(lat, states, dist)
    assert len(calls) == 1 and len(lat.flats) > 1
    assert report.to_csv_rows() == expected


def test_uninverted_identity():
    # sum of multiplicities over flats above X equals the chamber count above X
    k4 = complete_graph(4)
    dist = moran_weights(k4)
    lat = closure(dist)
    states = recurrent_class(dist, k4)
    chambers = chambers_of(states, lat.m)
    report = multiplicities(lat, states, dist)
    mult = dict(zip(report.flats.tolist(), report.multiplicities.tolist()))
    for i, flat in enumerate(lat.flats.tolist()):
        above = sum(count for other, count in mult.items() if other & flat == flat)
        assert above == chamber_count_leq(representative(lat, i), chambers)


def test_multiplicities_need_chambers():
    # a state is a chamber of the lattice's host: a mask with bits at or
    # above m is refused, in either mask dtype
    dist = singleton_supports(2)
    lat = closure(dist)
    with pytest.raises(HostMismatch):
        multiplicities(lat, np.array([0, 1, 2, 0b100], np.uint64), dist)
    with pytest.raises(HostMismatch):
        multiplicities(lat, np.array([1 << 63], np.uint64), dist)
    with pytest.raises(HostMismatch):
        multiplicities(lat, np.array([0, 1 << 70], object), dist)
    wide_dist = family(70, [1, (1 << 70) - 2])
    wide = closure(wide_dist)
    with pytest.raises(HostMismatch):
        multiplicities(wide, np.array([1, 1 << 70], object), wide_dist)
    with pytest.raises(HostMismatch):
        multiplicities(wide, np.array([-1, 1], object), wide_dist)
    # in range, the same wide lattice is counted
    report = multiplicities(wide, np.array([(1 << 70) - 1], object), wide_dist)
    assert report.total_multiplicity == 1


def cycle_family(m, rng):
    """Two opposite-signed edits on each pair of adjacent edges of an
    m-cycle, the shape of the benchmark's custom family."""
    flip = rng.getrandbits(m)
    raw = []
    for i in range(m):
        for first in (1, 0):
            tokens = [
                ("+" if s ^ (flip >> e & 1) else "-") + str(e)
                for e, s in zip((i, (i + 1) % m), (first, 1 - first))
            ]
            raw.append((parse_edit(" ".join(tokens), m), rng.randint(1, 9)))
    total = sum(w for _, w in raw)
    return from_items(m, tuple((e, Fraction(w, total)) for e, w in raw))


def _compound_cases():
    for n in (3, 4, 5):
        k = complete_graph(n)
        yield pytest.param(k, moran_weights(k), id=f"moran-K{n}")
    for n, N in ((2, 3), (3, 3)):
        mu = [Fraction(i + 1, (N + 1) * (N + 2) // 2) for i in range(N + 1)]
        host, dist = intersection_host(n, N), intersection_weights(n, N, mu)
        yield pytest.param(host, dist, id=f"intersection-{n}x{N}")
    m = 8
    cycle = from_edge_list(m, [(i, (i + 1) % m) for i in range(m)])
    yield pytest.param(cycle, cycle_family(m, random.Random(8)), id="custom-cycle-m8")


@pytest.mark.parametrize("g, dist", list(_compound_cases()))
def test_multiplicities_match_mobius_oracle(g, dist):
    generators = [e for e, _ in edit_items(dist)]
    oracle = closure_by_witness([supp(e) for e in generators])
    reps = representatives_for(oracle, generators)
    states = recurrent_class(dist, g)
    chambers = chambers_of(states, g.m)
    report = multiplicities(closure(dist), states, dist)
    assert report.multiplicities.tolist() == multiplicities_by_mobius(oracle, chambers, reps)
    assert report.flats.tolist() == [flat.mask for flat in oracle.flats]


@pytest.mark.parametrize("m", [63, 64, 65, 70])
def test_spectrum_on_hosts_beyond_one_word(m):
    # masks of more than 64 edges leave the uint64 path; the results must not wrap
    path = from_edge_list(m + 1, [(i, i + 1) for i in range(m)])
    texts = ["+0 -1", "-0 +1", " ".join(f"+{e}" for e in range(2, m))]
    dist = from_items(m, tuple((parse_edit(t, m), Fraction(1, 3)) for t in texts))
    report = spectrum(dist, path)
    assert report.multiplicities.tolist() == [0, 0, 1, 1]
    assert [int(flat).bit_count() for flat in report.flats] == [0, 2, m - 2, m]
    generators = [e for e, _ in edit_items(dist)]
    oracle = closure_by_witness([supp(e) for e in generators])
    chambers = chambers_of(recurrent_class(dist, path), m)
    reps = representatives_for(oracle, generators)
    assert multiplicities_by_mobius(oracle, chambers, reps) == [0, 0, 1, 1]


def test_spectrum_report_serialization():
    report = eigenvalues_simple(3)
    rows = report.to_csv_rows()
    assert rows[0] == ("0x0", 0, "0", 1)
    assert rows[-1] == ("0x7", 3, "1", 1)
    assert {row[3] for row in rows} == {1}
    assert report.second_largest() == pytest.approx(2 / 3)


def test_second_largest_needs_a_flat_below_the_top():
    report = SpectrumReport(np.array([3], np.uint64), [1.0], np.array([0]), np.array([1]))
    with pytest.raises(ValidationError) as exc:
        report.second_largest()
    assert exc.type is ValidationError and str(exc.value) == "spectrum has no flat below the top"


def zero_flat_family():
    """Path 0-1-2-3 driven by +2, -0 -1, +1 +2, -1 and +0 -1 (weights 2, 5,
    1, 3 and 1 twelfths): its eigenvalues are 1, 1/2, 1/6 and 1/6, while
    the flats 0x2 and 0x3 carry multiplicity 0 and weights 1/4 and 3/4."""
    plus, minus = [0b100, 0, 0b110, 0, 0b001], [0, 0b011, 0, 0b010, 0b010]
    dist = WeightedEdits(3, plus, minus, [Fraction(w, 12) for w in (2, 5, 1, 3, 1)])
    return from_edge_list(4, [(0, 1), (1, 2), (2, 3)]), dist


LAMBDA_STAR_FAMILIES = {
    "zero flats": zero_flat_family,
    "moran K4": lambda: (complete_graph(4), moran_weights(complete_graph(4))),
    "moran K5": lambda: (complete_graph(5), moran_weights(complete_graph(5))),
    "intersection 2x3": lambda: (intersection_host(2, 3), intersection_weights(2, 3, [Fraction(1, 4)] * 4)),
}


@pytest.mark.parametrize("name", LAMBDA_STAR_FAMILIES)
def test_second_largest_is_the_largest_eigenvalue_below_one(name):
    g, dist = LAMBDA_STAR_FAMILIES[name]()
    report = spectrum(dist, g)
    numeric = numeric_eigenvalues(build_chain(dist, g, recurrent_class(dist, g)))
    assert numeric[0] == pytest.approx(1.0, abs=1e-12) and numeric[1] < 1.0 - 1e-9
    assert report.second_largest() == pytest.approx(numeric[1], abs=1e-12)


def test_second_largest_skips_flats_of_multiplicity_zero():
    g, dist = zero_flat_family()
    report = spectrum(dist, g)
    zero = report.multiplicities[:-1] == 0
    assert report.flats[:-1][zero].tolist() == [0, 0b010, 0b011]
    assert report.eigenvalues[:-1][zero].tolist() == [0, Fraction(1, 4), Fraction(3, 4)]
    assert report.second_largest() == 0.5
    # one chamber: +0 +1 then +0 leaves only the full graph, so only the top flat counts
    one = WeightedEdits(2, [0b11, 0b01], [0, 0], [Fraction(1, 2)] * 2)
    report = spectrum(one, from_edge_list(3, [(0, 1), (1, 2)]))
    assert report.multiplicities.tolist() == [0, 0, 1] and report.second_largest() == 0.0


def assert_matches_entries(report, oracle):
    rows = report.to_csv_rows()
    assert rows == oracle.to_csv_rows()
    assert {tuple(map(type, row)) for row in rows} == {(str, int, str, int)}  # JSON-encodable
    assert report.by_value() == oracle.by_value()
    assert {(type(v), type(k)) for v, k in report.by_value()} == {(float, int)}
    assert report.eigenvalue_multiset() == oracle.eigenvalue_multiset()
    assert report.second_largest() == oracle.second_largest()
    assert report.total_multiplicity == oracle.total_multiplicity
    for t in (0, 1, 7):  # summed in another order
        assert brown_tv_bound(report, t) == pytest.approx(oracle.brown_tv_bound(t), rel=1e-12)


@pytest.mark.parametrize("m", range(1, 13))
def test_simple_report_matches_the_entry_oracle(m):
    assert_matches_entries(eigenvalues_simple(m), eigenvalues_simple_by_subset(m))


def _report_cases():
    for n in (3, 4, 5):
        yield f"moran-K{n}", complete_graph(n), moran_weights(complete_graph(n))
    mu = [Fraction(k, 10) for k in range(1, 5)]
    yield "intersection-2x3", intersection_host(2, 3), intersection_weights(2, 3, mu)
    for i, (g, dist) in enumerate([*seeded_families(424242, 20), *seeded_families(777, 10)]):
        yield f"random-{i}", g, dist


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "double"])
def test_spectrum_report_matches_the_entry_oracle(exact):
    for name, g, dist in _report_cases():
        if not exact:
            dist = WeightedEdits(dist.m, dist.plus, dist.minus, [float(w) for w in dist.weights])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SupportNotCovering)
            report = spectrum(dist, g)
        assert report.eigenvalues.dtype == (object if exact else np.float64), name
        assert_matches_entries(report, EntryReport.of(g.m, report))
