import math
import random
from fractions import Fraction

import numpy as np
import pytest
from oracles import chamber_count_leq, mobius_enumerated, multiplicities_by_mobius

from editwalk import (
    EdgeSet,
    Edit,
    WeightedEdits,
    chamber_of,
    closure,
    complete_graph,
    eigenvalue,
    from_edge_list,
    intersection_host,
    intersection_weights,
    moran_weights,
    multiplicities,
    neighborhood_edges,
    parse_edit,
    recurrent_class,
    representatives_for,
    simple_edit_weights,
    spectrum,
    supp,
)
from editwalk.errors import (
    BadRepresentative,
    ClosureTooLarge,
    HostMismatch,
    NotAFlat,
    ValidationError,
)


def singleton_supports(m):
    return [EdgeSet.from_indices(m, [e]) for e in range(m)]


def test_closure_of_singletons_is_boolean_lattice():
    for m in (1, 2, 4):
        lat = closure(singleton_supports(m))
        assert len(lat) == 1 << m
        assert lat.bottom.mask == 0
        assert lat.top.mask == (1 << m) - 1


def test_closure_single_support():
    s = EdgeSet.from_indices(5, [1, 3])
    lat = closure([s])
    assert [f.mask for f in lat.flats] == [0, s.mask]


def test_closure_k4_moran_supports():
    k4 = complete_graph(4)
    supports = [neighborhood_edges(k4, v) for v in range(4)]
    lat = closure(supports)
    sizes = sorted(len(f) for f in lat.flats)
    assert len(lat) == 12
    assert sizes == [0, 3, 3, 3, 3, 5, 5, 5, 5, 5, 5, 6]
    assert lat.top == k4.full_set()


def test_closure_is_idempotent():
    k4 = complete_graph(4)
    lat = closure([neighborhood_edges(k4, v) for v in range(4)])
    again = closure(list(lat.flats))
    assert [f.mask for f in again.flats] == [f.mask for f in lat.flats]


def test_closure_cap():
    with pytest.raises(ClosureTooLarge):
        closure(singleton_supports(8), cap=10)


def test_closure_needs_supports():
    with pytest.raises(ValidationError):
        closure([])


def test_mobius_diagonal_and_chain():
    s = EdgeSet.from_indices(3, [0, 2])
    lat = closure([s])
    assert mobius_enumerated(lat, lat.bottom, lat.bottom) == 1
    assert mobius_enumerated(lat, s, s) == 1
    assert mobius_enumerated(lat, lat.bottom, s) == -1


def test_mobius_boolean_closed_form():
    # recursion must reproduce (-1)^(|Y| - |X|) on a full Boolean lattice
    for m in (2, 3, 5):
        lat = closure(singleton_supports(m))
        for x in lat.flats:
            for y in lat.flats:
                if x.issubset(y):
                    k = len(y) - len(x)
                    assert mobius_enumerated(lat, x, y) == (-1) ** k


def test_index_of_rejects_non_flats():
    lat = closure([EdgeSet.from_indices(3, [0, 1])])
    assert lat.index_of(EdgeSet(3, 0b011)) == 1
    with pytest.raises(NotAFlat):
        lat.index_of(EdgeSet(4, 0b011))  # host size differs
    with pytest.raises(NotAFlat):
        lat.index_of(EdgeSet(3, 0b001))


def test_eigenvalue_simple_distribution():
    from editwalk import from_edge_list

    host = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    dist = simple_edit_weights(host, [Fraction(1, 3)] * 4)
    lat = closure(singleton_supports(4))
    for flat in lat.flats:
        assert eigenvalue(lat, flat, dist) == Fraction(len(flat), 4)
    assert eigenvalue(lat, lat.top, dist) == 1


def test_eigenvalue_k4_moran():
    k4 = complete_graph(4)
    dist = moran_weights(k4)
    lat = closure([neighborhood_edges(k4, v) for v in range(4)])
    for v in range(4):
        assert eigenvalue(lat, neighborhood_edges(k4, v), dist) == Fraction(1, 4)
    assert eigenvalue(lat, lat.top, dist) == 1
    assert eigenvalue(lat, lat.bottom, dist) == 0


def test_eigenvalue_counts_identity_mass_at_bottom():
    m = 2
    ident = Edit.identity(m)
    x = Edit(m, 0b11, 0)
    dist_like = {0: Fraction(1, 4), 0b11: Fraction(3, 4)}  # support mass map
    lat = closure([supp(ident), supp(x)])
    assert eigenvalue(lat, lat.bottom, dist_like) == Fraction(1, 4)


def all_masks(m):
    return np.arange(1 << m, dtype=np.uint64)


def chambers_of(masks, m):
    return [chamber_of(EdgeSet(m, mask)) for mask in masks.tolist()]


def test_multiplicities_simple_semigroup():
    m = 4
    from editwalk import from_edge_list

    host = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    dist = simple_edit_weights(host, [Fraction(1, 2)] * m)
    generators = [e for e, _ in dist.items]
    lat = closure([supp(e) for e in generators])
    reps = representatives_for(lat, generators)
    chambers = chambers_of(all_masks(m), m)
    for flat in lat.flats:
        assert chamber_count_leq(reps[flat], chambers) == 2 ** (m - len(flat))
    report = multiplicities(lat, all_masks(m), reps, dist)
    assert all(e.multiplicity == 1 for e in report.entries)
    assert report.total_multiplicity == 1 << m
    # aggregated view: eigenvalue k/m appears C(m, k) times
    assert report.by_value() == [
        (k / m, math.comb(m, k)) for k in range(m, -1, -1)
    ]


def test_multiplicities_single_full_support_generator():
    m = 3
    x = Edit(m, 0b101, 0b010)
    lat = closure([supp(x)])
    reps = representatives_for(lat, [x])
    states = np.array([0b101], np.uint64)  # the one reachable state
    report = multiplicities(lat, states, reps, {supp(x).mask: Fraction(1)})
    by_flat = {e.flat.mask: e.multiplicity for e in report.entries}
    assert by_flat[(1 << m) - 1] == 1
    assert by_flat[0] == 0


def test_multiplicities_representative_independence_k3_moran():
    k3 = complete_graph(3)
    dist = moran_weights(k3)
    generators = [e for e, _ in dist.items]
    lat = closure([supp(e) for e in generators])
    reps_a = representatives_for(lat, generators)
    # second representative family: compose witness generators in reverse
    from editwalk import compose

    reps_b = {}
    for flat in lat.flats:
        edit = Edit.identity(lat.m)
        for i in reversed(lat.witnesses[flat.mask]):
            edit = compose(edit, generators[i])
        reps_b[flat] = edit
    from editwalk import recurrent_class

    states = recurrent_class(dist, k3)
    chambers = chambers_of(states, lat.m)
    for flat in lat.flats:
        assert chamber_count_leq(reps_a[flat], chambers) == chamber_count_leq(
            reps_b[flat], chambers
        )
    assert multiplicities(lat, states, reps_a) == multiplicities(lat, states, reps_b)


def test_multiplicities_k3_moran_frozen_values():
    # hand-derived: 6 recurrent states (three single edges, three 2-paths),
    # multiplicity 1 at the top, 1 at each vertex neighborhood, 2 at the bottom
    k3 = complete_graph(3)
    dist = moran_weights(k3)
    generators = [e for e, _ in dist.items]
    lat = closure([supp(e) for e in generators])
    reps = representatives_for(lat, generators)
    from editwalk import recurrent_class

    states = recurrent_class(dist, k3)
    chambers = chambers_of(states, lat.m)
    assert len(chambers) == 6
    report = multiplicities(lat, states, reps, dist)
    by_flat = {e.flat.mask: e.multiplicity for e in report.entries}
    assert by_flat[0] == 2
    assert by_flat[lat.top.mask] == 1
    for v in range(3):
        assert by_flat[neighborhood_edges(k3, v).mask] == 1
    assert report.total_multiplicity == 6


def test_multiplicities_read_the_support_masses_once(monkeypatch):
    from editwalk import recurrent_class
    from editwalk.process import WeightedEdits

    k4 = complete_graph(4)
    dist = moran_weights(k4)
    generators = [e for e, _ in dist.items]
    lat = closure([supp(e) for e in generators])
    reps = representatives_for(lat, generators)
    states = recurrent_class(dist, k4)
    expected = [(e.flat, e.eigenvalue) for e in multiplicities(lat, states, reps, dist).entries]
    calls = []
    masses = WeightedEdits.support_masses
    monkeypatch.setattr(WeightedEdits, "support_masses", lambda self: calls.append(1) or masses(self))
    report = multiplicities(lat, states, reps, dist)
    assert len(calls) == 1 and len(lat.flats) > 1
    assert [(e.flat, e.eigenvalue) for e in report.entries] == expected


def test_uninverted_identity():
    # sum of multiplicities over flats above X equals the chamber count above X
    k4 = complete_graph(4)
    dist = moran_weights(k4)
    generators = [e for e, _ in dist.items]
    lat = closure([supp(e) for e in generators])
    reps = representatives_for(lat, generators)
    from editwalk import recurrent_class

    states = recurrent_class(dist, k4)
    chambers = chambers_of(states, lat.m)
    report = multiplicities(lat, states, reps, dist)
    mult = {e.flat.mask: e.multiplicity for e in report.entries}
    for flat in lat.flats:
        above = sum(
            mult[other.mask] for other in lat.flats if flat.issubset(other)
        )
        assert above == chamber_count_leq(reps[flat], chambers)


def test_bad_representative():
    lat = closure(singleton_supports(2))
    reps = {flat: Edit(2, flat.mask, 0) for flat in lat.flats}
    reps[EdgeSet(2, 0b01)] = Edit.identity(2)
    with pytest.raises(BadRepresentative):
        multiplicities(lat, all_masks(2), reps)


def test_multiplicities_need_chambers():
    # a state is a chamber of the lattice's host: a mask with bits at or
    # above m is refused, in either mask dtype
    lat = closure(singleton_supports(2))
    reps = {flat: Edit(2, flat.mask, 0) for flat in lat.flats}
    with pytest.raises(HostMismatch):
        multiplicities(lat, np.array([0, 1, 2, 0b100], np.uint64), reps)
    with pytest.raises(HostMismatch):
        multiplicities(lat, np.array([1 << 63], np.uint64), reps)
    with pytest.raises(HostMismatch):
        multiplicities(lat, np.array([0, 1 << 70], object), reps)
    wide = closure([EdgeSet(70, 1), EdgeSet(70, (1 << 70) - 2)])
    wide_reps = {flat: Edit(70, flat.mask, 0) for flat in wide.flats}
    with pytest.raises(HostMismatch):
        multiplicities(wide, np.array([1, 1 << 70], object), wide_reps)
    with pytest.raises(HostMismatch):
        multiplicities(wide, np.array([-1, 1], object), wide_reps)
    # in range, the same wide lattice is counted
    report = multiplicities(wide, np.array([(1 << 70) - 1], object), wide_reps)
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
    return WeightedEdits(m, tuple((e, Fraction(w, total)) for e, w in raw))


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
    generators = [e for e, _ in dist.items]
    lat = closure([supp(e) for e in generators])
    reps = representatives_for(lat, generators)
    states = recurrent_class(dist, g)
    chambers = chambers_of(states, lat.m)
    report = multiplicities(lat, states, reps, dist)
    assert [e.multiplicity for e in report.entries] == multiplicities_by_mobius(
        lat, chambers, reps
    )
    assert [e.flat for e in report.entries] == list(lat.flats)


@pytest.mark.parametrize("m", [63, 64, 65, 70])
def test_spectrum_on_hosts_beyond_one_word(m):
    # masks of more than 64 edges leave the uint64 path; the results must not wrap
    path = from_edge_list(m + 1, [(i, i + 1) for i in range(m)])
    texts = ["+0 -1", "-0 +1", " ".join(f"+{e}" for e in range(2, m))]
    dist = WeightedEdits(m, tuple((parse_edit(t, m), Fraction(1, 3)) for t in texts))
    report = spectrum(dist, path)
    assert [e.multiplicity for e in report.entries] == [0, 0, 1, 1]
    assert [len(e.flat) for e in report.entries] == [0, 2, m - 2, m]
    generators = [e for e, _ in dist.items]
    lat = closure([supp(e) for e in generators])
    states = recurrent_class(dist, path)
    chambers = chambers_of(states, lat.m)
    reps = representatives_for(lat, generators)
    assert multiplicities_by_mobius(lat, chambers, reps) == [0, 0, 1, 1]


def test_spectrum_report_serialization():
    from editwalk import eigenvalues_simple

    report = eigenvalues_simple(3)
    rows = report.to_csv_rows()
    assert rows[0] == ("0x0", 0, "0", 1)
    assert rows[-1] == ("0x7", 3, "1", 1)
    obj = report.to_json_obj()
    assert obj[0]["flat"] == "0x0"
    assert {entry["multiplicity"] for entry in obj} == {1}
    assert report.second_largest() == pytest.approx(2 / 3)
