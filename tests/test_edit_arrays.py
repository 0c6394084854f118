"""One edit representation: the mask arrays of `WeightedEdits`.

A distribution is its `plus`, `minus` and `weights` arrays, and its
`items` view lists the same edits; the sampler and every enumeration read
the arrays. The
recurrent class is a level-by-level search over those arrays, checked
here against the one-state-at-a-time search kept in `oracles`. The
closure check of `verify` tests joins of flats with supports, and fails
on a family that is not union-closed.
"""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from oracles import Edit, draw_masks, from_items, parse_edit, recurrent_class_by_state
from test_random_families import seeded_families

import editwalk as ew
from editwalk import spectral, verify
from editwalk.errors import CapExceeded, SupportNotCovering
from editwalk.lattice import SupportLattice


def same_class(dist, g, initial=None, cap=ew.errors.STATE_CAP):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupportNotCovering)
        states = ew.recurrent_class(dist, g, initial=initial, cap=cap)
        expected = recurrent_class_by_state(dist, g, initial=initial, cap=cap)
    assert states.dtype == expected.dtype and np.array_equal(states, expected)
    return states


def wide_family(m=70):
    """Opposite-signed edit pairs on the disjoint edge pairs (10k, 10k + 1)
    of an m-cycle, m > 64, and one edit forcing the other edges present:
    2^7 chambers whose masks do not fit a machine word."""
    g = ew.from_edge_list(m, [(i, (i + 1) % m) for i in range(m)])
    pairs = range(0, m, 10)
    texts = [f"{a}{i} {b}{i + 1}" for i in pairs for a, b in (("+", "-"), ("-", "+"))]
    rest = ((1 << m) - 1) & ~sum(3 << i for i in pairs)
    edits = [parse_edit(t, m) for t in texts] + [Edit(m, rest, 0)]
    w = Fraction(1, len(edits))
    return g, from_items(m, tuple((e, w) for e in edits))


def test_arrays_are_built_from_the_items():
    g = ew.complete_graph(4)
    dist = ew.moran_weights(g)
    assert dist.plus.dtype == dist.minus.dtype == np.uint64
    assert dist.plus.tolist() == [plus for plus, _, _ in dist.items]
    assert dist.minus.tolist() == [minus for _, minus, _ in dist.items]
    assert dist.weights == tuple(w for _, _, w in dist.items)
    assert dist.supports.tolist() == [plus | minus for plus, minus, _ in dist.items]
    _, wide = wide_family()
    assert wide.plus.dtype == object and wide.plus.tolist() == [plus for plus, _, _ in wide.items]
    lazy = ew.intersection_weights(2, 3, [0.25] * 4, mode="lazy")
    assert len(lazy.plus) == len(lazy.minus) == len(lazy.weights) == 0


@pytest.mark.parametrize("m", [6, 70])
def test_draws_are_python_ints(m):
    g = ew.from_edge_list(m, [(i, (i + 1) % m) for i in range(m)])
    dist = ew.simple_edit_weights(g, 0.5)
    draws = list(zip(*draw_masks(dist, ew.make_rng(3), 50)))
    assert all(type(plus) is int and type(minus) is int for plus, minus in draws)
    edits = {(plus, minus) for plus, minus, _ in dist.items}
    assert set(draws) <= edits


def test_spectral_reads_no_edit_objects():
    for name in ("Edit", "apply", "compose", "chamber_of"):
        assert not hasattr(spectral, name)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_moran_class_matches_oracle(n):
    g = ew.complete_graph(n)
    assert len(same_class(ew.moran_weights(g), g)) == {4: 37, 5: 290, 6: 2931}[n]
    assert len(same_class(ew.moran_weights(g), g, initial=g.empty_set()))


def test_intersection_class_matches_oracle():
    dist = ew.intersection_weights(2, 3, [Fraction(1, 4)] * 4)
    assert len(same_class(dist, ew.intersection_host(2, 3))) == 64


def test_random_families_match_oracle():
    rng = np.random.default_rng(12)
    for g, dist in [*seeded_families(424242, 20), *seeded_families(777, 10)]:
        same_class(dist, g)
        same_class(dist, g, initial=ew.EdgeSet(g.m, int(rng.integers(0, 1 << g.m))))


def test_object_masks_match_oracle():
    g, dist = wide_family()
    states = same_class(dist, g)
    assert len(states) == 1 << 7
    assert all(mask >> 69 & 1 for mask in states.tolist())


@pytest.mark.parametrize("name", ["moran K4", "moran K5", "moran K6", "intersection 2x3", "wide m=70"])
def test_every_state_collection_is_one_sorted_mask_array(name):
    if name.startswith("moran"):
        g = ew.complete_graph(int(name[-1]))
        dist = ew.moran_weights(g)
    elif name == "intersection 2x3":
        g, dist = ew.intersection_host(2, 3), ew.intersection_weights(2, 3, [Fraction(1, 4)] * 4)
    else:
        g, dist = wide_family()
    dtype = np.dtype(object) if g.m > 64 else np.dtype(np.uint64)
    arrays = [ew.recurrent_class(dist, g), ew.stationary_faces(dist, g, exact=False)[0],
              ew.build_chain(dist, g, ew.recurrent_class(dist, g)).masks]
    for masks in arrays:
        assert isinstance(masks, np.ndarray) and masks.dtype == dtype
        assert not masks.flags.writeable
        assert (masks[1:] > masks[:-1]).all()  # strictly ascending
        assert masks.tolist() == arrays[0].tolist()
    assert np.array_equal(arrays[0], recurrent_class_by_state(dist, g))


def test_uncovered_edges_stay_frozen():
    # edits act on edges 0-2 of a 5-edge path; edges 3 and 4 keep the start's values
    g = ew.from_edge_list(6, [(i, i + 1) for i in range(5)])
    texts = ["+0 -1", "-0 +1", "+2", "-2 +1"]
    dist = from_items(5, tuple((parse_edit(t, 5), Fraction(1, 4)) for t in texts))
    start = ew.EdgeSet(5, 0b01000)
    with pytest.warns(SupportNotCovering):
        ew.recurrent_class(dist, g, initial=start)
    states = same_class(dist, g, initial=start)
    assert {mask >> 3 for mask in states.tolist()} == {0b01}
    # the same frozen edges on a host past one machine word
    g, wide = wide_family()
    free = ew.WeightedEdits(70, *zip(*wide.items[:-1], (1 << 2, 0, wide.items[-1][2])))
    start = ew.EdgeSet(70, (1 << 69) | (1 << 65))
    states = same_class(free, g, initial=start)
    assert {mask >> 64 for mask in states.tolist()} == {0b100010}


def test_cap_is_checked_per_level_with_the_same_text():
    g = ew.complete_graph(4)
    dist = ew.moran_weights(g)
    assert len(ew.recurrent_class(dist, g, cap=37)) == 37
    with pytest.raises(CapExceeded, match="^recurrent-class states exceed the cap of 36$"):
        ew.recurrent_class(dist, g, cap=36)


def test_closure_check_passes_on_every_model():
    families = [ew.simple_edit_weights(ew.complete_graph(5), 0.3),
                ew.moran_weights(ew.complete_graph(4)),
                ew.intersection_weights(2, 3, [0.25] * 4),
                wide_family()[1],
                *(dist for _, dist in seeded_families(777, 10))]
    for dist in families:
        result = verify.check_closure_idempotent(dist, ew.closure(dist))
        assert (result.name, result.tolerance, result.passed) == ("closure_idempotent", 0.0, True)


@pytest.mark.parametrize("drop", ["a union", "a support", "the empty set"])
def test_closure_check_fails_when_a_flat_is_missing(drop):
    g = ew.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    dist = ew.simple_edit_weights(g, 0.5)
    lat = ew.closure(dist)
    keep = lat.flats != {"a union": 0b011, "a support": 0b001, "the empty set": 0}[drop]
    assert keep.sum() == len(lat) - 1
    result = verify.check_closure_idempotent(dist, SupportLattice(lat.m, lat.flats[keep], lat.signs[keep]))
    assert (result.name, result.residual, result.passed) == ("closure_idempotent", 1.0, False)


def test_verify_keeps_the_closure_check_last():
    k3 = ew.complete_graph(3)
    names = [r.name for r in verify.run_verification(k3, ew.moran_weights(k3))]
    assert names[-1] == "closure_idempotent"


def test_verify_builds_one_lattice_per_run(monkeypatch):
    calls = []

    def counted(dist, cap):
        calls.append(cap)
        return ew.closure(dist, cap)

    monkeypatch.setattr(verify, "closure", counted)
    monkeypatch.setattr(spectral, "closure", counted)
    k4 = ew.complete_graph(4)
    runs = [(k4, ew.moran_weights(k4), None),
            (ew.intersection_host(2, 3), ew.intersection_weights(2, 3, [Fraction(1, 4)] * 4), None),
            (*wide_family(), None),
            (k4, ew.simple_edit_weights(k4, 0.3), 0.3)]
    for g, dist, p in runs:
        calls.clear()
        results = verify.run_verification(g, dist, p=p)
        assert all(r.passed for r in results) and len(calls) == 1
