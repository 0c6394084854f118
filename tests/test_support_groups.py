"""A distribution groups its edits by support once (`support_groups`), and
the walk table takes its support ids from that grouping.

The table is compared with a scan over every set bit of every edit's
support (`oracles.edit_table_by_scan`): the same `disjoint` (the supports
are aligned blocks), the same `blocks`, `width` and in-block `bits` when
they are, and support ids that induce the same partition of the edits.
Disjoint supports off the blocks act in step order, as the step-by-step
walk does. The grouping is compared with a dict keyed by support mask.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from oracles import edit_table_by_scan, walk_by_step
from test_random_families import seeded_families

import editwalk as ew
from editwalk import process
from editwalk.process import _common_denominator, _EditTable, _walk, make_rng


def _custom(m, supports, seed, identity=False):
    """One or two edits with random signs on each support, random weights."""
    rng = np.random.default_rng(seed)
    masks = [(0, 0)] if identity else []
    for support in supports:
        for _ in range(int(rng.integers(1, 3))):
            plus = support & int.from_bytes(rng.bytes(m // 8 + 1), "little")
            masks.append((plus, support & ~plus))
    weights = [int(w) for w in rng.integers(1, 9, len(masks))]
    return ew.WeightedEdits(m, *zip(*masks), [Fraction(w, sum(weights)) for w in weights])


MU4 = [Fraction(1, 5)] * 5
FAMILIES = {
    "simple K5": lambda: ew.simple_edit_weights(ew.complete_graph(5), 0.3),
    "simple K12 (m=66)": lambda: ew.simple_edit_weights(ew.complete_graph(12), 0.3),
    "intersection 2x3": lambda: ew.intersection_weights(2, 3, [0.1, 0.2, 0.3, 0.4]),
    "intersection 20x4 (m=80)": lambda: ew.intersection_weights(20, 4, MU4),
    "disjoint custom m=70": lambda: _custom(70, [0b111 << e for e in range(0, 69, 3)], 1),  # edge 69 uncovered
}
OFF_BLOCKS = {
    "disjoint with identity m=9": lambda: _custom(9, [0b11, 0b1100, 0b111 << 5], 2, identity=True),
    "interleaved {0,2} {1,3}": lambda: _custom(4, [0b101, 0b1010], 4),
}


def same_partition(a, b) -> bool:
    """Whether two id arrays group the same items together."""
    return len(set(zip(a.tolist(), b.tolist()))) == len(set(a.tolist())) == len(set(b.tolist()))


@pytest.mark.parametrize("name", FAMILIES)
def test_block_table_matches_the_scan(name):
    dist = FAMILIES[name]()
    table, scanned = _EditTable(dist), edit_table_by_scan(dist)
    assert table.disjoint and scanned.disjoint
    assert (table.blocks, table.width) == (scanned.blocks, scanned.width)
    assert table.bits.dtype == bool and np.array_equal(table.bits, scanned.bits)
    assert same_partition(table.sid, scanned.sid)


@pytest.mark.parametrize("name", OFF_BLOCKS)
def test_disjoint_families_off_the_blocks_act_in_step_order(name):
    dist = OFF_BLOCKS[name]()
    table, scanned = _EditTable(dist), edit_table_by_scan(dist)
    assert not table.disjoint and not scanned.disjoint and not hasattr(table, "bits")
    assert same_partition(table.sid, scanned.sid)
    start = ew.EdgeSet(dist.m, 0b1010)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(process, "COMPOSE_MIN_WRITERS", 1)  # every pass reduces its words
        for thin in (1, 3, 50):
            times = list(range(thin, 2000, thin))
            assert _walk(dist, start, times, make_rng(thin)) == walk_by_step(dist, start, times, make_rng(thin))


@pytest.mark.parametrize("n", [5, 30])
def test_moran_table_keeps_no_per_edit_edges(n):
    dist = ew.moran_weights(ew.complete_graph(n))
    table, scanned = _EditTable(dist), edit_table_by_scan(dist)
    assert not table.disjoint and not scanned.disjoint
    assert not hasattr(table, "bits")
    assert same_partition(table.sid, scanned.sid) and table.sid.max() == n - 1


def test_overlapping_custom_family_is_not_disjoint():
    dist = _custom(12, [0b111, 0b1100, 0b110000], 3, identity=True)
    table, scanned = _EditTable(dist), edit_table_by_scan(dist)
    assert not table.disjoint and not scanned.disjoint
    assert same_partition(table.sid, scanned.sid)


def grouping_by_dict(dist):
    groups = {}
    for k, support in enumerate(dist.supports.tolist()):
        groups.setdefault(support, []).append(k)
    keys = sorted(groups)
    rank = {support: j for j, support in enumerate(keys)}
    return keys, [groups[s][0] for s in keys], [rank[s] for s in dist.supports.tolist()]


def test_support_groups_match_a_dict_grouping():
    families = [dist for _, dist in [*seeded_families(424242, 20), *seeded_families(777, 10)]]
    families += [make() for make in (*FAMILIES.values(), *OFF_BLOCKS.values())]
    families += [ew.moran_weights(ew.complete_graph(n)) for n in (4, 12)]
    for dist in families:
        supports, first, index = dist.support_groups
        assert (supports.tolist(), first.tolist(), index.tolist()) == grouping_by_dict(dist)
        assert supports.dtype == dist.plus.dtype
        assert dist.support_groups is dist.support_groups  # built once
        assert not any(a.flags.writeable for a in (supports, first, index))


def test_wide_supports_share_the_sign_masks():
    # an edit with one empty sign has that sign's other mask as its support
    dist = ew.simple_edit_weights(ew.complete_graph(12), 0.3)
    supports = dist.supports
    assert supports.dtype == object
    for k, support in enumerate(supports):
        assert support is (dist.plus[k] if k % 2 == 0 else dist.minus[k])
    moran = ew.moran_weights(ew.complete_graph(12))
    assert moran.supports.tolist() == [p | q for p, q in zip(moran.plus.tolist(), moran.minus.tolist())]


@pytest.mark.parametrize("weights", [
    [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)],
    [1, Fraction(0)],
    [0.1, 0.2, 0.7],
])
def test_integer_weights_are_exact(weights):
    nums, den = _common_denominator(weights)
    assert nums.dtype == object and all(type(v) is int for v in nums)
    assert [Fraction(v, den) for v in nums] == [Fraction(w) for w in weights]
    assert den == math.lcm(*(Fraction(w).denominator for w in weights))


def test_a_distribution_keeps_its_integer_weights():
    dist = ew.moran_weights(ew.complete_graph(4))
    nums, den = dist.integer_weights
    assert den == 12 and nums.tolist() == [1] * 12
    assert dist.integer_weights is dist.integer_weights
