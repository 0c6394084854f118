"""Laws of the block-drawn walk kernel behind simulate and the
`empirical_distribution` oracle.

Edits are drawn in blocks and applied to raw masks, so no Edit is built or
validated per step. These tests check what that validation guarded: every
recorded move is a move of the law, lazy draws rewire exactly one star, and
the recorded times do not depend on where the blocks end. Between two
records the kernel applies only the last draw on each support, composed
into one edit when the supports are aligned blocks; a hypothesis test
compares it with the step-by-step walk in `oracles` on every kind of
family, with the block size and the composition cutoff patched small.
"""

from dataclasses import replace
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from editwalk import (
    complete_graph,
    from_edge_list,
    intersection_weights,
    make_rng,
    moran_weights,
    simple_edit_weights,
    simulate,
)
from editwalk import process
from editwalk.hostgraph import EdgeSet
from editwalk.process import BLOCK, WeightedEdits, _walk
from oracles import apply, draw_masks, edit_items, empirical_distribution, lazy_draw_by_ranks, step, walk_by_step

K4 = complete_graph(4)
LAWS = {
    "simple K4": lambda: simple_edit_weights(K4, [0.2, 0.3, 0.5, 0.6, 0.7, 0.9]),
    "moran K4": lambda: moran_weights(K4),
    "intersection 2x3": lambda: intersection_weights(2, 3, [0.1, 0.2, 0.3, 0.4]),
}


@pytest.mark.parametrize("law", LAWS)
def test_each_move_is_an_edit_of_the_law(law):
    dist = LAWS[law]()
    start = K4.full_set() if law != "intersection 2x3" else K4.empty_set()
    masks = simulate(dist, start, BLOCK + 300, seed=11, thin=1).masks
    assert len(masks) == BLOCK + 301
    states = [EdgeSet(K4.m, mask) for mask in masks]
    used = set()
    for a, b in zip(states, states[1:]):
        moves = [edit for edit, _ in edit_items(dist) if apply(edit, a) == b]
        assert moves, f"{a.hex()} -> {b.hex()} is no move of the law"
        used.update(moves)
    assert len(used) > len(dist.items) // 2  # the draws reach across the law


def test_lazy_block_draws_rewire_one_star():
    n, N = 2, 3
    lazy = intersection_weights(n, N, [0.1, 0.2, 0.3, 0.4], mode="lazy")
    stars = [((1 << N) - 1) << (v * N) for v in range(n)]
    star, bits = lazy.lazy.draw(make_rng(4), lazy.lazy.block)
    assert bits.shape == (lazy.lazy.block, N) and set(star.tolist()) == {0, 1}
    plus, minus = draw_masks(lazy, make_rng(4), 2000)
    assert len(plus) == len(minus) == 2000
    for p, q in zip(plus, minus):
        (star,) = [s for s in stars if (p | q) & s]
        assert p & ~star == 0
        assert q == star & ~p
    assert {p.bit_count() for p in plus} == {0, 1, 2, 3}
    assert {(p | q) for p, q in zip(plus, minus)} == set(stars)


@pytest.mark.parametrize(
    "dist, steps, thin",
    [
        (simple_edit_weights(K4, 0.3), 3 * BLOCK + 7, 1000),
        (simple_edit_weights(K4, 0.3), 3 * BLOCK, BLOCK),
        (intersection_weights(2, 3, [0.1, 0.2, 0.3, 0.4], mode="lazy"), 10_001, 997),
    ],
    ids=["simple, final off the grid", "simple, final on the grid", "lazy"],
)
def test_thinned_walk_records_a_subsequence_across_blocks(dist, steps, thin):
    start = K4.empty_set()  # the 2x3 host has six edges too
    assert steps > 2 * (dist.lazy.block if dist.lazy else BLOCK)
    every = simulate(dist, start, steps, seed=3, thin=1).masks
    thinned = simulate(dist, start, steps, seed=3, thin=thin)
    times = list(range(0, steps + 1, thin))
    if times[-1] != steps:
        times.append(steps)
    assert thinned.masks == tuple(every[t] for t in times)


def test_step_and_empirical_distribution_share_the_kernel():
    dist = moran_weights(K4)
    start = K4.full_set()
    walk = simulate(dist, start, 5 * BLOCK, seed=9).masks
    assert step(dist, start, make_rng(9)).mask == walk[1]
    burn_in, samples, stride = 100, 2 * BLOCK, 2
    hist = empirical_distribution(dist, start, burn_in, samples, stride=stride, seed=9)
    expected = np.zeros(1 << K4.m)
    for t in range(burn_in + stride, burn_in + stride * samples + 1, stride):
        expected[walk[t]] += 1
    assert np.array_equal(hist, expected / samples)


def _cycle(m):
    return from_edge_list(m, [(i, (i + 1) % m) for i in range(m)])


def _custom(m, supports, seed, identity=True):
    """A family with one or two edits on each support (random signs, random
    weights) and, unless told not to, the identity edit."""
    rng = np.random.default_rng(seed)
    masks = [(0, 0)] if identity else []
    for support in supports:
        for _ in range(int(rng.integers(1, 3))):
            plus = support & int.from_bytes(rng.bytes(m // 8 + 1), "little")
            masks.append((plus, support & ~plus))
    weights = [Fraction(int(w), 1) for w in rng.integers(1, 9, len(masks))]
    return WeightedEdits(m, *zip(*masks), [w / sum(weights) for w in weights])


def _overlapping(m, count, seed):
    rng = np.random.default_rng(seed)
    return _custom(m, [int(s) | 1 << int(e) for s, e in zip(rng.integers(0, 1 << min(m, 62), count),
                                                             rng.integers(0, m, count))], seed)


def _pairs(m):
    return _custom(m, [0b11 << e for e in range(0, m - 1, 2)], m)


FAMILIES = {
    "simple m=6": lambda: simple_edit_weights(_cycle(6), 0.3),
    "simple m=70": lambda: simple_edit_weights(_cycle(70), [0.1 + 0.8 * (e % 7) / 7 for e in range(70)]),
    "moran K5": lambda: moran_weights(complete_graph(5)),
    "moran K12 (m=66)": lambda: moran_weights(complete_graph(12)),
    "intersection 2x3": lambda: intersection_weights(2, 3, [0.1, 0.2, 0.3, 0.4]),
    "intersection 22x3 (m=66)": lambda: intersection_weights(22, 3, [0.1, 0.2, 0.3, 0.4]),
    "lazy 3x4": lambda: intersection_weights(3, 4, [0.2] * 5, mode="lazy"),
    "lazy 5x20 (m=100)": lambda: intersection_weights(5, 20, [0.0, *[0.05] * 20], mode="lazy"),
    "overlapping m=8": lambda: _overlapping(8, 6, 1),
    "overlapping m=70": lambda: _overlapping(70, 9, 2),
    "disjoint pairs m=12": lambda: _pairs(12),
    "disjoint pairs m=80": lambda: _pairs(80),
    "aligned triples m=70": lambda: _custom(70, [0b111 << e for e in range(0, 69, 3)], 70, identity=False),
}


@cache
def _built(name):
    return FAMILIES[name]()


def _family(name, lazy_block):
    dist = _built(name)
    return WeightedEdits(dist.m, (), (), (), replace(dist.lazy, block=lazy_block)) if dist.is_lazy else dist


@st.composite
def walks(draw, max_m=100):
    """(family, start, record times, seed, explicit block, lazy block,
    cutoff): thin 1, 2, 3 or 7, one off a block, or past the last step."""
    name = draw(st.sampled_from([k for k in FAMILIES if _family(k, 1).m <= max_m]))
    block, lazy_block = draw(st.sampled_from([8, 64, 100])), draw(st.integers(1, 40))
    steps = draw(st.integers(0, 400))
    thin = draw(st.sampled_from([1, 2, 3, 7, block - 1, block + 1, steps + 1]))
    m = _family(name, lazy_block).m
    start = EdgeSet(m, draw(st.integers(0, (1 << m) - 1)))
    times = [*range(thin, steps, thin), steps] if steps else []
    return name, start, times, draw(st.integers(0, 2**32)), block, lazy_block, draw(st.sampled_from([1, 2, 16]))


@settings(max_examples=300, deadline=None)
@given(walks())
def test_reduced_word_kernel_matches_the_step_by_step_walk(walk):
    name, start, times, seed, block, lazy_block, cutoff = walk
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(process, "BLOCK", block)
        patch.setattr(process, "COMPOSE_MIN_WRITERS", cutoff)
        dist = _family(name, lazy_block)
        assert _walk(dist, start, times, make_rng(seed)) == walk_by_step(dist, start, times, make_rng(seed))


@settings(max_examples=100, deadline=None)
@given(walks(max_m=12), st.integers(0, 30), st.integers(1, 40), st.integers(1, 9))
def test_empirical_distribution_matches_the_step_by_step_walk(walk, burn_in, samples, stride):
    name, start, _, seed, block, lazy_block, cutoff = walk
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(process, "BLOCK", block)
        patch.setattr(process, "COMPOSE_MIN_WRITERS", cutoff)
        dist = _family(name, lazy_block)
        hist = empirical_distribution(dist, start, burn_in, samples, stride=stride, seed=seed)
        times = range(burn_in + stride, burn_in + stride * samples + 1, stride)
        expected = np.bincount(walk_by_step(dist, start, times, make_rng(seed)), minlength=1 << dist.m)
    assert np.array_equal(hist, expected / samples)


@pytest.mark.parametrize("n, N, mu", [
    (2, 3, [0.1, 0.2, 0.3, 0.4]),
    (50, 40, [1 / 41] * 41),
    (3, 1, [0.5, 0.5]),
    (4, 70, [0.5, *[0.0] * 69, 0.5]),  # zero-mass sizes; 9-byte rows
])
def test_lazy_draws_keep_their_subsets_and_rng_calls(n, N, mu):
    lazy = intersection_weights(n, N, mu, mode="lazy")
    size = 3 * lazy.lazy.block + 5
    expected = lazy_draw_by_ranks(n, N, mu, make_rng(11), size, lazy.lazy.block)
    assert draw_masks(lazy, make_rng(11), size) == expected
