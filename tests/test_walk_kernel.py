"""Laws of the block-drawn walk kernel behind simulate and
empirical_distribution.

Edits are drawn in blocks and applied to raw masks, so no Edit is built or
validated per step. These tests check what that validation guarded: every
recorded move is a move of the law, lazy draws rewire exactly one star, and
the recorded times do not depend on where the blocks end.
"""

import numpy as np
import pytest

from editwalk import (
    apply,
    complete_graph,
    empirical_distribution,
    intersection_weights,
    make_rng,
    moran_weights,
    simple_edit_weights,
    simulate,
)
from editwalk.process import BLOCK
from oracles import step

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
    states = simulate(dist, start, BLOCK + 300, seed=11, thin=1).states
    assert len(states) == BLOCK + 301
    used = set()
    for a, b in zip(states, states[1:]):
        moves = [edit for edit, _ in dist.items if apply(edit, a) == b]
        assert moves, f"{a.hex()} -> {b.hex()} is no move of the law"
        used.update(moves)
    assert len(used) > len(dist.items) // 2  # the draws reach across the law


def test_lazy_block_draws_rewire_one_star():
    n, N = 2, 3
    lazy = intersection_weights(n, N, [0.1, 0.2, 0.3, 0.4], mode="lazy")
    stars = [((1 << N) - 1) << (v * N) for v in range(n)]
    plus, minus = lazy.lazy.draw(make_rng(4), 2000)
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
    every = simulate(dist, start, steps, seed=3, thin=1).states
    thinned = simulate(dist, start, steps, seed=3, thin=thin)
    times = list(range(0, steps + 1, thin))
    if times[-1] != steps:
        times.append(steps)
    assert thinned.states == tuple(every[t] for t in times)


def test_step_and_empirical_distribution_share_the_kernel():
    dist = moran_weights(K4)
    start = K4.full_set()
    walk = simulate(dist, start, 5 * BLOCK, seed=9).states
    assert step(dist, start, make_rng(9)) == walk[1]
    burn_in, samples, stride = 100, 2 * BLOCK, 2
    hist = empirical_distribution(dist, start, burn_in, samples, stride=stride, seed=9)
    expected = np.zeros(1 << K4.m)
    for t in range(burn_in + stride, burn_in + stride * samples + 1, stride):
        expected[walk[t].mask] += 1
    assert np.array_equal(hist, expected / samples)
