"""Recurrence of one state without enumeration, and the sorted-mask lookup.

`spectral._is_recurrent` decides whether a state lies in the recurrent
class by growing the covered support of the edits that agree with it. It
is checked against membership in the class `recurrent_class` enumerates,
and `simulate` is checked to warn about a transient start without any
enumeration, also on hosts past the state cap, and a lazy model's start
against the class of the same model listed explicitly.
"""

import json
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from test_random_families import seeded_families

import editwalk as ew
from editwalk import cli, spectral
from editwalk.cli import main
from editwalk.errors import SupportNotCovering
from editwalk.hostgraph import find_masks
from editwalk.spectral import _is_recurrent

WARNING = "recurrent class"


def agrees_with_enumeration(dist, g, states):
    """Whether `_is_recurrent` matches membership in the class enumerated
    from each state (which matters only for frozen, uncovered edges)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupportNotCovering)
        return all(
            _is_recurrent(dist, g, s)
            == (find_masks(ew.recurrent_class(dist, g, initial=ew.EdgeSet(g.m, s)), s) >= 0)
            for s in states
        )


FAMILIES = {
    **{f"moran K{n}": (lambda n=n: (ew.complete_graph(n), ew.moran_weights(ew.complete_graph(n))))
       for n in (3, 4, 5)},
    # no edit empties a left vertex's neighbourhood
    "intersection 2x2, mu(0) = 0": lambda: (
        ew.intersection_host(2, 2),
        ew.intersection_weights(2, 2, [Fraction(0), Fraction(1, 2), Fraction(1, 2)])),
}


@pytest.mark.parametrize("name", FAMILIES)
def test_every_state_matches_enumeration(name):
    g, dist = FAMILIES[name]()
    recurrent = ew.recurrent_class(dist, g)
    flags = [_is_recurrent(dist, g, s) for s in range(1 << g.m)]
    assert np.flatnonzero(flags).tolist() == recurrent.tolist()


def test_random_families_match_enumeration():
    for g, dist in seeded_families(424242, 20):
        assert agrees_with_enumeration(dist, g, range(1 << g.m))


def sparse_family(rng, m, count):
    """`count` equally weighted edits, each signing about a quarter of m edges."""
    plus, minus = [], []
    for _ in range(count):
        support = rng.getrandbits(m) & rng.getrandbits(m)
        plus.append(support & rng.getrandbits(m))
        minus.append(support & ~plus[-1])
    return ew.WeightedEdits(m, plus, minus, [Fraction(1, count)] * count)


def test_wide_object_mask_families_match_enumeration():
    # a few edits on 66 edges: small classes, and frozen edges when uncovered
    rng = random.Random(66)
    m = 66
    g = ew.from_edge_list(m, [(i, (i + 1) % m) for i in range(m)])
    for _ in range(8):
        dist = sparse_family(rng, m, rng.randint(2, 5))
        assert dist.plus.dtype == object
        start = rng.getrandbits(m)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SupportNotCovering)
            members = ew.recurrent_class(dist, g, initial=ew.EdgeSet(m, start)).tolist()
            assert all(_is_recurrent(dist, g, s) for s in members)
        near = [s ^ 1 << rng.randrange(m) for s in members for _ in range(3)]
        assert agrees_with_enumeration(dist, g, members + near + [start, 0, (1 << m) - 1])


def test_uncovered_edges_warn():
    g = ew.from_edge_list(3, [(0, 1), (1, 2)])
    dist = ew.WeightedEdits(2, [0b01, 0], [0, 0b01], [0.5, 0.5])
    with pytest.warns(SupportNotCovering):
        assert _is_recurrent(dist, g, 0b10)


def write(tmp_path, name, **cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def cycle_config(m):
    """Two opposite-signed edits on each pair of adjacent edges of an m-cycle."""
    edits = [text for i in range(m) for text in (f"+{i} -{(i + 1) % m}", f"-{i} +{(i + 1) % m}")]
    return {"host": {"n": m, "edges": [[i, (i + 1) % m] for i in range(m)]},
            "model": {"name": "custom", "edits": [{"edit": e, "weight": f"1/{2 * m}"} for e in edits]}}


@pytest.mark.parametrize("name", ["moran K4", "custom cycle m=18"])
def test_simulate_enumerates_nothing(tmp_path, capsys, monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("simulate enumerated the recurrent class")

    monkeypatch.setattr(cli, "recurrent_class", refuse)
    monkeypatch.setattr(spectral, "recurrent_class", refuse)
    if name == "moran K4":
        cfg = {"host": {"preset": "complete", "params": [4]}, "model": {"name": "moran"}}
    else:
        cfg = cycle_config(18)  # every state but the full and empty graphs is recurrent
    path = write(tmp_path, "config.json", T=1000, **cfg)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 0
    assert WARNING in capsys.readouterr().err  # moran starts full, custom empty


@pytest.mark.parametrize("initial, warns", [
    ("full", True),
    ("empty", True),
    ([[0, v] for v in range(1, 7)], False),  # a spanning star
])
def test_moran_k7_start_past_the_cap(tmp_path, capsys, initial, warns):
    # 2^21 states exceed the default cap, yet the start is still checked
    path = write(tmp_path, "k7.json", host={"preset": "complete", "params": [7]},
                 model={"name": "moran"}, initial=initial, T=10)
    assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
    assert (WARNING in capsys.readouterr().err) == warns


@pytest.mark.parametrize("N, mu", [(2, ["0", "1/2", "1/2"]), (3, ["1/4", "1/4", "1/2", "0"]),
                                   (3, ["0", "1/3", "0", "2/3"])])
def test_lazy_starts_match_the_explicit_class(tmp_path, capsys, N, mu):
    # a lazy model lists no edits; its start is recurrent iff every left
    # vertex's neighbourhood size has mass, as in the explicit model's class
    n = 2
    explicit = ew.intersection_weights(n, N, [Fraction(x) for x in mu])
    recurrent = set(ew.recurrent_class(explicit, ew.intersection_host(n, N)).tolist())
    assert 0 < len(recurrent) < 1 << n * N
    model = {"name": "intersection", "n": n, "N": N, "mu": mu, "mode": "lazy"}
    for start in range(1 << n * N):
        path = write(tmp_path, "lazy.json", model=model, initial=start, T=1)
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
        assert (WARNING in capsys.readouterr().err) == (start not in recurrent), start


@pytest.mark.parametrize("n, N", [(2, 3), (50, 40)])
def test_lazy_uniform_mu_never_warns(tmp_path, capsys, n, N):
    model = {"name": "intersection", "n": n, "N": N, "mu": [f"1/{N + 1}"] * (N + 1), "mode": "lazy"}
    starts = range(1 << n * N) if n * N <= 6 else ["empty", "full", random.Random(N).getrandbits(n * N)]
    for start in starts:
        path = write(tmp_path, "lazy.json", model=model, initial=start, T=10)
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
        assert WARNING not in capsys.readouterr().err


def test_find_masks():
    masks = np.array([1, 3, 8], np.uint64)
    assert find_masks(masks, 3) == 1 and type(find_masks(masks, 3)) is int
    assert find_masks(masks, 4) == -1 and find_masks(masks, 9) == -1
    assert find_masks(masks, np.array([0, 1, 8, 9], np.uint64)).tolist() == [-1, 0, 2, -1]
    empty = np.zeros(0, np.uint64)
    assert find_masks(empty, 5) == -1
    assert find_masks(empty, np.array([1, 2], np.uint64)).tolist() == [-1, -1]
    wide = np.array([5, 1 << 64, 1 << 70], object)
    assert find_masks(wide, 1 << 70) == 2 and find_masks(wide, 1 << 65) == -1
    assert find_masks(wide, np.array([1 << 64, 6], object)).tolist() == [1, -1]
