import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import neighborhood_edges

from editwalk import (
    EdgeSet,
    complete_bipartite,
    complete_graph,
    forest_flags,
    from_edge_list,
    host_from_json,
    host_to_json,
)
from editwalk.errors import (
    DuplicateEdge,
    EdgeOutOfRange,
    HostMismatch,
    SelfLoop,
    VertexOutOfRange,
)


def test_path_graph_construction():
    g = from_edge_list(3, [(0, 1), (1, 2)])
    assert g.m == 2
    assert g.edges == ((0, 1), (1, 2))
    assert g.edge_index[(0, 1)] == 0
    assert g.index_of(2, 1) == 1


def test_single_vertex_empty_graph():
    g = from_edge_list(1, [])
    assert g.n == 1 and g.m == 0


def test_edge_order_is_canonical():
    g = from_edge_list(4, [(3, 2), (1, 0), (0, 2)])
    assert g.edges == ((0, 1), (0, 2), (2, 3))


def test_rejections():
    with pytest.raises(DuplicateEdge):
        from_edge_list(4, [(0, 1), (1, 0)])
    with pytest.raises(SelfLoop):
        from_edge_list(4, [(2, 2)])
    with pytest.raises(VertexOutOfRange):
        from_edge_list(3, [(0, 5)])
    with pytest.raises(VertexOutOfRange):
        from_edge_list(0, [])


def test_presets():
    assert complete_graph(4).m == 6
    assert complete_graph(1).m == 0
    assert complete_bipartite(2, 3).m == 6
    with pytest.raises(VertexOutOfRange):
        complete_bipartite(0, 3)


def test_neighborhood_edges():
    k4 = complete_graph(4)
    nb = neighborhood_edges(k4, 0)
    assert nb.indices() == (k4.index_of(0, 1), k4.index_of(0, 2), k4.index_of(0, 3))
    assert nb.mask.bit_count() == k4.degree(0) == 3

    path = from_edge_list(3, [(0, 1), (1, 2)])
    assert neighborhood_edges(path, 1).indices() == (0, 1)
    assert neighborhood_edges(path, 0).indices() == (0,)
    with pytest.raises(VertexOutOfRange):
        neighborhood_edges(path, 3)


def test_edge_index_round_trip_and_handshake():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(all_pairs)
        k = int(rng.integers(0, len(all_pairs) + 1))
        g = from_edge_list(n, all_pairs[:k])
        for i, e in enumerate(g.edges):
            assert g.edge_index[e] == i
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


def test_edgeset_basics():
    s = EdgeSet.from_indices(4, [0, 2])
    assert s.mask == 0b0101
    assert s.indices() == (0, 2)
    assert s.mask >> 2 & 1 and not s.mask >> 1 & 1
    assert s.mask.bit_count() == 2
    assert s.hex() == "0x5"
    assert EdgeSet.full(3).mask == 0b111
    with pytest.raises(EdgeOutOfRange):
        EdgeSet(2, 0b100)
    with pytest.raises(EdgeOutOfRange):
        EdgeSet.from_indices(2, [5])
    with pytest.raises(HostMismatch):
        EdgeSet(2, 1).mask_on(3)
    # an EdgeSet is a state at the API boundary; sets combine as masks
    for name in ("union", "intersection", "difference", "symmetric_difference", "complement",
                 "issubset", "__or__", "__and__", "__sub__", "__xor__", "__invert__",
                 "__contains__", "__iter__", "__len__", "__bool__"):
        assert name not in vars(EdgeSet), name


masks = st.integers(min_value=0, max_value=(1 << 6) - 1)


@settings(max_examples=100)
@given(masks, masks, masks)
def test_boolean_algebra_laws(a, b, c):
    m = 6
    full = (1 << m) - 1
    x, y, z = (EdgeSet(m, v).mask for v in (a, b, c))

    def comp(v):  # the complement within the host's edges
        return EdgeSet(m, full & ~v).mask

    assert (x | y) | z == x | (y | z)
    assert (x & y) & z == x & (y & z)
    assert x | y == y | x
    assert x & (y | z) == (x & y) | (x & z)
    assert x | (y & z) == (x | y) & (x | z)
    assert comp(x | y) == comp(x) & comp(y)
    assert comp(x & y) == comp(x) | comp(y)
    assert comp(comp(x)) == x
    assert x & ~y == x & comp(y)
    assert (x ^ y) == (x | y) & ~(x & y)
    assert x & ~(x | y) == 0  # x is a subset of x | y


def test_is_acyclic():
    def is_acyclic(g, state):
        return bool(forest_flags(g, [state.mask_on(g.m)])[0])

    path = from_edge_list(3, [(0, 1), (1, 2)])
    assert is_acyclic(path, path.full_set())
    tri = complete_graph(3)
    assert not is_acyclic(tri, tri.full_set())
    assert is_acyclic(tri, EdgeSet.from_indices(3, [0, 1]))
    assert is_acyclic(tri, tri.empty_set())


def test_host_json_round_trip():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    assert host_from_json(host_to_json(g)) == g
    assert host_from_json({"preset": "complete", "params": [4]}) == complete_graph(4)
    assert host_from_json({"preset": "bipartite", "params": [2, 3]}) == complete_bipartite(2, 3)
