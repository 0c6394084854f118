"""The `simulate` record path against its per-record oracle: artifacts
byte-equal to one `json.dumps` per state dict, also when the states span
many decode blocks and when runs of equal states (decoded and formatted
once) straddle blocks, return to an earlier state or end the walk;
`EdgeSet.indices` and `set_bits` equal to a test of every host edge;
`forest_flags` equal to one union-find per state; and the Moran `acyclic`
flags, which switch at most once because every Moran edit maps a forest to
a forest, found by a bisection over single-mask `forest_flags` calls."""

import json
import math
from itertools import groupby
from operator import and_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from editwalk import cli, hostgraph
from editwalk.cli import _trajectory_lines, build_parser, load_config, main
from editwalk.hostgraph import (
    EdgeSet,
    complete_graph,
    forest_flags,
    from_edge_list,
    host_from_json,
    set_bits,
)
from editwalk.process import Trajectory, moran_weights
from oracles import _acyclic_by_shift, indices_by_shift, read_jsonl, write_simulate_artifacts

MU = [0.125, 0.375, 0.375, 0.125]
CASES = {
    # m = 780: every mask spans many 64-bit words
    "simple K40": {"host": {"preset": "complete", "params": [40]},
                   "model": {"name": "simple", "p": 0.05}, "initial": "full"},
    # m = 6 from the empty start: the walk holds with probability about 0.95
    "simple K4 holding": {"host": {"preset": "complete", "params": [4]},
                          "model": {"name": "simple", "p": 0.05}},
    "moran K6": {"host": {"preset": "complete", "params": [6]}, "model": {"name": "moran"}},
    "intersection 2x3 explicit": {"model": {"name": "intersection", "n": 2, "N": 3, "mu": MU}},
    "intersection 2x3 lazy": {"model": {"name": "intersection", "n": 2, "N": 3, "mu": MU,
                                        "mode": "lazy"}},
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("state_format", ["hex", "edges"])
@pytest.mark.parametrize("T, thin", [(300, 1), (300, 7), (0, 1)])  # 300 = 7 * 42 + 6
def test_artifacts_match_the_per_record_oracle(tmp_path, case, state_format, T, thin):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**CASES[case], "T": T, "thin": thin, "seed": 11}))
    argv = ["simulate", "--config", str(path), "--state-format", state_format]
    assert main([*argv, "--out", str(tmp_path / "cli")]) == 0
    cfg = load_config(path, build_parser().parse_args([*argv, "--out", str(tmp_path / "oracle")]))
    write_simulate_artifacts(cfg, state_format)
    for name in ("summary.json", "trajectory.jsonl"):
        cli, oracle = tmp_path / "cli" / name, tmp_path / "oracle" / name
        assert cli.exists() == oracle.exists() == (T > 0 or name == "summary.json")
        if oracle.exists():
            assert cli.read_bytes() == oracle.read_bytes()


@st.composite
def edge_sets(draw):
    m = draw(st.integers(0, 1000))
    full = (1 << m) - 1
    mask = draw(st.sampled_from([0, full, full ^ (full >> 1)]) | st.integers(0, full))
    return EdgeSet(m, mask)


@settings(max_examples=300, deadline=None)
@given(edge_sets())
@example(EdgeSet(0, 0))
@example(EdgeSet(1000, 0))
@example(EdgeSet(1000, (1 << 1000) - 1))
@example(EdgeSet(1000, 1 << 999))
@example(EdgeSet(64, 1 << 63))
def test_indices_match_the_shift_oracle(state):
    assert state.indices() == indices_by_shift(state)


@pytest.mark.parametrize("case, state_format", [
    ("moran K6", "hex"), ("moran K6", "edges"), ("simple K40", "edges"),
])
@pytest.mark.parametrize("thin", [1, 7])
def test_artifacts_spanning_decode_blocks_match_the_oracle(tmp_path, monkeypatch, case,
                                                           state_format, thin):
    # 60 bits: blocks of 4 states on K6 (m = 15), unpacked 7 bytes at a time,
    # so states straddle the unpacking steps; one state per block on K40
    monkeypatch.setattr(hostgraph, "DECODE_BITS", 60)
    test_artifacts_match_the_per_record_oracle(tmp_path, case, state_format, 300, thin)


@pytest.mark.parametrize("state_format", ["hex", "edges"])
@pytest.mark.parametrize("thin", [1, 3])
def test_runs_straddling_decode_blocks_match_the_oracle(tmp_path, monkeypatch, state_format, thin):
    # 60 bits: blocks of 10 states on K4 (m = 6)
    monkeypatch.setattr(hostgraph, "DECODE_BITS", 60)
    test_artifacts_match_the_per_record_oracle(tmp_path, "simple K4 holding", state_format, 300, thin)
    _, records = read_jsonl(tmp_path / "cli" / "trajectory.jsonl")
    states = [record["state"] for record in records]
    heads = [state for state, _ in groupby(states)]
    assert len(heads) < len(states) / 3  # long runs
    assert any(states[k - 1] == states[k] for k in range(10, len(states), 10))  # across a block
    assert any(a == c for a, c in zip(heads, heads[2:]))  # an A-B-A return
    assert states[-2] == states[-1]  # a run covers the last record


RUNS = {  # masks on K4 (m = 6); 0b000011 -> 0b000101 keeps the edge count
    "one record": (0b000011,),
    "one run": (0b000011,) * 5,
    "A-B-A": (0b000011, 0b000101, 0b000011),
    "runs": (0, 0, 0b000011, 0b000011, 0b000101, 0b000101, 0b000101, 0, 0b111111, 0b111111),
    "last record alone": (0b100000,) * 7 + (0b010000,),
}


@pytest.mark.parametrize("masks", RUNS.values(), ids=RUNS)
@pytest.mark.parametrize("decode_bits", [6, 12, 18, hostgraph.DECODE_BITS])  # 1, 2, 3 or all per block
@pytest.mark.parametrize("thin", [1, 4])
@pytest.mark.parametrize("edges", [False, True], ids=["hex", "edges"])
def test_lines_of_given_runs_match_one_dump_per_record(monkeypatch, masks, decode_bits, thin, edges):
    monkeypatch.setattr(hostgraph, "DECODE_BITS", decode_bits)
    g = complete_graph(4)
    traj = Trajectory(g.empty_set(), masks, seed=0, steps=thin * (len(masks) - 1), thin=thin)
    expected = []
    for t, mask in zip(traj.times, masks):
        record = {"t": t, "state": hex(mask)}
        if edges:
            record["edges"] = [list(g.edges[e]) for e in indices_by_shift(EdgeSet(g.m, mask))]
        expected.append(json.dumps(record))
    assert list(_trajectory_lines(traj, g, edges)) == expected


@st.composite
def hosts_and_masks(draw):
    """A host on 1-14 vertices (isolated vertices, n = 1 and m > 64 all
    occur) and up to a dozen of its masks: empty, full, dense and sparse."""
    n = draw(st.integers(1, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kept = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = from_edge_list(n, [pair for pair, keep in zip(pairs, kept) if keep])
    full = (1 << g.m) - 1
    dense = st.integers(0, full)
    sparse = st.builds(and_, dense, st.builds(and_, dense, dense))
    return g, draw(st.lists(st.sampled_from([0, full]) | dense | sparse, max_size=12))


def _spanning_path(n: int) -> tuple:
    g = complete_graph(n)
    return g, [EdgeSet.from_indices(g.m, (g.index_of(v, v + 1) for v in range(n - 1))).mask]


@settings(max_examples=300, deadline=None)
@given(hosts_and_masks())
@example((from_edge_list(1, []), [0]))
@example((complete_graph(13), [0, (1 << 78) - 1]))  # m = 78
@example(_spanning_path(13))
@example((from_edge_list(6, [(0, 1), (1, 2), (0, 2), (4, 5)]), [0b0111, 0b1011, 0b1111]))
def test_forest_flags_match_the_union_find_oracle(host_masks):
    g, masks = host_masks
    flags = forest_flags(g, masks)
    assert flags.dtype == bool
    assert flags.tolist() == [_acyclic_by_shift(g, EdgeSet(g.m, mask)) for mask in masks]
    # one state is tested as a list of one mask
    assert [bool(forest_flags(g, [mask])[0]) for mask in masks] == flags.tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(edge_sets(), max_size=8), st.sampled_from([8, 16, 24, 64]))
@example([EdgeSet(1000, (1 << 1000) - 1), EdgeSet(1000, 1 << 999)], 8)
@example([EdgeSet(0, 0)] * 3, 8)
@example([], 8)
def test_set_bits_match_the_shift_oracle(states, decode_bits):
    m = states[0].m if states else 0
    states = [EdgeSet(m, state.mask & ((1 << m) - 1)) for state in states]  # one host
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hostgraph, "DECODE_BITS", decode_bits)  # steps of 1-8 bytes
        rows, cols = set_bits([state.mask for state in states], m)
    expected = [(row, e) for row, state in enumerate(states) for e in indices_by_shift(state)]
    assert list(zip(rows.tolist(), cols.tolist())) == expected


@st.composite
def hosts_and_forests(draw):
    """A host with at least one edge and forests on it: each drawn mask less
    every edge that closes a cycle with the edges kept below it."""
    g, masks = draw(hosts_and_masks().filter(lambda host_masks: host_masks[0].m > 0))
    forests = []
    for mask in masks:
        forest = 0
        for e in indices_by_shift(EdgeSet(g.m, mask)):
            if _acyclic_by_shift(g, EdgeSet(g.m, forest | 1 << e)):
                forest |= 1 << e
        forests.append(forest)
    return g, forests


@settings(max_examples=200, deadline=None)
@given(hosts_and_forests())
@example((complete_graph(13), [0, _spanning_path(13)[1][0]]))  # m = 78
def test_every_moran_edit_maps_a_forest_to_a_forest(host_forests):
    g, forests = host_forests
    dist = moran_weights(g)
    for forest in forests:
        assert _acyclic_by_shift(g, EdgeSet(g.m, forest))
        for plus, minus in zip(dist.plus.tolist(), dist.minus.tolist()):
            assert _acyclic_by_shift(g, EdgeSet(g.m, (forest | plus) & ~minus))


K5 = {"preset": "complete", "params": [5]}
CHORDED_CYCLE = {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0], [0, 2]]}
MORAN_RUNS = {  # host, initial, T, thin
    "K5 full": (K5, "full", 300, 1),
    "chorded 5-cycle full": (CHORDED_CYCLE, "full", 300, 1),
    "K5 star": (K5, [[0, 1], [0, 2], [0, 3], [0, 4]], 300, 1),
    "K5 full thin 7": (K5, "full", 300, 7),
    "K5 full T 0": (K5, "full", 0, 1),
}


def _moran_walk(tmp_path, host, initial, T, thin) -> tuple[list, list]:
    """`editwalk simulate` on a Moran walk: the `acyclic` flags it writes and
    the masks of its records."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"host": host, "model": {"name": "moran"}, "initial": initial,
                                  "T": T, "thin": thin, "seed": 11}))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())["data"]
    if T == 0:
        return summary["acyclic"], [int(summary["final_state"], 16)]
    _, records = read_jsonl(tmp_path / "trajectory.jsonl")
    return summary["acyclic"], [int(record["state"], 16) for record in records]


@pytest.mark.parametrize("run", MORAN_RUNS)
def test_moran_acyclic_flags_match_a_test_of_each_record(tmp_path, run):
    host, initial, T, thin = MORAN_RUNS[run]
    flags, masks = _moran_walk(tmp_path, host, initial, T, thin)
    g = host_from_json(host)
    assert flags == [bool(forest_flags(g, [mask])[0]) for mask in masks]
    assert len(flags) == T // thin + 1 + (T % thin > 0)
    if initial == "full":
        assert not flags[0] and flags[-1] == (T > 0)  # the walk starts on a cycle and reaches a forest
    else:
        assert all(flags)


@pytest.mark.parametrize("T, thin", [(0, 1), (1, 1), (1000, 1), (1000, 7), (1024, 1)])
def test_simulate_tests_one_mask_a_logarithmic_number_of_times(tmp_path, monkeypatch, T, thin):
    calls = []

    def spy(g, masks):
        calls.append(len(masks))
        return forest_flags(g, masks)

    monkeypatch.setattr(cli, "forest_flags", spy)
    flags, masks = _moran_walk(tmp_path, {"preset": "complete", "params": [6]}, "full", T, thin)
    assert calls and set(calls) == {1}
    assert len(calls) <= math.ceil(math.log2(len(masks))) + 1
    assert flags == forest_flags(complete_graph(6), masks).tolist()
