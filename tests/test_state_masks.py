"""One state representation: every collection of states is a sorted mask
array, and `EdgeSet` is built only for single states at the API edge and
for lattice flats.

A single state from another host is refused with `HostMismatch` wherever
it enters: a start of `recurrent_class`, `build_chain` or
`stationary_faces`, and a `tv_decay` start. The commands that enumerate a
recurrent class build no `EdgeSet` per state.
"""

import json

import numpy as np
import pytest

import editwalk as ew
from editwalk import cli, hostgraph
from editwalk.cli import main
from editwalk.errors import HostMismatch
from oracles import stationary_numeric


def moran(n):
    g = ew.complete_graph(n)
    return g, ew.moran_weights(g)


def test_recurrent_class_refuses_a_start_from_another_host():
    g, dist = moran(4)
    with pytest.raises(HostMismatch):
        ew.recurrent_class(dist, g, initial=ew.EdgeSet(3, 0b111))


def test_build_chain_refuses_a_start_from_another_host():
    g, dist = moran(4)
    with pytest.raises(HostMismatch):
        ew.build_chain(dist, g, ew.recurrent_class(dist, g, initial=ew.EdgeSet(2, 3)))


def test_stationary_faces_refuses_a_start_from_another_host():
    # the start's mask does not fit the uint64 masks of K4 either
    g, dist = moran(4)
    with pytest.raises(HostMismatch):
        ew.stationary_faces(dist, g, initial=ew.EdgeSet(80, 1 << 70))


def test_tv_decay_refuses_a_start_from_another_host():
    g, dist = moran(4)
    tm = ew.build_chain(dist, g, ew.recurrent_class(dist, g))
    pi = stationary_numeric(tm)
    mask = int(tm.masks[0])
    assert ew.tv_decay(tm, ew.EdgeSet(g.m, mask), pi, 3)[0] > 0
    with pytest.raises(HostMismatch):
        ew.tv_decay(tm, ew.EdgeSet(7, mask), pi, 3)


def test_index_of_searches_the_masks():
    g, dist = moran(4)
    tm = ew.build_chain(dist, g, ew.recurrent_class(dist, g))
    for i, mask in enumerate(tm.masks.tolist()):
        assert tm.index_of(mask) == tm.index_of(ew.EdgeSet(g.m, mask)) == i
    absent = sorted(set(range(1 << g.m)) - set(tm.masks.tolist()))
    for mask in (absent[0], absent[-1], 1 << g.m, -1):
        with pytest.raises(ew.errors.ValidationError, match="is not in this chain"):
            tm.index_of(mask)


@pytest.mark.parametrize("command", ["stationary", "mixing"])
def test_cli_exits_1_on_a_start_from_another_host(tmp_path, monkeypatch, capsys, command):
    path = tmp_path / "moran.json"
    path.write_text(json.dumps({"host": {"preset": "complete", "params": [4]},
                                "model": {"name": "moran"}}))
    monkeypatch.setattr(cli, "_parse_initial", lambda spec, g: ew.EdgeSet(3, 0b111))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: edge counts differ: 3 != 6")


@pytest.mark.parametrize("command", ["spectrum", "stationary", "mixing", "verify"])
def test_commands_build_no_edge_set_per_recurrent_state(tmp_path, monkeypatch, command):
    """On Moran K6 (2,931 recurrent states) a command builds EdgeSets only
    for its config (the start) and for the flats of the spectrum it reports,
    one per flat. `stationary` reports no spectrum, and the closure check of
    `verify` builds none."""
    g, dist = moran(6)
    flats = len(ew.closure(dist))
    assert (flats, len(dist.plus), len(ew.recurrent_class(dist, g))) == (58, 30, 2931)
    bound = {"spectrum": 1, "stationary": 0, "mixing": 1, "verify": 1}[command] * flats + 8

    path = tmp_path / "moran.json"
    path.write_text(json.dumps({"host": {"preset": "complete", "params": [6]},
                                "model": {"name": "moran"}}))
    built = []
    check = hostgraph.EdgeSet.__post_init__
    monkeypatch.setattr(hostgraph.EdgeSet, "__post_init__", lambda s: built.append(s) or check(s))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 0
    assert len(built) <= bound < 2931
