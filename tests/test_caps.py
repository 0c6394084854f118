"""One cap policy: `caps.states` bounds every enumeration a command runs
and every table it builds, so the same cap gives the same outcome in every
command, and a mixing curve beyond it is skipped with its reason in the
artifact."""

import json

import numpy as np
import pytest

import editwalk as ew
from editwalk import hostgraph
from editwalk.cli import main
from editwalk.errors import CapExceeded
from oracles import read_csv, read_json

K4_SIMPLE = {"host": {"preset": "complete", "params": [4]}, "model": {"name": "simple", "p": 0.5}}
K4_MORAN = {"host": {"preset": "complete", "params": [4]}, "model": {"name": "moran"}}


def run(tmp_path, command, cfg, *flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path), "--out", str(tmp_path / "out"), *flags])


@pytest.mark.parametrize("command", ["spectrum", "stationary", "verify", "export-dot", "commute"])
def test_simple_state_cap_binds_every_enumerating_command(tmp_path, capsys, command):
    assert run(tmp_path, command, K4_SIMPLE, "--cap-states", "8") == 2  # 2^6 states
    assert capsys.readouterr().err.strip() == "error (cap): 2^6 states exceed the cap of 8"


def test_simple_mixing_records_the_skipped_curve(tmp_path):
    assert run(tmp_path, "mixing", K4_SIMPLE, "--cap-states", "8") == 0
    meta, payload = read_json(tmp_path / "out" / "mixing.json")
    assert meta["curve_skipped"] == "2^6 states exceed the cap of 8"
    assert payload["bound_steps"] == meta["bound_steps"]
    assert not (tmp_path / "out" / "mixing.csv").exists()


@pytest.mark.parametrize("command", ["stationary", "verify"])
def test_compound_face_law_counts_against_the_cap(tmp_path, capsys, command):
    # 37 recurrent states fit under 40; the face recursion does not
    assert run(tmp_path, command, K4_MORAN, "--cap-states", "40") == 2
    assert "faces exceed the cap of 40" in capsys.readouterr().err


def test_compound_mixing_records_the_faces_reason(tmp_path):
    assert run(tmp_path, "mixing", K4_MORAN, "--cap-states", "40") == 0
    meta, _ = read_json(tmp_path / "out" / "mixing.json")
    assert meta["curve_skipped"] == "face-recursion faces exceed the cap of 40"
    assert meta["chambers"] == 37


def test_explicit_intersection_edits_count_against_the_cap(tmp_path, capsys):
    cfg = {"model": {"name": "intersection", "n": 2, "N": 3, "mu": [0.25] * 4}}
    assert run(tmp_path, "simulate", cfg, "--cap-states", "8") == 2
    assert "2*2^3 explicit intersection edits exceed the cap of 8" in capsys.readouterr().err
    assert run(tmp_path, "simulate", cfg, "--cap-states", "16") == 0


def test_moran_k7_mixing_curve_fits_the_default_cap(tmp_path):
    # 2^21 addressable states, but 36,960 recurrent ones and 303,101 faces
    cfg = {"host": {"preset": "complete", "params": [7]}, "model": {"name": "moran"}}
    assert run(tmp_path, "mixing", cfg) == 0
    meta, header, rows = read_csv(tmp_path / "out" / "mixing.csv")
    assert (meta["chambers"], meta["bound_steps"]) == ("36960", "41")  # csv headers are text
    assert [int(r[0]) for r in rows] == list(range(42))


def test_raised_cap_reaches_past_twenty_edges():
    path = ew.from_edge_list(22, [(i, i + 1) for i in range(21)])
    with pytest.raises(CapExceeded, match=r"2\^21 states exceed the cap of 1048576"):
        ew.stationary_closed_form(path, 0.5)
    pi = ew.stationary_closed_form(path, 0.5, cap=1 << 21)
    assert len(pi) == 1 << 21 and pi[0] == 0.5**21


def test_moran_k5_commute_fits_the_default_cap(tmp_path):
    # 290 recurrent states: 84,100 matrix cells, under 2^20
    cfg = {"host": {"preset": "complete", "params": [5]}, "model": {"name": "moran"}}
    assert run(tmp_path, "commute", cfg) == 0
    _, header, rows = read_csv(tmp_path / "out" / "commute.csv")
    assert len(header) == 291 and len(rows) == 290
    assert all(len(row) == 291 and row[i + 1] == "0.0" for i, row in enumerate(rows))


def test_compound_commute_counts_its_cells(tmp_path, capsys):
    # 37 recurrent states fit under 1,000; their 1,369 cells do not
    assert run(tmp_path, "commute", K4_MORAN, "--cap-states", "1000") == 2
    assert capsys.readouterr().err.strip() == (
        "error (cap): 37^2 commute-matrix cells exceed the cap of 1000"
    )
    assert run(tmp_path, "commute", K4_MORAN, "--cap-states", "1369") == 0


@pytest.mark.parametrize("cfg, cap", [(K4_SIMPLE, 100), (K4_MORAN, 1000)], ids=["simple", "moran"])
def test_mixing_curve_rows_count_against_the_cap(tmp_path, cfg, cap):
    # K4 simple: 64 states; K4 Moran: its faces fit under 1,000, not under 100
    assert run(tmp_path, "mixing", cfg, "--cap-states", str(cap), "--t-max", str(cap - 1)) == 0
    _, header, rows = read_csv(tmp_path / "out" / "mixing.csv")
    assert [int(r[0]) for r in rows] == list(range(cap))

    assert run(tmp_path, "mixing", cfg, "--cap-states", str(cap), "--t-max", str(cap)) == 0
    meta, payload = read_json(tmp_path / "out" / "mixing.json")
    assert meta["curve_skipped"] == f"{cap + 1} mixing-curve rows exceed the cap of {cap}"
    assert payload["bound_steps"] == meta["bound_steps"]


@pytest.mark.parametrize("flags", [["--c", "1e300"], ["--t-max", str(10**20)]],
                         ids=["huge-c", "huge-t-max"])
def test_huge_mixing_curve_writes_only_the_bound(tmp_path, capsys, flags):
    assert run(tmp_path, "mixing", K4_SIMPLE, *flags) == 0
    assert "Traceback" not in capsys.readouterr().err
    meta, payload = read_json(tmp_path / "out" / "mixing.json")
    assert meta["curve_skipped"].endswith("mixing-curve rows exceed the cap of 1048576")
    assert payload["bound_steps"] == meta["bound_steps"] > 0


def test_unallocatable_mixing_curve_writes_only_the_bound(tmp_path, capsys):
    # a cap of 2^63 admits the 2^63 - 807 curve rows; NumPy refuses that many
    # float64 rows before allocating anything
    flags = ["--cap-states", "9223372036854775808", "--t-max", "9223372036854775000"]
    assert run(tmp_path, "mixing", K4_MORAN, *flags) == 0
    assert "Traceback" not in capsys.readouterr().err
    meta, payload = read_json(tmp_path / "out" / "mixing.json")
    assert meta["curve_skipped"] == "a mixing curve of 9223372036854775001 rows cannot be allocated"
    assert payload["bound_steps"] == meta["bound_steps"]
    assert not (tmp_path / "out" / "mixing.csv").exists()


@pytest.mark.parametrize("build", ["recurrent_class", "closure"])
def test_enumerations_stop_at_the_cap_within_one_batch(monkeypatch, build):
    """A level's new states or flats are counted as each edit's destinations
    (or each block's products) arrive, and merged only once their count
    passes the cap: the search raises while it holds at most the cap and one
    batch, where it used to hold the whole level."""
    g = ew.complete_graph(5)
    dist, cap = ew.simple_edit_weights(g, 0.5), 60  # 1,024 states and 1,024 flats
    batches, held = [], []
    find_masks, first_rows = hostgraph.find_masks, hostgraph._first_rows

    def counted_find(masks, values):
        if np.ndim(values):
            batches.append(len(values))
        return find_masks(masks, values)

    def counted_merge(parts):
        held.append(sum(len(part[0]) for part in parts))
        return first_rows(parts)

    monkeypatch.setattr(hostgraph, "find_masks", counted_find)
    monkeypatch.setattr(hostgraph, "_first_rows", counted_merge)
    with pytest.raises(CapExceeded):
        ew.recurrent_class(dist, g, cap=cap) if build == "recurrent_class" else ew.closure(dist, cap)
    assert held and max(held) <= cap + max(batches)
    full = len(ew.recurrent_class(dist, g)) if build == "recurrent_class" else len(ew.closure(dist))
    assert full > 10 * cap
