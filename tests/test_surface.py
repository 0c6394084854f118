"""Remaining public-surface behaviors: CLI branches and small API corners."""

import json
from fractions import Fraction

import pytest

import editwalk as ew
from editwalk.cli import main
from editwalk.errors import ValidationError, VertexOutOfRange
from oracles import Edit, Sign, edit_items, lazy_intersection_weight, read_csv, read_json


def config_file(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_stationary_json_output(tmp_path):
    cfg = config_file(
        tmp_path,
        {
            "host": {"n": 3, "edges": [[0, 1], [1, 2]]},
            "model": {"name": "simple", "p": 0.5},
        },
    )
    assert main(
        ["stationary", "--config", cfg, "--out", str(tmp_path), "--format", "json"]
    ) == 0
    meta, data = read_json(tmp_path / "stationary.json")
    assert {row["state"] for row in data} == {"0x0", "0x1", "0x2", "0x3"}
    assert all(float(row["pi"]) == pytest.approx(0.25) for row in data)


def test_mixing_skips_curve_beyond_cap(tmp_path):
    # bound still computed for a host far past enumeration scale
    cfg = config_file(
        tmp_path,
        {
            "host": {"preset": "complete", "params": [100]},
            "model": {"name": "simple", "p": 0.075},
        },
    )
    assert main(["mixing", "--config", cfg, "--out", str(tmp_path)]) == 0
    meta, payload = read_json(tmp_path / "mixing.json")
    assert payload["bound_steps"] == meta["bound_steps"]
    assert not (tmp_path / "mixing.csv").exists()


def test_probability_preset_block(tmp_path):
    cfg = config_file(
        tmp_path,
        {
            "host": {"preset": "complete", "params": [4]},
            "model": {
                "name": "simple",
                "p_preset": {"kind": "block", "block": [0, 1], "p": 0.6, "q": 0.1},
            },
            "T": 10,
        },
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0


def test_probability_preset_chung_lu(tmp_path):
    cfg = config_file(
        tmp_path,
        {
            "host": {"preset": "complete", "params": [3]},
            "model": {
                "name": "simple",
                "p_preset": {"kind": "chung_lu", "degrees": [1, 1, 2]},
            },
        },
    )
    assert main(["stationary", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "stationary.csv")
    assert len(rows) == 8


def test_initial_state_variants(tmp_path):
    base = {
        "host": {"n": 3, "edges": [[0, 1], [1, 2]]},
        "model": {"name": "simple", "p": 0.5},
        "T": 0,
    }
    for initial, expected in (
        ({"hex": "0x3"}, [2]),
        ([[0, 1]], [1]),
        (2, [1]),
        ("full", [2]),
    ):
        cfg = config_file(tmp_path, {**base, "initial": initial})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, summary = read_json(tmp_path / "summary.json")
        assert summary["edge_counts"] == expected


def test_intersection_host_mismatch_rejected(tmp_path):
    cfg = config_file(
        tmp_path,
        {
            "host": {"n": 3, "edges": [[0, 1], [1, 2]]},
            "model": {"name": "intersection", "n": 2, "N": 2,
                      "mu": [0.25, 0.5, 0.25]},
        },
    )
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_custom_model_requires_edits(tmp_path):
    cfg = config_file(
        tmp_path,
        {
            "host": {"n": 3, "edges": [[0, 1], [1, 2]]},
            "model": {"name": "custom", "edits": []},
        },
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_lazy_weight_of_matches_explicit():
    n, N = 2, 3
    mu = [Fraction(1, 10), Fraction(2, 10), Fraction(3, 10), Fraction(4, 10)]
    lazy = ew.intersection_weights(n, N, mu, mode="lazy")
    explicit = ew.intersection_weights(n, N, mu)
    # the explicit edits fall into the lazy sampler's n blocks, each of mass 1/n
    supports, _, index = explicit.support_groups
    assert supports.tolist() == [((1 << N) - 1) << v * N for v in range(lazy.lazy.blocks)]
    assert [sum(w for w, j in zip(explicit.weights, index) if j == v) for v in range(n)] == [Fraction(1, n)] * n
    for edit, w in edit_items(explicit):
        assert lazy_intersection_weight(n, N, mu, edit) == pytest.approx(float(w))


def test_sign_of():
    e = Edit(3, 0b001, 0b100)
    assert e.sign_of(0) is Sign.PLUS
    assert e.sign_of(2) is Sign.MINUS
    assert e.sign_of(1) is None
    with pytest.raises(Exception):
        e.sign_of(5)


def test_degree_out_of_range():
    g = ew.complete_graph(3)
    with pytest.raises(VertexOutOfRange):
        g.degree(7)


def test_tv_decay_rejects_negative_horizon():
    g = ew.from_edge_list(3, [(0, 1), (1, 2)])
    tm = ew.build_chain(ew.simple_edit_weights(g, 0.5), g)
    with pytest.raises(ValidationError):
        ew.tv_decay(tm, 0, [0.25] * 4, -1)


def test_to_dot_label_validation():
    g = ew.from_edge_list(3, [(0, 1), (1, 2)])
    tm = ew.build_chain(ew.simple_edit_weights(g, 0.5), g)
    with pytest.raises(ValidationError):
        ew.to_dot(tm, labels="names")
    with pytest.raises(ValidationError):
        ew.to_dot(tm, labels="edges")  # needs the host graph
