import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import editwalk as ew
from editwalk import (
    EdgeSet,
    build_chain,
    complete_graph,
    moran_weights,
    recurrent_class,
    simple_edit_weights,
)
from editwalk import verify
from editwalk.cli import main
from editwalk.process import SAMPLER_VERSION
from editwalk.verify import (
    _two_state_product,
    check_eigenvector_residuals,
    check_row_stochastic,
    check_spectrum_multiset,
    run_verification,
)
from editwalk.spectral import TransitionMatrix, _phi_factors, eigenvalues_simple
from oracles import chain_from_dense, read_csv, read_json, read_jsonl


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "host": {"n": 3, "edges": [[0, 1], [1, 2]]},
        "model": {"name": "simple", "p": 0.25},
        "T": 20,
        "seed": 7,
        "thin": 1,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_writes_trajectory_and_summary(tmp_path):
    cfg = write_config(tmp_path)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    meta, records = read_jsonl(tmp_path / "trajectory.jsonl")
    assert meta["version"] and meta["host_hash"] and meta["seed"] == 7
    assert len(records) == 21
    assert records[0]["t"] == 0 and records[-1]["t"] == 20
    meta2, summary = read_json(tmp_path / "summary.json")
    assert summary["final_state"] == records[-1]["state"]
    assert len(summary["edge_counts"]) == 21


def test_simulate_zero_steps_writes_summary_only(tmp_path):
    cfg = write_config(tmp_path, T=0)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert not (tmp_path / "trajectory.jsonl").exists()
    _, summary = read_json(tmp_path / "summary.json")
    assert summary["edge_counts"] == [0]


def test_simulate_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, T=200)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(cfg), "--out", str(out1)])
    main(["simulate", "--config", str(cfg), "--out", str(out2)])
    assert (out1 / "trajectory.jsonl").read_text() == (
        out2 / "trajectory.jsonl"
    ).read_text()
    # a different seed changes the walk
    out3 = tmp_path / "c"
    main(["simulate", "--config", str(cfg), "--out", str(out3), "--seed", "8"])
    assert (out1 / "trajectory.jsonl").read_text() != (
        out3 / "trajectory.jsonl"
    ).read_text()


def test_simulate_figure_scale_configuration(tmp_path):
    # K_100 with uniform edge probability runs through the simulation-only
    # path (m = 4950 far exceeds any enumeration cap) and is reproducible
    cfg = write_config(
        tmp_path,
        host={"preset": "complete", "params": [100]},
        model={"name": "simple", "p": 0.075},
        T=60,
        thin=10,
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "trajectory.jsonl").read_text() == (
        out2 / "trajectory.jsonl"
    ).read_text()
    _, records = read_jsonl(out1 / "trajectory.jsonl")
    assert len(records) == 7  # t = 0, 10, ..., 60


def test_simulate_records_the_sampler_version(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta, _ = read_jsonl(tmp_path / "trajectory.jsonl")
    summary_meta, _ = read_json(tmp_path / "summary.json")
    assert meta["sampler"] == summary_meta["sampler"] == SAMPLER_VERSION == 2


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"T": "ten"}, "T: expected a non-negative integer, got 'ten'"),
        ({"T": 2.7}, "T: expected a non-negative integer, got 2.7"),
        ({"thin": "x"}, "thin: expected an integer >= 1, got 'x'"),
        ({"seed": -3}, "seed: expected a non-negative integer, got -3"),
        (
            {"host": {"n": 4, "edges": [[0, 2], [0, 3], [1, 2], [1, 3]]},
             "model": {"name": "intersection", "n": 2, "N": 2}},
            "model.mu: required for intersection",
        ),
        ({"model": {"name": "simple", "p": "abc"}}, "model.p: expected a number, got 'abc'"),
        (
            {"model": {"name": "simple", "p": [0.5, "1/0"]}},
            "model.p[1]: expected a number, got '1/0'",
        ),
        (
            {"host": {"n": 2, "edges": [[0, 1]]},
             "model": {"name": "intersection", "n": 1, "N": 1, "mu": [0.5, "half"]}},
            "model.mu[1]: expected a number, got 'half'",
        ),
        (
            {"model": {"name": "custom", "edits": [{"edit": "+0", "weight": None}]}},
            "model.edits[0].weight: expected a number, got None",
        ),
        ({"initial": {"hex": "zz"}}, "initial.hex: expected a hex string, got 'zz'"),
        ({"initial": [[0, 1, 2]]}, "initial: expected a list of [u, v] pairs, got [[0, 1, 2]]"),
        (
            {"model": {"name": "simple", "p_preset": "er"}},
            'model.p_preset: expected an object with a "kind", got \'er\'',
        ),
        (
            {"model": {"name": "simple", "p_preset": {"kind": "erdos_renyi", "p": "x"}}},
            "model.p_preset.p: expected a number, got 'x'",
        ),
        (
            {"host": {"preset": "complete", "params": ["x"]}},
            "host.params: expected integers, got ['x']",
        ),
        ({"host": {"n": "x", "edges": []}}, "host.n: expected an integer, got 'x'"),
        (
            {"model": {"name": "custom", "edits": [{"edit": 5, "weight": 1}]}},
            "model.edits[0].edit: expected a string, got 5",
        ),
        (
            {"model": {"name": "simple", "p_preset": {"kind": "block", "p": 0.5, "q": 0.2}}},
            'model.p_preset.block: required for kind "block"',
        ),
        (
            {"model": {"name": "custom", "edits": [{"weight": 1}]}},
            "model.edits[0].edit: required for a custom edit",
        ),
        ({"caps": {"states": "x"}}, "caps.states: expected a non-negative integer, got 'x'"),
        (
            {"host": {"n": 3, "edges": [[1, "x"]]}},
            "host.edges[0]: expected a [u, v] pair of integers, got [1, 'x']",
        ),
        (
            {"model": {"name": "custom", "edits": [{"edit": "+0 -1 +2\u00b2", "weight": 1}]}},
            "model.edits[0].edit: bad edit token '+2\u00b2', expected e.g. '+3' or '-0'",
        ),
        (
            {"model": {"name": "simple", "p_preset": {"kind": "block", "block": 1, "p": 0.5,
                                                      "q": 0.2}}},
            "model.p_preset.block: expected a list of vertices, got 1",
        ),
        ({"caps": [1]}, "caps: expected an object, got [1]"),
        ({"caps": {"states": 0}}, "caps.states: expected a cap in [1, 2^63], got 0"),
        (
            {"caps": {"states": (1 << 63) + 1}},
            "caps.states: expected a cap in [1, 2^63], got 9223372036854775809",
        ),
        ({"caps": {"state": 10}}, "caps.state: unknown key, expected states"),
        ({"caps": {"commute_states": 64}}, "caps.commute_states: unknown key, expected states"),
        ({"steps": 100}, "steps: unknown key, expected host, model, mode, caps, seed, initial, T, thin"),
        (
            {"model": {"name": "intersection", "n": 2, "N": 2, "mu": [0.25, 0.5, 0.25],
                       "Mode": "lazy"}},
            "model.Mode: unknown key, expected name, n, N, mu, mode",
        ),
        (
            {"model": {"name": "simple", "p": 0.5, "q": 0.5}},
            "model.q: unknown key, expected name, p, p_preset",
        ),
        ({"model": {"name": "moran", "p": 0.5}}, "model.p: unknown key, expected name"),
        (
            {"model": {"name": "custom", "edits": [{"edit": "+0", "weight": 1}], "weights": [1]}},
            "model.weights: unknown key, expected name, edits",
        ),
        (
            {"model": {"name": "simple", "p_preset": {"kind": "erdos_renyi", "p": 0.5, "q": 0.2}}},
            "model.p_preset.q: unknown key, expected kind, p",
        ),
        (
            {"model": {"name": "simple", "p_preset": {"kind": "chung_lu", "degrees": [1, 1, 1],
                                                      "p": 0.5}}},
            "model.p_preset.p: unknown key, expected kind, degrees",
        ),
        (
            {"model": {"name": "simple", "p_preset": {"kind": "block", "block": [0], "p": 0.5,
                                                      "q": 0.2, "r": 0.1}}},
            "model.p_preset.r: unknown key, expected kind, block, p, q",
        ),
        (
            {"model": {"name": "custom", "edits": [{"edit": "+0", "weight": 1, "wieght": 2}]}},
            "model.edits[0].wieght: unknown key, expected edit, weight",
        ),
        (
            {"host": {"n": 3, "edges": [[0, 1], [1, 2]], "preset_params": [3]}},
            "host.preset_params: unknown key, expected n, edges",
        ),
        (
            {"host": {"preset": "complete", "params": [3], "n": 4}},
            "host.n: unknown key, expected preset, params",
        ),
        ({"initial": {"hex": "0x1", "mask": 1}}, "initial.mask: unknown key, expected hex"),
        (
            {"host": {"n": 2, "edges": [[0, 1]]},
             "model": {"name": "intersection", "n": 1, "N": 1, "mu": 0.5}},
            "model.mu: expected a list of numbers, got 0.5",
        ),
        (
            {"model": {"name": "custom", "edits": ["+0"]}},
            'model.edits[0]: expected an object with "edit" and "weight", got \'+0\'',
        ),
    ],
    ids=["T-word", "T-fraction", "thin-word", "seed-negative", "intersection-without-mu",
         "p-word", "p-list-zero-denominator", "mu-word", "custom-weight-null", "initial-hex",
         "initial-triple",
         "p-preset-string", "p-preset-number", "host-params-word",
         "host-n-word", "custom-edit-number", "block-without-block", "custom-without-edit",
         "caps-word", "host-edge-word", "custom-edit-superscript", "block-number", "caps-list",
         "caps-zero", "caps-above-2^63", "caps-unknown-key", "caps-commute-states",
         "top-level-steps", "intersection-Mode", "simple-extra", "moran-extra", "custom-extra",
         "erdos-renyi-extra", "chung-lu-extra", "block-extra", "edit-extra", "host-edges-extra",
         "host-preset-extra", "initial-extra", "mu-number", "custom-edit-string"],
)
def test_bad_simulate_scalars_are_named(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, **overrides)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert not (tmp_path / "trajectory.jsonl").exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"initial": 99}, "initial: mask 0x63 sets bits outside the 2 host edges"),
        ({"initial": [[0, 2]]}, "initial: {0, 2} is not a host edge"),
        ({"host": {"n": 3, "edges": [[1, 5]]}}, "host: edge {1, 5} has endpoint outside [0, 3)"),
        ({"host": {"n": 3, "edges": []}}, "host: host graph has no edges"),
        ({"host": {"n": 3, "edges": []}, "model": {"name": "moran"}}, "host: host graph has no edges"),
        ({"model": {"name": "simple", "p": [0.5]}}, "model.p: expected 2 edge probabilities, got 1"),
        ({"model": {"name": "simple", "p": [0.5, 1.5]}}, "model.p: p[1] = 1.5 is outside (0, 1)"),
        (
            {"model": {"name": "simple", "p_preset": {"kind": "erdos_renyi", "p": 1.5}}},
            "model.p_preset.p: p = 1.5 is outside (0, 1)",
        ),
        (
            {"model": {"name": "simple", "p_preset": {"kind": "chung_lu", "degrees": [1, 1]}}},
            "model.p_preset.degrees: expected 3 degrees, got 2",
        ),
        (
            {"model": {"name": "simple", "p_preset": {"kind": "block", "block": [0, 7], "p": 0.5,
                                                      "q": 0.2}}},
            "model.p_preset: block contains vertices outside the host",
        ),
        (
            {"host": None, "model": {"name": "intersection", "n": 2, "N": 2, "mu": [0.5, 0.5]}},
            "model.mu: mu must have 3 entries, got 2",
        ),
        (
            {"host": None, "model": {"name": "intersection", "n": 2, "N": 2, "mu": [-0.5, 1, 0.5]}},
            "model.mu: mu has negative entries",
        ),
        (
            {"host": None, "model": {"name": "intersection", "n": 2, "N": 2, "mu": [0.5, 0, 0.5],
                                     "mode": "eager"}},
            "model.mode: expected explicit|lazy, got 'eager'",
        ),
        (
            {"model": {"name": "custom", "edits": [{"edit": "+0", "weight": 0.5}]}},
            "model.edits: weights sum to 0.5, expected 1",
        ),
    ],
    ids=["initial-mask", "initial-non-edge", "host-endpoint", "simple-no-edges", "moran-no-edges",
         "p-length", "p-range", "erdos-renyi-range", "chung-lu-length", "block-outside", "mu-length",
         "mu-negative", "intersection-mode", "custom-sum"],
)
def test_library_faults_name_their_config_key(tmp_path, capsys, config, message):
    # the builders below the loader keep their own texts; the loader adds the key
    cfg = {"host": {"n": 3, "edges": [[0, 1], [1, 2]]}, "model": {"name": "simple", "p": 0.25},
           "T": 5, **config}
    if cfg["host"] is None:
        del cfg["host"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, value, message",
    [
        ("spectrum", "-1", "--cap-states: expected a non-negative integer, got -1"),
        ("simulate", "0", "--cap-states: expected a cap in [1, 2^63], got 0"),
        ("stationary", str((1 << 63) + 1),
         "--cap-states: expected a cap in [1, 2^63], got 9223372036854775809"),
    ],
    ids=["spectrum-negative", "simulate-zero", "stationary-above-2^63"],
)
def test_bad_cap_flag_is_named(tmp_path, capsys, command, value, message):
    cfg = write_config(tmp_path)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path), "--cap-states", value]
    assert main(argv) == 1
    assert capsys.readouterr().err.strip() == f"error: {message}"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]  # nothing written


def test_missing_config_file_is_named(tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.strip() == f"error: config file not found: {path}"


def test_config_that_is_not_an_object_is_named(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.strip() == "error: config must be a JSON object, got [1, 2]"


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--format", "dot"]]
    + [[command, "--format", "json"]
       for command in ("simulate", "mixing", "commute", "export-dot", "verify")],
)
def test_format_is_only_for_spectrum_and_stationary(tmp_path, argv):
    cfg = write_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 1
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]  # nothing written


@pytest.mark.parametrize(
    "config, message",
    [
        ({"model": {"name": "simpel"}}, "model.name: unknown model name 'simpel'"),
        ({"model": {"name": "simple", "p_preset": {"kind": "er"}}},
         "model.p_preset.kind: unknown p_preset kind 'er'"),
        ({"mode": "exact"}, "mode: expected rational|double, got 'exact'"),
        ({"model": {"p": 0.5}}, 'model: config needs a single "model" object with a "name"'),
        ({"host": None}, 'host: config needs a "host" object'),
        ({"model": {"name": "simple"}}, 'model.p: model "simple" needs "p" or "p_preset" in model params'),
        ({"model": {"name": "custom", "edits": []}},
         'model.edits: model "custom" needs a non-empty "edits" list'),
    ],
    ids=["model-name", "p-preset-kind", "mode", "model-without-name", "no-host", "simple-without-p",
         "custom-without-edits"],
)
def test_loader_faults_name_their_key(tmp_path, capsys, config, message):
    cfg = {"host": {"n": 3, "edges": [[0, 1], [1, 2]]}, "model": {"name": "simple", "p": 0.25},
           "T": 5, **config}
    if cfg["host"] is None:
        del cfg["host"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_library_warnings_print_once(tmp_path, capsys):
    # the supports miss edge 2, which recurrent_class and stationary_faces both warn of
    cfg = write_config(
        tmp_path,
        host={"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
        model={"name": "custom", "edits": [{"edit": "+0 -1", "weight": "1/2"},
                                           {"edit": "-0 +1", "weight": "1/2"}]},
    )
    assert main(["mixing", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == (
        "warning: generator supports cover only 0x3 of 0x7; uncovered edges are frozen at the initial state\n"
    )
    assert (tmp_path / "mixing.csv").exists()


def test_missing_host_is_validation_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": {"name": "simple", "p": 0.5}}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"host": }')
    assert main(["simulate", "--config", str(path)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_unknown_model_rejected(tmp_path):
    cfg = write_config(tmp_path, model={"name": "nonsense"})
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_spectrum_csv_simple(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta, header, rows = read_csv(tmp_path / "spectrum.csv")
    assert header == ["flat", "size", "eigenvalue", "multiplicity"]
    assert [r[2] for r in rows] == ["0", "1/2", "1/2", "1"]
    assert {r[3] for r in rows} == {"1"}
    assert meta["host_hash"]
    # aggregated view in the header: value x total multiplicity, descending
    assert meta["by_value"] == "1x1; 0.5x2; 0x1"


def test_spectrum_json_moran(tmp_path):
    cfg = write_config(
        tmp_path,
        host={"preset": "complete", "params": [4]},
        model={"name": "moran"},
    )
    assert (
        main(
            ["spectrum", "--config", str(cfg), "--out", str(tmp_path),
             "--format", "json"]
        )
        == 0
    )
    meta, data = read_json(tmp_path / "spectrum.json")
    assert {entry["eigenvalue"] for entry in data} == {"0", "1/4", "1/2", "1"}


def test_stationary_rational(tmp_path):
    cfg = write_config(tmp_path, mode="rational")
    assert main(["stationary", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta, header, rows = read_csv(tmp_path / "stationary.csv")
    assert header == ["state", "pi"]
    values = {r[0]: r[1] for r in rows}
    assert values["0x0"] == "9/16"
    assert values["0x3"] == "1/16"


def test_mixing_curve_stays_under_bound(tmp_path):
    cfg = write_config(tmp_path)
    assert main(
        ["mixing", "--config", str(cfg), "--out", str(tmp_path), "--c", "1.0"]
    ) == 0
    meta, header, rows = read_csv(tmp_path / "mixing.csv")
    assert header == ["t", "tv", "bound"]
    assert int(meta["bound_steps"]) == 5
    final_t, final_tv, _ = rows[-1]
    assert int(final_t) == 5
    assert float(final_tv) <= np.exp(-1.0)


@pytest.mark.parametrize(
    "host, model, flags, message",
    [
        (None, None, ["--c", "nan"], "c must be positive and finite, got nan"),
        (None, None, ["--c", "inf"], "c must be positive and finite, got inf"),
        ({"preset": "complete", "params": [4]}, {"name": "moran"}, ["--c", "nan"],
         "c must be positive and finite, got nan"),
        # past the cap the curve is skipped, but a negative t_max is still refused
        ({"preset": "complete", "params": [7]}, None, ["--t-max", "-5"],
         "t_max must be >= 0, got -5"),
    ],
    ids=["c-nan", "c-inf", "moran-c-nan", "t-max-negative-K7"],
)
def test_bad_mixing_flags_are_named(tmp_path, capsys, host, model, flags, message):
    overrides = {key: value for key, value in (("host", host), ("model", model)) if value}
    cfg = write_config(tmp_path, **overrides)
    assert main(["mixing", "--config", str(cfg), "--out", str(tmp_path), *flags]) == 1
    err = capsys.readouterr().err
    assert err.strip() == f"error: {message}" and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]  # nothing written


def test_mixing_compound_uses_chamber_sharpening(tmp_path):
    cfg = write_config(
        tmp_path,
        host={"preset": "complete", "params": [4]},
        model={"name": "moran"},
    )
    assert main(
        ["mixing", "--config", str(cfg), "--out", str(tmp_path), "--c", "1.0"]
    ) == 0
    meta, header, rows = read_csv(tmp_path / "mixing.csv")
    assert float(meta["lambda_star"]) == 0.5
    assert int(meta["chambers"]) > 0
    assert float(rows[-1][1]) <= np.exp(-1.0)


def test_mixing_lambda_star_skips_flats_of_multiplicity_zero(tmp_path):
    # flat 0x3 weighs 3/4 but carries no eigenvalue: the chain's are 1, 1/2, 1/6 and 1/6
    edits = [("+2", "2/12"), ("-0 -1", "5/12"), ("+1 +2", "1/12"), ("-1", "3/12"), ("+0 -1", "1/12")]
    cfg = write_config(
        tmp_path, host={"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}, mode="rational",
        model={"name": "custom", "edits": [{"edit": e, "weight": w} for e, w in edits]},
    )
    assert main(["mixing", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta, _, rows = read_csv(tmp_path / "mixing.csv")
    assert (meta["lambda_star"], meta["bound_steps"], len(rows)) == ("0.5", "5", 6)


def test_mixing_records_a_moved_start(tmp_path):
    # the Moran walk's default start, the full edge set, is transient
    cfg = write_config(tmp_path, host={"preset": "complete", "params": [4]}, model={"name": "moran"})
    assert main(["mixing", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta, _, rows = read_csv(tmp_path / "mixing.csv")
    k4 = complete_graph(4)
    first = hex(recurrent_class(moran_weights(k4), k4)[0])
    assert meta["start_fallback"] == k4.full_set().hex() == "0x3f"
    assert meta["start"] == first
    assert float(rows[0][1]) < 1.0  # the curve starts inside the class

    recurrent = write_config(
        tmp_path, name="recurrent.json", host={"preset": "complete", "params": [4]},
        model={"name": "moran"}, initial={"hex": first},
    )
    assert main(["mixing", "--config", str(recurrent), "--out", str(tmp_path / "r")]) == 0
    meta, _, _ = read_csv(tmp_path / "r" / "mixing.csv")
    assert "start" not in meta and "start_fallback" not in meta


def test_commute_matrix_matches_library(tmp_path):
    cfg = write_config(tmp_path, mode="rational")
    assert main(["commute", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta, header, rows = read_csv(tmp_path / "commute.csv")
    assert header == ["state", "0x0", "0x1", "0x2", "0x3"]
    assert "cells" not in meta  # exact cells, from the S/T table
    from editwalk import commute_time, from_edge_list

    g = from_edge_list(3, [(0, 1), (1, 2)])
    p = [Fraction(1, 4)] * 2
    for row in rows:
        a = EdgeSet(2, int(row[0], 16))
        for j, cell in enumerate(row[1:]):
            assert Fraction(cell) == commute_time(a, EdgeSet(2, j), g, p)


@pytest.mark.parametrize("mode", ["rational", "double"])
def test_compound_commute_says_its_cells_are_float(tmp_path, mode):
    """A compound matrix comes from one float64 solve in either mode, and
    its header says so under the mode."""
    cfg = write_config(tmp_path, host={"preset": "complete", "params": [4]},
                       model={"name": "moran"}, mode=mode)
    assert main(["commute", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta, _, rows = read_csv(tmp_path / "commute.csv")
    assert (meta["mode"], meta["cells"], len(rows)) == (mode, "float64", 37)


def test_commute_cap(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        host={"preset": "complete", "params": [6]},  # m = 15: 2^15 states fit, their 2^30 cells do not
        model={"name": "simple", "p": 0.5},
    )
    assert main(["commute", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.strip() == (
        "error (cap): 2^30 commute-matrix cells exceed the cap of 1048576"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]  # nothing written


def test_export_dot_cycle5(tmp_path):
    cfg = write_config(
        tmp_path,
        host={"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]},
        model={"name": "simple", "p": 0.5},
    )
    assert main(["export-dot", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "states.dot").read_text()
    assert text.startswith("// version:")
    assert sum(1 for line in text.splitlines() if line.endswith('";')) == 32


def test_export_dot_moran_restricted(tmp_path):
    cfg = write_config(
        tmp_path,
        host={"preset": "complete", "params": [4]},
        model={"name": "moran"},
    )
    assert main(["export-dot", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "states.dot").read_text()
    from editwalk import moran_weights, recurrent_class

    k4 = complete_graph(4)
    expected = len(recurrent_class(moran_weights(k4), k4))
    assert sum(1 for line in text.splitlines() if line.endswith('";')) == expected


def test_custom_model_notation(tmp_path):
    cfg = write_config(
        tmp_path,
        model={
            "name": "custom",
            "edits": [
                {"edit": "+0 -1", "weight": "1/2"},
                {"edit": "-0 +1", "weight": "1/2"},
            ],
        },
        mode="rational",
        initial="full",
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, records = read_jsonl(tmp_path / "trajectory.jsonl")
    assert {r["state"] for r in records[1:]} <= {"0x1", "0x2"}


def test_intersection_model_host_is_implied(tmp_path):
    cfg = tmp_path / "inter.json"
    cfg.write_text(
        json.dumps(
            {
                "model": {"name": "intersection", "n": 2, "N": 2,
                          "mu": ["1/4", "1/2", "1/4"]},
                "T": 10,
                "seed": 1,
                "mode": "rational",
            }
        )
    )
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    _, _, rows = read_csv(tmp_path / "spectrum.csv")
    assert [r[2] for r in rows] == ["0", "1/2", "1/2", "1"]


class TestVerify:
    def test_simple_rational_all_exact(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mode="rational")
        assert main(["verify", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "eigenvector_residual: residual 0.000e+00" in out

    def test_random_double_host(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            host={"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 2], [1, 4]]},
            model={"name": "simple", "p": [0.3, 0.7, 0.4, 0.6, 0.5, 0.2]},
        )
        assert main(["verify", "--config", str(cfg)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_moran_verify(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            host={"preset": "complete", "params": [4]},
            model={"name": "moran"},
        )
        assert main(["verify", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "multiplicity_sum" in out and "FAIL" not in out

    @pytest.mark.parametrize("mode", ["double", "rational"])
    def test_k5_tiny_passes_every_check(self, tmp_path, capsys, mode):
        """With p down to 1e-9, pi spans many orders of magnitude and the
        hitting times reach about 1e27. No check solves a system: the law's
        coupling bound and the hitting columns' first-step identity hold in
        either mode, the identity exactly in rational mode."""
        p = [1e-9, 1e-9, 1e-9, 0.3, 1e-3, 0.5, 0.5, 0.9, 0.1, 0.2]
        cfg = write_config(tmp_path, host={"preset": "complete", "params": [5]},
                           model={"name": "simple", "p": p}, mode=mode)
        assert main(["verify", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 11 and lines[-1] == "10/10 checks passed"
        commute = next(line for line in lines if "commute_backends" in line)
        assert commute.startswith("PASS  ") and commute.endswith("(tol 1.0e-08)  (10 pairs)")
        if mode == "rational":
            assert "residual 0.000e+00" in commute

    @pytest.mark.parametrize("mode", ["double", "rational"])
    def test_a_law_that_underflows(self, tmp_path, capsys, mode):
        """At p = 1e-200 the full state's law is 1e-400: rational mode holds
        it and balances Q exactly, double mode rounds it to 0 and names that."""
        cfg = write_config(tmp_path, model={"name": "simple", "p": [1e-200, 1e-200]}, mode=mode)
        assert main(["verify", "--config", str(cfg)]) == (0 if mode == "rational" else 3)
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        q = next(line for line in lines if "q_symmetry" in line)
        assert "warning" not in captured.err
        if mode == "rational":
            assert q == "PASS  q_symmetry: residual 0.000e+00 (tol 1.0e-12)" and lines[-1] == "10/10 checks passed"
        else:
            assert q == ("FAIL  q_symmetry: residual inf (tol 1.0e-12)  "
                         "(the law underflows to 0 at 1 of 4 states; use rational mode)")

    ZERO_FLATS = {"host": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}, "mode": "double",
                  "model": {"name": "custom", "edits": [
                      {"edit": "+2", "weight": "2/12"}, {"edit": "-0 -1", "weight": "5/12"},
                      {"edit": "+1 +2", "weight": "1/12"}, {"edit": "-1", "weight": "3/12"},
                      {"edit": "+0 -1", "weight": "1/12"}]}}

    def verify_table(self, tmp_path, capsys, passed: int) -> dict:
        """Run verify on ZERO_FLATS, a float chain off the product that is not
        reversible, expecting exit 3 and the full table; name -> line."""
        cfg = write_config(tmp_path, **self.ZERO_FLATS)
        assert main(["verify", "--config", str(cfg)]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"{passed}/6 checks passed"
        table = {line.split(":")[0][6:]: line for line in lines[:-1]}
        assert list(table) == ["row_stochastic", "stationary_fixed_point", "stationary_vs_linear_solve",
                               "spectrum_multiset", "multiplicity_sum", "closure_idempotent"]
        return table

    def test_a_refused_report_fails_two_checks(self, tmp_path, capsys, monkeypatch):
        def refuse(lat, masks, dist):
            raise ew.errors.ValidationError("multiplicities sum to 5, expected 4 chambers")

        monkeypatch.setattr(verify, "multiplicities", refuse)
        table = self.verify_table(tmp_path, capsys, 4)
        for name, tol in (("spectrum_multiset", "1.0e-08"), ("multiplicity_sum", "0.0e+00")):
            assert table[name] == (f"FAIL  {name}: residual inf (tol {tol})  "
                                   "(multiplicities sum to 5, expected 4 chambers)")
        assert table["closure_idempotent"].startswith("PASS")

    def test_a_complex_eigensolve_fails_by_name(self, tmp_path, capsys, monkeypatch):
        real = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: real(a) + 1e-3j)
        table = self.verify_table(tmp_path, capsys, 5)
        assert table["spectrum_multiset"] == ("FAIL  spectrum_multiset: residual inf (tol 1.0e-08)  "
                                              "(the eigenvalues have imaginary parts up to 1.000e-03)")
        assert table["multiplicity_sum"].startswith("PASS")

    def test_a_dense_array_that_does_not_fit_exits_two(self, tmp_path, capsys, monkeypatch):
        def refuse(self, zero, values):
            raise MemoryError(f"Unable to allocate an array with shape ({self.size}, {self.size})")

        monkeypatch.setattr(TransitionMatrix, "_dense", refuse)
        cfg = write_config(tmp_path, host={"preset": "complete", "params": [4]}, model={"name": "moran"})
        assert main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error (cap): Unable to allocate an array with shape (37, 37)\n"

    def test_perturbed_matrix_fails_named_check(self):
        # negative control: a deliberately broken matrix must fail loudly
        g = complete_graph(3)
        tm = build_chain(simple_edit_weights(g, 0.4), g)
        entries = tm.entries.copy()
        entries[0, 0] += 1e-3
        bad = chain_from_dense(tm.m, tm.masks, entries, False)
        result = check_row_stochastic(bad)
        assert not result.passed and result.name == "row_stochastic"
        report = eigenvalues_simple(g.m)
        product = _two_state_product(bad)
        result2 = check_spectrum_multiset(report, bad, product)
        assert not result2.passed and result2.name == "spectrum_multiset"
        result3 = check_eigenvector_residuals(_phi_factors(g, 0.4, 1 << g.m), report, product)
        assert not result3.passed and result3.name == "eigenvector_residual"

    def test_run_verification_collects_all_checks(self):
        g = complete_graph(3)
        dist = simple_edit_weights(g, [Fraction(1, 3)] * 3)
        results = run_verification(g, dist, p=[Fraction(1, 3)] * 3)
        names = {r.name for r in results}
        assert {
            "row_stochastic",
            "stationary_fixed_point",
            "detailed_balance",
            "eigenvector_residual",
            "orthonormality",
            "q_symmetry",
            "spectrum_multiset",
            "commute_backends",
            "closure_idempotent",
        } <= names
        assert all(r.passed for r in results)


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # missing --config
    assert exc.value.code == 1


def test_raising_caps_needs_explicit_flag(tmp_path):
    cfg = write_config(tmp_path, caps={"states": 1 << 22})
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert (
        main(
            ["spectrum", "--config", str(cfg), "--out", str(tmp_path),
             "--cap-states", str(1 << 22)]
        )
        == 0
    )


def test_transient_initial_state_warns(tmp_path, capsys):
    # the full graph is cyclic, so it sits outside the recurrent class of
    # the neighborhood-resampling walk: the CLI should say so once
    cfg = write_config(
        tmp_path,
        host={"preset": "complete", "params": [4]},
        model={"name": "moran"},
        initial="full",
        T=5,
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert "recurrent class" in capsys.readouterr().err
    # the summary records the start it warned about; the trajectory does not
    meta, _ = read_json(tmp_path / "summary.json")
    assert meta["transient_start"] == "0x3f"
    traj_meta, _ = read_jsonl(tmp_path / "trajectory.jsonl")
    assert "transient_start" not in traj_meta

    simple_cfg = write_config(tmp_path, name="simple.json", T=5)
    assert main(["simulate", "--config", str(simple_cfg), "--out", str(tmp_path)]) == 0
    assert "recurrent class" not in capsys.readouterr().err
    assert "transient_start" not in read_json(tmp_path / "summary.json")[0]

    # one edge, the least state of the class
    forest = write_config(tmp_path, name="forest.json", host={"preset": "complete", "params": [4]},
                          model={"name": "moran"}, initial={"hex": "0x1"}, T=5)
    assert main(["simulate", "--config", str(forest), "--out", str(tmp_path)]) == 0
    assert "recurrent class" not in capsys.readouterr().err
    assert "transient_start" not in read_json(tmp_path / "summary.json")[0]


def test_serialize_round_trips(tmp_path):
    from editwalk.serialize import write_csv, write_json, write_jsonl

    meta = {"version": "0.1.0", "seed": 3, "host_hash": "abc"}
    write_csv(tmp_path / "t.csv", meta, ["a", "b"], [[1, "x"], [2, "y"]])
    m, header, rows = read_csv(tmp_path / "t.csv")
    assert m == {k: str(v) for k, v in meta.items()}
    assert header == ["a", "b"] and rows == [["1", "x"], ["2", "y"]]

    write_json(tmp_path / "t.json", meta, {"k": [1, 2]})
    m2, payload = read_json(tmp_path / "t.json")
    assert m2 == meta and payload == {"k": [1, 2]}

    write_jsonl(tmp_path / "t.jsonl", meta, iter([{"t": 0}, '{"t": 1}']))  # str: pre-encoded
    m3, records = read_jsonl(tmp_path / "t.jsonl")
    assert m3 == meta and records == [{"t": 0}, {"t": 1}]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=6) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES, st.integers(0, 3))
def test_write_json_lays_out_values_as_json_indent2(tmp_path_factory, value, depth):
    from editwalk.serialize import _dumps_indent2, write_json

    assert _dumps_indent2(value, depth) == json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)
    meta = {"version": "0.1.0", "seed": 3}
    path = tmp_path_factory.mktemp("json") / "t.json"
    expected = json.dumps({"meta": meta, "data": value}, indent=2) + "\n"
    write_json(path, meta, value)
    assert path.read_text() == expected
    items = list(value) if isinstance(value, (list, tuple)) else [value]
    write_json(path, meta, iter(items))
    assert path.read_text() == json.dumps({"meta": meta, "data": items}, indent=2) + "\n"


def test_compound_commands_do_not_import_numpy_ma(tmp_path):
    # a plain np.unique imports numpy.ma on NumPy >= 2.3, about 20 ms a process
    cfg = write_config(tmp_path, host={"preset": "complete", "params": [4]}, model={"name": "moran"})
    simple = write_config(tmp_path, "simple.json", host={"preset": "complete", "params": [3]})
    code = (
        "import sys\n"
        "from editwalk.cli import main\n"
        "for command in ('spectrum', 'export-dot', 'verify', 'simulate'):\n"
        f"    assert main([command, '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "for command in ('spectrum', 'verify'):\n"
        f"    assert main([command, '--config', {str(simple)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(ew.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    assert done.stdout.split()[-1] == "False"
