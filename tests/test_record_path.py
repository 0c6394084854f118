"""The `simulate` record path against its per-record oracle: artifacts
byte-equal to one `json.dumps` per state dict, and `EdgeSet.indices`
equal to a test of every host edge."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from editwalk.cli import build_parser, load_config, main
from editwalk.hostgraph import EdgeSet
from oracles import indices_by_shift, write_simulate_artifacts

MU = [0.125, 0.375, 0.375, 0.125]
CASES = {
    # m = 780: every mask spans many 64-bit words
    "simple K40": {"host": {"preset": "complete", "params": [40]},
                   "model": {"name": "simple", "p": 0.05}, "initial": "full"},
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
