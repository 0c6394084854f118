"""Fuzz of `load_config` and `main`: a small valid config with one value
replaced by random JSON, or one key dropped, and a valid config run with
random command-line flags, must end in a documented exit code (0 ok, 1
validation error, 2 cap exceeded) and never in a traceback."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from editwalk.cli import main

BASES = [
    {"host": {"n": 3, "edges": [[0, 1], [1, 2]]}, "model": {"name": "simple", "p": 0.25},
     "T": 20, "seed": 7, "thin": 3, "initial": [[0, 1]], "caps": {"states": 64}},
    {"host": {"preset": "complete", "params": [4]}, "mode": "rational",
     "model": {"name": "simple", "p": ["1/2", "1/3", "1/4", "1/5", "1/6", "1/7"]},
     "T": 12, "initial": {"hex": "0x5"}},
    {"host": {"preset": "complete", "params": [4]}, "T": 10,
     "model": {"name": "simple", "p_preset": {"kind": "block", "block": [0, 1], "p": 0.5, "q": 0.2}}},
    {"host": {"preset": "complete", "params": [3]}, "T": 10,
     "model": {"name": "simple", "p_preset": {"kind": "chung_lu", "degrees": [1, 1, 1]}}},
    {"host": {"preset": "complete", "params": [4]}, "model": {"name": "moran"},
     "T": 30, "thin": 4, "initial": "full", "caps": {"states": 16}},
    {"model": {"name": "intersection", "n": 2, "N": 2, "mu": [0.25, 0.5, 0.25], "mode": "lazy"},
     "host": {"preset": "bipartite", "params": [2, 2]}, "T": 15, "seed": 3},
    {"model": {"name": "intersection", "n": 2, "N": 3, "mu": ["1/8", "3/8", "3/8", "1/8"]},
     "mode": "rational", "T": 9},
    {"host": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}, "T": 25, "initial": 3,
     "model": {"name": "custom", "edits": [{"edit": "+0 -1", "weight": 0.5},
                                          {"edit": "-0 +2 +3", "weight": "1/2"}]}},
]

WORDS = ["full", "empty", "lazy", "explicit", "complete", "bipartite", "simple", "moran",
         "intersection", "custom", "block", "chung_lu", "erdos_renyi", "rational", "double",
         "+0 -1", "1/2", "0x3", "hex", "edit", "weight", "n", "edges"]

# Numbers stay small, so a replaced step count or host size stays a small run.
SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 12)
    | st.floats(-20, 20) | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.text(max_size=6) | st.sampled_from(WORDS)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6) | st.sampled_from(WORDS), inner, max_size=4),
    max_leaves=8,
)


def _paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, (*prefix, key))


@st.composite
def mutated_configs(draw):
    config = copy.deepcopy(draw(st.sampled_from(BASES)))
    path = draw(st.sampled_from(list(_paths(config))))
    if not path:
        return draw(JSON)
    parent = config
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JSON)
    return config


def test_every_base_config_runs():
    for config in BASES:
        assert _run(config)[0] == 0


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_configs())
def test_mutated_configs_exit_with_a_named_error(config):
    rc, err = _run(config)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    if rc:
        assert err.startswith("error"), err


# Command-line flags, fuzzed on small hosts. Flags are passed as --flag=value
# so that negative and non-finite values reach the parser as values. Runs
# stay small: every c below 1e2 gives a bound of at most a few hundred steps,
# and every larger c a bound past any cap the fuzz sets (at most 2^12), or
# no finite bound at all.
FLAG_CONFIGS = [
    {"host": {"preset": "complete", "params": [4]}, "model": {"name": "moran"}, "T": 20},
    {"host": {"preset": "complete", "params": [4]}, "model": {"name": "simple", "p": 0.3}, "T": 20},
    {"host": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}, "mode": "rational", "T": 20,
     "model": {"name": "custom", "edits": [{"edit": "+0 -1", "weight": "1/2"},
                                          {"edit": "-0 +1 +2", "weight": "1/2"}]}},
]
HUGE_C = [1e300, 1.7e308, math.inf, -math.inf, math.nan]
FLAG_VALUES = {
    "--c": st.sampled_from([0.0, -0.0, -1.0, 5e-324, 1e-300, *HUGE_C]) | st.floats(-100, 100),
    "--t-max": st.integers(-3, 200) | st.sampled_from([10**30, -(10**30)]),
    "--cap-states": st.integers(-2, 1 << 12) | st.sampled_from([0, 2**63 + 1, 10**30]),
    "--seed": st.integers(-3, 50) | st.sampled_from([2**32, 2**64, 2**70, -(2**70)]),
}
COMMAND_FLAGS = {
    "mixing": ("--c", "--t-max", "--cap-states", "--seed"),
    "simulate": ("--cap-states", "--seed"),
    "spectrum": ("--cap-states", "--seed"),
    "stationary": ("--cap-states",),
    "commute": ("--cap-states",),
}


@st.composite
def flag_runs(draw):
    config = draw(st.sampled_from(FLAG_CONFIGS))
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    chosen = draw(st.lists(st.sampled_from(COMMAND_FLAGS[command]), unique=True, min_size=1))
    if command == "mixing" and "--cap-states" not in chosen:
        chosen.append("--cap-states")  # the default cap admits a 2^20-row curve
    flags = [f"{flag}={draw(FLAG_VALUES[flag])!r}" for flag in chosen]
    return config, [command, *flags]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(flag_runs())
def test_fuzzed_flags_exit_with_a_named_error(run):
    config, argv = run
    rc, err = _run(config, argv)
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in err
    if rc:
        assert err.startswith("error"), (argv, err)


def test_huge_c_is_a_named_error():
    # a finite c whose bound is past the float range: no step count exists
    for config in FLAG_CONFIGS[:2]:
        rc, err = _run(config, ["mixing", "--c=1.7e308"])
        assert (rc, err) == (1, "error: mixing bound of inf steps is not finite; choose a smaller c\n")
    rc, _ = _run(FLAG_CONFIGS[0], ["mixing", "--c=1e300"])  # finite: the curve is skipped
    assert rc == 0


def _run(config, argv=("simulate",)) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([argv[0], "--config", str(path), "--out", tmp, *argv[1:]])
    return rc, err.getvalue()
