"""Self-test of the benchmark at toy sizes.

    python3 -m pytest perfbench -q

Runs every workload once, shrunk, traced and untraced; checks that every
metric BENCHMARK.json names is printed with its unit and that counts do
not depend on the seed; and shows that each artifact check rejects a
deliberately corrupted artifact.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from editwalk import cli  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(workload: str, seed: int, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                         "--trace", str(trace), "--toy"])
    assert code == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_prints_every_metric_with_its_unit(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _bench(workload, 3, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_do_not_depend_on_the_seed(workload):
    counted = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first, second = (_bench(workload, seed, 1)["metrics"] for seed in (5, 6))
    assert {k: first[k]["value"] for k in counted} == {k: second[k]["value"] for k in counted}


def test_configs_are_seeded():
    a, b, c = (workloads.build("compound-chain", seed).configs for seed in (1, 1, 2))
    assert a == b and a != c


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"] for m in SPEC["per_layer"]} == {name for name, _ in run.PER_LAYER}


# --- each check rejects a corrupted artifact ---------------------------------


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """label -> (command, output dir, stdout) for every toy command."""
    found = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 7, toy=True)
        base = tmp_path_factory.mktemp(name)
        wl.write_configs(base)
        for i, cmd in enumerate(wl.commands):
            out = base / f"out{i}"
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main([*cmd.args, "--config", str(base / cmd.config),
                                 "--out", str(out)]) == 0
            cmd.check(out, buf.getvalue())  # the real artifact passes
            found[cmd.label] = (cmd, out, buf.getvalue())
    return found


def _edit_csv(path: Path, edit_rows) -> None:
    lines = path.read_text().splitlines()
    head = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    path.write_text("\n".join(head + [",".join(r) for r in edit_rows(body)]) + "\n")


def _edit_jsonl(path: Path, edit_records) -> None:
    lines = path.read_text().splitlines()
    records = edit_records([json.loads(line) for line in lines[1:]])
    path.write_text("\n".join([lines[0]] + [json.dumps(r) for r in records]) + "\n")


def _scale_pi(rows):
    def scaled(v):
        return str(Fraction(v) * Fraction(101, 100)) if "/" in v else repr(float(v) * 1.01)
    return [rows[0]] + [[s, scaled(v)] for s, v in rows[1:]]


def _asymmetric(rows):
    rows[1][2] = str(Fraction(rows[1][2]) + 1)
    return rows


def _tv_rises(rows):
    rows[2][1] = str(float(rows[1][1]) + 0.01)
    return rows


def _multiplicity_plus_one(rows):
    rows[1][3] = str(int(rows[1][3]) + 1)
    return rows


def _drop_last(records):
    return records[:-1]


def _late_state(mask_of):
    def edit(records):
        records[-1]["state"] = hex(mask_of(records[-1]))
        return records
    return edit


def _empty_edge_list(records):
    records[-1]["edges"] = []
    records[-1]["state"] = "0x1"
    return records


CORRUPTIONS = [
    ("stationary simple m=4 rational", "stationary.csv", _edit_csv, _scale_pi),
    ("stationary moran K4", "stationary.csv", _edit_csv, _scale_pi),
    ("commute simple m=3 rational", "commute.csv", _edit_csv, _asymmetric),
    ("mixing simple m=4 rational", "mixing.csv", _edit_csv, _tv_rises),
    ("mixing moran K3", "mixing.csv", _edit_csv, _tv_rises),
    ("spectrum simple m=4 rational", "spectrum.csv", _edit_csv, _multiplicity_plus_one),
    ("spectrum custom cycle m=6", "spectrum.csv", _edit_csv, _multiplicity_plus_one),
    ("simulate K10 simple", "trajectory.jsonl", _edit_jsonl, _drop_last),
    ("simulate K10 simple", "trajectory.jsonl", _edit_jsonl,
     _late_state(lambda r: (1 << 45) - 1)),  # all 45 edges: far outside the band
    ("simulate K6 moran", "trajectory.jsonl", _edit_jsonl,
     _late_state(lambda r: 0b100011)),  # triangle 0-1-2: edges 0, 1 and 5 of K6
    ("simulate K6 moran, every state", "trajectory.jsonl", _edit_jsonl,
     _late_state(lambda r: 0b100011)),
    ("simulate lazy intersection 5x4", "trajectory.jsonl", _edit_jsonl,
     _late_state(lambda r: 1 << 20)),  # an edge the 5x4 host does not have
    ("simulate K8 simple, every state as edges", "trajectory.jsonl", _edit_jsonl,
     _empty_edge_list),
]


@pytest.mark.parametrize("label,filename,editor,corrupt", CORRUPTIONS,
                         ids=[f"{c[0]}:{c[3].__name__}" for c in CORRUPTIONS])
def test_check_rejects_corrupted_artifact(artifacts, tmp_path, label, filename, editor, corrupt):
    cmd, out, stdout = artifacts[label]
    copy = tmp_path / "out"
    copy.mkdir()
    for f in out.iterdir():
        (copy / f.name).write_bytes(f.read_bytes())
    editor(copy / filename, corrupt)
    with pytest.raises(checks.CheckFailed):
        cmd.check(copy, stdout)


def test_dot_check_rejects_a_missing_node(artifacts, tmp_path):
    cmd, out, stdout = artifacts["export-dot moran K3"]
    lines = (out / "states.dot").read_text().splitlines()
    first_node = next(i for i, line in enumerate(lines) if line.endswith('";'))
    (tmp_path / "states.dot").write_text("\n".join(lines[:first_node] + lines[first_node + 1:]))
    with pytest.raises(checks.CheckFailed):
        cmd.check(tmp_path, stdout)


def test_verify_check_rejects_a_failed_check(artifacts):
    cmd, out, stdout = artifacts["verify moran K3"]
    total = stdout.strip().splitlines()[-1].split("/")[0]
    with pytest.raises(checks.CheckFailed):
        cmd.check(out, stdout.replace(f"{total}/{total}", f"0/{total}"))
