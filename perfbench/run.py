"""editwalk benchmark: seeded workloads through the real CLI entry point.

    python3 perfbench/run.py --workload sim-scale --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --reps 2

One client in a closed loop: each command starts when the previous one
ends. Every run spawns a fresh worker process (threads capped at the CPUs
this process may use) that imports editwalk from src/, runs passes over the
workload's commands until --seconds is up, and checks every artifact.
Set-up (import plus every load_config call) is timed in separate fresh
processes and reported as their median. Timings are in reference-host
seconds (see REFERENCE_HOST_S); raw seconds are in the report.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced passes and prints the per-layer metrics plus the tracing
overhead. The last stdout line is one JSON object: correct, attempted,
failed, metrics. The line before it is the full report (every timing with
its percentile and sample count, per-command times, steps/s, the host
drift probe, config sha256s, and in traced runs the per-command
breakdown). --workload all runs every workload, interleaved across --reps.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 5
RUN_TIMEOUT_S = 170  # one run, set-up included, ends within this

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Timings are reported in reference-host seconds: raw seconds times
# REFERENCE_HOST_S over the drift probe's time measured around them (the
# probe's median time on the 2-vCPU VM where the benchmark was defined).
# On that shared VM the same pass moved by 20-40% over minutes while the
# program did not change; the probe moves with it. Raw times are in the
# report too.
REFERENCE_HOST_S = 0.13


def timing(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (nearest rank), and the sample count."""
    xs = sorted(values)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n}
    for q in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            out[f"p{q:g}"] = xs[rank - 1]
            break
    return out


def _env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)
    return env


def _worker(work: Path, tag: str, args: list[str], deadline: float) -> dict:
    result = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--dir", str(work),
           "--result", str(result)]
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text())


def run_one(workload: str, seed: int, seconds: float, trace: bool, toy: bool) -> dict:
    """One run of one workload; returns the report and the metrics."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    wl = workloads.build(workload, seed, toy=toy)
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        digests = wl.write_configs(work)
        common = ["--workload", workload, "--seed", str(seed)] + (["--toy"] if toy else [])
        spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
        main = _worker(work, "passes",
                       common + ["--seconds", str(seconds), "--trace", str(int(trace)),
                                 "--spans", str(spans)], deadline)
        setups = [_worker(work, f"setup{i}", common + ["--setup"], deadline)
                  for i in range(SETUP_RUNS)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = summarize(wl, main, setups, digests, trace)
    report = OUT / f"report-{workload}-seed{seed}-trace{int(trace)}.json"
    report.write_text(json.dumps(result["report"], indent=1) + "\n")
    return result


def _pass_wall(p: dict) -> float:
    return sum(c["seconds"] for c in p["commands"])


def summarize(wl, main: dict, setups: list[dict], digests: dict, trace: bool) -> dict:
    passes = main["passes"]
    plain = [p for p in passes if not p["traced"]]
    commands = [c for p in passes for c in p["commands"]]
    failures = [f'{c["label"]}: {c["error"]}' for c in commands if c["error"]]

    def ref(seconds: float, host_s: float) -> float:
        """Seconds rescaled to the reference host speed."""
        return seconds * REFERENCE_HOST_S / host_s

    def seconds_in(p: dict, select) -> float:
        return sum(ref(c["seconds"], c["host_s"]) for c in p["commands"] if select(c))

    e2e = {
        "wall_s": {"unit": "s", **timing([seconds_in(p, lambda c: True) for p in plain])},
        "setup_s": {"unit": "s", **timing([ref(s["setup_s"], s["host_s"]) for s in setups])},
    }
    steps = sum(c.steps for c in wl.commands)
    if steps:
        e2e["steps_per_s"] = {"unit": "1/s", **timing(
            [steps / seconds_in(p, lambda c: c["name"] == "simulate") for p in plain])}
    for name in dict.fromkeys(c.name for c in wl.commands):
        e2e[f"cmd.{name}_s"] = {"unit": "s", **timing(
            [seconds_in(p, lambda c: c["name"] == name) for p in plain])}
    e2e["peak_rss_mb"] = {"unit": "MB", "value": main["peak_rss_mb"]}
    e2e["ops_failed_frac"] = {"unit": "ratio", "value": len(failures) / len(commands)}
    report = {
        "workload": wl.name,
        "passes": len(plain),
        "end_to_end": e2e,
        "failures": failures[:20],
        "commands": {cmd.label: timing([ref(p["commands"][i]["seconds"],
                                            p["commands"][i]["host_s"]) for p in plain])
                     for i, cmd in enumerate(wl.commands)},
        "raw": {"wall_s": timing([_pass_wall(p) for p in plain]),
                "setup_s": timing([s["setup_s"] for s in setups]),
                "import_s": timing([s["import_s"] for s in setups])},
        "drift_probe": {k: timing([p[k] for p in main["probes"]])
                        for k in ("python_s", "numpy_s", "memory_s", "host_s")},
        "config_sha256": digests,
    }

    if trace:
        traced = [p for p in passes if p["traced"]]
        overhead = (statistics.median(seconds_in(p, lambda c: True) for p in traced)
                    - e2e["wall_s"]["median"])
        layers = {name: statistics.median(p[name] for p in main["layers"])
                  for name, _ in PER_LAYER if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = overhead
        report["traced_passes"] = len(traced)
        report["trace_overhead_s"] = overhead
        report["breakdown"] = main["breakdown"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {"wall_s": e2e["wall_s"]["median"], "setup_s": e2e["setup_s"]["median"],
                  "peak_rss_mb": e2e["peak_rss_mb"]["value"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {"report": report, "attempted": len(commands), "failed": len(failures),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reps", type=int, default=1, help="repetitions with --workload all")
    ap.add_argument("--toy", action="store_true", help="shrunk sizes, for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "editwalk" / "cli.py").is_file():
        print(f"error: no editwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reps = args.reps if args.workload == "all" else 1
    results = []
    try:
        for rep in range(reps):
            for name in names:  # interleaved: one run of each workload per repetition
                result = run_one(name, args.seed, args.seconds, bool(args.trace), args.toy)
                result["key"] = name if reps == 1 else f"{name}#{rep}"
                print(json.dumps({"report": result["report"]}))
                results.append(result)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f'{r["key"]}:{k}': v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
