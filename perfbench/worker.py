"""One fresh benchmark process: import editwalk from the checkout's src/,
then either time set-up once (--setup) or run passes of one workload for
a fixed time, checking every artifact, and write the raw records as JSON.

Run by run.py; not meant to be called by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from checks import CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_editwalk():
    """Import the package from this checkout; return (modules, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import editwalk  # noqa: F401  (timed: this is the user's import cost)
    import editwalk.cli
    seconds = time.perf_counter() - start
    if Path(editwalk.__file__).resolve().parent != SRC / "editwalk":
        raise SystemExit(f"editwalk was imported from {editwalk.__file__}, not {SRC}")
    modules = {name: mod for name, mod in sys.modules.items() if name.startswith("editwalk.")}
    return modules, seconds


@dataclass(frozen=True)
class _Probe:
    m: int
    mask: int

    def __post_init__(self):
        if self.mask >> self.m:
            raise ValueError("mask out of range")


def drift_probe() -> dict:
    """Fixed reference loops that time the host, not editwalk: Python
    object churn with big-int masks (the interpreter and allocator work
    editwalk does), a small numpy loop, and random reads from fresh memory
    larger than the caches. Taken between commands, so each command can be
    set against the host speed around it."""
    import numpy as np

    start = time.perf_counter()
    mask, kept = 0, []
    for i in range(40_000):
        bit = 1 << (i * 7919 % 4950)
        mask = (mask | bit) & ~(bit << 1)
        state = _Probe(4950, mask)
        if i % 50 == 0:
            kept.append(state)
    table = {i: (i, str(i)) for i in range(60_000)}
    python_s = time.perf_counter() - start
    del kept, table
    a = np.random.default_rng(0).random((300, 300))
    start = time.perf_counter()
    for _ in range(10):
        np.sort(np.tanh(a @ a.T / 300), axis=1)
    numpy_s = time.perf_counter() - start
    start = time.perf_counter()
    big = np.arange(4_000_000, dtype=np.float64)  # 32 MB, fresh pages
    big[np.random.default_rng(0).integers(0, big.size, 1_000_000)].sum()
    memory_s = time.perf_counter() - start
    return {"python_s": python_s, "numpy_s": numpy_s, "memory_s": memory_s,
            "host_s": python_s + numpy_s + memory_s}


class ProbeServer:
    """drift_probe in a child process, so the probe neither adds to the
    worker's memory nor runs on a heap that editwalk has shaped."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__, "--probe-server"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def measure(self) -> dict:
        self.proc.stdin.write("probe\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


def command_argv(cmd, config_dir: Path, out: Path) -> list[str]:
    return [*cmd.args, "--config", str(config_dir / cmd.config), "--out", str(out)]


def setup(cli, wl, config_dir: Path) -> float:
    """Every load_config call one pass of the workload makes."""
    parser = cli.build_parser()
    total = 0.0
    for cmd in wl.commands:
        args = parser.parse_args(command_argv(cmd, config_dir, config_dir))
        start = time.perf_counter()
        cli.load_config(args.config, args)
        total += time.perf_counter() - start
    return total


def run_command(cli, cmd, config_dir: Path, out: Path) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    gc.collect()  # start each command from the same heap state
    argv = command_argv(cmd, config_dir, out)
    captured = io.StringIO()
    error = None
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a stopped run
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if rc != 0 and error is None:
        error = f"exit code {rc}"
    if error is None:
        try:
            cmd.check(out, captured.getvalue())
        except CheckFailed as exc:
            error = f"check: {exc}"
        except Exception as exc:  # unreadable artifact
            error = f"check: {type(exc).__name__}: {exc}"
    return {"name": cmd.name, "label": cmd.label, "seconds": seconds, "error": error}


def run_passes(modules, wl, config_dir: Path, seconds: float, traced: bool):
    """Passes until the time is up, with a drift probe before the first
    command and after every command."""
    from tracing import Tracer

    cli = modules["editwalk.cli"]
    tracer = Tracer(modules) if traced else None
    server = ProbeServer()
    try:
        probes = [server.measure()]
        passes, peak_rss_mb = _passes(cli, wl, config_dir, seconds, tracer, server, probes)
    finally:
        server.close()
    return passes, probes, peak_rss_mb, tracer


def _passes(cli, wl, config_dir, seconds, tracer, server, probes):
    """A traced run alternates untraced and traced passes, so both see the
    same host conditions."""
    passes = []
    deadline = time.perf_counter() + seconds
    min_passes = 2
    peak_rss_mb = None
    while True:
        with_trace = tracer is not None and len(passes) % 2 == 1
        started = time.perf_counter()
        records = []
        for i, cmd in enumerate(wl.commands):
            if with_trace:
                tracer.run_id = (len(passes), i)
                tracer.install()
                try:
                    with tracer.span(f"cmd.{cmd.name}"):
                        record = run_command(cli, cmd, config_dir, config_dir / f"out{i}")
                finally:
                    tracer.uninstall()
            else:
                record = run_command(cli, cmd, config_dir, config_dir / f"out{i}")
            probes.append(server.measure())
            record["host_s"] = (probes[-2]["host_s"] + probes[-1]["host_s"]) / 2
            records.append(record)
        passes.append({"traced": with_trace, "commands": records,
                       "elapsed": time.perf_counter() - started})
        if peak_rss_mb is None:  # later passes only add allocator noise
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        typical = statistics.median(p["elapsed"] for p in passes)
        if len(passes) >= min_passes and time.perf_counter() + typical > deadline:
            break
    return passes, peak_rss_mb


def trace_summary(tracer, passes) -> tuple[list[dict], list[dict]]:
    """Per traced pass: layer metrics. Per command of the last traced pass:
    self time by span name and counters."""
    from tracing import layer_metrics, self_times, totals

    selfs = self_times(tracer.spans)
    by_pass, by_command = {}, {}
    for span, own in zip(tracer.spans, selfs):
        pass_no, cmd_no = span[5]
        by_pass.setdefault(pass_no, ([], []))
        by_pass[pass_no][0].append(span)
        by_pass[pass_no][1].append(own)
        by_command.setdefault((pass_no, cmd_no), ([], []))
        by_command[(pass_no, cmd_no)][0].append(span)
        by_command[(pass_no, cmd_no)][1].append(own)
    per_pass = [layer_metrics(*totals(*by_pass[k])) for k in sorted(by_pass)]
    last = max(by_pass)
    breakdown = []
    for (pass_no, cmd_no), (spans, own) in sorted(by_command.items()):
        if pass_no != last:
            continue
        self_s, calls, counts = totals(spans, own)
        record = passes[pass_no]["commands"][cmd_no]
        breakdown.append({
            "command": record["label"], "seconds": record["seconds"],
            "self_s": dict(sorted(self_s.items(), key=lambda kv: -kv[1])),
            "calls": dict(calls), "counts": dict(counts),
        })
    return per_pass, breakdown


def write_spans(tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for i, (name, start, end, _, parent, run_id, counts) in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                 "parent": parent, "run": list(run_id), "counts": counts}) + "\n")


def main() -> int:
    if sys.argv[1:] == ["--probe-server"]:
        for _ in sys.stdin:
            print(json.dumps(drift_probe()), flush=True)
        return 0
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True, help="directory holding the configs")
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--setup", action="store_true", help="time import and load_config only")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path, default=None)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()

    modules, import_s = import_editwalk()
    wl = workloads.build(args.workload, args.seed, toy=args.toy)
    if args.setup:
        load_s = setup(modules["editwalk.cli"], wl, args.dir)
        result = {"setup_s": import_s + load_s, "import_s": import_s, "load_s": load_s,
                  "host_s": drift_probe()["host_s"]}
    else:
        passes, probes, peak_rss_mb, tracer = run_passes(
            modules, wl, args.dir, args.seconds, bool(args.trace))
        result = {"passes": passes, "probes": probes, "peak_rss_mb": peak_rss_mb}
        if tracer is not None:
            result["layers"], result["breakdown"] = trace_summary(tracer, passes)
            if args.spans is not None:
                write_spans(tracer, args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
