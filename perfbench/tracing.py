"""In-memory span tracer for the benchmark's traced passes.

`Tracer.install()` wraps editwalk's public functions wherever they are
bound in the cli, spectral, verify and lattice namespaces, plus
`TransitionMatrix.to_float` and `EdgeSet.indices`; `uninstall()` puts the
originals back. Each call records a span (name, start, end, parent, run
id). Counters are read from arguments and results after the span's clock
stops, so counting is charged to no span's self time. A span's self time
is its duration minus the time its child spans cover.

Not wrapped: editwalk.edits (apply and friends run once per simulated
step, so a wrapper would measure the tracer) and the per-element helpers
in INNER, whose time stays in their caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

NAMESPACES = ("editwalk.cli", "editwalk.spectral", "editwalk.verify", "editwalk.lattice")
INNER = {
    "editwalk.lattice": {"mobius", "eigenvalue", "chamber_count_above"},
    "editwalk.spectral": {"phi", "psi", "commute_terms"},
}
WEIGHT_BUILDERS = ("simple_edit_weights", "moran_weights", "intersection_weights")
WRITERS = ("write_csv", "write_json", "write_jsonl")
VERIFY_CHECKS = (
    "row_stochastic", "stationary_fixed_point", "stationary_vs_solve", "detailed_balance",
    "eigenvector_residuals", "orthonormality", "q_symmetry", "spectrum_multiset",
    "commute_backends", "closure_idempotent",
)
SPECTRAL_TIMED = (
    "recurrent_class", "build_chain", "to_float", "stationary_numeric",
    "stationary_closed_form", "tv_decay", "numeric_eigenvalues", "eigensystem_simple",
    "commute_time", "hitting_time", "to_dot",
)

# Per-layer metric names and units, in the order they are printed.
PER_LAYER = (
    [("cli.load_config_s", "s")]
    + [("process.weights_s", "s"), ("process.edits", "count"), ("process.simulate_s", "s"),
       ("process.steps", "count"), ("process.us_per_step", "us")]
    + [("hostgraph.indices_s", "s"), ("hostgraph.indices_calls", "count"),
       ("hostgraph.is_acyclic_s", "s"), ("hostgraph.is_acyclic_calls", "count")]
    + [("serialize.write_s", "s"), ("serialize.bytes", "bytes"), ("serialize.files", "count")]
    + [("lattice.closure_s", "s"), ("lattice.flats", "count"),
       ("lattice.representatives_s", "s"), ("lattice.multiplicities_s", "s")]
    + [(f"spectral.{name}_s", "s") for name in SPECTRAL_TIMED]
    + [("spectral.recurrent_states", "count"), ("spectral.chain_states", "count"),
       ("spectral.chain_exact_builds", "count"), ("spectral.chain_density", "ratio"),
       ("spectral.to_float_cells", "count"), ("spectral.commute_time_calls", "count"),
       ("spectral.commute_useful_frac", "ratio"), ("spectral.hitting_time_calls", "count")]
    + [(f"verify.{name}_s", "s") for name in VERIFY_CHECKS]
    + [("trace.overhead_s", "s")]
)


def _commute_counts(args, kwargs, result):
    E, F, g = args[:3]
    if E.mask == F.mask:
        return {"commute_terms": 0, "commute_useful": 0}
    m, d = g.m, (E.mask ^ F.mask).bit_count()
    # every proper subset T is evaluated; those containing E xor F are dropped
    return {"commute_terms": (1 << m) - 1, "commute_useful": (1 << m) - (1 << (m - d))}


def _chain_counts(args, kwargs, tm):
    import numpy as np

    return {
        "chain_states": tm.size,
        "chain_exact_builds": int(tm.exact),
        "chain_nonzero": int(np.count_nonzero(tm.entries)),
        "chain_cells": tm.size * tm.size,
    }


COUNTERS = {
    "spectral.recurrent_class": lambda a, k, r: {"recurrent_states": len(r)},
    "spectral.build_chain": _chain_counts,
    "spectral.to_float": lambda a, k, r: {"to_float_cells": a[0].size ** 2 if a[0].exact else 0},
    "spectral.commute_time": _commute_counts,
    "lattice.closure": lambda a, k, r: {"flats": len(r.flats)},
    "process.simulate": lambda a, k, r: {"steps": a[2] if len(a) > 2 else k["steps"]},
    **{f"process.{f}": (lambda a, k, r: {"edits": len(r.items)}) for f in WEIGHT_BUILDERS},
    **{f"serialize.{f}": (lambda a, k, r: {"bytes": os.path.getsize(a[0]), "files": 1})
       for f in WRITERS},
}


class Tracer:
    def __init__(self, modules: dict):
        """`modules` maps module names (editwalk.cli, ...) to module objects."""
        self.spans: list[tuple] = []  # (name, start, end, cover_end, parent, run_id, counts)
        self.run_id = None
        self._stack: list[int] = []
        self._patches = self._plan(modules)

    def _plan(self, modules):
        wrapped = {}
        patches = []
        for ns in NAMESPACES:
            module = modules[ns]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                if not home.startswith("editwalk.") or home == "editwalk.edits":
                    continue
                if attr in INNER.get(home, ()):
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self._wrap(f"{home.split('.')[-1]}.{obj.__name__}", obj)
                patches.append((module, attr, obj, wrapped[obj]))
        for cls, attr, name in (
            (modules["editwalk.spectral"].TransitionMatrix, "to_float", "spectral.to_float"),
            (modules["editwalk.hostgraph"].EdgeSet, "indices", "hostgraph.indices"),
        ):
            original = cls.__dict__[attr]
            patches.append((cls, attr, original, self._wrap(name, original)))
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _open(self) -> tuple[int, int | None]:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, end, parent, self.run_id, None)
                raise
            end = perf_counter()
            stack.pop()
            counts = counter(args, kwargs, result) if counter else None
            spans[sid] = (name, start, end, perf_counter(), parent, self.run_id, counts)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A root span around one command; its run id groups its children."""
        sid, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, end, parent, self.run_id, None)


def self_times(spans) -> list[float]:
    covered = defaultdict(float)
    for name, start, end, cover_end, parent, run_id, counts in spans:
        if parent is not None:
            covered[parent] += cover_end - start
    return [span[2] - span[1] - covered[i] for i, span in enumerate(spans)]


def totals(spans, selfs) -> tuple[dict, dict, dict]:
    """Self time and calls per span name, and summed counters."""
    self_s, calls, counts = defaultdict(float), defaultdict(int), defaultdict(int)
    for span, own in zip(spans, selfs):
        self_s[span[0]] += own
        calls[span[0]] += 1
        for key, value in (span[6] or {}).items():
            counts[key] += value
    return self_s, calls, counts


def layer_metrics(self_s: dict, calls: dict, counts: dict) -> dict:
    """The per-layer metrics of one traced pass (all but trace.overhead_s)."""
    steps = counts["steps"]
    simulate_s = self_s["process.simulate"]
    out = {
        "cli.load_config_s": self_s["cli.load_config"],
        "process.weights_s": sum(self_s[f"process.{f}"] for f in WEIGHT_BUILDERS),
        "process.edits": counts["edits"],
        "process.simulate_s": simulate_s,
        "process.steps": steps,
        "process.us_per_step": 1e6 * simulate_s / steps if steps else 0.0,
        "hostgraph.indices_s": self_s["hostgraph.indices"],
        "hostgraph.indices_calls": calls["hostgraph.indices"],
        "hostgraph.is_acyclic_s": self_s["hostgraph.is_acyclic"],
        "hostgraph.is_acyclic_calls": calls["hostgraph.is_acyclic"],
        "serialize.write_s": sum(self_s[f"serialize.{f}"] for f in WRITERS),
        "serialize.bytes": counts["bytes"],
        "serialize.files": counts["files"],
        "lattice.closure_s": self_s["lattice.closure"],
        "lattice.flats": counts["flats"],
        "lattice.representatives_s": self_s["lattice.representatives_for"],
        "lattice.multiplicities_s": self_s["lattice.multiplicities"],
    }
    for name in SPECTRAL_TIMED:
        out[f"spectral.{name}_s"] = self_s[f"spectral.{name}"]
    cells, terms = counts["chain_cells"], counts["commute_terms"]
    out.update({
        "spectral.recurrent_states": counts["recurrent_states"],
        "spectral.chain_states": counts["chain_states"],
        "spectral.chain_exact_builds": counts["chain_exact_builds"],
        "spectral.chain_density": counts["chain_nonzero"] / cells if cells else 0.0,
        "spectral.to_float_cells": counts["to_float_cells"],
        "spectral.commute_time_calls": calls["spectral.commute_time"],
        "spectral.commute_useful_frac": counts["commute_useful"] / terms if terms else 0.0,
        "spectral.hitting_time_calls": calls["spectral.hitting_time"],
    })
    for name in VERIFY_CHECKS:
        out[f"verify.{name}_s"] = self_s[f"verify.check_{name}"]
    return out
