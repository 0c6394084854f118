"""Artifact checks for the benchmark's commands.

Each check reads what a command wrote and raises CheckFailed when it is
wrong. The checks test laws (sums, symmetry, monotone decay, counts the
workload fixes, statistical bands at 5 sigma), never golden values of a
particular random stream, so they hold for every seed and survive a
deliberate change of the sampler. They read the files directly and do
not import editwalk.
"""

from __future__ import annotations

import csv
import json
import math
import re
from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from pathlib import Path

FLOAT_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _provenance(meta: dict, path: Path) -> None:
    _require("version" in meta and "host_hash" in meta, f"{path.name}: no provenance header")


def read_csv(path: Path) -> tuple[dict, list[str], list[list[str]]]:
    _require(path.is_file(), f"{path.name} was not written")
    meta, body = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif line:
            body.append(line)
    table = list(csv.reader(body))
    _require(len(table) >= 2, f"{path.name} has no data rows")
    _provenance(meta, path)
    return meta, table[0], table[1:]


def _number(text: str, exact: bool):
    return Fraction(text) if exact else float(text)


def verify_passed(out: Path, stdout: str) -> None:
    found = re.search(r"^(\d+)/(\d+) checks passed$", stdout, re.MULTILINE)
    _require(found is not None, "verify printed no 'N/N checks passed' line")
    passed, total = int(found.group(1)), int(found.group(2))
    _require(total > 0 and passed == total, f"verify: {passed}/{total} checks passed")


def stationary(out: Path, stdout: str, *, states: int, exact: bool, product_p=None) -> None:
    """Non-negative, sums to 1 (exactly in rational mode), one row per
    state, and equal to the product form when edge probabilities are given."""
    _, columns, rows = read_csv(out / "stationary.csv")
    _require(columns == ["state", "pi"], f"stationary.csv columns {columns}")
    _require(len(rows) == states, f"stationary.csv has {len(rows)} rows, expected {states}")
    pi = [_number(v, exact) for _, v in rows]
    _require(min(pi) >= 0, "stationary vector has a negative entry")
    total = sum(pi)
    _require(total == 1 if exact else abs(total - 1) <= FLOAT_TOL, f"stationary sums to {total}")
    if product_p is not None:
        for (state, _), value in zip(rows, pi):
            mask = int(state, 16)
            expected = Fraction(1)
            for e, pe in enumerate(product_p):
                expected *= pe if mask >> e & 1 else 1 - pe
            ok = value == expected if exact else abs(value - float(expected)) <= FLOAT_TOL
            _require(ok, f"pi({state}) = {value} is not the product form {expected}")


def spectrum(out: Path, stdout: str, *, chambers: int, flats: int | None = None,
             binomial_m: int | None = None) -> None:
    """Multiplicities are non-negative and sum to the chamber count; the top
    eigenvalue is 1; on the per-edge chain k/m has multiplicity C(m, k)."""
    _, columns, rows = read_csv(out / "spectrum.csv")
    _require(columns == ["flat", "size", "eigenvalue", "multiplicity"],
             f"spectrum.csv columns {columns}")
    if flats is not None:
        _require(len(rows) == flats, f"spectrum.csv has {len(rows)} flats, expected {flats}")
    mults = [int(r[3]) for r in rows]
    _require(min(mults) >= 0, "negative multiplicity")
    _require(sum(mults) == chambers,
             f"multiplicities sum to {sum(mults)}, expected {chambers} chambers")
    top = max(rows, key=lambda r: int(r[1]))
    _require(abs(float(Fraction(top[2])) - 1.0) <= FLOAT_TOL, f"top eigenvalue is {top[2]}")
    if binomial_m is not None:
        by_value: dict[Fraction, int] = defaultdict(int)
        for r in rows:
            by_value[Fraction(r[2])] += int(r[3])
        for k in range(binomial_m + 1):
            got = by_value.get(Fraction(k, binomial_m), 0)
            _require(got == math.comb(binomial_m, k),
                     f"eigenvalue {k}/{binomial_m} has multiplicity {got}, "
                     f"expected C({binomial_m},{k})")


def commute(out: Path, stdout: str, *, states: int, exact: bool) -> None:
    """Square, symmetric, zero on the diagonal and positive off it."""
    _, columns, rows = read_csv(out / "commute.csv")
    _require(len(rows) == states and len(columns) == states + 1,
             f"commute.csv is {len(rows)}x{len(columns) - 1}, expected {states} states")
    _require([r[0] for r in rows] == columns[1:], "commute.csv row and column states differ")
    matrix = [[_number(v, exact) for v in r[1:]] for r in rows]
    for i in range(states):
        _require(matrix[i][i] == 0, f"commute diagonal {i} is {matrix[i][i]}")
        for j in range(i + 1, states):
            a, b = matrix[i][j], matrix[j][i]
            _require(a > 0, f"commute({i},{j}) = {a} is not positive")
            same = a == b if exact else abs(a - b) <= FLOAT_TOL * max(1.0, abs(a))
            _require(same, f"commute matrix is not symmetric at ({i},{j}): {a} != {b}")


def mixing(out: Path, stdout: str, c: float = 1.0) -> None:
    """The tv column never increases, and at bound_steps it is at most e^-c."""
    meta, columns, rows = read_csv(out / "mixing.csv")
    _require(columns == ["t", "tv", "bound"], f"mixing.csv columns {columns}")
    _require([int(r[0]) for r in rows] == list(range(len(rows))), "mixing.csv t is not 0..t_max")
    tv = [float(r[1]) for r in rows]
    for t in range(1, len(tv)):
        _require(tv[t] <= tv[t - 1] + 1e-12, f"tv increases at t={t}: {tv[t - 1]} -> {tv[t]}")
    bound_steps = int(meta.get("bound_steps", -1))
    _require(0 <= bound_steps < len(tv), f"bound_steps {bound_steps} is not on the curve")
    _require(tv[bound_steps] <= math.exp(-c),
             f"tv at bound_steps={bound_steps} is {tv[bound_steps]} > e^-{c}")


_DOT_EDGE = re.compile(r'^\s*"([^"]*)" -> "([^"]*)" \[label="([^"]*)"\];$')
_DOT_NODE = re.compile(r'^\s*"([^"]*)";$')


def dot(out: Path, stdout: str, *, nodes: int) -> None:
    """One node per recurrent state; every edge joins declared nodes with a
    weight in (0, 1]; the weights leaving a node sum to at most 1."""
    path = out / "states.dot"
    _require(path.is_file(), "states.dot was not written")
    lines = path.read_text().splitlines()
    meta = dict(line[3:].partition(": ")[::2] for line in lines if line.startswith("// "))
    _provenance(meta, path)
    declared = {m.group(1) for m in map(_DOT_NODE.match, lines) if m}
    _require(len(declared) == nodes, f"states.dot has {len(declared)} nodes, expected {nodes}")
    out_mass: dict[str, float] = defaultdict(float)
    for m in filter(None, map(_DOT_EDGE.match, lines)):
        src, dst, w = m.group(1), m.group(2), float(Fraction(m.group(3)))
        _require(src in declared and dst in declared, f"edge {src}->{dst} leaves the node set")
        _require(0 < w <= 1, f"edge {src}->{dst} has weight {w}")
        out_mass[src] += w
    _require(max(out_mass.values(), default=0) <= 1 + FLOAT_TOL, "out-weights exceed 1")


def _read_jsonl(path: Path) -> tuple[dict, list[dict]]:
    _require(path.is_file(), f"{path.name} was not written")
    with open(path) as fh:
        meta = json.loads(fh.readline())["meta"]
        records = [json.loads(line) for line in fh if line.strip()]
    _provenance(meta, path)
    return meta, records


def trajectory(out: Path, stdout: str, *, steps: int, thin: int, state_check) -> None:
    """The expected records at the expected times, each passing state_check."""
    _, records = _read_jsonl(out / "trajectory.jsonl")
    times = list(range(0, steps + 1, thin))
    if times[-1] != steps:
        times.append(steps)
    _require(len(records) == len(times),
             f"trajectory has {len(records)} records, expected {len(times)}")
    _require([r["t"] for r in records] == times, "trajectory times are not 0, thin, 2 thin, ...")
    summary = json.loads((out / "summary.json").read_text())["data"]
    _require(len(summary["edge_counts"]) == len(records), "summary edge_counts length differs")
    for record in records:
        state_check(record["t"], int(record["state"], 16), record)


def binomial_band(m: int, p: float, after: int):
    """Edge count within 5 sigma of Binomial(m, p) from step `after` on."""
    mean, sigma = m * p, math.sqrt(m * p * (1 - p))

    def check(t: int, mask: int, record: dict) -> None:
        if t >= after:
            count = mask.bit_count()
            _require(abs(count - mean) <= 5 * sigma,
                     f"t={t}: {count} edges, outside {mean:.1f} +- 5*{sigma:.2f}")
    return check


def uniform_neighbourhoods(n: int, N: int, after: int):
    """Intersection model with uniform mu: each of the n left vertices has
    a neighbourhood size uniform on 0..N, so the edge count is within
    5 sigma of n*N/2 once every vertex has been redrawn."""
    mean, sigma = n * N / 2, math.sqrt(n * ((N + 1) ** 2 - 1) / 12)

    def check(t: int, mask: int, record: dict) -> None:
        _require(mask >> (n * N) == 0, f"t={t}: state sets bits beyond the {n}x{N} host")
        if t >= after:
            count = mask.bit_count()
            _require(abs(count - mean) <= 5 * sigma,
                     f"t={t}: {count} edges, outside {mean:.1f} +- 5*{sigma:.2f}")
    return check


def forest(n: int, after: int):
    """Moran states on K_n are forests once every vertex has been moved."""
    edges = list(combinations(range(n), 2))

    def check(t: int, mask: int, record: dict) -> None:
        if t < after:
            return
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        while mask:
            low = mask & -mask
            u, v = edges[low.bit_length() - 1]
            ru, rv = find(u), find(v)
            _require(ru != rv, f"t={t}: state has a cycle")
            parent[ru] = rv
            mask ^= low
    return check


def edge_lists(n: int):
    """The record's edge list is exactly the edges of its state on K_n."""
    edges = [list(e) for e in combinations(range(n), 2)]

    def check(t: int, mask: int, record: dict) -> None:
        expected = []
        while mask:
            low = mask & -mask
            expected.append(edges[low.bit_length() - 1])
            mask ^= low
        _require(record.get("edges") == expected, f"t={t}: edge list does not match the state")
    return check
