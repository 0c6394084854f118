"""CSV / JSON / JSONL artifact writers and readers.

Every emitted file starts with a provenance header (version, seed, host
hash). CSV headers are '#'-prefixed key: value lines before the column
row; JSON payloads carry a "meta" object; JSONL streams start with a meta
record. Readers invert the writers so artifacts round-trip.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import __version__
from .hostgraph import HostGraph, host_to_json


def host_hash(g: HostGraph) -> str:
    payload = json.dumps(host_to_json(g), separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def artifact_meta(g: HostGraph | None = None, seed: int | None = None, **extra) -> dict:
    meta = {"version": __version__}
    if seed is not None:
        meta["seed"] = seed
    if g is not None:
        meta["host_hash"] = host_hash(g)
    meta.update(extra)
    return meta


def write_csv(path: Path | str, meta: dict, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Rows are written as they come."""
    with open(path, "w") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}: {value}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def read_csv(path: Path | str) -> tuple[dict, list[str], list[list[str]]]:
    meta: dict = {}
    lines = Path(path).read_text().splitlines()
    body_start = 0
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            body_start = i
            break
        key, _, value = line[1:].partition(":")
        meta[key.strip()] = value.strip()
    reader = csv.reader(lines[body_start:])
    table = [row for row in reader if row]
    return meta, table[0], table[1:]


_SCALARS = {str, int, float, bool, type(None)}


def _dumps_indent2(obj, depth: int = 0) -> str:
    """`json.dumps(obj, indent=2)` byte for byte, for a value nested `depth`
    levels deep. `json` lays out indented values with its pure-Python
    encoder; here every list of scalars goes through the C encoder, with
    the newline and indent of each item as its item separator."""
    pad = "\n" + "  " * (depth + 1)
    if isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) <= _SCALARS:
            body = json.dumps(obj, separators=("," + pad, ": "))[1:-1]
        else:
            body = ("," + pad).join(_dumps_indent2(x, depth + 1) for x in obj)
        return "[" + pad + body + pad[:-2] + "]"
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        body = ("," + pad).join(json.dumps(k) + ": " + _dumps_indent2(v, depth + 1) for k, v in obj.items())
        return "{" + pad + body + pad[:-2] + "}"
    return json.dumps(obj, indent=2).replace("\n", "\n" + "  " * depth)


def write_json(path: Path | str, meta: dict, payload) -> None:
    """Written as `json.dumps(..., indent=2)` lays it out. A payload that
    is an iterator is written element by element as a JSON list."""
    if not isinstance(payload, Iterator):
        Path(path).write_text(_dumps_indent2({"meta": meta, "data": payload}) + "\n")
        return
    head = _dumps_indent2({"meta": meta, "data": None})
    with open(path, "w") as fh:
        fh.write(head[: -len("null\n}")])
        sep = "[\n    "
        for item in payload:
            fh.write(sep + _dumps_indent2(item, 2))
            sep = ",\n    "
        fh.write("[]\n}\n" if sep == "[\n    " else "\n  ]\n}\n")


def read_json(path: Path | str) -> tuple[dict, object]:
    obj = json.loads(Path(path).read_text())
    return obj["meta"], obj["data"]


def write_jsonl(path: Path | str, meta: dict, records: Iterable[dict | str]) -> None:
    """One JSON value per line after the meta record. Records are consumed
    as they come; a dict is encoded with `json.dumps`, a str is taken as an
    already-encoded record and written verbatim."""
    with open(path, "w") as fh:
        fh.write(json.dumps({"meta": meta}) + "\n")
        for record in records:
            fh.write((record if isinstance(record, str) else json.dumps(record)) + "\n")


def read_jsonl(path: Path | str) -> tuple[dict, list[dict]]:
    with open(path) as fh:
        first = json.loads(fh.readline())
        records = [json.loads(line) for line in fh if line.strip()]
    return first["meta"], records
