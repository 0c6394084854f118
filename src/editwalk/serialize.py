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


def write_json(path: Path | str, meta: dict, payload) -> None:
    """A payload that is an iterator is written element by element as a
    JSON list, laid out as `json.dumps(..., indent=2)` lays out the list."""
    if not isinstance(payload, Iterator):
        Path(path).write_text(json.dumps({"meta": meta, "data": payload}, indent=2) + "\n")
        return
    head = json.dumps({"meta": meta, "data": None}, indent=2)
    with open(path, "w") as fh:
        fh.write(head[: -len("null\n}")])
        sep = "[\n    "
        for item in payload:
            fh.write(sep + json.dumps(item, indent=2).replace("\n", "\n    "))
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
