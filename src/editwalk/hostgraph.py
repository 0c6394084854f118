"""Immutable host graph and bitmask edge sets.

The host graph fixes a canonical edge indexing (edges sorted by
(min endpoint, max endpoint)); every other module speaks edge indices.
An EdgeSet is one state as the public functions take it (a walk's start,
the states of `commute_time` or `phi`): a bitmask over those indices that
knows its edge count. It carries no set algebra, since the engine reads
only its mask; masks combine with |, & and ~. Collections of states are
sorted mask arrays (dtype `mask_dtype(m)`), searched with `find_masks`.
Sequences of masks, such as a trajectory's recorded states, are decoded
together by `set_bits`, in numpy, block by block; `forest_flags` tests each
mask for a cycle (a list of one mask tests one state).

Enumeration APIs elsewhere count the 2^m states against a cap
(`errors.check_cap`); EdgeSet itself places no limit on m (Python ints are
arbitrary precision), so simulation works on hosts of any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DuplicateEdge,
    EdgeOutOfRange,
    HostMismatch,
    SelfLoop,
    ValidationError,
    VertexOutOfRange,
    check_cap,
    check_keys,
)

DECODE_BITS = 1 << 16  # mask bits unpacked per numpy step of `set_bits`


def mask_dtype(m: int):
    """Array dtype of edge masks on m host edges: uint64, or Python ints past 64."""
    return np.uint64 if m <= 64 else object


def _popcount(masks: np.ndarray) -> np.ndarray:
    """Set bits of every mask, as int64."""
    if masks.dtype == object:
        return np.array([int(x).bit_count() for x in masks], dtype=np.int64)
    return np.bitwise_count(masks).astype(np.int64)


def find_masks(masks: np.ndarray, values):
    """Index of each value in the ascending array `masks` by binary search,
    or -1 where it is absent; a scalar value gives an int."""
    at = np.minimum(np.searchsorted(masks, values), max(len(masks) - 1, 0))
    at = np.where(masks[at] == values, at, -1) if len(masks) else np.full_like(at, -1)
    return int(at) if np.ndim(at) == 0 else at


def _new_masks(batches, seen: np.ndarray, cap: int, what: str) -> tuple[np.ndarray, ...]:
    """The distinct masks not in the ascending array `seen` among the rows
    that `batches` yields as they are made (tuples of equal-length arrays,
    masks first), ascending, each row as its first occurrence. The rows left
    are counted as they arrive and merged to distinct ones only when
    len(seen) plus their count passes `cap`; later rows are then also checked
    against the merged ones. So at most `cap` rows and one batch are held,
    and CapExceeded names `what` once len(seen) plus the distinct rows
    passes `cap`."""
    held, count, merged = [], 0, None
    for batch in batches:
        keep = find_masks(seen, batch[0]) < 0
        if merged is not None:
            keep &= find_masks(merged[0], batch[0]) < 0
        held.append(tuple(a[keep] for a in batch))
        count += len(held[-1][0])
        if len(seen) + count > cap:
            merged = _first_rows(held)
            held, count = [merged], len(merged[0])
            check_cap(len(seen) + count, cap, what)
    return _first_rows(held)


def _first_rows(held: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """The rows of `held` with distinct masks (the first column), ascending,
    each its first occurrence; a stable sort, not np.unique, which imports numpy.ma."""
    columns = [np.concatenate(a) for a in zip(*held)]
    order = np.argsort(columns[0], kind="stable")
    keys = columns[0][order]
    first = order[np.append(True, keys[1:] != keys[:-1])[:len(keys)]]
    return tuple(a[first] for a in columns)


@dataclass(frozen=True)
class EdgeSet:
    """Subset of host edges, stored as a bitmask over edge indices."""

    m: int
    mask: int = 0

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValidationError(f"edge count must be non-negative, got {self.m}")
        if self.mask < 0 or self.mask >> self.m:
            raise EdgeOutOfRange(
                f"mask {self.mask:#x} sets bits outside the {self.m} host edges"
            )

    @classmethod
    def empty(cls, m: int) -> "EdgeSet":
        return cls(m, 0)

    @classmethod
    def full(cls, m: int) -> "EdgeSet":
        return cls(m, (1 << m) - 1)

    @classmethod
    def from_indices(cls, m: int, indices: Iterable[int]) -> "EdgeSet":
        mask = 0
        for e in indices:
            if not 0 <= e < m:
                raise EdgeOutOfRange(f"edge index {e} not in [0, {m})")
            mask |= 1 << e
        return cls(m, mask)

    def mask_on(self, m: int) -> int:
        """The mask of a set on a host of m edges; another host raises HostMismatch."""
        if self.m != m:
            raise HostMismatch(f"edge counts differ: {self.m} != {m}")
        return self.mask

    def indices(self) -> tuple[int, ...]:
        """Set edge indices in increasing order, one step per set bit."""
        out, mask = [], self.mask
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)

    def hex(self) -> str:
        return format(self.mask, "#x")

    def __repr__(self) -> str:
        return f"EdgeSet(m={self.m}, {{{', '.join(map(str, self.indices()))}}})"


@dataclass(frozen=True)
class HostGraph:
    """Fixed host graph with canonical lexicographic edge indexing."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {e: i for i, e in enumerate(self.edges)}

    def index_of(self, u: int, v: int) -> int:
        key = (u, v) if u < v else (v, u)
        try:
            return self.edge_index[key]
        except KeyError:
            raise EdgeOutOfRange(f"{{{u}, {v}}} is not a host edge") from None

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v} not in [0, {self.n})")
        return sum(1 for e in self.edges if v in e)

    def empty_set(self) -> EdgeSet:
        return EdgeSet.empty(self.m)

    def full_set(self) -> EdgeSet:
        return EdgeSet.full(self.m)

    def __repr__(self) -> str:
        return f"HostGraph(n={self.n}, m={self.m})"


def from_edge_list(n: int, pairs: Iterable[Iterable[int]]) -> HostGraph:
    """Build a host graph from vertex pairs, canonicalizing edge order.

    Rejects self-loops, endpoints outside [0, n), and duplicate pairs.
    """
    if n < 1:
        raise VertexOutOfRange(f"vertex count must be positive, got {n}")
    normalized: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for pair in pairs:
        u, v = sorted(pair)
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        if u < 0 or v >= n:
            raise VertexOutOfRange(f"edge {{{u}, {v}}} has endpoint outside [0, {n})")
        if (u, v) in seen:
            raise DuplicateEdge(f"edge {{{u}, {v}}} appears more than once")
        seen.add((u, v))
        normalized.append((u, v))
    normalized.sort()
    return HostGraph(n, tuple(normalized))


def complete_graph(n: int) -> HostGraph:
    """K_n: all n(n-1)/2 vertex pairs."""
    if n < 1:
        raise VertexOutOfRange(f"vertex count must be positive, got {n}")
    return HostGraph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def complete_bipartite(a: int, b: int) -> HostGraph:
    """K_{a,b}: left vertices 0..a-1, right vertices a..a+b-1, all a*b edges."""
    if a < 1 or b < 1:
        raise VertexOutOfRange(f"both sides must be non-empty, got ({a}, {b})")
    return HostGraph(a + b, tuple((u, a + v) for u in range(a) for v in range(b)))


def set_bits(masks: Sequence[int], m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every set bit of the int masks on m edges, as (rows, cols) in row-major
    order: bit cols[i] of masks[rows[i]] is set. The masks are packed into
    one little-endian byte string, which is unpacked at most DECODE_BITS bits
    at a time, so the unpacked bits take O(DECODE_BITS) memory for any m."""
    width = (m + 7) // 8
    data = np.frombuffer(b"".join(mask.to_bytes(width, "little") for mask in masks), np.uint8)
    step = max(1, DECODE_BITS // 8)
    hits = [np.zeros(0, np.int64)] + [
        8 * start + np.flatnonzero(np.unpackbits(data[start:start + step], bitorder="little").view(bool))
        for start in range(0, len(data), step)
    ]
    return np.divmod(np.concatenate(hits), 8 * width)


def mask_blocks(masks: Sequence[int], m: int) -> Iterator[Sequence[int]]:
    """Consecutive slices of `masks` of about DECODE_BITS bits (at least one
    mask each), so that decoding many masks a slice at a time keeps memory
    independent of their number."""
    step = max(1, DECODE_BITS // max(m, 1))
    return (masks[start:start + step] for start in range(0, len(masks), step))


def forest_flags(g: HostGraph, masks: Sequence[int]) -> np.ndarray:
    """For each int mask on g's edges, whether the subgraph it selects has no
    cycle: a union-find over the mask's set bits, up to the first edge whose ends
    share a root. Fewer than n unions come first, so finds need no path compression."""
    flags = np.ones(len(masks), bool)
    for row, mask in enumerate(masks):
        root = list(range(g.n))
        while mask:
            low = mask & -mask
            u, v = g.edges[low.bit_length() - 1]
            while root[u] != u:
                u = root[u]
            while root[v] != v:
                v = root[v]
            if u == v:
                flags[row] = False
                break
            root[u] = v
            mask ^= low
    return flags


def host_from_json(obj: dict) -> HostGraph:
    """Parse the CLI host schema.

    Either {"n": int, "edges": [[u, v], ...]} or
    {"preset": "complete" | "bipartite", "params": [...]}.
    """
    if not isinstance(obj, dict):
        raise ValidationError("host spec must be a JSON object")
    if "preset" in obj:
        check_keys(obj, "host", ("preset", "params"))
        preset = obj["preset"]
        params = obj.get("params", [])
        if not isinstance(params, list) or not all(map(is_integer, params)):
            raise ValidationError(f"host.params: expected integers, got {params!r}")
        params = [int(x) for x in params]
        if preset == "complete":
            if len(params) != 1:
                raise ValidationError('host.preset "complete" takes params [n]')
            return complete_graph(params[0])
        if preset == "bipartite":
            if len(params) != 2:
                raise ValidationError('host.preset "bipartite" takes params [a, b]')
            return complete_bipartite(*params)
        raise ValidationError(f"unknown host preset {preset!r}")
    if "n" not in obj or "edges" not in obj:
        raise ValidationError('host spec needs "n" and "edges" (or a "preset")')
    check_keys(obj, "host", ("n", "edges"))
    n, edges = obj["n"], obj["edges"]
    if not is_integer(n):
        raise ValidationError(f"host.n: expected an integer, got {n!r}")
    if not isinstance(edges, list):
        raise ValidationError(f"host.edges: expected a list of [u, v] pairs, got {edges!r}")
    for i, pair in enumerate(edges):
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(is_integer, pair))):
            raise ValidationError(f"host.edges[{i}]: expected a [u, v] pair of integers, got {pair!r}")
    return from_edge_list(int(n), ([int(u), int(v)] for u, v in edges))


def is_integer(value) -> bool:
    """A config integer: integral floats such as 1e5 count, booleans do not."""
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


def host_to_json(g: HostGraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}
