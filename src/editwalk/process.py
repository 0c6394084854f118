"""Driving distributions over edits and seeded trajectory simulation.

Built-in models:

* simple per-edge updates: pick an edge uniformly, force it present with
  its edge probability or absent otherwise (weights p_e/m and (1-p_e)/m);
* neighborhood resampling ("Moran" updates): pick an oriented edge (u, v)
  uniformly, detach u everywhere, reattach it to v;
* bipartite neighborhood reassignment ("intersection" updates): pick a
  left vertex uniformly and redraw its whole right neighborhood, first a
  size from mu then a uniform subset of that size.

Weights stay exact Fractions when the inputs are rational. A distribution
is its edits as two mask arrays, `plus` and `minus` (uint64 up to 64
edges, Python ints above), and their `weights`: the builders, and the
CLI's parser of custom edit text, write the arrays directly, validation
reads them in numpy, and the sampler and every enumeration read them;
the `items` view lists them as (plus, minus, weight) triples. Its
grouping by support and its integer weights are built once and shared
(`support_groups`, `integer_weights`).
Edits do not depend on the state, so one kernel (`_walk`, behind
`simulate`) draws them ahead in numpy blocks, from a Vose alias table or
the lazy closed form, and applies them to raw bitmasks. Block sizes
depend only on the distribution, so a trajectory is reproducible from
(seed, stream, sampler) via numpy's PCG64; SAMPLER_VERSION names the draws.

Between two recorded states the kernel applies only the reduced word: edits
form a left regular band, x y = x whenever supp(y) is inside supp(x), so an
edit is wiped out by any later edit on the same support, and only the last
edit on each distinct support acts; an edit's support id is its support's
rank in `support_groups`. When the supports are aligned blocks (support k
is edges [k*width, (k+1)*width), as in the simple and intersection models)
those edits commute, and a reduced word of at least COMPOSE_MIN_WRITERS of
them is laid down block by block as one composite (plus, minus) pair
(`_block_composites`); shorter words and other families act in step order
on the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, ClassVar, Iterable, Sequence

import numpy as np

from .errors import (
    STATE_CAP,
    BadDistribution,
    EdgeOutOfRange,
    EmptyEdgeSet,
    LengthMismatch,
    ProbabilityOutOfRange,
    ValidationError,
    check_cap,
)
from .hostgraph import EdgeSet, HostGraph, complete_bipartite, mask_dtype, set_bits

WEIGHT_SUM_TOL = 1e-12
SAMPLER_VERSION = 2  # block-drawn edits; version 1 drew one edit per step
BLOCK = 4096  # edits per block draw of an explicit distribution
LAZY_BLOCK_CELLS = 1 << 13  # bound on rows * N of a lazy intersection block
LAZY_PASS_BITS = 1 << 23  # bound on rows * m of the lazy draws one walk pass reads
# Fewest draws between two records that the walk kernel reduces, and fewest
# commuting writers it packs into one composite edit; below it the int fold
# is faster (measured on simple K10-K100 and explicit intersection 4x6).
COMPOSE_MIN_WRITERS = 16


def _is_exact(value) -> bool:
    return isinstance(value, (Fraction, int))


def _kron(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of per-edge factors (vectors or matrices) in which
    factor e sets bit e of every index, so each entry multiplies its factors
    in ascending e. Object arrays keep Fractions exact."""
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(f, out)
    return out


def _common_denominator(values) -> tuple[np.ndarray, int]:
    """Values as Python-int numerators over their least common denominator;
    a float is read as the exact ratio it stores."""
    ratios = [v if _is_exact(v) else Fraction(v) for v in values]
    den = math.lcm(*(r.denominator for r in ratios))
    return np.array([r.numerator * (den // r.denominator) for r in ratios], dtype=object), den


class AliasSampler:
    """Vose alias method: O(n) setup, O(1) per draw, deterministic given rng.

    `draw(rng, size)` draws a block of indices with two vectorized rng calls,
    so the indices depend on (seed, stream, sampler) and on the block sizes.
    """

    def __init__(self, weights: Sequence[float]):
        n = len(weights)
        scaled = [float(w) * n for w in weights]
        self.prob = np.ones(n)  # entries never filled below keep all their mass
        self.alias = np.arange(n)
        small = [i for i, s in enumerate(scaled) if s < 1.0]
        large = [i for i, s in enumerate(scaled) if s >= 1.0]
        while small and large:
            s, g = small.pop(), large.pop()
            self.prob[s] = scaled[s]
            self.alias[s] = g
            scaled[g] = (scaled[g] + scaled[s]) - 1.0
            (small if scaled[g] < 1.0 else large).append(g)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        i = rng.integers(len(self.prob), size=size)
        return np.where(rng.random(size) < self.prob[i], i, self.alias[i])


def _row_ints(packed: np.ndarray) -> list[int]:
    """Each row of a uint8 matrix as a little-endian Python int."""
    nbytes = packed.shape[1]
    if nbytes <= 8:  # one uint64 per row converts far faster
        wide = np.zeros((len(packed), 8), np.uint8)
        wide[:, :nbytes] = packed
        return wide.view("<u8").ravel().tolist()
    data = packed.tobytes()
    return [int.from_bytes(data[i:i + nbytes], "little") for i in range(0, len(data), nbytes)]


@dataclass(frozen=True)
class LazySpec:
    """Closed-form sampler for distributions too large to enumerate, whose
    edits each rewrite one of `blocks` disjoint edge blocks, block v being
    edges [v*width, (v+1)*width).

    `draw(rng, size)` returns `size` edits (at most `block`) as the block
    index v of each and a (size, width) bool array of the block edges each
    forces present; each forces the rest of its block absent. The block
    index is the edit's support id for the walk kernel. `sizes` lists the
    numbers of present edges an edit can leave in its block (those with
    positive mass); every subset of such a size can be drawn."""

    draw: Callable[[np.random.Generator, int], tuple[np.ndarray, np.ndarray]]
    blocks: int
    width: int
    sizes: np.ndarray
    block: int = BLOCK
    disjoint: ClassVar[bool] = True

    def take(self, rng: np.random.Generator, left: int) -> tuple[np.ndarray, np.ndarray]:
        """The next draws of a walk with `left` steps to go: whole blocks, up
        to BLOCK rows and LAZY_PASS_BITS // m rows (at least one block)."""
        rows = min(BLOCK, LAZY_PASS_BITS // (self.blocks * self.width)) // self.block * self.block
        rows = max(self.block, rows)
        parts = [self.draw(rng, min(self.block, left - t)) for t in range(0, min(left, rows), self.block)]
        return np.concatenate([star for star, _ in parts]), np.concatenate([bits for _, bits in parts])

    def masks(self, star: np.ndarray, bits: np.ndarray, rows: np.ndarray) -> tuple[list[int], list[int]]:
        """The drawn edits at `rows` as (plus, minus) lists of Python ints."""
        local = _row_ints(np.packbits(bits[rows], axis=1, bitorder="little"))
        full, shifts = (1 << self.width) - 1, (star[rows] * self.width).tolist()
        return [a << s for a, s in zip(local, shifts)], [(full ^ a) << s for a, s in zip(local, shifts)]

    def composites(self, star: np.ndarray, bits: np.ndarray, rows: np.ndarray, group: np.ndarray,
                   count: int) -> tuple[list[int], list[int]]:
        """`_block_composites` of the draws at `rows`, rows[i] joining composite group[i]."""
        return _block_composites(self.blocks, self.width, star[rows], bits[rows], group, count)


def _block_composites(blocks: int, width: int, star: np.ndarray, bits: np.ndarray, group: np.ndarray,
                      count: int) -> tuple[list[int], list[int]]:
    """(plus, minus) ints of `count` composite edits on `blocks` blocks of
    `width` edges: draw i writes block star[i] of composite group[i] whole, as
    bits[i] present and the rest absent; a composite's draws write distinct blocks."""
    packed = np.zeros((2, count, blocks, width), bool)  # plus, then minus, of each composite
    packed[0, group, star] = bits
    packed[1, group, star] = ~bits
    ints = _row_ints(np.packbits(packed.reshape(2 * count, -1), axis=1, bitorder="little"))
    return ints[:count], ints[count:]


class _EditTable:
    """What the walk kernel reads of an explicit distribution: a Vose alias
    table over its edits and each edit's support id (its rank in
    `support_groups`). When the supports are aligned blocks, support k being
    edges [k*width, (k+1)*width), `disjoint` is set and it keeps each edit's
    in-block plus as an (edits, width) bool array `bits` for `composites`."""

    def __init__(self, dist: WeightedEdits):
        self.sampler = AliasSampler(dist.weights)
        self.plus, self.minus = dist.plus, dist.minus
        supports, _, self.sid = dist.support_groups
        supports = supports.tolist()
        self.blocks, self.width = len(supports), supports[0].bit_length()
        full = (1 << self.width) - 1
        self.disjoint = self.width > 0 and supports == [full << k * self.width for k in range(self.blocks)]
        if self.disjoint:
            shift = (self.sid * self.width).astype(self.plus.dtype)
            rows, cols = set_bits((self.plus >> shift & full).tolist(), self.width)
            self.bits = np.zeros((len(self.sid), self.width), bool)
            self.bits[rows, cols] = True

    def take(self, rng: np.random.Generator, left: int) -> tuple[np.ndarray, np.ndarray]:
        """The next block of a walk with `left` steps to go: the support ids
        and edit indices of min(BLOCK, left) edits drawn by weight."""
        index = self.sampler.draw(rng, min(BLOCK, left))
        return self.sid[index], index

    def masks(self, sid: np.ndarray, index: np.ndarray, rows: np.ndarray) -> tuple[list[int], list[int]]:
        """The drawn edits at `rows` as (plus, minus) lists of Python ints."""
        return self.plus[index[rows]].tolist(), self.minus[index[rows]].tolist()

    def composites(self, sid: np.ndarray, index: np.ndarray, rows: np.ndarray, group: np.ndarray,
                   count: int) -> tuple[list[int], list[int]]:
        """`_block_composites` of the draws at `rows`, rows[i] joining composite group[i]."""
        return _block_composites(self.blocks, self.width, sid[rows], self.bits[index[rows]], group, count)


@dataclass(frozen=True, eq=False)
class WeightedEdits:
    """Finite probability distribution over edits driving the walk.

    Edit k forces plus[k] in and minus[k] out and has weight weights[k]; the
    mask arrays have dtype `mask_dtype(m)`. A lazy distribution has empty
    arrays and draws its edits from `lazy`."""

    m: int
    plus: np.ndarray
    minus: np.ndarray
    weights: tuple
    lazy: LazySpec | None = None

    def __post_init__(self) -> None:
        try:
            plus, minus = (np.array(a, mask_dtype(self.m)) for a in (self.plus, self.minus))
        except OverflowError:  # a negative mask, or one past 64 bits in uint64
            raise EdgeOutOfRange(f"edit touches edges outside the {self.m} host edges") from None
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)
        object.__setattr__(self, "weights", tuple(self.weights))
        if not len(plus) == len(minus) == len(self.weights):
            raise LengthMismatch("plus, minus and weights differ in length")
        if self.lazy is None and not self.weights:
            raise BadDistribution("explicit distribution needs at least one edit")
        overlap = plus & minus
        if overlap.any():
            raise ValidationError(f"plus and minus masks overlap on {int(overlap[overlap != 0][0]):#x}")
        if len(plus) and any(a.min() < 0 or int(a.max()) >> self.m for a in (plus, minus)):
            raise EdgeOutOfRange(f"edit touches edges outside the {self.m} host edges")
        if self.lazy is not None:
            return
        nums, den = self.integer_weights if self.is_exact else (self.weights, 1)
        if not min(nums) > 0:
            bad = next(w for w in self.weights if not w > 0)
            raise BadDistribution(f"weight {bad} is not strictly positive")
        total = sum(nums)
        if self.is_exact and total != den:
            raise BadDistribution(f"weights sum to {Fraction(total, den)}, expected exactly 1")
        if not self.is_exact and not abs(float(total) - 1.0) <= WEIGHT_SUM_TOL:
            raise BadDistribution(f"weights sum to {float(total)!r}, expected 1")

    @cached_property
    def items(self) -> tuple[tuple[int, int, object], ...]:
        """The (plus, minus, weight) triples as Python ints, built when first read."""
        return tuple(zip(self.plus.tolist(), self.minus.tolist(), self.weights))

    @property
    def is_lazy(self) -> bool:
        return self.lazy is not None

    @cached_property
    def is_exact(self) -> bool:
        return not self.is_lazy and all(map(_is_exact, self.weights))

    @property
    def supports(self) -> np.ndarray:
        """Support mask of every edit, in item order; an edit with an empty
        sign shares its Python-int mask rather than copying it."""
        if self.plus.dtype != object:
            return self.plus | self.minus
        return np.frompyfunc(lambda p, q: p | q if p and q else p or q, 2, 1)(self.plus, self.minus)

    @cached_property
    def support_groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edits grouped by support, read-only: the distinct supports in
        ascending order, the first edit on each, and each edit's support rank."""
        groups = np.unique(self.supports, return_index=True, return_inverse=True)
        for a in groups:
            a.flags.writeable = False
        return groups

    @cached_property
    def integer_weights(self) -> tuple[np.ndarray, int]:
        """The weights as Python-int numerators over one denominator."""
        return _common_denominator(self.weights)

    @cached_property
    def _table(self) -> LazySpec | _EditTable:
        """The walk kernel's view of the edits, built on the first walk."""
        return self.lazy if self.lazy is not None else _EditTable(self)


def simple_edit_weights(g: HostGraph, p) -> WeightedEdits:
    """Per-edge distribution: force edge e present with weight p_e/m and
    absent with weight (1-p_e)/m, so each edge is examined uniformly.
    Edit 2e forces edge e in, edit 2e + 1 forces it out."""
    probs = _per_edge_probabilities(g, p)
    m = g.m
    bits = np.array([1 << e for e in range(m)], mask_dtype(m))
    plus, minus = np.zeros(2 * m, bits.dtype), np.zeros(2 * m, bits.dtype)
    plus[0::2] = minus[1::2] = bits
    weights = [None] * (2 * m)
    weights[0::2], weights[1::2] = [pe / m for pe in probs], [(1 - pe) / m for pe in probs]
    return WeightedEdits(m, plus, minus, weights)


def _per_edge_probabilities(g: HostGraph, p) -> list:
    if g.m == 0:
        raise EmptyEdgeSet("host graph has no edges")
    scalar = not isinstance(p, (Sequence, np.ndarray))
    probs = [p] if scalar else list(p)
    if not scalar and len(probs) != g.m:
        raise ValidationError(f"expected {g.m} edge probabilities, got {len(probs)}")
    for e, pe in enumerate(probs):  # a broadcast scalar is checked once
        if not 0 < pe < 1:
            raise ProbabilityOutOfRange(f"p[{e}] = {pe} is outside (0, 1)")
    return probs * g.m if scalar else probs


def moran_weights(g: HostGraph) -> WeightedEdits:
    """Neighborhood-resampling distribution: one edit per oriented edge (u, v),
    clearing every edge at u and then restoring {u, v}, with weight 1/(2m)."""
    if g.m == 0:
        raise EmptyEdgeSet("host graph has no edges")
    m = g.m
    plus = np.repeat(np.array([1 << e for e in range(m)], mask_dtype(m)), 2)
    source = np.array(g.edges).ravel()  # edit 2e has source u, edit 2e + 1 source v
    stars = np.zeros(g.n, plus.dtype)
    np.bitwise_or.at(stars, source, plus)
    return WeightedEdits(m, plus, stars[source] & ~plus, [Fraction(1, 2 * m)] * (2 * m))


def intersection_weights(
    n: int,
    N: int,
    mu: Sequence,
    mode: str = "explicit",
    cap: int = STATE_CAP,
) -> WeightedEdits:
    """Neighborhood reassignment on the complete bipartite host K_{n,N}.

    One edit per (left vertex v, right subset A): it rewires v's whole right
    neighborhood to be exactly A. Weights follow "uniform vertex, size from
    mu, uniform subset of that size": w = (1/n) * mu(|A|) / C(N, |A|).

    Host convention: ground vertices are 0..n-1, attribute vertices n..n+N-1,
    as produced by complete_bipartite(n, N); the edges at left vertex v are
    the contiguous index block [v*N, (v+1)*N).
    """
    if n < 1 or N < 1:
        raise ValidationError(f"need n, N >= 1, got ({n}, {N})")
    mu = list(mu)
    if len(mu) != N + 1:
        raise BadDistribution(f"mu must have {N + 1} entries, got {len(mu)}")
    if any(x < 0 for x in mu):
        raise BadDistribution("mu has negative entries")
    total = sum(mu)
    if _is_exact(total):
        if total != 1:
            raise BadDistribution(f"mu sums to {total}, expected exactly 1")
    elif abs(float(total) - 1.0) > WEIGHT_SUM_TOL:
        raise BadDistribution(f"mu sums to {float(total)!r}, expected 1")

    m = n * N
    if mode == "lazy":
        size_probs = np.array([float(x) for x in mu])
        sizes = np.flatnonzero(size_probs)  # a zero-mass size is never drawn
        cdf = np.cumsum(size_probs[sizes]) / size_probs.sum()

        def draw(rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
            star = rng.integers(n, size=size)
            k = sizes[np.searchsorted(cdf[:-1], rng.random(size), side="right")]
            # the k lowest-ranked of N uniforms are a uniform k-subset: scatter
            # "rank < k" back through each row's sort order
            order = rng.random((size, N)).argsort(axis=1)
            bits = np.empty((size, N), bool)
            np.put_along_axis(bits, order, np.arange(N) < k[:, None], axis=1)
            return star, bits

        return WeightedEdits(m, (), (), (), LazySpec(draw, n, N, sizes, max(1, LAZY_BLOCK_CELLS // N)))

    if mode != "explicit":
        raise ValidationError(f"mode must be 'explicit' or 'lazy', got {mode!r}")
    check_cap(n << N, cap, f"{n}*2^{N} explicit intersection edits")
    by_size = [Fraction(x, n * math.comb(N, k)) if _is_exact(x) else float(x) / (n * math.comb(N, k))
               for k, x in enumerate(mu)]
    # edit (v, A) rewires left vertex v to the right set A: right vertex u is
    # edge v*N + u, so the edit is A and its complement in block v
    local = np.arange(1 << N, dtype=np.int64)
    weight = np.array(by_size, dtype=object)[np.bitwise_count(local)]
    local = local[weight != 0].astype(mask_dtype(m))
    plus = np.concatenate([local << v * N for v in range(n)])
    minus = np.concatenate([(((1 << N) - 1) ^ local) << v * N for v in range(n)])
    return WeightedEdits(m, plus, minus, weight[weight != 0].tolist() * n)


def intersection_host(n: int, N: int) -> HostGraph:
    """The host graph paired with intersection_weights(n, N, ...)."""
    return complete_bipartite(n, N)


@dataclass(frozen=True)
class Trajectory:
    """Thinned record of a simulated walk, reproducible from its seed. The
    recorded states are kept as their masks, the initial state first."""

    initial: EdgeSet
    masks: tuple[int, ...]
    seed: int
    steps: int
    thin: int = 1

    @property
    def times(self) -> list[int]:
        """The step count of each recorded state, 0 for the initial one."""
        return [0, *_record_times(self.steps, self.thin)]

    def edge_counts(self) -> list[int]:
        return [mask.bit_count() for mask in self.masks]


def _record_times(steps: int, thin: int) -> list[int]:
    """The step counts after which `simulate` records a state: every
    `thin`-th, and the last."""
    return [*range(thin, steps, thin), steps] if steps else []


def make_rng(seed: int, stream: int | None = None) -> np.random.Generator:
    """Deterministic generator; independent chains pass distinct streams."""
    return np.random.default_rng(seed if stream is None else [seed, stream])


def _reduced_ops(table, sid: np.ndarray, draws, ends: np.ndarray) -> tuple[Sequence[int], Sequence[int], np.ndarray]:
    """The (plus, minus) ints a pass applies in order, and whether the state
    after each is recorded. The record times `ends` (as draw counts) cut the
    pass into segments; each segment keeps its reduced word, the last draw
    on each support id, found by one sort of (segment, support, step) keys.
    A reduced word of at least COMPOSE_MIN_WRITERS draws on aligned block
    supports becomes one composite edit."""
    size = len(sid)
    segment = np.cumsum(np.bincount(ends, minlength=size)[:size])
    shift = size.bit_length()
    keys = np.sort((segment * (int(sid.max()) + 1) + sid) << shift | np.arange(size))
    key, step = keys >> shift, keys & ((1 << shift) - 1)
    keep = np.zeros(size, bool)
    keep[step[np.append(key[1:] != key[:-1], True)]] = True
    rows = np.flatnonzero(keep)
    segment = segment[rows]
    last = np.append(segment[1:] != segment[:-1], True)
    record = last & (segment < len(ends))
    composed = np.zeros(len(rows), bool)
    if table.disjoint:
        composed = np.bincount(segment)[segment] >= COMPOSE_MIN_WRITERS
    keep = ~composed | last  # a composite acts at its segment's last draw
    plus, minus = table.masks(sid, draws, rows[keep])
    if composed.any():
        closed = composed & last
        group = (np.cumsum(closed) - closed)[composed]
        cplus, cminus = table.composites(sid, draws, rows[composed], group, int(closed.sum()))
        for i, p, q in zip(np.flatnonzero(closed[keep]).tolist(), cplus, cminus):
            plus[i], minus[i] = p, q
    return plus, minus, record[keep]


def _walk(dist: WeightedEdits, initial: EdgeSet, times: Sequence[int], rng: np.random.Generator) -> list[int]:
    """Masks of the walk from `initial` after each of the increasing step
    counts in `times`.

    Edits are drawn in blocks sized by `dist` alone, so the draws do not
    depend on `times`; a pass reads one or more whole blocks. A pass whose
    record times leave a segment of COMPOSE_MIN_WRITERS draws or more
    applies reduced words (`_reduced_ops`); in one whose segments are all
    shorter, reduction could drop next to nothing, and every draw acts in
    step order on the state, a raw int."""
    steps = times[-1] if times else 0
    table = dist._table
    times = np.asarray(times, np.int64)
    state, masks, start = initial.mask_on(dist.m), [], 0
    while start < steps:
        sid, draws = table.take(rng, steps - start)
        size = len(sid)
        ends = times[np.searchsorted(times, start, "right"):np.searchsorted(times, start + size, "right")] - start
        if np.diff(ends, prepend=0, append=size).max() >= COMPOSE_MIN_WRITERS:
            plus, minus, record = _reduced_ops(table, sid, draws, ends)
        else:
            plus, minus = table.masks(sid, draws, slice(None))
            record = np.zeros(size, bool)
            record[ends - 1] = True
        for p, q, r in zip(plus, minus, record.tobytes()):  # bytes iterate as 0/1 ints
            state = (state | p) & ~q
            if r:
                masks.append(state)
        start += size
    return masks


def simulate(
    dist: WeightedEdits,
    initial: EdgeSet,
    steps: int,
    seed: int = 0,
    thin: int = 1,
    stream: int | None = None,
) -> Trajectory:
    """Run the walk for `steps` edits, recording every `thin`-th state.

    The initial state is always recorded, and so is the final state even
    when `steps` is not a multiple of `thin`. The states do not depend on
    `thin`: a thinned run records a subsequence of the unthinned one.
    """
    if steps < 0:
        raise ValidationError(f"step count must be >= 0, got {steps}")
    if thin < 1:
        raise ValidationError(f"thin must be >= 1, got {thin}")
    masks = _walk(dist, initial, _record_times(steps, thin), make_rng(seed, stream))
    return Trajectory(initial, (initial.mask, *masks), seed, steps, thin)


def erdos_renyi_probabilities(g: HostGraph, p) -> list:
    """Uniform edge probability, one value per host edge."""
    if not 0 < p < 1:
        raise ProbabilityOutOfRange(f"p = {p} is outside (0, 1)")
    return [p] * g.m


def chung_lu_probabilities(g: HostGraph, expected_degrees: Sequence) -> list:
    """Expected-degree model: p_uv = k_u k_v / sum(k), per host edge.

    Requires max(k)^2 <= sum(k) so every probability stays at most 1.
    """
    k = list(expected_degrees)
    if len(k) != g.n:
        raise ValidationError(f"expected {g.n} degrees, got {len(k)}")
    total = sum(k)
    if total <= 0 or any(x <= 0 for x in k):
        raise ValidationError("expected degrees must be positive")
    if max(k) * max(k) > total:
        raise ProbabilityOutOfRange(
            "max expected degree exceeds sqrt(sum of degrees)"
        )
    probs = []
    for u, v in g.edges:
        pe = k[u] * k[v] / total if not (_is_exact(k[u]) and _is_exact(k[v]) and _is_exact(total)) else Fraction(k[u] * k[v], total)
        if not 0 < pe < 1:
            raise ProbabilityOutOfRange(f"p[{u},{v}] = {pe} is outside (0, 1)")
        probs.append(pe)
    return probs


def block_probabilities(g: HostGraph, block: Iterable[int], p_in, p_out) -> list:
    """Two-block model: probability p_in inside a block, p_out across."""
    members = set(block)
    if not members or members == set(range(g.n)):
        raise ValidationError("block must be a proper non-empty vertex subset")
    if not members <= set(range(g.n)):
        raise ValidationError("block contains vertices outside the host")
    for value in (p_in, p_out):
        if not 0 < value < 1:
            raise ProbabilityOutOfRange(f"probability {value} is outside (0, 1)")
    return [
        p_in if ((u in members) == (v in members)) else p_out for u, v in g.edges
    ]
