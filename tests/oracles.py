"""Enumeration oracles for the per-edge closed forms.

The left regular band of edits is kept here as objects: an `Edit` is a
reduced pair of disjoint sign masks, `compose` its product and
`parse_edit` / `format_edit` its notation, with the `Sign` and chamber
helpers. The library reads edits only as the mask arrays of
`WeightedEdits` and parses the custom model's text straight to masks;
`from_items` and `edit_items` convert between the two.

The rest are the former library implementations, one Fraction or float
at a time:

* explicit sums over all 2^m - 1 proper edge subsets T for the commute and
  hitting times, which `commute_time` and `hitting_time_closed` now
  evaluate as polynomial coefficients;
* per-edge and per-state loops for phi and the psi scaling, which the
  library now builds as Kronecker products of per-edge factors, the
  product-form law of the intersection model (one per-vertex law per left
  vertex), which the library reaches through `stationary_faces`, and the
  commute time term by term (`commute_terms_enumerated`), which
  `commute_time` sums in O(m^2);
* the `simulate` record path as one dict per state encoded by `json.dumps`,
  with edge indices found by testing every host edge and acyclicity by one
  union-find per state, where the library decodes the set bits of a block
  of states at once and tests all of them for cycles in one numpy pass.
* eigenvalue multiplicities by Mobius inversion of chamber counts, with
  the Mobius function filled row by row and each chamber tested by `leq`,
  where the library back-substitutes over the flat order and compares the
  chambers' + masks as one array;
* the distance-to-stationarity curve by products with the dense float
  matrix, where `tv_decay` sums over the chain's nonzero cells;
* hitting times to one target by first-step analysis, one dense solve per
  target, where the library reads them off one solve for the target
  columns of the fundamental matrix;
* the stationary law of a chain by a dense LU solve, where the library
  takes it from the closed form or the face recursion and `verify` bounds
  its error by the fixed-point gap;
* hitting times of a reversible chain from the eigendecomposition of its
  symmetrized matrix;
* the recurrent class by a search that applies every edit to one state at
  a time, where the library applies each edit to a whole level of states;
* the Moran edits with one scan of the host edges per oriented edge, where
  the library builds one star mask per vertex;
* the walk one drawn edit at a time, where the library applies only the
  last edit on each support between two records and composes commuting
  edits in numpy;
* the walk table's block layout by a scan of every set bit of every
  edit's support, with support ids keyed by each edge list, where the
  library compares the sorted distinct supports with the aligned blocks
  once and takes the support ids from the distribution's grouping;
* the lazy intersection draw with each row's ranks from two argsorts and
  each edit built as a Python int, where the library scatters one sort
  order back and hands the walk kernel star indices and bit rows;
* the weight builders one validated `Edit` at a time, where the library
  writes the mask and weight arrays directly;
* the support closure by a depth-first search over single flats, with each
  flat's representative composed from the generators that reached it,
  where the library closes a whole level of flats at once and carries the
  representatives as mask arrays;
* the spectrum report as one `SpectrumEntry(EdgeSet, eigenvalue,
  multiplicity)` per flat, with its rows, aggregates and bounds summed
  entry by entry, and the per-edge spectrum built one edge subset at a
  time, where the library keeps three aligned arrays;
* the face merge keyed by the raw bytes of each (plus, minus) pair, where
  the library sorts integer keys in the same order, and the DOT export
  with each cell's label formatted on its own.

It also keeps the helpers that only the tests use: the action of an edit
on a state, its support, the two edit orders, chambers and their states,
the star of edges at a vertex, the sign-table state order and
permutations into it, a chain from a dense matrix, its dense symmetrized
matrix, `verify`'s law and its balance gaps for a law given as Fractions or
floats, a hitting and a commute time through its fundamental matrix, the
normalized histogram of a thinned walk, one walk step, drawn edits as
masks, the weight of one edit of the lazy intersection model, and the
readers of the CSV, JSON and JSONL artifacts.

The tests compare the two.
"""

import csv
import enum
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from editwalk import verify
from editwalk.errors import (
    STATE_CAP,
    EdgeOutOfRange,
    EditWalkError,
    HostMismatch,
    NotIrreducible,
    ValidationError,
    VertexOutOfRange,
    check_cap,
)
from editwalk.hostgraph import EdgeSet, mask_dtype
from editwalk.lattice import SupportLattice
from editwalk.process import (
    SAMPLER_VERSION,
    WeightedEdits,
    _common_denominator,
    _is_exact,
    _per_edge_probabilities,
    _walk,
    make_rng,
    simulate,
)
from editwalk.serialize import artifact_meta
from editwalk.spectral import (
    SOLVE_RESIDUAL_TOL,
    TransitionMatrix,
    _covered,
    _hitting_columns,
    recurrent_class,
)


class Sign(enum.Enum):
    PLUS = "+"
    MINUS = "-"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Edit:
    """Reduced edit: disjoint bitmasks of forced-present / forced-absent
    edges. Total edits (every edge signed) are the chambers."""

    m: int
    plus: int = 0
    minus: int = 0

    def __post_init__(self) -> None:
        if self.plus & self.minus:
            raise ValidationError(
                f"plus and minus masks overlap on {self.plus & self.minus:#x}"
            )
        if self.plus < 0 or self.minus < 0 or (self.plus | self.minus) >> self.m:
            raise EdgeOutOfRange(
                f"edit touches edges outside the {self.m} host edges"
            )

    @classmethod
    def identity(cls, m: int) -> "Edit":
        return cls(m, 0, 0)

    @property
    def support_mask(self) -> int:
        return self.plus | self.minus

    @property
    def is_chamber(self) -> bool:
        return self.support_mask == (1 << self.m) - 1

    def sign_of(self, e: int) -> Sign | None:
        if not 0 <= e < self.m:
            raise EdgeOutOfRange(f"edge index {e} not in [0, {self.m})")
        if self.plus >> e & 1:
            return Sign.PLUS
        if self.minus >> e & 1:
            return Sign.MINUS
        return None

    def __repr__(self) -> str:
        return f"Edit({format_edit(self)!r}, m={self.m})" if self.support_mask else f"Edit(identity, m={self.m})"


def simple_edit(e: int, sign: Sign, m: int) -> Edit:
    """The edit forcing a single edge present (+) or absent (-)."""
    if not 0 <= e < m:
        raise EdgeOutOfRange(f"edge index {e} not in [0, {m})")
    bit = 1 << e
    return Edit(m, bit, 0) if sign is Sign.PLUS else Edit(m, 0, bit)


def compose(x: Edit, y: Edit) -> Edit:
    """Product xy: y acts first, x acts last, so x wins where both act."""
    if x.m != y.m:
        raise HostMismatch(f"edge counts differ: {x.m} != {y.m}")
    free = ~x.support_mask
    return Edit(x.m, x.plus | (y.plus & free), x.minus | (y.minus & free))


def format_edit(x: Edit) -> str:
    """Canonical textual form, e.g. '+0 -3 +5' (identity prints as '').
    Tokens are emitted in edge-index order."""
    parts = []
    for e in range(x.m):
        if x.plus >> e & 1:
            parts.append(f"+{e}")
        elif x.minus >> e & 1:
            parts.append(f"-{e}")
    return " ".join(parts)


def parse_edit(text: str, m: int) -> Edit:
    """Parse '+0 -3 +5' as a product of single-edge edits read left to
    right, the rightmost applied first, so on a repeated edge the leftmost
    token wins."""
    result = Edit.identity(m)
    for token in text.split():
        sign = token[0]
        if sign not in "+-" or not (token[1:].isascii() and token[1:].isdigit()):
            raise ValidationError(f"bad edit token {token!r}, expected e.g. '+3' or '-0'")
        e = int(token[1:])
        result = compose(result, simple_edit(e, Sign.PLUS if sign == "+" else Sign.MINUS, m))
    return result


def from_items(m: int, items) -> WeightedEdits:
    """The distribution over (Edit, weight) pairs, in their order."""
    items = tuple(items)
    if any(edit.m != m for edit, _ in items):
        raise ValidationError("edit host size disagrees with distribution")
    return WeightedEdits(m, [e.plus for e, _ in items], [e.minus for e, _ in items], [w for _, w in items])


def edit_items(dist) -> list[tuple[Edit, object]]:
    """The (Edit, weight) pairs of a distribution's (plus, minus, weight) items."""
    return [(Edit(dist.m, plus, minus), w) for plus, minus, w in dist.items]


def neighborhood_edges(g, v: int) -> EdgeSet:
    """All host edges incident to v; its size is the degree of v."""
    if not 0 <= v < g.n:
        raise VertexOutOfRange(f"vertex {v} not in [0, {g.n})")
    return EdgeSet.from_indices(g.m, (i for i, e in enumerate(g.edges) if v in e))


def apply(x: Edit, state: EdgeSet) -> EdgeSet:
    """Act on a state: force the + edges in and the - edges out."""
    return EdgeSet(state.m, (state.mask_on(x.m) | x.plus) & ~x.minus)


def supp(x: Edit) -> EdgeSet:
    """Edges the edit acts on; a homomorphism onto the union semilattice."""
    return EdgeSet(x.m, x.support_mask)


def leq(x: Edit, y: Edit) -> bool:
    """Sign-refinement order: y agrees with x everywhere x acts."""
    if x.m != y.m:
        raise HostMismatch(f"edge counts differ: {x.m} != {y.m}")
    s = x.support_mask
    return (y.plus & s) == x.plus and (y.minus & s) == x.minus


def prec(x: Edit, y: Edit) -> bool:
    """Support preorder: x acts only on edges y also acts on."""
    if x.m != y.m:
        raise HostMismatch(f"edge counts differ: {x.m} != {y.m}")
    return x.support_mask & ~y.support_mask == 0


class NotAChamber(ValidationError):
    """Edit does not assign a sign to every host edge."""


def chamber_of(state: EdgeSet) -> Edit:
    """Total edit fixing exactly this subgraph: + on the state, - elsewhere."""
    full = (1 << state.m) - 1
    return Edit(state.m, state.mask, full & ~state.mask)


def state_of(c: Edit) -> EdgeSet:
    """Inverse of chamber_of; rejects edits that leave any edge unsigned."""
    if not c.is_chamber:
        missing = EdgeSet(c.m, ((1 << c.m) - 1) & ~c.support_mask)
        raise NotAChamber(f"no sign assigned on edges {missing.indices()}")
    return EdgeSet(c.m, c.plus)



def _probabilities(g, p) -> list:
    return [p] * g.m if not isinstance(p, (list, tuple)) else list(p)


def _ratio_to_stationary(t_mask: int, state_mask: int, probs):
    """phi_T(E) / pi(E) as a product over the edges outside T: 1/p_e when
    the edge is present, 1/(p_e - 1) when absent."""
    val = Fraction(1) if all(_is_exact(pe) for pe in probs) else 1.0
    for e, pe in enumerate(probs):
        if t_mask >> e & 1:
            continue
        val *= 1 / pe if state_mask >> e & 1 else 1 / (pe - 1)
    return val


def _subset_terms(E, F, g, p):
    """(T mask, m/(m-|T|) * prod(p_e(1-p_e), e not in T), phi_T(E)/pi(E),
    phi_T(F)/pi(F)) for every proper subset T, in mask order."""
    probs = _probabilities(g, p)
    m = g.m
    exact = all(_is_exact(pe) for pe in probs)
    for t_mask in range((1 << m) - 1):
        scale = Fraction(1) if exact else 1.0
        for e, pe in enumerate(probs):
            if not t_mask >> e & 1:
                scale *= pe * (1 - pe)
        coeff = Fraction(m, m - t_mask.bit_count()) if exact else m / (m - t_mask.bit_count())
        yield (t_mask, coeff * scale, _ratio_to_stationary(t_mask, E.mask, probs),
               _ratio_to_stationary(t_mask, F.mask, probs))


def commute_time_enumerated(E, F, g, p):
    """Spectral commute time, skipping the subsets that contain E xor F
    (their terms vanish)."""
    if E.mask == F.mask:
        return Fraction(0) if all(_is_exact(pe) for pe in _probabilities(g, p)) else 0.0
    delta = E.mask ^ F.mask
    total = 0
    for t_mask, weight, r_e, r_f in _subset_terms(E, F, g, p):
        if delta & ~t_mask:
            total += weight * (r_e - r_f) * (r_e - r_f)
    return total


def hitting_time_enumerated(E, F, g, p):
    """Spectral hitting time from E to F."""
    total = 0
    for _, weight, r_source, r_target in _subset_terms(E, F, g, p):
        total += weight * r_target * (r_target - r_source)
    return total


def largest_dropped_term(E, F, g, p) -> float:
    """Largest |term| of `commute_terms_enumerated` over the subsets that
    contain E xor F, which the spectral sum leaves out because they vanish."""
    delta = E.mask ^ F.mask
    return max(
        (abs(float(term)) for flat, term in commute_terms_enumerated(E, F, g, p) if delta & ~flat.mask == 0),
        default=0.0,
    )


def phi_enumerated(T, g, p):
    """phi_T over all states, one pass over the states per edge."""
    probs = _probabilities(g, p)
    exact = all(_is_exact(pe) for pe in probs)
    one = Fraction(1) if exact else 1.0
    masks = np.arange(1 << g.m)
    row = np.full(1 << g.m, one, dtype=object if exact else float)
    for e, pe in enumerate(probs):
        pe = pe if exact else float(pe)
        present = (masks >> e) & 1
        if T.mask >> e & 1:
            row *= np.where(present, pe, one - pe)
        else:
            row *= np.where(present, one, -one)
    return list(row) if exact else row


def psi_rows_enumerated(g, p, t_masks: np.ndarray) -> np.ndarray:
    """Float phi rows of the subsets in `t_masks` times prod(sqrt(p_e(1-p_e)),
    e not in T), multiplied in edge order, over sqrt of the stationary law."""
    probs = [float(pe) for pe in _probabilities(g, p)]
    rows = np.array([phi_enumerated(EdgeSet(g.m, int(t)), g, probs) for t in t_masks])
    scales = np.ones(len(t_masks))
    for e, pe in enumerate(probs):
        scales *= np.where(t_masks >> e & 1, 1.0, math.sqrt(pe * (1.0 - pe)))
    return rows * scales[:, None] / np.sqrt(phi_enumerated(g.full_set(), g, probs))


def commute_terms_enumerated(E, F, g, p) -> list:
    """The spectral commute time term by term, for every proper subset T of
    the host edges in mask order, one subset at a time:

        m/(m-|T|) * prod(p_e(1-p_e), e not in T) * (phi_T(E)/pi(E) - phi_T(F)/pi(F))^2

    where phi_T/pi multiplies 1/p_e (edge present) or 1/(p_e - 1) (edge
    absent) over the edges outside T; exact when p is rational. Terms whose
    T contains E xor F are exactly 0."""
    probs = _probabilities(g, p)
    m, exact = g.m, all(_is_exact(pe) for pe in probs)
    one = Fraction(1) if exact else 1.0
    inverse = [(1 / (pe - 1), 1 / pe) for pe in probs]  # edge absent, present
    terms = []
    for t_mask in range((1 << m) - 1):  # all T except the full edge set
        outside = [e for e in range(m) if not t_mask >> e & 1]
        scale = math.prod((probs[e] * (1 - probs[e]) for e in outside), start=one)
        r_e, r_f = (math.prod((inverse[e][s >> e & 1] for e in outside), start=one)
                    for s in (E.mask, F.mask))
        coeff = Fraction(m, len(outside)) if exact else m / len(outside)
        terms.append((EdgeSet(m, t_mask), coeff * scale * (r_e - r_f) * (r_e - r_f)))
    return terms


def intersection_stationary_enumerated(n, N, mu) -> np.ndarray:
    """Product of the per-vertex laws mu(|A|)/C(N,|A|), one state at a time."""
    pi = np.ones(1 << (n * N))
    for state in range(1 << (n * N)):
        prob = 1.0
        for v in range(n):
            k = (state >> (v * N) & ((1 << N) - 1)).bit_count()
            prob *= float(mu[k]) / math.comb(N, k)
        pi[state] = prob
    return pi


def indices_by_shift(state: EdgeSet) -> tuple[int, ...]:
    """Set edge indices, one shift of the mask per host edge."""
    return tuple(e for e in range(state.m) if state.mask >> e & 1)


def _acyclic_by_shift(g, state: EdgeSet) -> bool:
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for e in indices_by_shift(state):
        ru, rv = find(g.edges[e][0]), find(g.edges[e][1])
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def _recurrent_start(dist, g, mask: int) -> bool:
    """Whether `mask` lies in the enumerated recurrent class; for a lazy
    model, whether every block's edge count is one an edit can leave."""
    lazy = dist.lazy
    if lazy is None:
        return mask in recurrent_class(dist, g).tolist()
    full = (1 << lazy.width) - 1
    return all((mask >> v * lazy.width & full).bit_count() in lazy.sizes.tolist()
               for v in range(lazy.blocks))


def write_simulate_artifacts(cfg, state_format: str) -> None:
    """`summary.json` and `trajectory.jsonl` of `editwalk simulate`, one
    record dict per state encoded with `json.dumps`; a compound model's
    start outside its enumerated recurrent class is named in the summary."""
    traj = simulate(cfg.weights, cfg.initial, cfg.steps, seed=cfg.seed, thin=cfg.thin)
    meta = artifact_meta(
        cfg.host, cfg.seed, model=cfg.model, T=cfg.steps, thin=cfg.thin, sampler=SAMPLER_VERSION
    )
    cfg.out.mkdir(parents=True, exist_ok=True)
    states = [EdgeSet(cfg.host.m, mask) for mask in traj.masks]
    summary = {"final_state": states[-1].hex(), "edge_counts": traj.edge_counts()}
    if cfg.model == "moran":
        summary["acyclic"] = [_acyclic_by_shift(cfg.host, s) for s in states]
    summary_meta = dict(meta)
    if cfg.model != "simple" and not _recurrent_start(cfg.weights, cfg.host, cfg.initial.mask):
        summary_meta["transient_start"] = cfg.initial.hex()
    (cfg.out / "summary.json").write_text(json.dumps({"meta": summary_meta, "data": summary}, indent=2) + "\n")
    if cfg.steps == 0:
        return
    records = []
    for k, state in enumerate(states):
        record = {"t": min(k * cfg.thin, cfg.steps), "state": state.hex()}
        if state_format == "edges":
            record["edges"] = [list(cfg.host.edges[e]) for e in indices_by_shift(state)]
        records.append(record)
    with open(cfg.out / "trajectory.jsonl", "w") as fh:
        fh.write(json.dumps({"meta": meta}) + "\n")
        for record in records:
            fh.write(json.dumps(record) + "\n")


def read_csv(path) -> tuple[dict, list[str], list[list[str]]]:
    """The '#'-prefixed `key: value` header lines of a CSV artifact, its
    column row and its data rows."""
    meta: dict = {}
    lines = Path(path).read_text().splitlines()
    body_start = 0
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            body_start = i
            break
        key, _, value = line[1:].partition(":")
        meta[key.strip()] = value.strip()
    table = [row for row in csv.reader(lines[body_start:]) if row]
    return meta, table[0], table[1:]


def read_json(path) -> tuple[dict, object]:
    obj = json.loads(Path(path).read_text())
    return obj["meta"], obj["data"]


def read_jsonl(path) -> tuple[dict, list[dict]]:
    with open(path) as fh:
        first = json.loads(fh.readline())
        records = [json.loads(line) for line in fh if line.strip()]
    return first["meta"], records


def _mobius_row(lat, i: int) -> dict[int, int]:
    """mu(X, Y) for flat X = lat.flats[i] and every flat Y >= X, keyed by
    the index of Y. Filled in lattice order, so every strictly intermediate
    Z is already known."""
    x = lat.flats[i].mask
    above = [j for j, f in enumerate(lat.flats) if f.mask & x == x]
    row: dict[int, int] = {}
    for j in above:
        y = lat.flats[j].mask
        row[j] = 1 if y == x else -sum(
            row[k] for k in above if k < j and lat.flats[k].mask & ~y == 0
        )
    return row


def mobius_enumerated(lat, x: EdgeSet, y: EdgeSet) -> int:
    """Mobius function of the flat order: mu(X, X) = 1 and for X < Y,
    mu(X, Y) = -sum of mu(X, Z) over flats X <= Z < Y."""
    if x.mask & ~y.mask:
        raise ValueError(f"{x!r} is not contained in {y!r}")
    return _mobius_row(lat, lat.index_of(x))[lat.index_of(y)]


def chamber_count_leq(representative, chambers) -> int:
    """Number of chambers extending the representative's signs."""
    return sum(1 for c in chambers if leq(representative, c))


def multiplicities_by_mobius(lat, chambers, representatives) -> list[int]:
    """Multiplicity of every flat, in lattice order:
    m_X = sum over flats Y >= X of mu(X, Y) c_Y."""
    counts = [chamber_count_leq(representatives[f], chambers) for f in lat.flats]
    return [
        sum(mu * counts[j] for j, mu in _mobius_row(lat, i).items())
        for i in range(len(lat.flats))
    ]


@dataclass(frozen=True)
class SpectrumEntry:
    flat: EdgeSet
    eigenvalue: object  # Fraction in exact mode, float otherwise
    multiplicity: int


@dataclass(frozen=True)
class EntryReport:
    """Per-flat eigenvalues and multiplicities, one entry per flat."""

    entries: tuple[SpectrumEntry, ...]

    @classmethod
    def of(cls, m: int, report) -> "EntryReport":
        """The entries of an array report, one flat at a time."""
        rows = zip(report.flats.tolist(), report.eigenvalues.tolist(), report.multiplicities.tolist())
        return cls(tuple(SpectrumEntry(EdgeSet(m, x), value, int(mult)) for x, value, mult in rows))

    @property
    def total_multiplicity(self) -> int:
        return sum(e.multiplicity for e in self.entries)

    @property
    def top(self) -> EdgeSet:
        return max(self.entries, key=lambda e: e.flat.mask.bit_count()).flat

    def eigenvalue_multiset(self) -> list[float]:
        values: list[float] = []
        for e in self.entries:
            values.extend([float(e.eigenvalue)] * e.multiplicity)
        values.sort(reverse=True)
        return values

    def by_value(self) -> list[tuple[float, int]]:
        agg: dict[float, int] = {}
        for e in self.entries:
            agg[float(e.eigenvalue)] = agg.get(float(e.eigenvalue), 0) + e.multiplicity
        return sorted(agg.items(), key=lambda kv: -kv[0])

    def second_largest(self) -> float:
        """Largest eigenvalue of positive multiplicity below the top flat."""
        top_mask = self.top.mask
        rest = [e for e in self.entries if e.flat.mask != top_mask]
        if not rest:
            raise ValidationError("spectrum has no flat below the top")
        return max((float(e.eigenvalue) for e in rest if e.multiplicity > 0), default=0.0)

    def to_csv_rows(self) -> list[tuple[str, int, str, int]]:
        return [(e.flat.hex(), e.flat.mask.bit_count(), str(e.eigenvalue), e.multiplicity)
                for e in self.entries]

    def brown_tv_bound(self, t: int) -> float:
        top_mask = self.top.mask
        total = 0.0
        for e in self.entries:
            if e.flat.mask == top_mask:
                continue
            lam = float(e.eigenvalue)
            total += e.multiplicity * (lam**t if (lam or t) else 1.0)
        return total


def eigenvalues_simple_by_subset(m: int) -> EntryReport:
    """One entry |T|/m of multiplicity one per edge subset T, sorted by
    (size, mask)."""
    return EntryReport(tuple(
        SpectrumEntry(EdgeSet(m, mask), Fraction(mask.bit_count(), m), 1)
        for mask in sorted(range(1 << m), key=lambda v: (v.bit_count(), v))
    ))


def tv_decay_dense(tm, initial, pi, t_max: int) -> np.ndarray:
    P = tm.to_float()
    target = np.asarray([float(x) for x in pi])
    dist = np.zeros(tm.size)
    dist[tm.index_of(initial)] = 1.0
    curve = np.empty(t_max + 1)
    for t in range(t_max + 1):
        curve[t] = 0.5 * np.abs(dist - target).sum()
        if t < t_max:
            dist = dist @ P
    return curve


def stationary_numeric(tm) -> np.ndarray:
    """The float stationary law by one dense LU solve of P^T - I with its
    last row set to ones, independent of any closed form or face recursion;
    a singular system or a large residual raises NotIrreducible."""
    A = tm.to_float().T.copy()
    A.flat[:: tm.size + 1] -= 1.0
    A[-1, :] = 1.0
    b = np.zeros(tm.size)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise NotIrreducible("stationary system is singular") from exc
    if np.abs(A @ pi - b).max() > SOLVE_RESIDUAL_TOL or pi.min() < -SOLVE_RESIDUAL_TOL:
        raise NotIrreducible("stationary solve left a large residual")
    return np.clip(pi, 0.0, None) / pi.sum()


def hitting_times_first_step(tm, target: int) -> np.ndarray:
    """Expected steps from every state to the target index (0 at it): delete
    the target's row and column and solve (I - P) h = 1."""
    P = tm.to_float()
    keep = [k for k in range(tm.size) if k != target]
    h = np.linalg.solve(np.eye(len(keep)) - P[np.ix_(keep, keep)], np.ones(len(keep)))
    return np.insert(h, target, 0.0)


def q_matrix(tm, pi) -> np.ndarray:
    """The dense similarity transform D^(1/2) P D^(-1/2); symmetric iff the
    chain is reversible with respect to pi."""
    root = np.sqrt(np.asarray(pi, dtype=float))
    return tm.to_float() * root[:, None] / root[None, :]


def verify_law(tm, pi) -> tuple:
    """`verify._law` of a law given as Fractions or floats, read as
    `run_verification` reads its own: Python-int numerators over one
    denominator when every entry is exact, else float64."""
    nums_den = _common_denominator(pi) if all(map(_is_exact, pi)) else (np.asarray(pi, dtype=float), 1)
    return verify._law(tm, *nums_den)


def balance_gaps(law) -> np.ndarray:
    """|pi_i P_ij - pi_j P_ji| at each cell of `law = verify._law(...)`, over
    its denominator, from the dense flow matrix: the gaps `run_verification`
    hands both `detailed_balance` and `q_symmetry`."""
    chain, nums, *_ = law
    flow = nums[:, None] * chain._dense(0, chain.numerators)
    return np.abs(flow - flow.T)[chain.rows, chain.cols]


def numeric_eigenvalues(tm) -> np.ndarray:
    """The dense float matrix's eigenvalues by the general `eigvals`, sorted
    descending: the chamber-walk matrices are diagonalizable with real
    spectrum, so the imaginary residue must stay within 1e-8."""
    values = np.linalg.eigvals(tm.to_float())
    assert np.abs(values.imag).max() <= 1e-8, np.abs(values.imag).max()
    return np.sort(values.real)[::-1]


def eigenvalue_multiset_residual(a, b) -> float:
    """Largest gap between two multisets of one size, both sorted."""
    assert len(a) == len(b), (len(a), len(b))
    return float(np.abs(np.sort(np.asarray(a, dtype=float)) - np.sort(np.asarray(b, dtype=float))).max(initial=0.0))


def hitting_time(tm, source, target) -> float:
    """Expected steps from source until first visiting target, read off one
    column of the fundamental matrix Z = (I - P + 1 pi)^-1; a target with
    pi = 0 raises NotIrreducible."""
    i, j = tm.index_of(source), tm.index_of(target)
    return 0.0 if i == j else float(_hitting_columns(tm, [j])[i, 0])


def commute_time_chain(tm, x, y) -> float:
    """Round trip through a generic chain: hitting there plus hitting back,
    both from one fundamental-matrix solve."""
    i, j = tm.index_of(x), tm.index_of(y)
    if i == j:
        return 0.0
    hit = _hitting_columns(tm, [j, i])
    return float(hit[i, 0] + hit[j, 1])


class NotReversible(EditWalkError):
    """Detailed balance fails; the eigendecomposition does not apply."""


def hitting_time_spectral(tm, i: int, j: int) -> float:
    """Expected steps from state index i to j of a reversible chain, summed
    over the eigendecomposition of the symmetrized matrix; the per-term
    products are insensitive to eigenvector sign choices."""
    pi = stationary_numeric(tm)
    if pi.min() <= 0:
        raise NotReversible("pi has zeros: the chain is not symmetrized")
    Q = q_matrix(tm, pi)
    if np.abs(Q - Q.T).max() > 1e-10:
        raise NotReversible("chain is not reversible")
    values, vectors = np.linalg.eigh((Q + Q.T) / 2)
    values, vectors = values[::-1], vectors[:, ::-1]
    if tm.size > 1 and values[1] > 1.0 - 1e-12:
        raise NotIrreducible("unit eigenvalue is not simple")
    fj, fi = vectors[[j, i], 1:] / np.sqrt(pi[[j, i], None])
    return float(np.sum(fj * (fj - fi) / (1.0 - values[1:])))


def recurrent_class_by_state(dist, g, initial=None, cap: int = STATE_CAP) -> np.ndarray:
    """The recurrent class by a depth-first search over single states: the
    saturating product of all edits applied to the start, then every edit
    applied to each newly found state. Returns the ascending mask array."""
    _covered(dist, g)
    edits = [e for e, _ in edit_items(dist)]
    saturate = Edit.identity(g.m)
    for e in edits:
        saturate = compose(saturate, e)
    start = apply(saturate, initial if initial is not None else g.empty_set())
    seen = {start.mask}
    frontier = [start.mask]
    while frontier:
        mask = frontier.pop()
        for e in edits:
            dest = (mask | e.plus) & ~e.minus
            if dest not in seen:
                check_cap(len(seen) + 1, cap, "recurrent-class states")
                seen.add(dest)
                frontier.append(dest)
    return np.array(sorted(seen), dtype=mask_dtype(g.m))


def moran_weights_per_edge(g) -> WeightedEdits:
    """Neighborhood resampling with the star of each oriented edge's source
    found by scanning every host edge."""
    w = Fraction(1, 2 * g.m)
    items = []
    for u, v in g.edges:
        for src, dst in ((u, v), (v, u)):
            star = neighborhood_edges(g, src).mask
            keep = 1 << g.index_of(src, dst)
            items.append((Edit(g.m, keep, star & ~keep), w))
    return from_items(g.m, items)


def sign_lex_order(m: int) -> list[int]:
    """State masks ordered by their sign table: edge 0 is the most
    significant digit and + sorts before -, matching the conventional
    chamber listing (full set first, empty set last)."""
    order = []
    for k in range(1 << m):
        mask = 0
        for e in range(m):
            if not (k >> (m - 1 - e)) & 1:
                mask |= 1 << e
        order.append(mask)
    return order


def permute_vector(vec, masks):
    """Reindex a state vector given in ascending-mask order."""
    if isinstance(vec, np.ndarray) and vec.dtype != object:
        return vec[np.array(masks)]
    return [vec[mask] for mask in masks]


def chain_from_dense(m: int, masks, entries, exact: bool) -> TransitionMatrix:
    """Chain on the given state masks of an m-edge host, given by a dense
    matrix (of Fractions when exact)."""
    rows, cols = np.nonzero(entries)
    values = np.asarray(entries)[rows, cols]
    cells = _common_denominator(values) if exact else (values.astype(float),)
    return TransitionMatrix(m, np.asarray(masks, dtype=mask_dtype(m)), rows, cols, *cells)


def reorder(tm, masks) -> TransitionMatrix:
    """Same chain with states permuted into the given mask order. Its masks
    are then out of ascending order, so it is read by index, not by state."""
    index = {mask: i for i, mask in enumerate(tm.masks.tolist())}
    perm = [index.get(mask) for mask in masks]
    if len(perm) != tm.size or None in perm or len(set(perm)) != tm.size:
        raise ValidationError("reorder needs a permutation of all states")
    position = np.empty(tm.size, dtype=np.int64)
    position[perm] = np.arange(tm.size)
    rows, cols = position[tm.rows], position[tm.cols]
    order = np.lexsort((cols, rows))
    return TransitionMatrix(
        tm.m, tm.masks[perm], rows[order], cols[order], tm.numerators[order], tm.denominator,
    )


def step(dist, state: EdgeSet, rng) -> EdgeSet:
    """Draw one edit by its weight and apply it."""
    return EdgeSet(state.m, _walk(dist, state, [1], rng)[0])


def empirical_distribution(dist, initial, burn_in: int, samples: int, stride: int = 1, seed: int = 0) -> np.ndarray:
    """Normalized histogram over all 2^m states of a thinned sample run of
    the library's walk kernel."""
    m = dist.m
    check_cap(1 << m, STATE_CAP, f"2^{m} histogram bins")
    if samples <= 0:
        raise ValidationError(f"need at least one sample, got {samples}")
    if burn_in < 0 or stride < 1:
        raise ValidationError("burn_in must be >= 0 and stride >= 1")
    times = range(burn_in + stride, burn_in + stride * samples + 1, stride)
    masks = _walk(dist, initial, times, make_rng(seed))
    return np.bincount(masks, minlength=1 << m) / samples


def draw_masks(dist, rng, size: int) -> tuple[list[int], list[int]]:
    """`size` edits drawn by weight as the walk kernel draws them, as (plus,
    minus) lists of Python ints."""
    plus, minus = [], []
    while len(plus) < size:
        sid, draws = dist._table.take(rng, size - len(plus))
        p, q = dist._table.masks(sid, draws, np.arange(len(sid)))
        plus += p
        minus += q
    return plus, minus


@dataclass(frozen=True)
class ScannedTable:
    """The walk table as a scan of every set bit of every edit's support
    builds it: support ids in first-seen order keyed by each edit's edge
    list, whether the distinct supports are the aligned blocks
    [k*width, (k+1)*width) for k < blocks, and only then each edit's plus
    within its block as a (edits, width) bool array."""

    sid: np.ndarray
    disjoint: bool
    blocks: int | None = None
    width: int | None = None
    bits: np.ndarray | None = None


def edit_table_by_scan(dist) -> ScannedTable:
    lists = []
    for plus, minus in zip(dist.plus.tolist(), dist.minus.tolist()):
        support, edges = plus | minus, []
        while support:
            low = support & -support
            edges.append(low.bit_length() - 1)
            support ^= low
        lists.append(tuple(edges))
    ids = {}
    sid = np.array([ids.setdefault(edges, len(ids)) for edges in lists], np.int64)
    distinct = sorted(ids)  # an empty support first, blocks by their first edge
    width = len(distinct[0])
    if not width or any(edges != tuple(range(k * width, (k + 1) * width)) for k, edges in enumerate(distinct)):
        return ScannedTable(sid, False)
    bits = np.array([[plus >> e & 1 for e in edges] for plus, edges in zip(dist.plus.tolist(), lists)], bool)
    return ScannedTable(sid, True, len(distinct), width, bits)


def walk_by_step(dist, initial: EdgeSet, times, rng) -> list[int]:
    """`_walk` one edit at a time: the same draws, every edit applied to the
    state in step order."""
    plus, minus = draw_masks(dist, rng, times[-1] if times else 0)
    state, t, masks = initial.mask_on(dist.m), 0, []
    for stop in times:
        for p, q in zip(plus[t:stop], minus[t:stop]):
            state = (state | p) & ~q
        masks.append(state)
        t = stop
    return masks


def lazy_draw_by_ranks(n: int, N: int, mu, rng, size: int, block: int) -> tuple[list[int], list[int]]:
    """`size` lazy intersection edits drawn in blocks of `block`, as (plus,
    minus) lists of Python ints: a uniform star, a size from mu, and the
    lowest-ranked uniforms of that size."""
    size_probs = np.array([float(x) for x in mu])
    sizes = np.flatnonzero(size_probs)
    cdf = np.cumsum(size_probs[sizes]) / size_probs.sum()
    full, plus, minus = (1 << N) - 1, [], []
    for t in range(0, size, block):
        rows = min(block, size - t)
        shifts = (rng.integers(n, size=rows) * N).tolist()
        k = sizes[np.searchsorted(cdf[:-1], rng.random(rows), side="right")]
        ranks = rng.random((rows, N)).argsort(axis=1).argsort(axis=1)
        packed = np.packbits(ranks < k[:, None], axis=1, bitorder="little")
        local = [int.from_bytes(row.tobytes(), "little") for row in packed]
        plus += [a << s for a, s in zip(local, shifts)]
        minus += [(full ^ a) << s for a, s in zip(local, shifts)]
    return plus, minus


def sample(dist, rng) -> Edit:
    """One edit drawn by its weight: a block draw of size 1."""
    (plus,), (minus,) = draw_masks(dist, rng, 1)
    return Edit(dist.m, plus, minus)


def lazy_intersection_weight(n: int, N: int, mu, edit: Edit) -> float:
    """Weight of one edit of the intersection model: mu(|A|) / (n C(N, |A|))."""
    k = edit.plus.bit_count()
    return float(mu[k]) / (n * math.comb(N, k))


def simple_edit_weights_by_edit(g, p) -> WeightedEdits:
    """The per-edge distribution built one `simple_edit` at a time: + then -
    on each edge, with weights p_e/m and (1-p_e)/m."""
    probs = _per_edge_probabilities(g, p)
    items = []
    for e, pe in enumerate(probs):
        items.append((simple_edit(e, Sign.PLUS, g.m), pe / g.m))
        items.append((simple_edit(e, Sign.MINUS, g.m), (1 - pe) / g.m))
    return from_items(g.m, items)


def intersection_weights_by_edit(n: int, N: int, mu) -> WeightedEdits:
    """The explicit intersection distribution one `Edit` per (left vertex,
    right subset) pair, zero-weight subsets left out."""
    m = n * N
    by_size = [Fraction(x, n * math.comb(N, k)) if _is_exact(x) else float(x) / (n * math.comb(N, k))
               for k, x in enumerate(mu)]
    items = []
    for v in range(n):
        star = ((1 << N) - 1) << (v * N)
        for a in range(1 << N):
            plus = a << (v * N)
            if by_size[a.bit_count()] != 0:
                items.append((Edit(m, plus, star & ~plus), by_size[a.bit_count()]))
    return from_items(m, items)


@dataclass(frozen=True)
class WitnessLattice:
    """Flats as `EdgeSet`s sorted by (size, mask); `witnesses` maps each
    flat's mask to the indices of generators whose supports union to it."""

    m: int
    flats: tuple
    witnesses: dict
    _index: dict = field(repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        self._index.update({x.mask: i for i, x in enumerate(self.flats)})

    @property
    def top(self) -> EdgeSet:
        return self.flats[-1]

    @property
    def bottom(self) -> EdgeSet:
        return self.flats[0]

    def __len__(self) -> int:
        return len(self.flats)

    def index_of(self, x: EdgeSet) -> int:
        return self._index[x.mask]


def closure_by_witness(supports, cap: int = STATE_CAP) -> WitnessLattice:
    """Union-closure of the given supports (EdgeSets) by a depth-first
    search: every known flat is joined with every support until no new mask
    appears. The supports themselves are seeded without a cap check."""
    if not supports:
        raise ValidationError("need at least one generator support")
    m = supports[0].m
    witnesses = {0: ()}
    frontier = [0]
    for i, s in enumerate(supports):
        if s.mask not in witnesses:
            witnesses[s.mask] = (i,)
            frontier.append(s.mask)
    while frontier:
        x = frontier.pop()
        for i, s in enumerate(supports):
            u = x | s.mask
            if u not in witnesses:
                check_cap(len(witnesses) + 1, cap, "support-closure flats")
                witnesses[u] = witnesses[x] + (i,)
                frontier.append(u)
    flats = tuple(EdgeSet(m, mask) for mask in sorted(witnesses, key=lambda v: (v.bit_count(), v)))
    return WitnessLattice(m, flats, witnesses)


def representatives_for(lat: WitnessLattice, generators, reverse: bool = False) -> dict:
    """One edit per flat with support equal to that flat, composed from its
    witnesses (in reverse order when `reverse`); the bottom flat maps to
    the identity."""
    reps = {}
    for flat in lat.flats:
        edit = Edit.identity(lat.m)
        witnesses = lat.witnesses[flat.mask]
        for i in reversed(witnesses) if reverse else witnesses:
            edit = compose(edit, generators[i])
        assert edit.support_mask == flat.mask
        reps[flat] = edit
    return reps


def lattice_by_witness(dist, cap: int = STATE_CAP, reverse: bool = False):
    """The oracle closure of `dist`'s supports, with its representatives, as
    a `SupportLattice` the library's `multiplicities` reads."""
    generators = [e for e, _ in edit_items(dist)]
    lat = closure_by_witness([supp(e) for e in generators], cap)
    reps = representatives_for(lat, generators, reverse)
    dtype = mask_dtype(dist.m)
    return SupportLattice(dist.m, np.array([x.mask for x in lat.flats], dtype),
                          np.array([reps[x].plus for x in lat.flats], dtype))


def merge_faces_by_void_view(chunks, m: int):
    """One row per distinct face, its masses summed in row order, keyed as
    uint64 masks by the 16 bytes of (plus, minus) that np.unique compares
    as raw memory, where the library sorts the byteswapped masks as integers."""
    plus, minus, mass = (np.concatenate(a) for a in zip(*chunks))
    if plus.dtype == object:
        keys = plus << m | minus
    else:
        keys = np.stack((plus, minus), axis=1).view(np.dtype((np.void, 16))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    total = np.zeros(len(first), mass.dtype)
    np.add.at(total, inverse, mass)
    return plus[first], minus[first], total


def to_dot_by_cell(tm, g=None, labels: str = "hex") -> str:
    """`to_dot` with each kept cell's label formatted on its own, where the
    library formats each distinct value once."""
    if labels == "hex":
        names = [format(mask, "#x") for mask in tm.masks.tolist()]
    else:
        names = ["{" + ",".join(f"{u}-{v}" for e, (u, v) in enumerate(g.edges) if mask >> e & 1) + "}"
                 for mask in tm.masks.tolist()]
    lines = ["digraph states {"] + [f'  "{name}";' for name in names]
    for k in np.flatnonzero((tm.rows != tm.cols) & (tm.numerators > 0)):
        w = Fraction(tm.numerators[k], tm.denominator) if tm.exact else f"{tm.numerators[k]:.6g}"
        lines.append(f'  "{names[tm.rows[k]]}" -> "{names[tm.cols[k]]}" [label="{w}"];')
    return "\n".join(lines + ["}"]) + "\n"
