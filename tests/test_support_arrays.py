"""Edits stay mask arrays from the weight builders to the spectrum.

The builders write `plus`, `minus` and `weights` directly, checked here
against the `Edit`-at-a-time builders kept in `oracles`, in the same order,
so the sampler's draws and every trajectory stay the same. Array
validation raises the errors that validating one `Edit` at a time raised.
The support lattice is a level-by-level frontier over mask arrays that
carries one representative per flat; its flats and multiplicities are
checked against the depth-first closure in `oracles`, whose
representatives are composed from the generators that reached each flat.
A float eigenvalue is the exact sum of the edit weights inside its flat,
rounded once.
"""

import json
import math
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from oracles import (
    closure_by_witness,
    edit_items,
    from_items,
    intersection_weights_by_edit,
    lattice_by_witness,
    moran_weights_per_edge,
    simple_edit_weights_by_edit,
    supp,
)
from test_edit_arrays import wide_family
from test_random_families import seeded_families

import editwalk as ew
from editwalk import hostgraph, lattice
from editwalk.cli import build_parser, load_config
from editwalk.errors import (
    BadDistribution,
    CapExceeded,
    EdgeOutOfRange,
    LengthMismatch,
    SupportNotCovering,
    ValidationError,
)
from editwalk.lattice import _eigenvalues

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def same_arrays(dist, oracle):
    assert dist.plus.dtype == oracle.plus.dtype
    assert dist.plus.tolist() == oracle.plus.tolist()
    assert dist.minus.tolist() == oracle.minus.tolist()
    assert dist.weights == oracle.weights
    assert [type(w) for w in dist.weights] == [type(w) for w in oracle.weights]


@pytest.mark.parametrize("n", [5, 12])
@pytest.mark.parametrize("exact", [True, False])
def test_simple_builder_matches_the_edit_builder(n, exact):
    g = ew.complete_graph(n)
    rng = np.random.default_rng(n)
    p = [Fraction(int(k), 17) for k in rng.integers(1, 17, size=g.m)]
    p = p if exact else [float(x) for x in p]
    same_arrays(ew.simple_edit_weights(g, p), simple_edit_weights_by_edit(g, p))
    same_arrays(ew.simple_edit_weights(g, p[0]), simple_edit_weights_by_edit(g, p[0]))


@pytest.mark.parametrize("n", [4, 12])
def test_moran_builder_matches_the_edit_builder(n):
    g = ew.complete_graph(n)
    same_arrays(ew.moran_weights(g), moran_weights_per_edge(g))


@pytest.mark.parametrize("mu", [[Fraction(1, 2), 0, Fraction(1, 4), Fraction(1, 4)], [0.5, 0.0, 0.25, 0.25],
                                [0, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]])
@pytest.mark.parametrize("n, N", [(2, 3), (3, 3)])
def test_intersection_builder_matches_the_edit_builder(n, N, mu):
    same_arrays(ew.intersection_weights(n, N, mu), intersection_weights_by_edit(n, N, mu))


def test_intersection_builder_on_hosts_beyond_one_word():
    mu = [Fraction(1, 5)] * 5
    dist = ew.intersection_weights(17, 4, mu)
    assert dist.m == 68 and dist.plus.dtype == object
    same_arrays(dist, intersection_weights_by_edit(17, 4, mu))


@pytest.mark.parametrize("model", ["simple K100", "moran K30"])
def test_simulate_draws_the_same_walk_as_the_edit_builders(model):
    n = int(model.split("K")[1])
    g = ew.complete_graph(n)
    if model.startswith("simple"):
        dist, oracle = ew.simple_edit_weights(g, 0.3), simple_edit_weights_by_edit(g, 0.3)
        start = g.empty_set()
    else:
        dist, oracle = ew.moran_weights(g), moran_weights_per_edge(g)
        start = g.full_set()
    runs = [ew.simulate(d, start, 20_000, seed=5, thin=50).masks for d in (dist, oracle)]
    assert runs[0] == runs[1]


def test_from_items_and_items_round_trip():
    # `items` lists the edits as (plus, minus, weight) triples of Python
    # ints; the oracle's `from_items` and `edit_items` carry them as Edits
    g = ew.complete_graph(4)
    dist = ew.moran_weights(g)
    same_arrays(ew.WeightedEdits(g.m, *zip(*dist.items)), dist)
    same_arrays(from_items(g.m, edit_items(dist)), dist)
    assert all(type(plus) is int and type(minus) is int for plus, minus, _ in dist.items)
    assert dist.items is dist.items  # built once, when first read
    with pytest.raises(ValidationError, match="^edit host size disagrees with distribution$"):
        from_items(7, edit_items(dist))


def test_builders_and_the_walk_build_no_edit():
    k5, bipartite = ew.complete_graph(5), ew.intersection_host(2, 3)
    ew.simulate(ew.simple_edit_weights(k5, 0.3), k5.empty_set(), 500, seed=1)
    for g, dist in ((k5, ew.moran_weights(k5)), (bipartite, ew.intersection_weights(2, 3, [0.25] * 4))):
        ew.simulate(dist, g.full_set(), 500, seed=1)
        ew.spectrum(dist, g)
    # the library has no edit objects to build: edits are mask arrays
    assert "editwalk.edits" not in sys.modules
    modules = [module for name, module in sys.modules.items() if name.split(".")[0] == "editwalk"]
    assert modules and not any(hasattr(module, "Edit") for module in modules)


@pytest.mark.parametrize("m", [5, 64, 70])
def test_array_validation_raises_the_edit_errors(m):
    half = [Fraction(1, 2)] * 2
    with pytest.raises(ValidationError, match="^plus and minus masks overlap on 0x2$"):
        ew.WeightedEdits(m, [0b011, 1], [0b110, 0], half)
    outside = f"^edit touches edges outside the {m} host edges$"
    with pytest.raises(EdgeOutOfRange, match=outside):
        ew.WeightedEdits(m, [1, 1 << m], [0, 0], half)
    with pytest.raises(EdgeOutOfRange, match=outside):
        ew.WeightedEdits(m, [1, 0], [0, (1 << m) | 1], half)
    with pytest.raises(EdgeOutOfRange, match=outside):
        ew.WeightedEdits(m, [1, -1], [0, 0], half)
    with pytest.raises(BadDistribution, match="^weight 0 is not strictly positive$"):
        ew.WeightedEdits(m, [1, 2], [0, 0], [Fraction(1), 0])
    with pytest.raises(BadDistribution, match="^weight -0.5 is not strictly positive$"):
        ew.WeightedEdits(m, [1, 2], [0, 0], [1.5, -0.5])
    with pytest.raises(BadDistribution, match="^explicit distribution needs at least one edit$"):
        ew.WeightedEdits(m, [], [], [])
    with pytest.raises(LengthMismatch):
        ew.WeightedEdits(m, [1], [0, 0], half)
    with pytest.raises(BadDistribution, match="^weights sum to 3/4, expected exactly 1$"):
        ew.WeightedEdits(m, [1, 2], [0, 0], [Fraction(1, 2), Fraction(1, 4)])
    with pytest.raises(BadDistribution, match=r"^weights sum to 0\.75, expected 1$"):
        ew.WeightedEdits(m, [1, 2], [0, 0], [0.5, 0.25])
    with pytest.raises(BadDistribution, match="^weights sum to nan, expected 1$"):
        ew.WeightedEdits(m, [1, 2], [0, 0], [0.5, float("nan")])
    dist = ew.WeightedEdits(m, [1, 1 << (m - 1)], [1 << (m - 1), 0], half)
    assert dist.plus.dtype == hostgraph.mask_dtype(m) and dist.is_exact


def custom_family(seed):
    """The custom m=12 cycle family of the benchmark's compound-chain
    workload at `seed`, as the CLI loads it."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads.build("compound-chain", seed).configs["custom.json"]


def load(config, tmp_path, mode=None):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    args = build_parser().parse_args(["spectrum", "--config", str(path)] + (["--mode", mode] if mode else []))
    cfg = load_config(path, args)
    return cfg.host, cfg.weights


def oracle_cases(tmp_path):
    for n in range(3, 8):
        g = ew.complete_graph(n)
        yield f"moran K{n}", g, ew.moran_weights(g)
    for n, N in ((2, 3), (3, 3)):
        for mu in ([Fraction(1, 4)] * 4, [Fraction(1, 2), 0, Fraction(1, 4), Fraction(1, 4)]):
            yield f"intersection {n}x{N}", ew.intersection_host(n, N), ew.intersection_weights(n, N, mu)
    for seed in (5, 6, 7):
        yield (f"custom m=12 seed {seed}", *load(custom_family(seed), tmp_path))
    yield "wide m=70", *wide_family()
    for i, (g, dist) in enumerate([*seeded_families(424242, 20), *seeded_families(777, 10)]):
        yield f"random {i}", g, dist


def test_closure_matches_the_depth_first_oracle(tmp_path):
    for name, g, dist in oracle_cases(tmp_path):
        lat = ew.closure(dist)
        oracle = lattice_by_witness(dist)
        assert lat.flats.dtype == dist.plus.dtype, name
        assert lat.flats.tolist() == oracle.flats.tolist(), name
        # each sign is the + mask of an edit whose support is its flat
        assert ((lat.signs & ~lat.flats) == 0).all(), name
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SupportNotCovering)
            states = ew.recurrent_class(dist, g)
        assert (ew.multiplicities(lat, states, dist).to_csv_rows()
                == ew.multiplicities(oracle, states, dist).to_csv_rows()), name


def test_closure_cap_matches_the_oracle():
    for n in (4, 5):
        dist = ew.moran_weights(ew.complete_graph(n))
        flats = len(ew.closure(dist))
        supports = [supp(e) for e, _ in edit_items(dist)]
        for cap in (flats - 1, flats // 2):
            for close in (lambda: ew.closure(dist, cap), lambda: closure_by_witness(supports, cap)):
                with pytest.raises(CapExceeded, match=f"^support-closure flats exceed the cap of {cap}$"):
                    close()
        assert len(ew.closure(dist, flats)) == len(closure_by_witness(supports, flats)) == flats


def test_spectrum_builds_no_edge_sets(monkeypatch):
    g = ew.complete_graph(5)
    dist = ew.moran_weights(g)
    built = []
    check = hostgraph.EdgeSet.__post_init__
    monkeypatch.setattr(hostgraph.EdgeSet, "__post_init__", lambda s: built.append(s) or check(s))
    lat = ew.closure(dist)
    assert ew.multiplicities(lat, ew.recurrent_class(dist, g), dist).flats is lat.flats
    report, simple = ew.spectrum(dist, g), ew.eigenvalues_simple(10)
    assert built == []
    assert not report.flats.flags.writeable and not simple.flats.flags.writeable


def test_lattice_reads_no_edit_objects():
    for name in ("Edit", "compose", "representatives_for", "eigenvalue"):
        assert not hasattr(lattice, name)
    for name in ("leq", "prec", "state_of", "chamber_of", "apply", "supp", "representatives_for",
                 "Edit", "Sign", "compose", "simple_edit", "format_edit", "parse_edit",
                 "psi", "q_matrix", "tv_distance", "commute_time_chain", "intersection_stationary"):
        assert name not in ew.__all__


@pytest.mark.parametrize("mu", [[0.25] * 4, [0.1, 0.2, 0.3, 0.4], [0.0, 0.5, 0.3, 0.2]])
def test_float_eigenvalues_are_rounded_once(mu):
    dist = ew.intersection_weights(6, 3, mu)
    assert not dist.is_exact
    lat = ew.closure(dist)
    levels, index = _eigenvalues(dist, lat.flats)
    values = np.array(levels)[index]
    assert values.dtype == np.float64
    values = values.tolist()
    assert values[-1] == 1.0 and values[0] == 0.0
    supports = dist.supports
    for flat, value in zip(lat.flats.tolist(), values):
        assert value == math.fsum(w for s, w in zip(supports.tolist(), dist.weights) if s & ~flat == 0)


def test_a_float_report_holds_only_floats():
    g = ew.intersection_host(2, 3)
    report = ew.spectrum(ew.intersection_weights(2, 3, [0.1, 0.2, 0.3, 0.4]), g)
    assert report.eigenvalues.dtype == np.float64
    assert report.to_csv_rows()[0][2] == "0.0" and report.to_csv_rows()[-1][2] == "1.0"
    exact = ew.spectrum(ew.intersection_weights(2, 3, [Fraction(k, 10) for k in range(1, 5)]), g)
    assert all(type(v) is Fraction for v in exact.eigenvalues.tolist())
    assert exact.to_csv_rows()[0][2] == "0" and exact.eigenvalues[-1] == 1
    assert exact.eigenvalues.astype(float).tolist() == pytest.approx(report.eigenvalues.tolist())


@pytest.mark.parametrize("seed, distinct", [(5, 96), (6, 108), (7, 108)])
def test_float_spectrum_merges_equal_eigenvalues(tmp_path, seed, distinct):
    # summed per support and then across supports, the same exact sum could
    # round to neighbouring floats: seeds 5 and 7 listed 167 and 145 values
    config = custom_family(seed)
    reports = []
    for mode in ("double", "rational"):
        g, dist = load(config, tmp_path, mode)
        reports.append(ew.spectrum(dist, g))
    floats, exact = reports
    assert floats.eigenvalues[-1] == 1.0
    assert len(exact.by_value()) <= len(floats.by_value()) == distinct
