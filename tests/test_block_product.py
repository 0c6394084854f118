"""The simple and intersection models as products of independent block
refreshes.

`spectral.block_spectrum` maps each block's rate and support size to the
spectrum by value; it must equal the support lattice's report on every
enumerable model. `verify._block_product` reads the blocks off a chain's
cells, so `verify` proves the intersection spectrum with no eigensolve,
and must decline or fail when a cell moves. Lazy intersection, which
enumerates nothing, gets its `spectrum` and `mixing` from the closed form.
"""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from oracles import read_csv, read_json

import editwalk as ew
from editwalk.cli import main
from editwalk.spectral import block_spectrum
from editwalk.verify import _block_product, check_spectrum_multiset

INTERSECTIONS = [  # (n, N, mu), with zero entries in mu, down to one pattern per block
    (2, 2, ["1/4", "1/2", "1/4"]),
    (3, 2, ["1/2", "1/2", "0"]),
    (2, 3, ["0", "1/3", "1/3", "1/3"]),
    (4, 3, ["0", "1/4", "3/4", "0"]),
    (6, 3, ["0", "1/2", "1/2", "0"]),
    (3, 3, ["1", "0", "0", "0"]),
]


def intersection(n, N, mu, exact=True):
    mu = [Fraction(x) if exact else float(Fraction(x)) for x in mu]
    return ew.intersection_host(n, N), ew.intersection_weights(n, N, mu)


def by_value(report):
    """(eigenvalue, multiplicity, flats) per distinct level of a lattice report."""
    totals = np.bincount(report.index, report.multiplicities, len(report.levels)).astype(int)
    return list(zip(report.levels, totals.tolist(), np.bincount(report.index, minlength=len(report.levels)).tolist()))


@pytest.mark.parametrize("n, N, mu", INTERSECTIONS, ids=[f"{n}x{N}" for n, N, _ in INTERSECTIONS])
def test_the_closed_form_is_the_lattice_spectrum_of_intersection(n, N, mu):
    g, dist = intersection(n, N, mu)
    s = sum(math.comb(N, k) for k, x in enumerate(mu) if Fraction(x))
    assert block_spectrum([Fraction(1, n)] * n, [s] * n) == by_value(ew.spectrum(dist, g))


@pytest.mark.parametrize("m", range(1, 11))
def test_the_closed_form_is_the_lattice_spectrum_of_the_simple_model(m):
    g = ew.from_edge_list(m + 1, [(i, i + 1) for i in range(m)])
    dist = ew.simple_edit_weights(g, [Fraction(e % 4 + 1, 6) for e in range(m)])
    assert block_spectrum([Fraction(1, m)] * m, [2] * m) == by_value(ew.spectrum(dist, g))


@pytest.mark.parametrize("exact", [False, True], ids=["double", "rational"])
@pytest.mark.parametrize("n, N, mu", INTERSECTIONS[:5], ids=[f"{n}x{N}" for n, N, _ in INTERSECTIONS[:5]])
def test_the_blocks_are_the_neighbourhoods_and_their_values_the_weights(n, N, mu, exact):
    """Block v is left vertex v's N edges, and its values are its edits'
    weights, read exactly as the ratios the float weights store."""
    g, dist = intersection(n, N, mu, exact)
    product = _block_product(ew.build_chain(dist, g, ew.recurrent_class(dist, g)))
    assert product.blocks == [((1 << N) - 1) << v * N for v in range(n)]
    per_block = len(dist.weights) // n
    for v, values in enumerate(product.values):
        want = [Fraction(w) for w in dist.weights[v * per_block:(v + 1) * per_block]]
        assert [Fraction(x, product.den) for x in values] == want
    assert product.radius == 0 or not exact


@pytest.mark.parametrize("exact", [False, True], ids=["double", "rational"])
@pytest.mark.parametrize("diagonal", [False, True], ids=["off-diagonal", "diagonal"])
def test_a_moved_cell_fails_the_spectrum_check(exact, diagonal):
    """A moved off-diagonal cell is no block product, so the dense fallback or
    the certificate refutes the report; a moved diagonal cell widens E, which
    the float residual shows and which sends an exact chain to the certificate."""
    g, dist = intersection(2, 2, ["1/4", "1/2", "1/4"], exact)
    tm = ew.build_chain(dist, g, ew.recurrent_class(dist, g))
    report = ew.spectrum(dist, g, masks=tm.masks)
    assert check_spectrum_multiset(report, tm, _block_product(tm)).passed
    cell = np.flatnonzero((tm.rows == 5) & ((tm.cols == 5) == diagonal))[0]
    nums = tm.numerators.copy()
    nums[cell] += 1 if exact else 1e-3
    broken = dataclasses.replace(tm, numerators=nums)
    product = _block_product(broken)
    assert (product is None) != diagonal
    result = check_spectrum_multiset(report, broken, product)
    assert not result.passed
    if diagonal and not exact:
        assert result.detail == "product" and result.residual >= 0.999e-3 / 2


@pytest.mark.parametrize("exact", [False, True], ids=["double", "rational"])
def test_a_state_missing_one_neighbour_declines(exact):
    """Row 0 still reaches every pattern and every other cell keeps its
    value, but state 5 no longer moves to one state of its own block."""
    g, dist = intersection(2, 2, ["1/4", "1/2", "1/4"], exact)
    tm = ew.build_chain(dist, g, ew.recurrent_class(dist, g))
    keep = np.ones(len(tm.rows), bool)
    keep[np.flatnonzero((tm.rows == 5) & (tm.cols != 5))[0]] = False
    cut = dataclasses.replace(tm, rows=tm.rows[keep], cols=tm.cols[keep], numerators=tm.numerators[keep])
    assert _block_product(cut) is None


LAZY = {"model": {"name": "intersection", "n": 50, "N": 40, "mu": ["1/41"] * 41, "mode": "lazy"}}


def run(tmp_path, command, cfg, *flags):
    tmp_path.mkdir(exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path), "--out", str(tmp_path), *flags])


def test_lazy_intersection_spectrum_and_mixing_come_from_the_closed_form(tmp_path):
    """50 blocks of 2^40 patterns: 51 eigenvalues j/50 whose multiplicities
    sum to the 2^2000 chambers, and the mixing bound from lambda* = 49/50."""
    assert run(tmp_path, "spectrum", LAZY) == 0
    meta, header, rows = read_csv(tmp_path / "spectrum.csv")
    assert header == ["eigenvalue", "multiplicity", "flats"] and len(rows) == 51
    assert meta["closed_form"].startswith("block refreshes: eigenvalue j/50")
    assert [float(r[0]) for r in rows] == [j / 50 for j in range(51)]
    assert sum(int(r[1]) for r in rows) == 2 ** 2000 and sum(int(r[2]) for r in rows) == 2 ** 50
    assert run(tmp_path, "mixing", LAZY) == 0
    meta, data = read_json(tmp_path / "mixing.json")
    assert meta["lambda_star"] == 0.98 and meta["chambers"] == 2 ** 2000
    assert data["bound_steps"] == meta["bound_steps"] == ew.mixing_bound_compound(0.98, 2000, 1.0, 2 ** 2000)
    assert "curve_skipped" in meta and not (tmp_path / "mixing.csv").exists()


@pytest.mark.parametrize("mode", ["double", "rational"])
def test_lazy_rows_aggregate_the_explicit_spectrum(tmp_path, mode):
    model = {"name": "intersection", "n": 3, "N": 2, "mu": ["1/2", "1/2", "0"]}
    rows = {}
    for layout in ("explicit", "lazy"):
        out = tmp_path / layout
        assert run(out, "spectrum", {"model": {**model, "mode": layout}, "mode": mode}) == 0
        assert run(out, "mixing", {"model": {**model, "mode": layout}, "mode": mode}) == 0
        rows[layout] = read_csv(out / "spectrum.csv")[2]
        mixing = read_csv(out / "mixing.csv")[0] if layout == "explicit" else read_json(out / "mixing.json")[0]
        rows[layout + " mixing"] = [mixing[k] for k in ("lambda_star", "chambers", "bound_steps")]
    explicit = {}
    for _, _, value, mult in rows["explicit"]:
        total, flats = explicit.get(value, (0, 0))
        explicit[value] = (total + int(mult), flats + 1)
    assert {value: (int(mult), int(flats)) for value, mult, flats in rows["lazy"]} == explicit
    assert [str(x) for x in rows["lazy mixing"]] == rows["explicit mixing"]
