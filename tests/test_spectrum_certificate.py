"""The exact spectrum certificate of `verify`, against the dense eigensolve.

On an exact chain that is no two-state product, `check_spectrum_multiset`
proves the reported eigenvalue multiset with an annihilating polynomial
and power sums mod a prime, and calls no eigensolver; the simple chains
below are such products, so their cases call the certificate directly
(`certified`). Where `oracles.numeric_eigenvalues` runs in
seconds it must agree with it, and the certificate must fail when the
claim or the chain is altered, or choose another prime when the first
candidate divides a denominator or merges two levels.
"""

import dataclasses
import warnings
from fractions import Fraction

import numpy as np
import pytest
from oracles import eigenvalue_multiset_residual, numeric_eigenvalues
from test_random_families import seeded_families

import editwalk as ew
from editwalk import verify
from editwalk.errors import SupportNotCovering
from editwalk.verify import CheckResult, _block_product, check_spectrum_multiset, run_verification


def path(m):
    return ew.from_edge_list(m + 1, [(i, i + 1) for i in range(m)])


def compound(dist, g):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupportNotCovering)
        masks = ew.recurrent_class(dist, g)
        return ew.spectrum(dist, g, masks=masks), ew.build_chain(dist, g, masks)


def moran(n):
    g = ew.complete_graph(n)
    return compound(ew.moran_weights(g), g)


def intersection(n, N):
    mu = [Fraction(k + 1, (N + 1) * (N + 2) // 2) for k in range(N + 1)]
    return compound(ew.intersection_weights(n, N, mu), ew.intersection_host(n, N))


def simple(m):
    g = path(m)
    p = [Fraction(k % 10 + 1, 11) for k in range(m)]
    return ew.eigenvalues_simple(m), ew.build_chain(ew.simple_edit_weights(g, p), g)


CASES = {
    **{f"moran K{n}": (moran, n) for n in (3, 4, 5)},
    **{f"intersection {n}x{N}": (intersection, n, N) for n in (1, 2, 3) for N in (1, 2, 3)},
    **{f"simple m={m}": (simple, m) for m in range(1, 9)},
}


def proved(report, tm):
    result = check_spectrum_multiset(report, tm, _block_product(tm))
    return result.passed, result.detail


def certified(report, tm):
    """The certificate alone, as `proved` reads it: `check_spectrum_multiset`
    proves a simple chain by its two-state product instead."""
    fault = verify._spectrum_certificate(report, tm)
    return fault is None, "exact" if fault is None else f"exact: {fault}"


def oracle_gap(report, tm):
    return eigenvalue_multiset_residual(report.eigenvalue_multiset(), numeric_eigenvalues(tm))


@pytest.mark.parametrize("name", CASES)
def test_certificate_agrees_with_the_eigensolve(name):
    build, *args = CASES[name]
    report, tm = build(*args)
    assert tm.exact
    assert certified(report, tm) == (True, "exact")
    assert oracle_gap(report, tm) < 1e-8


def test_certificate_agrees_on_the_seeded_custom_families():
    for g, dist in seeded_families(424242, 20):
        report, tm = compound(dist, g)
        assert proved(report, tm) == (True, "exact")
        assert oracle_gap(report, tm) < 1e-8


def test_certificate_proves_moran_k6_in_seconds():
    """The dense eigensolve of these 2,931 states takes over a minute; the
    certificate holds the claim and rejects a moved multiplicity."""
    report, tm = moran(6)
    assert tm.size == 2931 and len(report.levels) == 6
    assert proved(report, tm) == (True, "exact")
    passed, detail = proved(moved_multiplicity(report), tm)
    assert not passed and "power sum" in detail


def moved_multiplicity(report):
    """One unit of multiplicity moved to a flat of another level."""
    mults = report.multiplicities.copy()
    src = np.flatnonzero(mults > 0)[0]
    dst = np.flatnonzero(report.index != report.index[src])[0]
    mults[src] -= 1
    mults[dst] += 1
    return dataclasses.replace(report, multiplicities=mults)


def dropped_level(report):
    """A level the chain has, its flats reassigned to a neighbouring level."""
    gone = report.index[np.flatnonzero(report.multiplicities > 0)[-1]]
    keep = [i for i in range(len(report.levels)) if i != gone]
    index = np.where(report.index == gone, keep[-1] if gone > keep[-1] else gone + 1, report.index)
    return dataclasses.replace(report, levels=[report.levels[i] for i in keep],
                               index=np.searchsorted(keep, index))


def moved_cell(tm):
    """The first cell of a row with two cells, its value moved onto the other."""
    rows = tm.rows.tolist()
    k = next(k for k in range(len(rows) - 1) if rows[k] == rows[k + 1])
    nums = tm.numerators.copy()
    nums[k + 1] += nums[k]
    nums[k] = 0
    return dataclasses.replace(tm, numerators=nums)


NEGATIVE = ("moran K4", "intersection 2x2", "simple m=4")


@pytest.mark.parametrize("name", NEGATIVE)
def test_a_moved_multiplicity_fails_the_power_sums(name):
    build, *args = CASES[name]
    report, tm = build(*args)
    passed, detail = certified(moved_multiplicity(report), tm)
    assert not passed and "power sum" in detail


@pytest.mark.parametrize("name", NEGATIVE)
def test_a_dropped_level_fails_the_annihilator(name):
    build, *args = CASES[name]
    report, tm = build(*args)
    passed, detail = certified(dropped_level(report), tm)
    assert not passed and "annihilate" in detail


@pytest.mark.parametrize("name", NEGATIVE)
def test_a_moved_cell_fails(name):
    build, *args = CASES[name]
    report, tm = build(*args)
    moved = moved_cell(tm)
    assert moved.row_sum_residual() == 0 and oracle_gap(report, moved) > 1e-8
    result = check_spectrum_multiset(report, moved, _block_product(moved))
    assert not result.passed and result.residual == 1.0
    assert result.line().startswith("FAIL  spectrum_multiset")


def test_a_claim_off_only_in_the_last_power_sum_fails():
    """On simple m=4 the totals 1, 4, 6, 4, 1 plus the alternating binomials
    1, -4, 6, -4, 1 keep every power sum k < 4; only k = D - 1 = 4 differs."""
    report, tm = simple(4)
    mults = np.array([2, 0, 2, 0, 2])[report.index]  # totals 2, 0, 12, 0, 2
    passed, detail = certified(dataclasses.replace(report, multiplicities=mults), tm)
    assert not passed and detail.startswith("exact: power sum 4 differs")


def candidates(*primes):
    """A stand-in for `_candidate_primes` that records each prime handed out."""
    tried = []

    def generate(n):
        for p in primes:
            tried.append(p)
            yield p
    return generate, tried


@pytest.mark.parametrize("name", NEGATIVE)
def test_a_total_outside_zero_to_n_fails(name, monkeypatch):
    """Totals shifted by +p and -p between two levels agree with the chain
    mod p; only their range rules them out."""
    build, *args = CASES[name]
    report, tm = build(*args)
    p = 131071
    generate, _ = candidates(p)
    monkeypatch.setattr(verify, "_candidate_primes", generate)
    mults = report.multiplicities.copy()
    src = np.flatnonzero(mults > 0)[0]
    dst = np.flatnonzero(report.index != report.index[src])[0]
    mults[src] += p
    mults[dst] -= p
    passed, detail = certified(dataclasses.replace(report, multiplicities=mults), tm)
    assert not passed and f"outside [0, {tm.size}]" in detail


def test_a_prime_dividing_the_denominator_is_passed_over(monkeypatch):
    g = path(2)
    tm = ew.build_chain(ew.simple_edit_weights(g, [Fraction(1, 101), Fraction(1, 2)]), g)
    assert tm.denominator % 101 == 0 and tm.size < 101
    generate, tried = candidates(101, 131071)
    monkeypatch.setattr(verify, "_candidate_primes", generate)
    assert certified(ew.eigenvalues_simple(2), tm) == (True, "exact")
    assert tried == [101, 131071]


def test_a_prime_merging_two_levels_is_passed_over(monkeypatch):
    """Levels 0, 5/18, 13/18 and 1: mod 13, 0 meets 13/18 and 5/18 meets 1."""
    g = path(2)
    weights = [Fraction(w, 18) for w in (2, 3, 6, 7)]
    report, tm = compound(ew.WeightedEdits(2, [1, 0, 2, 0], [0, 1, 0, 2], weights), g)
    assert report.levels == [0, Fraction(5, 18), Fraction(13, 18), 1] and tm.denominator == 18
    generate, tried = candidates(13, 131071)
    monkeypatch.setattr(verify, "_candidate_primes", generate)
    assert certified(report, tm) == (True, "exact")
    assert tried == [13, 131071]


def test_the_certificate_leaves_the_commute_pairs_alone(monkeypatch):
    """verify's commute states are the first draw of its generator, five
    distinct states whose ten pairs the check takes, as before the
    certificate drew its vectors."""
    g = path(4)
    p = [Fraction(k, 7) for k in (1, 2, 3, 4)]
    seen = []

    def record(g, p, tm, states):
        seen.extend(states)
        return CheckResult("commute_backends", 0.0, 1e-8, True)
    monkeypatch.setattr(verify, "check_commute_backends", record)
    results = run_verification(g, ew.simple_edit_weights(g, p), p=p, rng=np.random.default_rng(5))
    assert all(r.passed for r in results)
    assert seen == np.random.default_rng(5).choice(16, size=5, replace=False).tolist()
