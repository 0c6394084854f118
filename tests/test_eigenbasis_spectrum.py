"""The per-edge chain's eigenvalue multiset, proved from its two-state product.

On the simple model `verify` takes no eigensolve: the chain's cells show
it is the Kronecker sum of m two-state chains plus a diagonal, so Weyl's
inequality puts its sorted eigenvalues within the diagonal's spread of the
subset sums of the rates (`verify._two_state_product`). The dense
eigensolve stays here as the oracle, and the exact certificate as a second
proof. The product must be declined when the cells are not one, and the
check must fail when the chain or the report is altered.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import editwalk as ew
from editwalk import verify
from editwalk.spectral import TransitionMatrix, eigenvalue_multiset_residual, numeric_eigenvalues
from editwalk.verify import U, _two_state_product, check_spectrum_multiset, run_verification

EXTREME_P = [1e-6, 0.5, 0.999999, 0.3, 1e-3, 0.5, 0.5, 0.9, 0.1, 0.2]
TINY_P = [1e-9, 1e-9, 1e-9, 0.3, 1e-3, 0.5, 0.5, 0.9, 0.1, 0.2]


def path(m):
    return ew.from_edge_list(m + 1, [(i, i + 1) for i in range(m)])


def mixed_p(m, exact):
    return [Fraction(k % 10 + 1, 11) if exact else (k % 10 + 1) / 11 for k in range(m)]


def chain(g, p):
    return ew.build_chain(ew.simple_edit_weights(g, p), g)


def eigvalsh_error(n):
    """A bound on the forward error of `eigvalsh` on an n x n symmetric
    matrix of 2-norm 1, as D^(1/2) P D^(-1/2) of a reversible chain is: its
    eigenvalues are those of Q + dQ with ||dQ||_2 <= p(n) u ||Q||_2 (LAPACK
    Users' Guide, section 4.7, for a modest p(n)), taken as 4n u here,
    which also covers forming Q cell by cell."""
    return 4 * n * U


probabilities = st.one_of(st.sampled_from([1e-9, 1 - 1e-9, 0.5]), st.floats(1e-9, 1 - 1e-9))


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 8).flatmap(lambda m: st.lists(probabilities, min_size=m, max_size=m)))
@example([1e-9] * 8)
@example([1 - 1e-9] * 8)
@example([1e-9, 1 - 1e-9] * 3)
def test_the_printed_residual_bounds_the_gap_to_the_dense_eigensolve(p):
    """The residual is below eigvalsh's own error, so the oracle agrees
    only within the residual plus that error."""
    g = path(len(p))
    tm = chain(g, p)
    report = ew.eigenvalues_simple(g.m)
    result = check_spectrum_multiset(report, tm)
    gap = eigenvalue_multiset_residual(report.eigenvalue_multiset(), numeric_eigenvalues(tm))
    assert result.passed and result.detail == "product" and result.residual <= 1e-14
    assert gap <= result.residual + eigvalsh_error(tm.size)


@pytest.mark.parametrize("m", range(1, 9))
def test_the_product_and_the_certificate_both_prove_rational_chains(m):
    g, report = path(m), ew.eigenvalues_simple(m)
    tm = chain(g, mixed_p(m, True))
    levels, radius, den = _two_state_product(tm)
    assert radius == 0 and sorted(Fraction(v, den) for v in levels.tolist()) == sorted(report.eigenvalues)
    result = check_spectrum_multiset(report, tm)
    assert (result.passed, result.residual, result.detail) == (True, 0.0, "exact")
    assert verify._spectrum_certificate(report, tm) is None


def moved(tm, cell, by):
    nums = tm.numerators.copy()
    nums[cell] += by
    return dataclasses.replace(tm, numerators=nums)


def test_a_moved_chain_cell_fails():
    """An off-diagonal cell off its edge's shared rate: no product, and the
    dense eigensolve finds the spectrum moved."""
    g, p = path(4), mixed_p(4, False)
    tm = chain(g, p)
    cell = np.flatnonzero((tm.rows == 0) & (tm.cols == 1))[0]
    broken = moved(tm, cell, 1e-6)
    assert _two_state_product(broken) is None
    result = check_spectrum_multiset(ew.eigenvalues_simple(4), broken)
    assert not result.passed and result.detail == ""


def test_a_moved_diagonal_cell_fails():
    """A product still, with the moved cell's 1e-6 as the diagonal's spread."""
    g, p = path(4), mixed_p(4, False)
    tm = chain(g, p)
    cell = np.flatnonzero((tm.rows == 5) & (tm.cols == 5))[0]
    result = check_spectrum_multiset(ew.eigenvalues_simple(4), moved(tm, cell, 1e-6))
    assert not result.passed and result.detail == "product" and result.residual >= 1e-6


@pytest.mark.parametrize("exact", [False, True], ids=["double", "rational"])
def test_a_moved_unit_of_multiplicity_fails(exact):
    m = 5
    report = ew.eigenvalues_simple(m)
    mults = report.multiplicities.copy()
    mults[np.flatnonzero(report.index == 1)[0]] -= 1  # one eigenvalue 1/5 becomes 2/5
    mults[np.flatnonzero(report.index == 2)[0]] += 1
    result = check_spectrum_multiset(dataclasses.replace(report, multiplicities=mults), chain(path(m), mixed_p(m, exact)))
    assert not result.passed
    if exact:
        assert result.residual == 1.0 and result.detail == "exact: the multiplicities differ from the product's"
    else:
        assert result.residual >= 1 / m and result.detail == "product"


@pytest.mark.parametrize("value", [0.0, -0.05])
def test_a_flip_value_at_most_zero_declines(value):
    """Every upward flip of edge 0 set to one value <= 0: shared, not positive."""
    tm = chain(path(3), mixed_p(3, False))
    nums = tm.numerators.copy()
    nums[(tm.cols == tm.rows | 1) & (tm.rows & 1 == 0)] = value
    assert _two_state_product(dataclasses.replace(tm, numerators=nums)) is None


def test_a_missing_flip_declines():
    """State 0 no longer moves across edge 0: its row is no product's."""
    tm = chain(path(3), mixed_p(3, False))
    keep = ~((tm.rows == 0) & (tm.cols == 1))
    cut = dataclasses.replace(tm, rows=tm.rows[keep], cols=tm.cols[keep], numerators=tm.numerators[keep])
    assert _two_state_product(cut) is None


def test_an_exact_chain_off_its_product_goes_to_the_certificate():
    """A moved diagonal cell leaves an exact product with a nonzero radius,
    which proves no exact multiset; the certificate then refutes the claim."""
    tm = chain(path(4), mixed_p(4, True))
    cell = np.flatnonzero((tm.rows == 5) & (tm.cols == 5))[0]
    broken = moved(tm, cell, 1)
    assert _two_state_product(broken)[1] != 0
    result = check_spectrum_multiset(ew.eigenvalues_simple(4), broken)
    assert not result.passed and result.detail == "exact: the levels do not annihilate the chain"


def single_edge_family(m, exact, empty):
    """A set and a clear edit on every edge, all weights unequal, and
    optionally the empty edit, which adds its weight to every eigenvalue."""
    raw = list(range(1, 2 * m + 1)) + ([2 * m + 1] if empty else [])
    total = sum(raw)
    weights = [Fraction(w, total) if exact else w / total for w in raw]
    bits = [1 << e for e in range(m)]
    plus = [bits[k // 2] if k % 2 == 0 else 0 for k in range(2 * m)] + ([0] if empty else [])
    minus = [bits[k // 2] if k % 2 == 1 else 0 for k in range(2 * m)] + ([0] if empty else [])
    return ew.WeightedEdits(m, plus, minus, weights)


@pytest.mark.parametrize("empty", [False, True], ids=["set-clear", "with-empty-edit"])
@pytest.mark.parametrize("exact", [False, True], ids=["double", "rational"])
def test_a_custom_single_edge_family_takes_the_product_proof(exact, empty):
    g = path(4)
    dist = single_edge_family(4, exact, empty)
    tm = ew.build_chain(dist, g)
    _, radius, den = _two_state_product(tm)
    assert radius == 0 if exact else radius / den < 1e-15
    results = run_verification(g, dist, exact=exact)
    spectrum = next(r for r in results if r.name == "spectrum_multiset")
    assert all(r.passed for r in results)
    assert spectrum.detail == ("exact" if exact else "product") and spectrum.residual <= 1e-14


@pytest.mark.parametrize("exact", [False, True], ids=["double", "rational"])
def test_moran_and_intersection_chains_never_take_the_product_proof(exact):
    mu = [Fraction(1, 4)] * 4 if exact else [0.25] * 4
    for dist, g in (
        (ew.moran_weights(ew.complete_graph(4)), ew.complete_graph(4)),
        (ew.intersection_weights(2, 3, mu), ew.intersection_host(2, 3)),
    ):
        tm = ew.build_chain(dist, g, ew.recurrent_class(dist, g))
        assert _two_state_product(tm) is None


class _Rows(np.ndarray):
    """phi's numerators, counting the matrix products that read them."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            PRODUCTS.append(type(self).__name__)
        inputs = tuple(x.view(np.ndarray) if isinstance(x, _Rows) else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


class _Psi(_Rows):
    """psi, counted apart from phi."""


PRODUCTS = []


@pytest.mark.parametrize("n, exact", [(5, False), (4, True)], ids=["double m=10", "rational m=6"])
def test_verify_takes_no_eigensolve_and_one_product_and_gram(monkeypatch, n, exact):
    g = ew.complete_graph(n)
    p = mixed_p(g.m, exact)

    def refuse(*args, **kwargs):
        raise AssertionError("verify took a dense eigensolve or the certificate")

    for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigvals"), (verify, "_spectrum_certificate")):
        monkeypatch.setattr(module, name, refuse)

    def counted(*args, **kwargs):
        system = ew.eigensystem_simple(*args, **kwargs)
        return dataclasses.replace(system, numerators=system.numerators.view(_Rows), psi=system.psi.view(_Psi))

    applied = []
    left_apply = TransitionMatrix.left_apply

    def spy(self, vectors):
        if np.ndim(vectors) == 2:
            applied.append(len(vectors))
        return left_apply(self, vectors)

    monkeypatch.setattr(verify, "eigensystem_simple", counted)
    monkeypatch.setattr(TransitionMatrix, "left_apply", spy)
    PRODUCTS.clear()
    results = run_verification(g, ew.simple_edit_weights(g, p), p=p)
    assert all(r.passed for r in results)
    spectrum = next(r for r in results if r.name == "spectrum_multiset")
    assert spectrum.detail == ("exact" if exact else "product")
    assert spectrum.residual == 0.0 if exact else spectrum.residual <= 1e-14
    # the exact product runs over the cells, ROW_BLOCK rows a call; the float one is one dense product
    assert PRODUCTS == (["_Psi"] if exact else ["_Rows", "_Psi"])
    assert sum(applied) == (1 << g.m if exact else 0)


def test_extreme_probabilities_on_k5_pass_the_spectrum_check():
    """The check reads only the chain's cells, so no eigensystem is built."""
    g, report = ew.complete_graph(5), ew.eigenvalues_simple(10)
    for p in (EXTREME_P, TINY_P):
        for exact in (False, True):
            result = check_spectrum_multiset(report, chain(g, [Fraction(x) for x in p] if exact else p))
            assert result.passed and result.residual <= 1e-14
            assert result.detail == ("exact" if exact else "product")
