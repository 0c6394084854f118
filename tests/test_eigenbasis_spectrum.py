"""The per-edge chain's spectrum and eigenvectors, proved from its two-state product.

On the simple model `verify` takes no eigensolve: the chain's cells show
it is the Kronecker sum of m two-state chains plus a diagonal, so Weyl's
inequality puts its sorted eigenvalues within the diagonal's spread of the
subset sums of the rates (`verify._two_state_product`), and the same pass
checks phi's 2x2 factors against each two-state chain. The dense
eigensolve stays here as the oracle, and the exact certificate as a second
proof. The product must be declined when the cells are not one, and the
checks must fail when the chain or the report is altered.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import eigenvalue_multiset_residual, numeric_eigenvalues

import editwalk as ew
from editwalk import verify
from editwalk.spectral import TransitionMatrix
from editwalk.verify import (
    U,
    _two_state_product,
    check_eigenvector_residuals,
    check_spectrum_multiset,
    run_verification,
)

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
    result = check_spectrum_multiset(report, tm, _two_state_product(tm))
    gap = eigenvalue_multiset_residual(report.eigenvalue_multiset(), numeric_eigenvalues(tm))
    assert result.passed and result.detail == "product" and result.residual <= 1e-14
    assert gap <= result.residual + eigvalsh_error(tm.size)


@pytest.mark.parametrize("m", range(1, 9))
def test_the_product_and_the_certificate_both_prove_rational_chains(m):
    g, report = path(m), ew.eigenvalues_simple(m)
    tm = chain(g, mixed_p(m, True))
    product = _two_state_product(tm)
    assert product.radius == 0 and product.exact
    assert sorted(Fraction(v, product.den) for v in product.levels.tolist()) == sorted(report.eigenvalues)
    result = check_spectrum_multiset(report, tm, product)
    assert (result.passed, result.residual, result.detail) == (True, 0.0, "exact")
    assert verify._spectrum_certificate(report, tm) is None


def moved(tm, cell, by):
    nums = tm.numerators.copy()
    nums[cell] += by
    return dataclasses.replace(tm, numerators=nums)


def eigenvector_check(g, p, tm):
    factors = ew.spectral._phi_factors(g, p, 1 << g.m)
    return check_eigenvector_residuals(factors, ew.eigenvalues_simple(g.m), _two_state_product(tm))


def test_a_moved_chain_cell_fails():
    """An off-diagonal cell off its edge's shared rate: no product, so the
    eigenvector check fails by name, and the dense eigensolve finds the
    spectrum moved."""
    g, p = path(4), mixed_p(4, False)
    tm = chain(g, p)
    cell = np.flatnonzero((tm.rows == 0) & (tm.cols == 1))[0]
    broken = moved(tm, cell, 1e-6)
    assert _two_state_product(broken) is None
    result = check_spectrum_multiset(ew.eigenvalues_simple(4), broken, None)
    assert not result.passed and result.detail == ""
    eigen = eigenvector_check(g, p, broken)
    assert not eigen.passed and eigen.detail == "the chain is no two-state product"


def test_a_moved_diagonal_cell_fails():
    """A product still, with the moved cell's shift as the diagonal's spread,
    which moves phi_0 at that state by 1e-6: both checks see it. The stored
    shift fl(v + 1e-6) - v lies just below 1e-6, and the spectrum check,
    exact over the cells' ratios, prints it up to the other cells' rounding."""
    g, p = path(4), mixed_p(4, False)
    tm = chain(g, p)
    cell = np.flatnonzero((tm.rows == 5) & (tm.cols == 5))[0]
    broken = moved(tm, cell, 1e-6)
    shift = Fraction(broken.numerators[cell]) - Fraction(tm.numerators[cell])
    result = check_spectrum_multiset(ew.eigenvalues_simple(4), broken, _two_state_product(broken))
    assert not result.passed and result.detail == "product"
    assert result.residual == pytest.approx(float(shift), rel=1e-9)
    eigen = eigenvector_check(g, p, broken)
    assert not eigen.passed and eigen.detail == "" and eigen.residual >= 0.999e-6


@pytest.mark.parametrize("exact", [False, True], ids=["double", "rational"])
def test_a_moved_unit_of_multiplicity_fails(exact):
    m = 5
    report = ew.eigenvalues_simple(m)
    mults = report.multiplicities.copy()
    mults[np.flatnonzero(report.index == 1)[0]] -= 1  # one eigenvalue 1/5 becomes 2/5
    mults[np.flatnonzero(report.index == 2)[0]] += 1
    tm = chain(path(m), mixed_p(m, exact))
    result = check_spectrum_multiset(dataclasses.replace(report, multiplicities=mults), tm, _two_state_product(tm))
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
    product = _two_state_product(broken)
    assert product.radius != 0
    result = check_spectrum_multiset(ew.eigenvalues_simple(4), broken, product)
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
    product = _two_state_product(tm)
    assert product.radius == 0 if exact else product.radius / product.den < 1e-15
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


@pytest.mark.parametrize("n, exact", [(5, False), (4, True)], ids=["double m=10", "rational m=6"])
def test_verify_takes_no_eigensolve_and_one_product_and_gram(monkeypatch, n, exact):
    """One two-state product pass serves the spectrum and the eigenvectors,
    and the eigenvectors and their Gram matrix are checked from the 2x2
    factors: no eigensolve, no Kronecker product past a vector, and no
    product of the chain with a stack of rows."""
    g = ew.complete_graph(n)
    p = mixed_p(g.m, exact)

    def refuse(*args, **kwargs):
        raise AssertionError("verify took a dense eigensolve or the certificate")

    for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "eigvals"), (verify, "_spectrum_certificate")):
        monkeypatch.setattr(module, name, refuse)

    def spy(name, original, seen):
        def wrapped(*args, **kwargs):
            seen.append(original(*args, **kwargs))
            return seen[-1]
        monkeypatch.setattr(verify, name, wrapped)

    products, krons = [], []
    spy("_two_state_product", _two_state_product, products)
    spy("_kron", verify._kron, krons)
    stacks = []
    left_apply = TransitionMatrix.left_apply

    def counted(self, vectors):
        stacks.append(np.ndim(vectors))
        return left_apply(self, vectors)

    monkeypatch.setattr(TransitionMatrix, "left_apply", counted)
    results = run_verification(g, ew.simple_edit_weights(g, p), p=p)
    assert all(r.passed for r in results)
    assert not any(hasattr(module, "eigensystem_simple") for module in (ew, verify, ew.spectral))
    assert len(products) == 1 and products[0] is not None
    assert krons and all(k.ndim == 1 for k in krons)
    assert 2 not in stacks
    spectrum, eigen, gram = (next(r for r in results if r.name == name)
                             for name in ("spectrum_multiset", "eigenvector_residual", "orthonormality"))
    assert spectrum.detail == ("exact" if exact else "product")
    assert spectrum.residual == 0.0 if exact else spectrum.residual <= 1e-14
    if exact:
        assert (eigen.residual, eigen.detail, gram.residual, gram.detail) == (0.0, "exact", 0.0, "exact")
    else:
        assert eigen.residual <= 8 * g.m * U and gram.residual <= g.m * U


def test_extreme_probabilities_on_k5_pass_the_spectrum_check():
    """The check reads only the chain's cells, so no eigensystem is built."""
    g, report = ew.complete_graph(5), ew.eigenvalues_simple(10)
    for p in (EXTREME_P, TINY_P):
        for exact in (False, True):
            probs = [Fraction(x) for x in p] if exact else p
            tm = chain(g, probs)
            result = check_spectrum_multiset(report, tm, _two_state_product(tm))
            assert result.passed and result.residual <= 1e-14
            assert result.detail == ("exact" if exact else "product")
            eigen = eigenvector_check(g, probs, tm)
            assert eigen.passed and eigen.residual <= (0 if exact else 5e-15)
