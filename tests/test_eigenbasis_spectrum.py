"""The per-edge chain's eigenvalue multiset, proved from its eigenbasis.

On the simple model `verify` takes no eigensolve: the eigenvector check's
psi-space residual bound and the orthonormality check's Gram bound prove
the multiset (Bauer-Fike), and the reported multiset is compared with the
eigensystem's. The dense eigensolve stays here as the oracle: the printed
residual must bound the sorted gap to it. The proof must fail when the
chain or the report is altered, and fall back to the dense comparison (or
the exact certificate) when the witnesses prove nothing.
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
from editwalk.verify import (
    check_eigenvector_residuals,
    check_orthonormality,
    check_spectrum_multiset,
    run_verification,
)

EXTREME_P = [1e-6, 0.5, 0.999999, 0.3, 1e-3, 0.5, 0.5, 0.9, 0.1, 0.2]


def path(m):
    return ew.from_edge_list(m + 1, [(i, i + 1) for i in range(m)])


def mixed_p(m, exact):
    return [Fraction(k % 10 + 1, 11) if exact else (k % 10 + 1) / 11 for k in range(m)]


def spectrum_check(g, p, tm=None, system=None, report=None):
    """check_spectrum_multiset fed as run_verification feeds it."""
    tm = tm or ew.build_chain(ew.simple_edit_weights(g, p), g)
    system = system or ew.eigensystem_simple(g, p)
    vectors, gram = check_eigenvector_residuals(system, tm), check_orthonormality(system)
    report = report or ew.eigenvalues_simple(g.m)
    return check_spectrum_multiset(report, tm, system.eigenvalues, vectors.witness, gram.witness)


probabilities = st.one_of(st.sampled_from([1e-9, 1 - 1e-9, 0.5]), st.floats(1e-9, 1 - 1e-9))


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 8).flatmap(lambda m: st.lists(probabilities, min_size=m, max_size=m)))
@example([1e-9] * 8)
@example([1 - 1e-9] * 8)
@example([1e-9, 1 - 1e-9] * 3)
def test_the_printed_residual_bounds_the_gap_to_the_dense_eigensolve(p):
    g = path(len(p))
    result = spectrum_check(g, p)
    tm = ew.build_chain(ew.simple_edit_weights(g, p), g)
    gap = eigenvalue_multiset_residual(ew.eigenvalues_simple(g.m).eigenvalue_multiset(), numeric_eigenvalues(tm))
    assert result.passed and result.detail == "eigenbasis"
    assert gap <= result.residual <= 1e-8


def test_a_moved_chain_cell_fails():
    g, p = path(4), mixed_p(4, False)
    tm = ew.build_chain(ew.simple_edit_weights(g, p), g)
    cells = tm.numerators.copy()
    cells[0] += 1e-6
    result = spectrum_check(g, p, tm=dataclasses.replace(tm, numerators=cells))
    assert not result.passed and result.detail.startswith("dense eigensolve, eigenbasis radius")


@pytest.mark.parametrize("exact", [False, True], ids=["double", "rational"])
def test_a_moved_unit_of_multiplicity_fails(exact):
    g, m = path(5), 5
    report = ew.eigenvalues_simple(m)
    moved = report.multiplicities.copy()
    moved[np.flatnonzero(report.index == 1)[0]] -= 1  # one eigenvalue 1/5 becomes 2/5
    moved[np.flatnonzero(report.index == 2)[0]] += 1
    result = spectrum_check(g, mixed_p(m, exact), report=dataclasses.replace(report, multiplicities=moved))
    assert not result.passed
    if exact:
        assert result.residual == 1.0 and result.detail == "exact: the multiplicities differ from the eigenbasis's"
    else:
        assert result.residual >= 1 / m and result.detail == "eigenbasis"


@pytest.mark.parametrize("exact", [False, True], ids=["double", "rational"])
def test_a_duplicated_psi_row_falls_back_and_passes(exact):
    """The witness is not the claim: a psi that proves nothing leaves the
    multiset to the dense eigensolve or the certificate, which pass."""
    g, p = path(4), mixed_p(4, exact)
    system = ew.eigensystem_simple(g, p)
    psi = system.psi.copy()
    psi[1] = psi[0]
    result = spectrum_check(g, p, system=dataclasses.replace(system, psi=psi))
    how = "exact by certificate" if exact else "dense eigensolve"
    assert result.passed and result.detail.startswith(f"{how}, eigenbasis Gram distance")


def test_a_nonzero_exact_identity_falls_back_to_the_certificate():
    g, p = path(4), mixed_p(4, True)
    system = ew.eigensystem_simple(g, p)
    values = list(system.eigenvalues)
    values[7] += Fraction(1, 97)
    wrong = dataclasses.replace(system, eigenvalues=tuple(values))
    tm = ew.build_chain(ew.simple_edit_weights(g, p), g)
    vectors, gram = check_eigenvector_residuals(wrong, tm), check_orthonormality(wrong)
    result = check_spectrum_multiset(ew.eigenvalues_simple(4), tm, wrong.eigenvalues, vectors.witness, gram.witness)
    assert not vectors.passed
    assert result.passed and result.detail == "exact by certificate, no exact eigenvector identity"


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
    assert spectrum.detail == ("exact" if exact else "eigenbasis")
    assert spectrum.residual == 0.0 if exact else spectrum.residual <= 1e-8
    # the exact product runs over the cells, ROW_BLOCK rows a call; the float one is one dense product
    assert PRODUCTS == (["_Psi"] if exact else ["_Rows", "_Psi"])
    assert sum(applied) == (1 << g.m if exact else 0)


def test_extreme_probabilities_on_k5_pass_the_spectrum_check():
    g = ew.complete_graph(5)
    results = run_verification(g, ew.simple_edit_weights(g, EXTREME_P), p=EXTREME_P)
    spectrum = next(r for r in results if r.name == "spectrum_multiset")
    assert spectrum.passed and spectrum.detail == "eigenbasis" and spectrum.residual <= 1e-8
