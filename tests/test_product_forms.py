"""The Kronecker-product closed forms against the per-edge loops they replace.

phi multiplies the same factors in the same edge order as the loops in
`oracles`, so they must agree exactly: equal Fractions of type Fraction in
rational mode, `np.array_equal` arrays in float mode. The whole
eigensystem and its psi rows are kept in `oracles` only, as dense rows;
`verify` checks them from the factors alone. The commute time's terms, one
per edge subset, are kept in `oracles` only; their sum is `commute_time`.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import editwalk as ew
from editwalk import spectral
from editwalk.process import _kron
from editwalk.verify import U, _block_product, check_eigenvector_residuals, check_orthonormality
from oracles import (
    commute_terms_enumerated,
    commute_time_enumerated,
    phi_enumerated,
    psi_rows_enumerated,
)


def path_host(m):
    return ew.from_edge_list(m + 1, [(i, i + 1) for i in range(m)])


def probabilities(rng, m, exact):
    if exact:
        return [Fraction(int(k), 13) for k in rng.integers(1, 13, size=m)]
    return [float(x) for x in rng.uniform(0.02, 0.98, size=m)]


def assert_identical(got, want):
    if isinstance(want, list):
        assert isinstance(got, list) and got == want
        assert all(type(x) is Fraction for x in got)
    else:
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
@pytest.mark.parametrize("m", range(1, 9))
def test_phi_psi_and_eigensystem_match_loops(m, exact):
    rng = np.random.default_rng(100 * m + exact)
    g, p = path_host(m), probabilities(rng, m, exact)
    rows = [phi_enumerated(ew.EdgeSet(m, t), g, p) for t in range(1 << m)]
    for t, row in enumerate(rows):
        assert_identical(ew.phi(ew.EdgeSet(m, t), g, p), row)
    assert_identical(ew.stationary_closed_form(g, p), rows[-1])

    # the whole eigensystem: verify's factor checks against the dense rows
    factors = spectral._phi_factors(g, p, 1 << m)
    tm = ew.build_chain(ew.simple_edit_weights(g, p), g)
    eigen = check_eigenvector_residuals(factors, ew.eigenvalues_simple(m), _block_product(tm))
    gram = check_orthonormality(factors)
    psi = psi_rows_enumerated(g, p, np.arange(1 << m))
    dense = np.array(rows, dtype=float)
    lam = np.bitwise_count(np.arange(1 << m)) / m
    assert np.abs(dense @ tm.to_float() - lam[:, None] * dense).max() <= eigen.residual + 1e-15
    assert np.abs(psi @ psi.T - np.eye(1 << m)).max() < 1e-12
    if exact:
        assert (eigen.residual, eigen.detail, gram.residual, gram.detail) == (0.0, "exact", 0.0, "exact")
    else:
        assert eigen.passed and gram.passed and eigen.residual <= 8 * m * U and gram.residual <= m * U


@pytest.mark.parametrize("p", ["0.999999999", "0.999999", "0.000000001"])
def test_rational_psi_near_the_ends_stays_orthonormal(p):
    """Rational factors give exact 2x2 Grams, so p near 0 or 1 costs
    nothing; forming p_e(1-p_e) from a rounded p_e once cost 1.131e-07
    at 0.999999999."""
    g = path_host(4)
    result = check_orthonormality(spectral._phi_factors(g, [Fraction(p)] * g.m, 1 << g.m))
    assert result.passed and result.residual == 0.0 and result.detail == "exact"


@pytest.mark.parametrize("seed", range(8))
def test_float_psi_keeps_the_bits_of_p_times_one_minus_p(seed):
    """In float mode the factors' f[1, 0] f[1, 1] / f[0, 1]^2, the v_e of
    `check_orthonormality`, is p_e (1.0 - p_e) bit for bit, so the bound
    reads psi's scale as formed from p_e directly; it holds at the ends."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 9))
    p = [float(x) for x in rng.choice([rng.uniform(0, 1), 1e-9, 1 - 1e-9, 0.999999999], size=m)]
    g = path_host(m)
    factors = spectral._phi_factors(g, p, 1 << m)
    assert [f[1, 0] * f[1, 1] / f[0, 1] ** 2 for f in factors[0]] == [pe * (1.0 - pe) for pe in p]
    result = check_orthonormality(factors)
    assert result.passed and result.residual <= m * U and result.detail == ""
    psi = psi_rows_enumerated(g, p, np.arange(1 << m))
    assert np.abs(psi @ psi.T - np.eye(1 << m)).max() < 1e-10


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_orthonormality_bound_holds_the_dense_gram_of_bent_factors(exact):
    """One factor's row 0 bent from [-d, d] to [-2d, d]: its psi rows are no
    longer orthonormal, and the bound from the 2x2 Grams stays above the
    dense Gram of the Kronecker-product psi rows."""
    m = 4
    g, p = path_host(m), probabilities(np.random.default_rng(7 + exact), m, exact)
    rows, den = spectral._phi_factors(g, p, 1 << m)
    bent = [f.copy() for f in rows]
    bent[2][0, 0] *= 2
    result = check_orthonormality((bent, den))
    scaled = []
    for f in bent:
        F = (f / f[0, 1]).astype(float)
        scaled.append(np.array([np.sqrt(F[1, 0] * F[1, 1]) * F[0], F[1]]) / np.sqrt(F[1]))
    psi = _kron(scaled)  # row T, column the state
    gap = np.abs(psi @ psi.T - np.eye(1 << m)).max()
    assert not result.passed and result.residual >= gap * (1 - 1e-12) and gap > 0.1


@pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
def test_commute_terms_match_loop(exact):
    rng = np.random.default_rng(31 + exact)
    for _ in range(24):
        m = int(rng.integers(1, 9))
        g, p = path_host(m), probabilities(rng, m, exact)
        E, F = (ew.EdgeSet(m, int(x)) for x in rng.integers(0, 1 << m, size=2))
        got = commute_terms_enumerated(E, F, g, p)
        assert [t.mask for t, _ in got] == list(range((1 << m) - 1))
        values = [v for _, v in got]
        want = (commute_time_enumerated(E, F, g, p), ew.commute_time(E, F, g, p))
        if exact:
            assert sum(values) == want[0] == want[1]
        else:
            assert sum(values) == pytest.approx(want[0], rel=1e-12)
            assert sum(values) == pytest.approx(want[1], rel=1e-12)
        assert all(type(v) is (Fraction if exact else float) for v in values)
        delta = E.mask ^ F.mask
        vanishing = [v for t, v in got if delta & ~t.mask == 0]
        assert all(v == 0 for v in vanishing)


def test_traced_spectral_names_exist():
    """The benchmark's tracer looks up these spectral functions by name; a
    rename would silently zero their per-layer metrics."""
    source = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", source)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # an INNER name only keeps a function out of the spans, so a removed one
    # zeroes no metric; `commute_terms` left the library for `oracles`, and
    # `psi(T)` for `oracles.psi_rows_enumerated`. A removed timed name reads
    # 0 because nothing calls it: verify checks the eigenvectors from the
    # factors, `hitting_time` moved to `oracles`, and so did the dense LU
    # `stationary_numeric`, which verify replaced by a coupling bound; the
    # float eigensolve `numeric_eigenvalues` became verify's private fallback.
    removed = {"commute_terms", "psi", "eigensystem_simple", "hitting_time", "stationary_numeric", "numeric_eigenvalues"}
    assert not any(hasattr(spectral, name) for name in removed)
    for name in sorted((set(tracing.SPECTRAL_TIMED) | set(tracing.INNER["editwalk.spectral"])) - removed):
        if name == "to_float":  # traced as a TransitionMatrix method
            assert callable(spectral.TransitionMatrix.__dict__.get(name))
        else:
            assert getattr(spectral, name).__module__ == "editwalk.spectral", name
