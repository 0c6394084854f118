"""The Kronecker-product closed forms against the per-edge loops they replace.

phi and the eigensystem multiply the same factors in the same edge order
as the loops in `oracles`, so they must agree exactly: equal Fractions of
type Fraction in rational mode, `np.array_equal` arrays in float mode; the
eigensystem's psi rows stand for every psi. The commute time's terms, one
per edge subset, are kept in `oracles` only; their sum is `commute_time`.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import editwalk as ew
from editwalk import spectral
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

    system = ew.eigensystem_simple(g, p)
    assert system.exact == exact
    if exact:
        assert system.numerators.dtype == object
        assert all(type(x) is int for x in system.numerators.ravel())
        assert [[Fraction(v, system.denominator) for v in r] for r in system.numerators] == rows
        assert system.eigenvalues == tuple(Fraction(t.bit_count(), m) for t in range(1 << m))
    else:
        assert system.numerators.dtype == float and system.denominator == 1
        assert np.array_equal(system.numerators, np.array(rows))
        assert system.eigenvalues == tuple(t.bit_count() / m for t in range(1 << m))
        assert all(type(x) is float for x in system.eigenvalues)

    psi_rows = psi_rows_enumerated(g, p, np.arange(1 << m))
    if exact:  # the float rows of the exact phi, rounded once per cell
        assert system.psi.dtype == float and np.allclose(system.psi, psi_rows, rtol=1e-12, atol=1e-14)
    else:
        assert np.array_equal(system.psi, psi_rows)


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
    # `psi(T)` for row T of `eigensystem_simple(g, p).psi`
    removed = {"commute_terms", "psi"}
    assert not any(hasattr(spectral, name) for name in removed)
    for name in sorted(set(tracing.SPECTRAL_TIMED) | (set(tracing.INNER["editwalk.spectral"]) - removed)):
        if name == "to_float":  # traced as a TransitionMatrix method
            assert callable(spectral.TransitionMatrix.__dict__.get(name))
        else:
            assert getattr(spectral, name).__module__ == "editwalk.spectral", name
