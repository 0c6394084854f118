"""The factorized commute and hitting times against the subset enumeration
they replaced, plus the sizes only the factorized kernel reaches."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import editwalk as ew
from editwalk import spectral
from editwalk.cli import main
from editwalk.errors import CapExceeded
from oracles import (
    commute_terms_enumerated,
    commute_time_enumerated,
    hitting_time_enumerated,
    hitting_times_first_step,
    read_csv,
)


def path_host(m):
    return ew.from_edge_list(m + 1, [(i, i + 1) for i in range(m)])


def rational_cases():
    """(m, p, E mask, F mask): random pairs plus E = F, E xor F = all edges
    and single-edge differences."""
    rng = np.random.default_rng(71)
    cases = []
    for k in range(24):
        m = int(rng.integers(1, 10))
        p = [Fraction(int(rng.integers(1, d)), int(d)) for d in rng.choice([3, 5, 7, 11, 13], m)]
        full = (1 << m) - 1
        a = int(rng.integers(1 << m))
        b = [int(rng.integers(1 << m)), a, a ^ full, a ^ (1 << int(rng.integers(m)))][k % 4]
        cases.append((m, p, a, b))
    return cases


@pytest.mark.parametrize("m, p, a, b", rational_cases())
def test_exact_kernel_equals_enumeration(m, p, a, b):
    g = path_host(m)
    E, F = ew.EdgeSet(m, a), ew.EdgeSet(m, b)
    kappa = ew.commute_time(E, F, g, p)
    assert isinstance(kappa, Fraction)
    assert kappa == commute_time_enumerated(E, F, g, p)
    assert ew.hitting_time_closed(E, F, g, p) == hitting_time_enumerated(E, F, g, p)
    assert ew.hitting_time_closed(F, E, g, p) == hitting_time_enumerated(F, E, g, p)


# (host, p, E mask, F mask) and float.hex of commute_time(E, F),
# hitting_time_closed(E, F) and hitting_time_closed(F, E): the float kernel
# must keep every bit of these
FLOAT_PINS = [
    (path_host(5), [0.3, 0.71, 0.123, 0.5, 0.9], 0b10110, 0b01011,
     ("0x1.6ecdd8c74bb06p+8", "0x1.fff6793dbfba5p+7", "0x1.bb4a70a1af4cdp+6")),
    (ew.from_edge_list(9, [(i, (i + 1) % 9) for i in range(9)]),
     [0.05 + 0.1 * e for e in range(9)], 0, 0b111111111,
     ("0x1.ea38e89d69771p+14", "0x1.caea639372e83p+14", "0x1.f4e8509f68ee1p+10")),
    (path_host(12), [0.02, 0.58, 0.18, 0.74, 0.34, 0.9, 0.5, 0.1, 0.66, 0.26, 0.82, 0.42],
     0b101010101010, 0b100110011001,
     ("0x1.5b5fe81d2a22ap+22", "0x1.59447691154d8p+22", "0x1.0db8c60a6a940p+15")),
]


@pytest.mark.parametrize("g, p, a, b, pins", FLOAT_PINS, ids=["path5", "cycle9", "path12"])
def test_float_times_keep_their_bits(g, p, a, b, pins):
    E, F = ew.EdgeSet(g.m, a), ew.EdgeSet(g.m, b)
    got = (ew.commute_time(E, F, g, p), ew.hitting_time_closed(E, F, g, p),
           ew.hitting_time_closed(F, E, g, p))
    assert tuple(x.hex() for x in got) == pins


# distinct primes, so the edge denominators are pairwise coprime and their
# product, the kernel's common denominator, is large
PRIMES = (1_000_003, 998_244_353, 1_000_000_007, 2_147_483_647, 999_999_937,
          67_280_421_310_721, 170_141_183_460_469_231_731_687_303_715_884_105_727)


@st.composite
def coprime_rationals(draw):
    m = draw(st.integers(1, 7))
    denominators = draw(st.permutations(PRIMES))[:m]
    p = [Fraction(draw(st.integers(1, d - 1)), d) for d in denominators]
    a, b = (draw(st.integers(0, (1 << m) - 1)) for _ in range(2))
    return path_host(m), p, ew.EdgeSet(m, a), ew.EdgeSet(m, b)


@settings(max_examples=60, deadline=None)
@given(coprime_rationals())
def test_exact_times_with_large_coprime_denominators(case):
    g, p, E, F = case
    kappa = ew.commute_time(E, F, g, p)
    assert type(kappa) is Fraction
    assert kappa == sum(term for _, term in commute_terms_enumerated(E, F, g, p))
    assert ew.hitting_time_closed(E, F, g, p) == hitting_time_enumerated(E, F, g, p)
    assert ew.hitting_time_closed(F, E, g, p) == hitting_time_enumerated(F, E, g, p)


def test_float_kernel_agrees_with_enumeration():
    rng = np.random.default_rng(72)
    worst = 0.0
    for k in range(60):
        m = int(rng.integers(1, 11))
        if k % 3 == 0:  # factors near 1, where X + Y - 2(1-t)^|D| cancels most
            p = list(0.5 + rng.uniform(-1e-3, 1e-3, size=m))
        else:
            p = list(rng.uniform(0.02, 0.98, size=m))
        g = path_host(m)
        E, F = ew.EdgeSet(m, int(rng.integers(1 << m))), ew.EdgeSet(m, int(rng.integers(1 << m)))
        pairs = [
            (ew.commute_time(E, F, g, p), commute_time_enumerated(E, F, g, p)),
            (ew.hitting_time_closed(E, F, g, p), hitting_time_enumerated(E, F, g, p)),
        ]
        for fast, slow in pairs:
            assert isinstance(fast, float)
            worst = max(worst, abs(fast - slow) / max(abs(slow), 1e-300))
    assert worst <= 1e-12


def test_float_commute_is_exactly_symmetric():
    rng = np.random.default_rng(73)
    m = 9
    g = path_host(m)
    p = list(rng.uniform(0.05, 0.95, size=m))
    for _ in range(20):
        E, F = ew.EdgeSet(m, int(rng.integers(1 << m))), ew.EdgeSet(m, int(rng.integers(1 << m)))
        assert ew.commute_time(E, F, g, p) == ew.commute_time(F, E, g, p)


def test_exact_times_beyond_the_enumeration_cap():
    m = 100
    g = path_host(m)
    p = [Fraction(1 + e % 5, 7) for e in range(m)]
    E = ew.EdgeSet(m, sum(1 << e for e in range(0, m, 3)))
    F = ew.EdgeSet(m, sum(1 << e for e in range(1, m, 2)))
    kappa = ew.commute_time(E, F, g, p)
    there, back = ew.hitting_time_closed(E, F, g, p), ew.hitting_time_closed(F, E, g, p)
    assert all(isinstance(x, Fraction) for x in (kappa, there, back))
    assert kappa == there + back
    assert kappa > 0


def test_float_times_keep_precision_far_past_the_cap():
    """Hitting a likely state sums terms near 2^m with alternating signs as
    polynomial coefficients; the float kernel must still match the exact
    value, here and on random states and probabilities."""
    for m in (60, 100):
        g = path_host(m)
        full, empty = g.full_set(), g.empty_set()
        exact = ew.hitting_time_closed(full, empty, g, Fraction(1, 100))
        assert ew.hitting_time_closed(full, empty, g, 0.01) == pytest.approx(float(exact), rel=1e-12)
    rng = np.random.default_rng(74)
    for _ in range(6):
        m = int(rng.integers(40, 101))
        g = path_host(m)
        p = [Fraction(int(rng.integers(1, 20)), 20) for _ in range(m)]
        E, F = (ew.EdgeSet(m, sum(int(b) << e for e, b in enumerate(rng.integers(2, size=m))))
                for _ in range(2))
        for fn in (ew.commute_time, ew.hitting_time_closed):
            exact = fn(E, F, g, p)
            assert fn(E, F, g, [float(pe) for pe in p]) == pytest.approx(float(exact), rel=1e-12)


def test_float_overflow_raises_cap_exceeded():
    m = 300
    g = path_host(m)
    E, F = g.empty_set(), g.full_set()
    with pytest.raises(CapExceeded, match=r"m = 300 edges.*rational mode"):
        ew.commute_time(E, F, g, 0.001)
    with pytest.raises(CapExceeded, match=r"m = 300 edges.*rational mode"):
        ew.hitting_time_closed(E, F, g, 0.001)
    assert ew.commute_time(E, E, g, 0.001) == 0.0
    back = ew.hitting_time_closed(F, E, g, 0.001)  # towards the likely state: finite
    assert back == pytest.approx(float(ew.hitting_time_closed(F, E, g, Fraction(1, 1000))), rel=1e-12)


def test_commute_terms_tests_exactness_once_per_edge(monkeypatch):
    calls = []
    real = spectral._is_exact
    monkeypatch.setattr(spectral, "_is_exact", lambda x: calls.append(x) or real(x))
    m = 6
    g = path_host(m)
    E, F, p = ew.EdgeSet(m, 5), ew.EdgeSet(m, 40), [Fraction(1, 3)] * m
    kappa = ew.commute_time(E, F, g, p)
    assert len(calls) == m
    terms = commute_terms_enumerated(E, F, g, p)
    assert len(terms) == (1 << m) - 1
    assert kappa == sum(term for _, term in terms)


def test_compound_commute_factorizes_once(tmp_path, monkeypatch):
    cfg = tmp_path / "moran.json"
    cfg.write_text('{"host": {"preset": "complete", "params": [4]}, "model": {"name": "moran"}}')
    solves = []
    real = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(np.shape(b)) or real(a, b))
    assert main(["commute", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    # the stationary law, then all 37 columns of the fundamental matrix at once
    assert solves == [(37,), (37, 37)]

    _, header, rows = read_csv(tmp_path / "commute.csv")
    k4 = ew.complete_graph(4)
    dist = ew.moran_weights(k4)
    tm = ew.build_chain(dist, k4, ew.recurrent_class(dist, k4))
    assert header[1:] == [format(mask, "#x") for mask in tm.masks.tolist()]
    hit = np.column_stack([hitting_times_first_step(tm, j) for j in range(tm.size)])
    expected = hit + hit.T
    cells = np.array([[float(cell) for cell in row[1:]] for row in rows])
    assert np.all(np.abs(cells - expected) <= 1e-12 * expected)  # 0 on the diagonal
