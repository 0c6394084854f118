"""The all-pairs commute table of the per-edge update chain, S(E) + S(F) -
2 T(key), against the per-pair spectral sum it replaces in `commute`."""

import json
from fractions import Fraction

import numpy as np
import pytest

import editwalk as ew
from editwalk import cli, spectral
from editwalk.cli import main
from editwalk.errors import CapExceeded
from editwalk.serialize import read_csv


def path_host(m):
    return ew.from_edge_list(m + 1, [(i, i + 1) for i in range(m)])


def cycle_host(m):
    return ew.from_edge_list(m, [(i, (i + 1) % m) for i in range(m)])


def random_rationals(rng, m):
    return [Fraction(int(rng.integers(1, d)), int(d)) for d in rng.choice([3, 5, 7, 11, 13, 97], m)]


def pair_sum(table, terms, i, j):
    """The per-pair sum, as a table cell: a numerator over the table's
    denominator in rational mode."""
    value = spectral._spectral_sum(i, j, terms, commute=True)
    if table.denominator is None:
        return value
    assert table.denominator % value.denominator == 0
    return value.numerator * (table.denominator // value.denominator)


HOSTS = [path_host(3), path_host(6), cycle_host(5), cycle_host(6), ew.complete_graph(4)]


@pytest.mark.parametrize("g", HOSTS, ids=["path3", "path6", "cycle5", "cycle6", "k4"])
def test_rational_table_equals_every_pair_sum(g):
    rng = np.random.default_rng(91 + g.m)
    p = random_rationals(rng, g.m)
    table, terms = spectral._commute_table(g, p), spectral._sum_terms(g, p)
    n = 1 << g.m
    cells = table.rows(np.arange(n))
    assert cells.shape == (n, n) and table.denominator == terms.denominator
    for i in range(n):
        for j in range(n):
            assert cells[i, j] == pair_sum(table, terms, i, j), (i, j)


def test_rational_table_at_ten_edges_equals_sampled_pair_sums():
    g = ew.complete_graph(5)
    p = [Fraction(x) for x in ("4/11", "1/3", "5/7", "10/13", "4/7", "1/13", "1/3", "1/11", "2/5", "3/5")]
    table, terms = spectral._commute_table(g, p), spectral._sum_terms(g, p)
    rng = np.random.default_rng(92)
    states = rng.integers(1 << g.m, size=8)
    cells = table.rows(states)
    for row, i in enumerate(states.tolist()):
        for j in rng.integers(1 << g.m, size=40).tolist() + [i, i ^ 1023]:
            assert cells[row, j] == pair_sum(table, terms, i, j)


@pytest.mark.parametrize("g", [path_host(6), ew.complete_graph(4), ew.complete_graph(5)],
                         ids=["path6", "k4", "k5"])
def test_float_table_agrees_with_pair_sums(g):
    rng = np.random.default_rng(93 + g.m)
    p = list(rng.uniform(0.01, 0.99, size=g.m))
    p[0], p[-1] = 0.01, 0.99
    table, terms = spectral._commute_table(g, p), spectral._sum_terms(g, p)
    n = 1 << g.m
    states = np.arange(n) if n <= 64 else rng.integers(n, size=16)
    cells = table.rows(states)
    assert cells.dtype == float
    worst = 0.0
    for row, i in enumerate(states.tolist()):
        for j in range(n):
            want = pair_sum(table, terms, i, j)
            worst = max(worst, abs(cells[row, j] - want) / max(want, 1e-300))
        assert cells[row, i] == 0.0
    assert worst <= 1e-12
    assert np.array_equal(cells[:, states], cells[:, states].T)  # symmetric to the bit


def test_float_overflow_exits_2_before_writing(tmp_path, capsys):
    cfg = tmp_path / "tiny.json"
    cfg.write_text('{"host": {"n": 3, "edges": [[0, 1], [1, 2]]}, "model": {"name": "simple", "p": 1e-300}}')
    out = tmp_path / "out"
    assert main(["commute", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error (cap): float commute time overflows at m = 2 edges; use rational mode\n"
    )
    assert not out.exists()
    with pytest.raises(CapExceeded) as per_pair:
        ew.commute_time(ew.EdgeSet(2, 0), ew.EdgeSet(2, 3), path_host(2), 1e-300)
    assert str(per_pair.value) == "float commute time overflows at m = 2 edges; use rational mode"


@pytest.mark.parametrize("mode, p", [("rational", ["1/3", "2/7", "5/11", "3/13"]),
                                     ("double", [0.01, 0.3, 0.75, 0.99])])
def test_commute_command_streams_the_table(tmp_path, monkeypatch, mode, p):
    """No per-pair sum; blocks of two rows; rational cells are the text of
    the Fraction, float cells the per-pair sum within 1e-12."""
    calls = []
    real = spectral._spectral_sum
    monkeypatch.setattr(spectral, "_spectral_sum", lambda *a, **k: calls.append(a) or real(*a, **k))
    monkeypatch.setattr(cli, "COMMUTE_BLOCK", 40)
    cfg = tmp_path / "cycle4.json"
    host = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}
    cfg.write_text(json.dumps({"host": host, "mode": mode, "model": {"name": "simple", "p": p}}))
    assert main(["commute", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert calls == []

    _, header, rows = read_csv(tmp_path / "commute.csv")
    g = cycle_host(4)
    probs = [Fraction(x) for x in p] if mode == "rational" else p
    assert header == ["state"] + [format(j, "#x") for j in range(16)]
    assert [row[0] for row in rows] == header[1:]
    for i, row in enumerate(rows):
        for j, cell in enumerate(row[1:]):
            want = ew.commute_time(ew.EdgeSet(4, i), ew.EdgeSet(4, j), g, probs)
            if mode == "rational":
                assert cell == str(want)
            else:
                assert float(cell) == pytest.approx(want, rel=1e-12, abs=0)


def test_report_converts_and_formats_each_distinct_value_once(monkeypatch):
    calls = []
    for name in ("__float__", "__str__"):
        real = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda x, real=real, name=name: calls.append(name) or real(x))
    m = 10
    report = ew.eigenvalues_simple(m)
    rows = report.to_csv_rows()
    assert report.by_value()[0] == (1.0, 1)
    assert report.second_largest() == 0.9
    report.eigenvalue_multiset()
    assert sorted(calls) == ["__float__"] * (m + 1) + ["__str__"] * (m + 1)
    assert [r[2] for r in rows] == [str(Fraction(r[1], m)) for r in rows]


def test_exact_flats_of_one_value_share_one_fraction():
    k4 = ew.complete_graph(4)
    dist = ew.moran_weights(k4)
    report = ew.spectrum(dist, k4)
    values = report.eigenvalues.tolist()
    assert len({id(v) for v in values}) == len(set(values)) < len(values)
    assert all(v is report.levels[i] for v, i in zip(values, report.index.tolist()))
    floats = ew.WeightedEdits(dist.m, dist.plus, dist.minus, [float(w) for w in dist.weights])
    float_report = ew.spectrum(floats, k4)
    assert float_report.to_csv_rows() == [
        (hex(f), bin(f).count("1"), str(v), k)
        for f, v, k in zip(float_report.flats.tolist(), float_report.eigenvalues.tolist(),
                           float_report.multiplicities.tolist())
    ]


def test_float_levels_that_round_alike_print_and_merge_as_one():
    # 0.1 + 0.2 and 0.30000000000000004 are distinct exact totals, one float
    g = ew.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    weights = [0.1, 0.2, 0.30000000000000004, 0.39999999999999997]
    report = ew.spectrum(ew.WeightedEdits(4, [1, 2, 4, 8], [0] * 4, weights), g)
    assert report.levels.count(0.30000000000000004) == 2
    text = {flat: value for flat, _, value, _ in report.to_csv_rows()}
    assert text["0x3"] == text["0x4"] == "0.30000000000000004"
    assert [v for v, _ in report.by_value()].count(0.30000000000000004) == 1


def test_float_law_from_numerators_rounds_as_fractions_do():
    rng = np.random.default_rng(94)
    primes = (1_000_003, 998_244_353, 2_147_483_647, 67_280_421_310_721)
    for m in (1, 4, 9):
        g = path_host(m)
        p = random_rationals(rng, m) if m != 4 else [Fraction(int(rng.integers(1, d)), d) for d in primes]
        law = spectral._stationary_floats(g, p)
        assert law.dtype == float
        assert np.array_equal(law, [float(x) for x in ew.stationary_closed_form(g, p)])
        floats = [float(x) for x in p]
        assert np.array_equal(spectral._stationary_floats(g, floats), ew.stationary_closed_form(g, floats))


@pytest.mark.parametrize("block", [cli.COMMUTE_BLOCK, 1000])
def test_compound_commute_text_is_the_per_cell_str(tmp_path, monkeypatch, block):
    """Moran K5 (290 states): the streamed rows, several per block, hold the
    text `str(hit[i, j] + hit[j, i])` of every cell."""
    monkeypatch.setattr(cli, "COMMUTE_BLOCK", block)
    cfg = tmp_path / "moran5.json"
    cfg.write_text(json.dumps({"host": {"preset": "complete", "params": [5]}, "model": {"name": "moran"}}))
    assert main(["commute", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    g, dist = ew.complete_graph(5), ew.moran_weights(ew.complete_graph(5))
    tm = ew.build_chain(dist, g, ew.recurrent_class(dist, g, initial=g.full_set()))
    hit = spectral._hitting_columns(tm, range(tm.size))
    names = [format(mask, "#x") for mask in tm.masks.tolist()]
    want = [[names[i]] + [str(hit[i, j] + hit[j, i]) for j in range(tm.size)] for i in range(tm.size)]
    _, header, rows = read_csv(tmp_path / "commute.csv")
    assert tm.size == 290 and header == ["state"] + names and rows == want
