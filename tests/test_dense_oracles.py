"""The dense numeric oracles of a chain, one factorization each.

Hitting times come from one solve for the target columns of the
fundamental matrix Z = (I - P + 1 pi)^-1, checked against the first-step
solve per target in `oracles`. `verify`'s dense fallback takes the
spectrum of a reversible chain from `eigvalsh` of the symmetrized matrix
when given a positive law, of others from `eigvals`; the tests take the
law from `oracles.stationary_numeric`, a dense LU. The simple model's
`stationary` artifacts are streamed and checked byte for byte against the
list-built layout.
"""

import csv
import io
import json
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from oracles import (
    NotReversible,
    chain_from_dense,
    commute_time_chain,
    hitting_time,
    hitting_time_spectral,
    hitting_times_first_step,
    stationary_numeric,
)
from test_chain_cells import cycle_family

import editwalk as ew
from editwalk import spectral, verify
from editwalk.cli import main
from editwalk.errors import NotIrreducible, ValidationError
from editwalk.serialize import artifact_meta, write_json


def simple_chain(m):
    g = ew.from_edge_list(m + 1, [(i, i + 1) for i in range(m)])
    return ew.build_chain(ew.simple_edit_weights(g, [0.2 + 0.6 * e / m for e in range(m)]), g)


def recurrent_chain(g, dist):
    return ew.build_chain(dist, g, ew.recurrent_class(dist, g))


CHAINS = {
    "simple m=5": lambda: simple_chain(5),
    "simple m=6": lambda: simple_chain(6),
    "moran K4": lambda: recurrent_chain(ew.complete_graph(4), ew.moran_weights(ew.complete_graph(4))),
    "intersection 2x3": lambda: recurrent_chain(
        ew.intersection_host(2, 3), ew.intersection_weights(2, 3, [0.1, 0.2, 0.3, 0.4])),
    "custom m=6": lambda: recurrent_chain(*cycle_family(6, exact=False)),
}


@pytest.mark.parametrize("name", ["simple m=5", "moran K4", "intersection 2x3", "custom m=6"])
def test_fundamental_matrix_matches_first_step_solves(name):
    tm = CHAINS[name]()
    hit = spectral._hitting_columns(tm, range(tm.size))
    expected = np.column_stack([hitting_times_first_step(tm, j) for j in range(tm.size)])
    assert np.all(np.abs(hit - expected) <= 1e-10 * expected)  # 0 on the diagonal
    targets = [3, 0, 3, tm.size - 1]
    assert np.allclose(spectral._hitting_columns(tm, targets), hit[:, targets], rtol=1e-12)
    i, j = 1, tm.size - 2
    E, F = (ew.EdgeSet(tm.m, int(tm.masks[k])) for k in (i, j))
    assert hitting_time(tm, E, F) == pytest.approx(hit[i, j], rel=1e-12)
    assert commute_time_chain(tm, E, F) == pytest.approx(hit[i, j] + hit[j, i], rel=1e-12)


def test_transient_target_raises_and_recurrent_target_is_hit():
    # every state falls to the empty set: it is the closed class
    dist = ew.WeightedEdits(2, [0], [0b11], [1.0])
    tm = ew.build_chain(dist, ew.from_edge_list(3, [(0, 1), (1, 2)]))
    assert spectral._hitting_columns(tm, [0])[:, 0].tolist() == pytest.approx([0, 1, 1, 1])
    with pytest.raises(NotIrreducible):
        spectral._hitting_columns(tm, [0, 3])
    with pytest.raises(NotReversible):  # pi = 0 off the closed class: no symmetrization
        hitting_time_spectral(tm, 3, 0)


def counted_eigensolvers(monkeypatch):
    calls = []
    for name in ("eigvals", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, name=name, real=real: calls.append(name) or real(a))
    return calls


def fallback_gap(tm, values, pi=None) -> float:
    """The sorted gap `verify._dense_fallback` prints for a report claiming `values`."""
    result = verify._dense_fallback(SimpleNamespace(eigenvalue_multiset=lambda: list(values)), tm, pi)
    assert result.passed, result
    return result.residual


@pytest.mark.parametrize("name, solver", [
    ("moran K4", "eigvals"), ("simple m=6", "eigvalsh"), ("intersection 2x3", "eigvalsh"),
])
def test_eigensolve_dispatch(monkeypatch, name, solver):
    tm = CHAINS[name]()
    expected = np.sort(np.linalg.eigvals(tm.to_float()).real)[::-1]
    pi = stationary_numeric(tm)
    calls = counted_eigensolvers(monkeypatch)
    assert fallback_gap(tm, expected, pi) <= 1e-12
    assert calls == [solver]


def test_reducible_chains_keep_the_general_eigensolve(monkeypatch):
    block = np.array([[0.5, 0.5], [0.5, 0.5]])
    two_classes = chain_from_dense(
        2, range(4), np.kron(np.eye(2), block), exact=False)
    with pytest.raises(NotIrreducible):
        stationary_numeric(two_classes)
    calls = counted_eigensolvers(monkeypatch)
    assert fallback_gap(two_classes, [1, 1, 0, 0]) <= 1e-12
    # a transient state has pi = 0, so the chain is not symmetrized either
    falls = chain_from_dense(
        2, range(2), np.array([[1.0, 0.0], [0.7, 0.3]]), exact=False)
    assert fallback_gap(falls, [1, 0.3], stationary_numeric(falls)) <= 1e-12
    assert calls == ["eigvals", "eigvals"]


def test_build_chain_needs_ascending_states():
    g = ew.complete_graph(3)
    dist = ew.moran_weights(g)
    states = ew.recurrent_class(dist, g)
    with pytest.raises(ValidationError):
        ew.build_chain(dist, g, states[::-1])


@pytest.mark.parametrize("mode", ["double", "rational"])
def test_simple_stationary_artifacts_stream_byte_identical(tmp_path, mode):
    m = 6
    g = ew.from_edge_list(m + 1, [(i, i + 1) for i in range(m)])
    p = ["1/3", "2/5", "1/2", "3/7", "1/4", "2/3"]
    cfg = tmp_path / "simple.json"
    cfg.write_text(json.dumps({"host": ew.host_to_json(g), "mode": mode,
                               "model": {"name": "simple", "p": p}}))
    probs = [Fraction(x) if mode == "rational" else float(Fraction(x)) for x in p]
    rows = [(ew.EdgeSet(m, mask).hex(), str(v))
            for mask, v in enumerate(list(ew.stationary_closed_form(g, probs)))]
    meta = artifact_meta(g, 0, model="simple", mode=mode)

    buf = io.StringIO()  # the list-built writers: one string, written at once
    buf.writelines(f"# {key}: {value}\n" for key, value in meta.items())
    csv.writer(buf).writerows([["state", "pi"], *rows])
    (tmp_path / "listed.csv").write_text(buf.getvalue())
    (tmp_path / "listed.json").write_text(json.dumps(
        {"meta": meta, "data": [{"state": s, "pi": v} for s, v in rows]}, indent=2) + "\n")
    for fmt in ("csv", "json"):
        assert main(["stationary", "--config", str(cfg), "--out", str(tmp_path),
                     "--format", fmt]) == 0
        written = (tmp_path / f"stationary.{fmt}").read_bytes()
        assert written == (tmp_path / f"listed.{fmt}").read_bytes()


@pytest.mark.parametrize("payload", [[], [{"a": 1}], [{"a": [1, {"b": "x\ny"}]}, 2, "s"]])
def test_iterator_json_payload_matches_the_list_layout(tmp_path, payload):
    meta = {"version": "0", "note": "two\nlines"}
    write_json(tmp_path / "listed.json", meta, payload)
    write_json(tmp_path / "streamed.json", meta, iter(payload))
    assert (tmp_path / "streamed.json").read_text() == (tmp_path / "listed.json").read_text()
