"""The face-recursion stationary law of compound chains, and the commands
that use it in place of a dense linear solve.

`stationary_faces` carries the mass of the backward product x1 x2 x3 ...
from the identity face to the chambers. It is checked against
`oracles.stationary_numeric` (a dense LU on the recurrent chain), exactly against
the chain's cells in rational mode, and through the CLI. `tv_decay`, which
now sums over the nonzero cells, is checked against the dense loop in
`oracles`.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from oracles import from_items, merge_faces_by_void_view, parse_edit, read_csv, stationary_numeric, tv_decay_dense
from test_chain_cells import cycle_family
from test_random_families import seeded_families
from test_spectral import random_host, random_probs

import editwalk as ew
from editwalk import cli, spectral, verify
from editwalk.cli import main
from editwalk.errors import CapExceeded, SupportNotCovering
from editwalk.hostgraph import mask_dtype
from editwalk.spectral import TransitionMatrix


def face_law_and_solve(dist, g, initial=None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupportNotCovering)
        states, pi = ew.stationary_faces(dist, g, initial=initial, exact=False)
        tm = ew.build_chain(dist, g, ew.recurrent_class(dist, g, initial=initial))
    assert states.tolist() == tm.masks.tolist()
    assert isinstance(pi, np.ndarray) and pi.dtype == float
    return pi, stationary_numeric(tm)


def test_random_families_match_linear_solve():
    rng = np.random.default_rng(8)
    families = [*seeded_families(424242, 20), *seeded_families(777, 10)]
    uncovered = 0
    for g, dist in families:
        covered = 0
        for plus, minus, _ in dist.items:
            covered |= plus | minus
        uncovered += covered != (1 << g.m) - 1
        initial = ew.EdgeSet(g.m, int(rng.integers(1, 1 << g.m)))
        for start in (None, initial):
            pi, solved = face_law_and_solve(dist, g, start)
            assert np.abs(pi - solved).max() <= 1e-13
    assert uncovered >= 3  # the frozen-edge case is exercised


def flipped_cycle_family(rng, m):
    """Two opposite-signed edits on each pair of adjacent cycle edges, with
    edge signs flipped at random and weights drawn from 1..9."""
    flip = int(rng.integers(0, 1 << m))
    raw = []
    for i in range(m):
        for first in (1, 0):
            tokens = [("+" if s ^ (flip >> e & 1) else "-") + str(e)
                      for e, s in zip((i, (i + 1) % m), (first, 1 - first))]
            raw.append((" ".join(tokens), int(rng.integers(1, 10))))
    total = sum(w for _, w in raw)
    g = ew.from_edge_list(m, [(i, (i + 1) % m) for i in range(m)])
    return g, from_items(m, tuple((parse_edit(t, m), w / total) for t, w in raw))


MODELS = {
    **{f"moran K{n}": (lambda n=n: (ew.complete_graph(n), ew.moran_weights(ew.complete_graph(n))))
       for n in (3, 4, 5)},
    **{f"intersection {n}x{N}": (lambda n=n, N=N: (
        ew.intersection_host(n, N), ew.intersection_weights(n, N, [1 / (N + 1)] * (N + 1))))
       for n, N in ((2, 3), (3, 3))},
    "custom cycle m=8": lambda: flipped_cycle_family(np.random.default_rng(5), 8),
}


@pytest.mark.parametrize("name", ["moran K4", "moran K5", "intersection 2x3", "custom cycle m=6"])
def test_face_chambers_are_the_recurrent_class(name):
    if name == "custom cycle m=6":
        g, dist = flipped_cycle_family(np.random.default_rng(6), 6)
    else:
        g, dist = MODELS[name]()
    states, _ = ew.stationary_faces(dist, g, exact=False)
    assert states.tolist() == ew.recurrent_class(dist, g).tolist()
    given = ew.build_chain(dist, g, states)
    enumerated = ew.build_chain(dist, g, ew.recurrent_class(dist, g))
    assert given.masks.tolist() == enumerated.masks.tolist()
    for cells in ("rows", "cols", "numerators"):
        assert np.array_equal(getattr(given, cells), getattr(enumerated, cells))


@pytest.mark.parametrize("name", MODELS)
def test_model_laws_match_linear_solve(name):
    g, dist = MODELS[name]()
    pi, solved = face_law_and_solve(dist, g)
    assert np.abs(pi - solved).max() <= 1e-13


def test_rational_law_is_an_exact_fixed_point():
    k4 = ew.complete_graph(4)
    dist = ew.moran_weights(k4)
    states, pi = ew.stationary_faces(dist, k4)
    assert all(type(x) is Fraction for x in pi) and sum(pi) == 1
    tm = ew.build_chain(dist, k4, ew.recurrent_class(dist, k4))
    assert states.tolist() == tm.masks.tolist()
    # left_apply sums the chain's numerators, so pi P = pi reads over its denominator
    assert list(tm.left_apply(np.array(pi, dtype=object))) == [x * tm.denominator for x in pi]
    _, floats = ew.stationary_faces(dist, k4, exact=False)
    assert np.abs(floats - [float(x) for x in pi]).max() <= 1e-15


@pytest.mark.parametrize("exact", [True, False])
def test_hosts_beyond_64_edges(exact):
    # +-A and +-B on two 35-edge blocks: four chambers with a product law
    m = 70
    g = ew.from_edge_list(m, [(i, (i + 1) % m) for i in range(m)])
    a, b = (1 << 35) - 1, ((1 << 35) - 1) << 35
    w = [Fraction(k, 10) for k in (2, 3, 1, 4)]
    dist = ew.WeightedEdits(m, [a, 0, b, 0], [0, a, 0, b], w if exact else list(map(float, w)))
    states, pi = ew.stationary_faces(dist, g, exact=exact)
    assert states.tolist() == [0, a, b, a | b]
    want = [Fraction(3, 5) * Fraction(4, 5), Fraction(2, 5) * Fraction(4, 5),
            Fraction(3, 5) * Fraction(1, 5), Fraction(2, 5) * Fraction(1, 5)]
    if exact:
        assert pi == want
    else:
        assert np.abs(pi - [float(x) for x in want]).max() <= 1e-16


def test_faces_count_against_the_state_cap():
    k4 = ew.complete_graph(4)
    dist = ew.moran_weights(k4)
    assert len(ew.recurrent_class(dist, k4, cap=40)) == 37
    with pytest.raises(CapExceeded, match="faces"):
        ew.stationary_faces(dist, k4, cap=40)


def write_config(tmp_path, name="config.json", **cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_rational_compound_stationary_writes_fractions(tmp_path):
    cfg = write_config(tmp_path, host={"preset": "complete", "params": [4]},
                       model={"name": "moran"}, mode="rational")
    assert main(["stationary", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    meta, _, rows = read_csv(tmp_path / "stationary.csv")
    assert meta["mode"] == "rational"
    pi = [Fraction(v) for _, v in rows]
    assert len(rows) == 37 and sum(pi) == 1 and all("/" in v for _, v in rows)
    k4 = ew.complete_graph(4)
    assert pi == ew.stationary_faces(ew.moran_weights(k4), k4)[1]

    assert main(["stationary", "--config", str(cfg), "--out", str(tmp_path), "--cap-states",
                 "40"]) == 2


COMPOUND = {
    "moran": {"host": {"preset": "complete", "params": [4]}, "model": {"name": "moran"}},
    "intersection": {"model": {"name": "intersection", "n": 2, "N": 2,
                               "mu": ["1/4", "1/2", "1/4"]}},
    "custom": {"host": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
               "model": {"name": "custom", "edits": [{"edit": "+0 -1", "weight": "1/4"},
                                                     {"edit": "-1 +2", "weight": "1/2"},
                                                     {"edit": "-0", "weight": "1/4"}]}},
}


def forbid(monkeypatch, owner, name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} called")
    monkeypatch.setattr(owner, name, fail)


def count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("mode", ["double", "rational"])
@pytest.mark.parametrize("model", COMPOUND)
def test_compound_commands_build_no_dense_matrix(tmp_path, monkeypatch, model, mode):
    cfg = write_config(tmp_path, mode=mode, **COMPOUND[model])
    forbid(monkeypatch, np.linalg, "solve")
    forbid(monkeypatch, TransitionMatrix, "to_float")
    forbid(monkeypatch, spectral, "recurrent_class")
    faces = count_calls(monkeypatch, cli, "stationary_faces")
    assert main(["mixing", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 0
    assert faces == ["stationary_faces"]  # one enumeration for law, chain and spectrum

    for owner, name in ((cli, "build_chain"), (spectral, "build_chain"),
                        (spectral, "recurrent_class")):
        forbid(monkeypatch, owner, name)
    assert main(["stationary", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    _, _, rows = read_csv(tmp_path / "s" / "stationary.csv")
    assert math.isclose(sum(float(Fraction(v)) for _, v in rows), 1.0, abs_tol=1e-14)
    assert all(("/" in v or v in "01") if mode == "rational" else "/" not in v for _, v in rows)


@pytest.mark.parametrize("mode", ["double", "rational"])
@pytest.mark.parametrize("model", ["moran", "intersection"])
def test_compound_verify_checks_the_face_law_once_enumerated(tmp_path, monkeypatch, capsys,
                                                              model, mode):
    cfg = write_config(tmp_path, mode=mode, **COMPOUND[model])
    forbid(monkeypatch, spectral, "recurrent_class")
    faces = count_calls(monkeypatch, verify, "stationary_faces")
    assert main(["verify", "--config", str(cfg)]) == 0
    assert faces == ["stationary_faces"]
    lines = capsys.readouterr().out.splitlines()
    fixed = next(line for line in lines if "stationary_fixed_point" in line)
    assert any("stationary_vs_linear_solve" in line for line in lines)
    assert lines[-1] == "6/6 checks passed"
    if mode == "rational":
        assert "residual 0.000e+00" in fixed and fixed.endswith("(exact)")


def test_moran_k7_stationary_in_bounded_memory(tmp_path):
    resource = pytest.importorskip("resource")
    cfg = write_config(tmp_path, host={"preset": "complete", "params": [7]},
                       model={"name": "moran"}, mode="double")
    # The child's own peak is VmHWM: on Linux ru_maxrss survives fork and
    # exec, so it would also count this process's peak so far. ru_maxrss
    # is the fallback where /proc is missing (KiB, bytes on macOS).
    code = (
        "import resource, sys\n"
        "from editwalk.cli import main\n"
        f"rc = main(['stationary', '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}])\n"
        "try:\n"
        "    with open('/proc/self/status') as fh:\n"
        "        kib = next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:'))\n"
        "except (OSError, StopIteration):\n"
        "    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "    kib //= 1024 if sys.platform == 'darwin' else 1\n"
        "print(rc, kib)\n"
    )
    src = str(Path(ew.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    rc, peak_kib = map(int, done.stdout.split()[-2:])
    assert rc == 0 and peak_kib / 1024 < 300
    _, _, rows = read_csv(tmp_path / "stationary.csv")
    assert len(rows) == 36_960
    assert math.isclose(sum(float(v) for _, v in rows), 1.0, abs_tol=1e-12)


def decay_cases():
    """The chains whose decay curves test_spectral and test_consistency check."""
    for seed in (18, 19):
        rng = np.random.default_rng(seed)
        g = random_host(rng, 4)
        p = random_probs(rng, 4)
        tm = ew.build_chain(ew.simple_edit_weights(g, p), g)
        yield tm, ew.stationary_closed_form(g, p), range(16), 42
    k4 = ew.complete_graph(4)
    dist = ew.moran_weights(k4)
    tm = ew.build_chain(dist, k4, ew.recurrent_class(dist, k4))
    yield tm, stationary_numeric(tm), tm.masks, 20
    g, dist = cycle_family(6, exact=True)
    tm = ew.build_chain(dist, g, ew.recurrent_class(dist, g))
    yield tm, ew.stationary_faces(dist, g)[1], tm.masks[:8], 30


def test_tv_decay_over_cells_matches_dense_products():
    for tm, pi, starts, t_max in decay_cases():
        for start in starts:
            got = ew.tv_decay(tm, start, pi, t_max)
            assert np.abs(got - tv_decay_dense(tm, start, pi, t_max)).max() <= 1e-15


def test_double_mode_does_no_fraction_arithmetic(monkeypatch):
    k5 = ew.complete_graph(5)
    dist = ew.moran_weights(k5)  # Fraction weights in either mode
    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        forbid(monkeypatch, Fraction, name)
    _, pi = ew.stationary_faces(dist, k5, exact=False)
    assert pi.dtype == float and len(pi) == 290


@pytest.mark.parametrize("m", [1, 8, 15, 16, 32, 33, 64, 70])
@pytest.mark.parametrize("exact", [False, True], ids=["double", "rational"])
def test_merged_faces_keep_the_byte_order_of_their_masks(m, exact):
    """Integer keys give the faces, and so every later float sum, the order
    of the 16-byte view of (plus, minus): masks set in every byte, repeats
    across chunks, and masses summed in row order."""
    rng = np.random.default_rng(m)
    top = (1 << m) - 1
    faces = [(p & top, q & top & ~p) for p, q in (map(int, rng.integers(0, 1 << 62, 2)) for _ in range(40))]
    faces += [(p << (m - 1) & top, q) for p, q in faces[:5]] + [(0, top), (top, 0), (0, 0)]
    chunks = []
    for size in (30, 200, 1):
        pick = rng.integers(len(faces), size=size)
        plus, minus = (np.array([faces[i][k] for i in pick.tolist()], mask_dtype(m)) for k in (0, 1))
        mass = rng.random(size)
        chunks.append((plus, minus, np.array([Fraction(x) for x in mass], object) if exact else mass))
    got, want = spectral._merge_faces(chunks, m), merge_faces_by_void_view(chunks, m)
    assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
    assert got[2].tolist() == want[2].tolist()
