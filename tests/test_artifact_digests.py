"""Pinned sha256 digests of the CLI's exact artifacts.

`simulate` (both state formats), and `spectrum`, `stationary` (CSV and
JSON), `commute` and `export-dot` in rational mode, run on four small
fixed configs. Float artifacts are left out: their last bits may differ
between NumPy versions. The one exception is `commute.csv` on the three
compound configs (moran K4, intersection 2x2, custom cycle 6): a compound
chain's commute times come from a float64 linear solve in every mode, so
another NumPy or BLAS may round a cell differently and need a re-pin of
those three digests. A digest that moves means an artifact changed
byte for byte; a deliberate change re-pins it and says so. Thinned walks
are pinned too: on two of the configs, whose reduced words are too short
to compose, and on two wide hosts whose words compose block by block.
`verify` is pinned line by line on two of the configs, its float
residual digits (which vary with the BLAS in use) stripped.
"""

import hashlib
import json
import re

import pytest

from editwalk import process
from editwalk.cli import main

CYCLE6 = [[i, (i + 1) % 6] for i in range(6)]

CONFIGS = {
    "simple m=4": {
        "host": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]},
        "model": {"name": "simple", "p": ["1/3", "1/2", "2/5", "1/4"]},
    },
    "moran K4": {
        "host": {"preset": "complete", "params": [4]},
        "model": {"name": "moran"},
    },
    "intersection 2x2": {
        "model": {"name": "intersection", "n": 2, "N": 2, "mu": ["1/4", "1/2", "1/4"]},
    },
    "custom cycle 6": {
        "host": {"n": 6, "edges": CYCLE6},
        "model": {"name": "custom", "edits": [
            {"edit": f"{a}{i} {b}{(i + 1) % 6}", "weight": w}
            for i in range(6)
            for a, b, w in (("+", "-", "1/18"), ("-", "+", "1/9"))
        ]},
    },
}

RUNS = (
    ("simulate", [], ("summary.json", "trajectory.jsonl")),
    ("simulate", ["--state-format", "edges"], ("trajectory.jsonl",)),
    ("spectrum", [], ("spectrum.csv",)),
    ("spectrum", ["--format", "json"], ("spectrum.json",)),
    ("stationary", [], ("stationary.csv",)),
    ("stationary", ["--format", "json"], ("stationary.json",)),
    ("commute", [], ("commute.csv",)),
    ("export-dot", [], ("states.dot",)),
    ("export-dot", ["--labels", "edges"], ("states.dot",)),
)

EXPECTED = {'simple m=4': {'simulate : summary.json': '3ce564e2928d317bf4e6fee9c2a0688608e028e1c24cc9299b35c1066f0c0807',
                'simulate : trajectory.jsonl': 'e308598721d859235b16b78c9a67747fa54951a07272730c3d81b8f17403d8a7',
                'simulate --state-format edges : trajectory.jsonl': '63d2a33047fe56f4aaba0469e1fbfee81decac877e7cab2c7645ec614961cbe6',
                'spectrum : spectrum.csv': '97261f72b5de927c69f9d8095cde6da928c28ab8e265a61cdeb76bbf59ee0ff9',
                'spectrum --format json : spectrum.json': 'f0cb3c35e04d1088c456e9766a704b2ef6c92984cd12151fa68fd3727c2ce98c',
                'stationary : stationary.csv': '666d9543c96e9b73dbb971f1eb98a1275edf25a3c1647cc359bff644e343713b',
                'stationary --format json : stationary.json': 'caeba498b22e106e633836e6875a1cbd6bb17f831aa4f0ace1fff7d28262b19d',
                'commute : commute.csv': 'a6bc9b5ac584cff31c6e58cebd92c277d4b934477cb338ad55875eb233e2f65f',
                'export-dot : states.dot': 'b61539a581eaf3235a0b6637fb7569fdfca61dccf577433cf29a9c068ac3fa0a',
                'export-dot --labels edges : states.dot': '47b2d2d890771059bd26415a2e162d37629648ca2b8957a5ed7fa8d62585ae93'},
 'moran K4': {'simulate : summary.json': '75e21269b7b2c04b2ceb14c394bf98dcffe11daf16a3dc439ea7601b9365e238',
              'simulate : trajectory.jsonl': '9c7e5012d66a79f3023487b59738ac9332ecc4d6fbc1988da47ca911eb61fe12',
              'simulate --state-format edges : trajectory.jsonl': '18d0c690401ea5f227fbb61d2ccacccc55bc4cb7a5537fef80996f775f87a16c',
              'spectrum : spectrum.csv': 'd585757b22dc938754e8b851331307d9e8bc0a041aa2c06d87ce34b9ffe8dc15',
              'spectrum --format json : spectrum.json': 'cf93167ad17b41201c2008b1ac925cef55d9ef6a53c10056d31cc33e8ba2d699',
              'stationary : stationary.csv': '708d3c1b4b33fdbacc3af5ab4f94e9d5cfac6ea18d7ddc84dd61416ba2b5b376',
              'stationary --format json : stationary.json': '349c23d9630bf85a95010b26d90cf7e0421279330622d665acbfcaa9ddf0928d',
              'commute : commute.csv': '55cb53738c93270f503bd691420baf26c3971011d96d5c1c3acfec812ad4d2fc',
              'export-dot : states.dot': 'c31817dfed5571404f1bf8e53a332d11e6e5e831f6a822e7b49676539590941a',
              'export-dot --labels edges : states.dot': '879c26a8c0f9eedc73f5c3fed9ea3c2c49d7a289a1cf6503f80dca56ad4bba15'},
 'intersection 2x2': {'simulate : summary.json': 'f4fb9953eeb785a9785f579fb07b748f0a341caa9b9493a433ca73f2b16afd69',
                      'simulate : trajectory.jsonl': 'd16adaeb9a90da2657f57dc733c288df33f2b8688e2373ad861c3a09d25baf9c',
                      'simulate --state-format edges : trajectory.jsonl': '7539956a615844cfe8e1c065591f809a3798f6ab59dafc539b6d0a3fb0199dde',
                      'spectrum : spectrum.csv': 'e658c8fbc59b3fc4239af856624a5d13ed7168a0a962759361277d75d6c01136',
                      'spectrum --format json : spectrum.json': 'bd610b7114ed06e50c8de3bb2f8af276fc605daf138f7c8116067dd6b35876a4',
                      'stationary : stationary.csv': '561199399aceea9c88e7aa153cda8e31c576326261f4727722570bb0726259a3',
                      'stationary --format json : stationary.json': '664a9d0fe5777a352beae9230a03d75174e0d177603463fe00b8eb932f6297f0',
                      'commute : commute.csv': '84486d717e461293da3ded5a03fef22c01186b981ed730cde7ef422d5ae87757',
                      'export-dot : states.dot': '12f499fc6c2a3e8fdc8a99ec800b20f3e9083dd7fd98adf3e62ec6cf8aeb9441',
                      'export-dot --labels edges : states.dot': '4b2878e75309a731f78d802643a3217499f5440e85ef00c6e5e4e6593078549b'},
 'custom cycle 6': {'simulate : summary.json': '8e52150cb25c75d912e9381a132235439d4e360cbd591dcd823189d3ed1db2c5',
                    'simulate : trajectory.jsonl': '1869609003f007fd2daeeecd043bb9fbb19866cde90d7edd05189b17f05586c2',
                    'simulate --state-format edges : trajectory.jsonl': 'fcfcf8090b6761732b42a750685b01c6f7302e0363b217ed2011bc54b40cba39',
                    'spectrum : spectrum.csv': 'e534252df65a2f29d89e9efee1e78146051532fcd5948196fa704b459d53b036',
                    'spectrum --format json : spectrum.json': '38320e1aa5d73417524a223ed763d5c7522e7f25033af3457eab19e7f50da1ca',
                    'stationary : stationary.csv': '0e46d6c1bbc78097de4272bb2167ec637af06e60c4ae409abd7bad0082e02dd4',
                    'stationary --format json : stationary.json': '0862c592610b324870207bacf6247420b72636671e55e7d89d250edc80683361',
                    'commute : commute.csv': '42a9fe17065ebd97887f8003f739f7396cb3ec35cd694f52ab52ba028c7dd327',
                    'export-dot : states.dot': 'c0108a37ccef83151fbe83922bed59d810d70d0e1ce2f194ee56530d0aba7d2f',
                    'export-dot --labels edges : states.dot': 'fd77f52bbe626bca3097137854f810096c94bed5a746c8cdaf5a8527fd6ce968'}}


def artifact_digests(name, tmp_path):
    """{"command flags: file": sha256} for every run of one config."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**CONFIGS[name], "mode": "rational", "T": 300, "seed": 5}))
    digests = {}
    for k, (command, flags, files) in enumerate(RUNS):
        out = tmp_path / f"run{k}"
        assert main([command, "--config", str(path), "--out", str(out), *flags]) == 0
        for file in files:
            key = " ".join([command, *flags, ":", file])
            digests[key] = hashlib.sha256((out / file).read_bytes()).hexdigest()
    return digests


@pytest.mark.parametrize("name", CONFIGS)
def test_artifacts_are_byte_identical(name, tmp_path, capsys):
    assert artifact_digests(name, tmp_path) == EXPECTED[name]


WIDE_CONFIGS = {  # at least COMPOSE_MIN_WRITERS aligned blocks: 21 edges, 20 neighbourhoods
    "simple K7": {"host": {"preset": "complete", "params": [7]}, "model": {"name": "simple", "p": "1/3"}},
    "intersection 20x2": {"model": {"name": "intersection", "n": 20, "N": 2, "mu": ["1/4", "1/2", "1/4"]}},
}

# config -> (T, thin, trajectory.jsonl digest, composites made)
THINNED = {
    "simple m=4": (300, 16, "1571a83ec0898faeead810010ed38f440a6d616410030c697083230ad74b622c", 0),
    "intersection 2x2": (300, 16, "a32912fe0a870137275963edd3c9d4a0224d4f6150e31b76a2265a1eef2ba1b5", 0),
    "simple K7": (640, 64, "28033ec7793fd0bfc11757ae86e2c6f25911576001642c576c61d2a6909caa11", 10),
    "intersection 20x2": (640, 64, "90faf702ea950427f4c608aefedef5ad9635d30bd5fa120e8d12bda802777277", 9),
}


@pytest.mark.parametrize("name", THINNED)
def test_thinned_walks_are_byte_identical(name, tmp_path, monkeypatch):
    """Each record at least COMPOSE_MIN_WRITERS draws after the last: the
    kernel applies reduced words, composed on the wide hosts."""
    T, thin, digest, composites = THINNED[name]
    assert thin >= process.COMPOSE_MIN_WRITERS
    made = []
    real = process._block_composites
    monkeypatch.setattr(process, "_block_composites", lambda *args: made.append(args[-1]) or real(*args))
    path = tmp_path / "config.json"
    config = {**CONFIGS, **WIDE_CONFIGS}[name]
    path.write_text(json.dumps({**config, "mode": "rational", "T": T, "thin": thin, "seed": 5}))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "trajectory.jsonl").read_bytes()).hexdigest() == digest
    assert sum(made) == composites


VERIFY_LINES = {
    "simple m=4": [
        "PASS  row_stochastic: residual * (tol 1.0e-12)",
        "PASS  stationary_fixed_point: residual * (tol 1.0e-12)  (exact)",
        "PASS  stationary_vs_linear_solve: residual * (tol 1.0e-12)",
        "PASS  detailed_balance: residual * (tol 1.0e-12)  (exact)",
        "PASS  eigenvector_residual: residual * (tol 1.0e-12)  (exact)",
        "PASS  orthonormality: residual * (tol 1.0e-10)  (exact)",
        "PASS  q_symmetry: residual * (tol 1.0e-12)",
        "PASS  spectrum_multiset: residual * (tol 1.0e-08)  (exact)",
        "PASS  commute_backends: residual * (tol 1.0e-08)  (10 pairs)",
        "PASS  closure_idempotent: residual * (tol 0.0e+00)",
        "10/10 checks passed",
    ],
    "moran K4": [
        "PASS  row_stochastic: residual * (tol 1.0e-12)",
        "PASS  stationary_fixed_point: residual * (tol 1.0e-12)  (exact)",
        "PASS  stationary_vs_linear_solve: residual * (tol 1.0e-12)",
        "PASS  spectrum_multiset: residual * (tol 1.0e-08)  (exact)",
        "PASS  multiplicity_sum: residual * (tol 0.0e+00)  (37 chambers)",
        "PASS  closure_idempotent: residual * (tol 0.0e+00)",
        "6/6 checks passed",
    ],
}


@pytest.mark.parametrize("name", VERIFY_LINES)
def test_verify_prints_the_same_checks_in_the_same_order(name, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**CONFIGS[name], "mode": "rational", "seed": 5}))
    assert main(["verify", "--config", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [re.sub(r"residual \S+", "residual *", line) for line in out] == VERIFY_LINES[name]
