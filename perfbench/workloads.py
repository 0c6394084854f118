"""Seeded workload definitions: the configs the CLI reads and the commands
run over them, each paired with the check its artifacts must pass.

Everything a seed changes is drawn here: edge probabilities, custom edit
signs and weights, mu vectors and simulation seeds. Structure does not
change with the seed, so counts such as steps, flats, chambers and
recurrent states are the same for every seed. The custom family keeps
fixed supports and flips edge signs globally (an isomorphism of the
walk), which is what keeps its chamber count fixed.

`toy=True` shrinks every size for the self-test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("sim-scale", "sim-record", "exact-desk", "compound-chain")

# Chamber (recurrent-class) counts of the Moran walk on K_n, and flat and
# chamber counts of the custom family below on a cycle of m edges.
MORAN_CHAMBERS = {3: 6, 4: 37, 5: 290, 6: 2931}
CUSTOM_FLATS = {6: 29, 12: 853}


@dataclass(frozen=True)
class Command:
    label: str
    args: tuple[str, ...]  # subcommand and flags; the worker adds --config/--out
    config: str
    check: Callable[[Path, str], None]  # (output dir, captured stdout)
    steps: int = 0  # simulated steps, for steps_per_s

    @property
    def name(self) -> str:
        return self.args[0]


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict[str, dict]
    commands: tuple[Command, ...]

    def write_configs(self, directory: Path) -> dict[str, str]:
        """Write every config as JSON; return the sha256 of each file."""
        directory.mkdir(parents=True, exist_ok=True)
        digests = {}
        for name, cfg in self.configs.items():
            data = json.dumps(cfg, sort_keys=True, indent=1).encode()
            (directory / name).write_bytes(data)
            digests[name] = hashlib.sha256(data).hexdigest()
        return digests


def build(name: str, seed: int, toy: bool = False) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    builder = {
        "sim-scale": _sim_scale,
        "sim-record": _sim_record,
        "exact-desk": _exact_desk,
        "compound-chain": _compound_chain,
    }[name]
    configs, commands = builder(rng, toy)
    return Workload(name, configs, tuple(commands))


def _complete(n: int) -> dict:
    return {"preset": "complete", "params": [n]}


def _cycle(m: int) -> dict:
    return {"n": m, "edges": [[i, (i + 1) % m] for i in range(m)]}


def _sim_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _rational_p(rng: random.Random, m: int) -> list[str]:
    """Small fractions with prime denominators: the seed picks numerators
    and which denominator each edge gets, so number sizes stay alike."""
    denominators = [(3, 5, 7, 11, 13)[e % 5] for e in range(m)]
    rng.shuffle(denominators)
    return [f"{rng.randrange(1, d)}/{d}" for d in denominators]


def _simulate(label, config, steps, thin, state_check, *flags) -> Command:
    check = partial(checks.trajectory, steps=steps, thin=thin, state_check=state_check)
    return Command(label, ("simulate", *flags), config, check, steps)


def _sim_scale(rng, toy):
    k, p, T, thin = (10, 0.3, 2000, 20) if toy else (100, 0.3, 200_000, 2000)
    mk, mT, mthin = (6, 2000, 20) if toy else (30, 200_000, 2000)
    n, N, lT, lthin = (5, 4, 1000, 10) if toy else (50, 40, 20_000, 200)
    configs = {
        "simple.json": {
            "host": _complete(k), "model": {"name": "simple", "p": p},
            "T": T, "thin": thin, "seed": _sim_seed(rng), "mode": "double",
        },
        "moran.json": {
            "host": _complete(mk), "model": {"name": "moran"},
            "T": mT, "thin": mthin, "seed": _sim_seed(rng), "mode": "double",
        },
        "lazy.json": {
            "model": {
                "name": "intersection", "n": n, "N": N,
                "mu": [f"1/{N + 1}"] * (N + 1), "mode": "lazy",
            },
            "T": lT, "thin": lthin, "seed": _sim_seed(rng), "mode": "double",
        },
    }
    m = k * (k - 1) // 2
    commands = [
        _simulate(f"simulate K{k} simple", "simple.json", T, thin,
                  checks.binomial_band(m, p, after=T // 2)),
        _simulate(f"simulate K{mk} moran", "moran.json", mT, mthin,
                  checks.forest(mk, after=mT // 10)),
        _simulate(f"simulate lazy intersection {n}x{N}", "lazy.json", lT, lthin,
                  checks.uniform_neighbourhoods(n, N, after=lT // 10)),
    ]
    return configs, commands


def _sim_record(rng, toy):
    mk, mT = (6, 1000) if toy else (30, 15_000)
    k, p, T = (8, 0.2, 1000) if toy else (40, 0.05, 15_000)
    configs = {
        "moran.json": {
            "host": _complete(mk), "model": {"name": "moran"},
            "T": mT, "thin": 1, "seed": _sim_seed(rng), "mode": "double",
        },
        "simple.json": {
            "host": _complete(k), "model": {"name": "simple", "p": p},
            "T": T, "thin": 1, "seed": _sim_seed(rng), "mode": "double",
        },
    }
    commands = [
        _simulate(f"simulate K{mk} moran, every state", "moran.json", mT, 1,
                  checks.forest(mk, after=mT // 10)),
        _simulate(f"simulate K{k} simple, every state as edges", "simple.json", T, 1,
                  checks.edge_lists(k), "--state-format", "edges"),
    ]
    return configs, commands


def _exact_desk(rng, toy):
    # (host, edge count) for verify, commute and the m=10 closed forms
    verify_host, verify_m = (_complete(3), 3) if toy else (_complete(4), 6)
    commute_host, commute_m = (_cycle(3), 3) if toy else (_cycle(5), 5)
    big_host, big_m = (_cycle(4), 4) if toy else (_complete(5), 10)
    p_big = _rational_p(rng, big_m)
    configs = {
        "verify.json": {"host": verify_host, "seed": _sim_seed(rng), "mode": "rational",
                        "model": {"name": "simple", "p": _rational_p(rng, verify_m)}},
        "commute.json": {"host": commute_host, "seed": _sim_seed(rng), "mode": "rational",
                         "model": {"name": "simple", "p": _rational_p(rng, commute_m)}},
        "big.json": {"host": big_host, "seed": _sim_seed(rng), "mode": "rational",
                     "model": {"name": "simple", "p": p_big}},
    }
    probs = [Fraction(x) for x in p_big]
    commands = [
        Command(f"verify simple m={verify_m} rational", ("verify",), "verify.json",
                checks.verify_passed),
        Command(f"commute simple m={commute_m} rational", ("commute",), "commute.json",
                partial(checks.commute, states=1 << commute_m, exact=True)),
        Command(f"stationary simple m={big_m} rational", ("stationary",), "big.json",
                partial(checks.stationary, states=1 << big_m, exact=True, product_p=probs)),
        Command(f"mixing simple m={big_m} rational", ("mixing",), "big.json", checks.mixing),
        Command(f"spectrum simple m={big_m} rational", ("spectrum",), "big.json",
                partial(checks.spectrum, chambers=1 << big_m, binomial_m=big_m)),
    ]
    return configs, commands


def _custom_family(rng: random.Random, m: int) -> list[dict]:
    """Two opposite-signed edits on each pair of adjacent cycle edges. The
    supports are fixed; the seed flips edge signs and draws the weights."""
    flip = rng.getrandbits(m)
    raw = []
    for i in range(m):
        pair = (i, (i + 1) % m)
        for first in (1, 0):
            signs = [first, 1 - first]
            tokens = [
                ("+" if s ^ (flip >> e & 1) else "-") + str(e) for e, s in zip(pair, signs)
            ]
            raw.append((" ".join(tokens), rng.randint(1, 9)))
    total = sum(w for _, w in raw)
    return [{"edit": text, "weight": f"{w}/{total}"} for text, w in raw]


def _compound_chain(rng, toy):
    big_n, small_n = (4, 3) if toy else (6, 5)
    simple_host, simple_m = (_cycle(4), 4) if toy else (_complete(5), 10)
    n, N = (2, 2) if toy else (3, 3)
    custom_m = 6 if toy else 12
    mu = [rng.randint(1, 9) for _ in range(N + 1)]
    configs = {
        "moran_big.json": {"host": _complete(big_n), "model": {"name": "moran"},
                           "seed": _sim_seed(rng), "mode": "double"},
        "moran_small.json": {"host": _complete(small_n), "model": {"name": "moran"},
                             "seed": _sim_seed(rng), "mode": "double"},
        "simple.json": {"host": simple_host, "seed": _sim_seed(rng), "mode": "double",
                        "model": {"name": "simple",
                                  "p": [round(rng.uniform(0.1, 0.9), 6) for _ in range(simple_m)]}},
        "intersection.json": {"seed": _sim_seed(rng), "mode": "double",
                              "model": {"name": "intersection", "n": n, "N": N,
                                        "mu": [f"{x}/{sum(mu)}" for x in mu]}},
        "custom.json": {"host": _cycle(custom_m), "seed": _sim_seed(rng), "mode": "double",
                        "model": {"name": "custom", "edits": _custom_family(rng, custom_m)}},
    }
    big, small = MORAN_CHAMBERS[big_n], MORAN_CHAMBERS[small_n]
    commands = [
        Command(f"spectrum moran K{big_n}", ("spectrum",), "moran_big.json",
                partial(checks.spectrum, chambers=big)),
        Command(f"stationary moran K{big_n}", ("stationary",), "moran_big.json",
                partial(checks.stationary, states=big, exact=False)),
        Command(f"mixing moran K{small_n}", ("mixing",), "moran_small.json", checks.mixing),
        Command(f"verify moran K{small_n}", ("verify",), "moran_small.json",
                checks.verify_passed),
        Command(f"export-dot moran K{small_n}", ("export-dot",), "moran_small.json",
                partial(checks.dot, nodes=small)),
        Command(f"verify simple m={simple_m}", ("verify",), "simple.json", checks.verify_passed),
        Command(f"verify intersection {n}x{N}", ("verify",), "intersection.json",
                checks.verify_passed),
        Command(f"spectrum custom cycle m={custom_m}", ("spectrum",), "custom.json",
                partial(checks.spectrum, chambers=(1 << custom_m) - 2,
                        flats=CUSTOM_FLATS[custom_m])),
    ]
    return configs, commands
