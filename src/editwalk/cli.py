"""Batch front door: parse a run config, dispatch to the engines, emit
machine-readable artifacts.

Exit codes: 0 ok, 1 validation error, 2 cap exceeded, 3 verify failure.
Flags override config values. All outputs carry a provenance header.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, islice
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .errors import (
    STATE_CAP,
    CapExceeded,
    EdgeOutOfRange,
    EditWalkError,
    ValidationError,
    check_cap,
    check_keys,
)
from .hostgraph import (
    EdgeSet,
    HostGraph,
    find_masks,
    forest_flags,
    host_from_json,
    is_integer,
    mask_blocks,
    set_bits,
)
from .process import (
    SAMPLER_VERSION,
    Trajectory,
    WeightedEdits,
    block_probabilities,
    chung_lu_probabilities,
    erdos_renyi_probabilities,
    intersection_host,
    intersection_weights,
    moran_weights,
    simple_edit_weights,
    simulate,
)
from .serialize import artifact_meta, write_csv, write_json, write_jsonl
from .spectral import (
    _check_c,
    _commute_table,
    _hitting_columns,
    _is_recurrent,
    _stationary_floats,
    build_chain,
    eigenvalues_simple,
    mixing_bound_compound,
    mixing_bound_simple,
    recurrent_class,
    simple_tv_bound,
    spectrum,
    stationary_closed_form,
    stationary_faces,
    to_dot,
    tv_decay,
)
from .verify import run_verification

COMMUTE_BLOCK = 1 << 12  # commute-matrix cells computed and formatted at a time


@dataclass
class RunConfig:
    host: HostGraph
    model: str
    weights: WeightedEdits
    cap: int  # every enumeration and every table a command builds
    p: object = None  # per-edge probabilities for the simple model
    steps: int = 0
    seed: int = 0
    thin: int = 1
    initial: EdgeSet | None = None
    mode: str = "double"
    out: Path = Path(".")


def _number(value, exact: bool, key: str):
    """Config scalars, read as the exact rational their text (a decimal or
    'a/b') denotes, then rounded to a float unless the mode is rational."""
    try:
        x = Fraction(str(value))
        return x if exact else float(x)
    except (ValueError, ArithmeticError):
        raise ValidationError(f"{key}: expected a number, got {value!r}") from None


def _numbers(values, exact: bool, key: str) -> list:
    if not isinstance(values, list):
        raise ValidationError(f"{key}: expected a list of numbers, got {values!r}")
    return [_number(x, exact, f"{key}[{i}]") for i, x in enumerate(values)]


def _integer(value, key: str, least: int = 0) -> int:
    """A config count; integral floats such as 1e5 are read as ints."""
    if not is_integer(value) or value < least:
        kind = "a non-negative integer" if least == 0 else f"an integer >= {least}"
        raise ValidationError(f"{key}: expected {kind}, got {value!r}")
    return int(value)


def _cap(value, key: str) -> int:
    """A count cap, at most 2^63 so no 2^m enumeration reaches 64 edges."""
    cap = _integer(value, key)
    if not 1 <= cap <= 1 << 63:
        raise ValidationError(f"{key}: expected a cap in [1, 2^63], got {cap}")
    return cap


def _required(obj: dict, key: str, path: str, what: str):
    if key not in obj:
        raise ValidationError(f"{path}.{key}: required for {what}")
    return obj[key]


def _keyed(key: str, build, *args, **kwargs):
    """build(*args, **kwargs), naming `key` in a validation error the library
    raises below the loader, unless the message already names it or a key under it."""
    try:
        return build(*args, **kwargs)
    except ValidationError as exc:
        if str(exc).startswith((f"{key}.", f"{key}:", f"{key}[")):
            raise
        raise type(exc)(f"{key}: {exc}") from None


def _vertices(values) -> bool:
    return isinstance(values, list) and all(map(is_integer, values))


def _parse_initial(spec, g: HostGraph) -> EdgeSet:
    if spec in (None, "empty"):
        return g.empty_set()
    if spec == "full":
        return g.full_set()
    if isinstance(spec, dict) and "hex" in spec:
        check_keys(spec, "initial", ("hex",))
        try:
            mask = int(spec["hex"], 16)
        except (ValueError, TypeError):
            raise ValidationError(
                f"initial.hex: expected a hex string, got {spec['hex']!r}"
            ) from None
        return EdgeSet(g.m, mask)
    if is_integer(spec):
        return EdgeSet(g.m, int(spec))
    if isinstance(spec, list):
        if not all(_vertices(pair) and len(pair) == 2 for pair in spec):
            raise ValidationError(f"initial: expected a list of [u, v] pairs, got {spec!r}")
        return EdgeSet.from_indices(g.m, (g.index_of(u, v) for u, v in spec))
    raise ValidationError(f"cannot parse initial state spec {spec!r}")


def _simple_probabilities(g: HostGraph, params: dict, exact: bool):
    check_keys(params, "model", ("name", "p", "p_preset"))
    if "p" in params:
        p = params["p"]
        if isinstance(p, list):
            return _numbers(p, exact, "model.p")
        return _number(p, exact, "model.p")
    preset = params.get("p_preset")
    if not preset:
        raise ValidationError('model.p: model "simple" needs "p" or "p_preset" in model params')
    if not isinstance(preset, dict):
        raise ValidationError(f'model.p_preset: expected an object with a "kind", got {preset!r}')
    kind = preset.get("kind")

    def number(key: str):
        return _number(preset.get(key), exact, f"model.p_preset.{key}")

    if kind == "erdos_renyi":
        check_keys(preset, "model.p_preset", ("kind", "p"))
        return _keyed("model.p_preset.p", erdos_renyi_probabilities, g, number("p"))
    if kind == "chung_lu":
        check_keys(preset, "model.p_preset", ("kind", "degrees"))
        degrees = _numbers(preset.get("degrees"), exact, "model.p_preset.degrees")
        return _keyed("model.p_preset.degrees", chung_lu_probabilities, g, degrees)
    if kind == "block":
        check_keys(preset, "model.p_preset", ("kind", "block", "p", "q"))
        block = _required(preset, "block", "model.p_preset", 'kind "block"')
        if not _vertices(block):
            raise ValidationError(f"model.p_preset.block: expected a list of vertices, got {block!r}")
        return _keyed("model.p_preset", block_probabilities, g, block, number("p"), number("q"))
    raise ValidationError(f"model.p_preset.kind: unknown p_preset kind {kind!r}")


def _parse_edit(text: str, m: int) -> tuple[int, int]:
    """Parse '+0 -3 +5' into the (plus, minus) masks of an edit.

    Tokens form a product read left to right with the rightmost factor
    applied first, so on a repeated edge the leftmost token wins.
    """
    plus = minus = 0
    for token in text.split():
        sign, digits = token[0], token[1:]
        if sign not in "+-" or not (digits.isascii() and digits.isdigit()):
            raise ValidationError(f"bad edit token {token!r}, expected e.g. '+3' or '-0'")
        e = int(digits)
        if e >= m:
            raise EdgeOutOfRange(f"edge index {e} not in [0, {m})")
        if not (plus | minus) >> e & 1:
            if sign == "+":
                plus |= 1 << e
            else:
                minus |= 1 << e
    return plus, minus


def _custom_edit(entry, m: int, exact: bool, key: str) -> tuple:
    """One entry of a custom model's "edits" as (plus, minus, weight)."""
    if not isinstance(entry, dict):
        raise ValidationError(f'{key}: expected an object with "edit" and "weight", got {entry!r}')
    check_keys(entry, key, ("edit", "weight"))
    text = _required(entry, "edit", key, "a custom edit")
    if not isinstance(text, str):
        raise ValidationError(f"{key}.edit: expected a string, got {text!r}")
    try:
        plus, minus = _parse_edit(text, m)
    except ValidationError as exc:
        raise ValidationError(f"{key}.edit: {exc}") from None
    return plus, minus, _number(_required(entry, "weight", key, "a custom edit"), exact, f"{key}.weight")


def load_config(path: str | Path, overrides: argparse.Namespace) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError(f"config must be a JSON object, got {raw!r}")
    check_keys(raw, "", ("host", "model", "mode", "caps", "seed", "initial", "T", "thin"))

    mode = overrides.mode or raw.get("mode", "double")
    if mode not in ("rational", "double"):
        raise ValidationError(f"mode: expected rational|double, got {mode!r}")
    exact = mode == "rational"

    params = raw.get("model")
    if not isinstance(params, dict) or "name" not in params:
        raise ValidationError('model: config needs a single "model" object with a "name"')
    name = params["name"]
    caps = raw.get("caps", {})
    if not isinstance(caps, dict):
        raise ValidationError(f"caps: expected an object, got {caps!r}")
    check_keys(caps, "caps", ("states",))
    cap = _cap(caps.get("states", STATE_CAP), "caps.states")
    if overrides.cap_states is not None:
        cap = _cap(overrides.cap_states, "--cap-states")
    elif cap > STATE_CAP:
        raise ValidationError(
            f"config raises caps.states to {cap}; pass --cap-states explicitly to confirm"
        )

    if name == "intersection":
        check_keys(params, "model", ("name", "n", "N", "mu", "mode"))
        n = _integer(_required(params, "n", "model", name), "model.n", least=1)
        N = _integer(_required(params, "N", "model", name), "model.N", least=1)
        host = intersection_host(n, N)
        if "host" in raw:
            declared = _keyed("host", host_from_json, raw["host"])
            if declared != host:
                raise ValidationError(
                    'config "host" disagrees with the intersection model host '
                    f"K_{{{n},{N}}}"
                )
    else:
        if "host" not in raw:
            raise ValidationError('host: config needs a "host" object')
        host = _keyed("host", host_from_json, raw["host"])

    p = None
    if name == "simple":
        p = _simple_probabilities(host, params, exact)
        weights = _keyed("model.p" if host.m else "host", simple_edit_weights, host, p)
    elif name == "moran":
        check_keys(params, "model", ("name",))
        weights = _keyed("host", moran_weights, host)
    elif name == "intersection":
        mu = _numbers(_required(params, "mu", "model", name), exact, "model.mu")
        layout = params.get("mode", "explicit")
        if layout not in ("explicit", "lazy"):
            raise ValidationError(f"model.mode: expected explicit|lazy, got {layout!r}")
        weights = _keyed("model.mu", intersection_weights, n, N, mu, mode=layout, cap=cap)
    elif name == "custom":
        check_keys(params, "model", ("name", "edits"))
        edits_spec = params.get("edits")
        if not isinstance(edits_spec, list) or not edits_spec:
            raise ValidationError('model.edits: model "custom" needs a non-empty "edits" list')
        plus, minus, w = zip(*(_custom_edit(entry, host.m, exact, f"model.edits[{i}]")
                               for i, entry in enumerate(edits_spec)))
        weights = _keyed("model.edits", WeightedEdits, host.m, plus, minus, w)
    else:
        raise ValidationError(f"model.name: unknown model name {name!r}")

    seed = _integer(overrides.seed if overrides.seed is not None else raw.get("seed", 0), "seed")
    default_initial = "full" if name == "moran" else "empty"
    initial = _keyed("initial", _parse_initial, raw.get("initial", default_initial), host)

    return RunConfig(
        host=host,
        model=name,
        weights=weights,
        p=p,
        steps=_integer(raw.get("T", 0), "T"),
        seed=seed,
        thin=_integer(raw.get("thin", 1), "thin", least=1),
        initial=initial,
        mode=mode,
        cap=cap,
        out=Path(overrides.out),
    )


def _warn_if_transient(cfg: RunConfig) -> bool:
    """Compound-model mixing statements start from the recurrent class;
    whether the start lies outside it (and a warning was printed)."""
    if cfg.model == "simple" or _is_recurrent(cfg.weights, cfg.host, cfg.initial.mask):
        return False
    print("warning: initial state is outside the recurrent class; "
          "mixing-time guarantees apply after the first covering update", file=sys.stderr)
    return True


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    transient = _warn_if_transient(cfg)
    traj = simulate(cfg.weights, cfg.initial, cfg.steps, seed=cfg.seed, thin=cfg.thin)
    meta = artifact_meta(
        cfg.host, cfg.seed, model=cfg.model, T=cfg.steps, thin=cfg.thin, sampler=SAMPLER_VERSION
    )
    cfg.out.mkdir(parents=True, exist_ok=True)
    summary = {"final_state": format(traj.masks[-1], "#x"), "edge_counts": traj.edge_counts()}
    if cfg.model == "moran":
        # A Moran edit clears u's edges other than {u, v} and sets {u, v}, so a forest stays
        # one: the flags switch at most once, from False to True, at the record bisection finds.
        first = bisect_left(traj.masks, True, key=lambda mask: forest_flags(cfg.host, [mask])[0])
        summary["acyclic"] = [False] * first + [True] * (len(traj.masks) - first)
    summary_meta = {**meta, "transient_start": cfg.initial.hex()} if transient else meta
    write_json(cfg.out / "summary.json", summary_meta, summary)
    if cfg.steps == 0:
        print(f"wrote {cfg.out / 'summary.json'} (no steps requested)")
        return 0

    lines = _trajectory_lines(traj, cfg.host, args.state_format == "edges")
    write_jsonl(cfg.out / "trajectory.jsonl", meta, lines)
    print(f"wrote {cfg.out / 'trajectory.jsonl'} ({len(traj.masks)} snapshots)")
    return 0


def _trajectory_lines(traj: Trajectory, g: HostGraph, edges: bool) -> Iterator[str]:
    """One JSON record per recorded state, formatted as `json.dumps` writes
    {"t": t, "state": hex} (plus "edges": [[u, v], ...]). Each edge's label
    is formatted once per host; the edge lists are decoded by `set_bits` one
    block of masks at a time, so memory does not grow with the walk. A
    simple walk mostly holds (with probability at least 1/2 at
    stationarity), so each run of equal consecutive masks in a block is
    decoded and formatted once, from its head."""
    times = iter(traj.times)
    if not edges:  # per record: Moran states hardly repeat, so finding runs costs more than it saves
        for t, mask in zip(times, traj.masks):
            yield f'{{"t": {t}, "state": "{mask:#x}"}}'
        return
    labels = np.array([f"[{u}, {v}]" for u, v in g.edges], dtype=object)
    for block in mask_blocks(traj.masks, g.m):
        heads, lengths = zip(*((mask, sum(1 for _ in run)) for mask, run in groupby(block)))
        rows, cols = set_bits(heads, g.m)
        listed, ends = labels[cols].tolist(), np.bincount(rows, minlength=len(heads)).cumsum().tolist()
        start = 0
        for mask, length, end in zip(heads, lengths, ends):
            text = f'"state": "{mask:#x}", "edges": [{", ".join(listed[start:end])}]}}'
            start = end
            for t in islice(times, length):
                yield f'{{"t": {t}, {text}'


def _recurrent_class(cfg: RunConfig) -> np.ndarray:
    return recurrent_class(cfg.weights, cfg.host, initial=cfg.initial, cap=cfg.cap)


def _spectrum_report(cfg: RunConfig):
    if cfg.model == "simple":
        return eigenvalues_simple(cfg.host.m, cfg.cap)
    return spectrum(cfg.weights, cfg.host, cap=cfg.cap, masks=_recurrent_class(cfg))


def _write_table(cfg: RunConfig, fmt: str, name: str, meta: dict, header, rows) -> int:
    """`rows` as <name>.csv, or as <name>.json with one object per row keyed
    by `header` when `fmt` is "json"."""
    cfg.out.mkdir(parents=True, exist_ok=True)
    path = cfg.out / f"{name}.{fmt}"
    if fmt == "json":
        write_json(path, meta, (dict(zip(header, row)) for row in rows))
    else:
        write_csv(path, meta, header, rows)
    print(f"wrote {path}")
    return 0


def cmd_spectrum(cfg: RunConfig, args: argparse.Namespace) -> int:
    report = _spectrum_report(cfg)
    by_value = "; ".join(f"{v:g}x{mult}" for v, mult in report.by_value())
    meta = artifact_meta(cfg.host, cfg.seed, model=cfg.model, by_value=by_value)
    header = ["flat", "size", "eigenvalue", "multiplicity"]
    return _write_table(cfg, args.format, "spectrum", meta, header, report.to_csv_rows())


def _stationary_rows(cfg: RunConfig) -> Iterator[tuple[str, str]]:
    """(hex state, str(pi)) per recurrent state, in ascending mask order,
    formatted from the masks as they are read."""
    if cfg.model == "simple":
        masks, pi = range(1 << cfg.host.m), stationary_closed_form(cfg.host, cfg.p, cfg.cap)
    else:
        masks, pi = stationary_faces(
            cfg.weights, cfg.host, initial=cfg.initial, cap=cfg.cap,
            exact=cfg.mode == "rational",
        )
    return ((format(mask, "#x"), str(v)) for mask, v in zip(masks, pi))


def cmd_stationary(cfg: RunConfig, args: argparse.Namespace) -> int:
    meta = artifact_meta(cfg.host, cfg.seed, model=cfg.model, mode=cfg.mode)
    return _write_table(cfg, args.format, "stationary", meta, ["state", "pi"], _stationary_rows(cfg))


def cmd_mixing(cfg: RunConfig, args: argparse.Namespace) -> int:
    c = args.c
    _check_c(c)
    if args.t_max is not None and args.t_max < 0:
        raise ValidationError(f"t_max must be >= 0, got {args.t_max}")
    m = cfg.host.m
    meta = artifact_meta(cfg.host, cfg.seed, model=cfg.model, c=c)
    simple = cfg.model == "simple"
    if simple:
        bound_steps = mixing_bound_simple(m, c)
        bound_at = lambda t: simple_tv_bound(m, t)
    else:
        report = _spectrum_report(cfg)
        lam = report.second_largest()
        chambers = report.total_multiplicity
        bound_steps = mixing_bound_compound(lam, m, c, chamber_count=chambers)
        meta["lambda_star"] = lam
        meta["chambers"] = chambers
        bound_at = lambda t: chambers * lam**t
    meta["bound_steps"] = bound_steps

    t_max = args.t_max if args.t_max is not None else bound_steps
    cfg.out.mkdir(parents=True, exist_ok=True)
    try:  # the curve's enumerations and rows; beyond the cap (or memory) only the bound is written
        if simple:
            masks, pi = None, _stationary_floats(cfg.host, cfg.p, cfg.cap)
        else:
            masks, pi = stationary_faces(
                cfg.weights, cfg.host, initial=cfg.initial, cap=cfg.cap, exact=False
            )
        check_cap(t_max + 1, cfg.cap, f"{t_max + 1} mixing-curve rows")
        tm = build_chain(cfg.weights, cfg.host, cap=cfg.cap, masks=masks)
        start = cfg.initial.mask
        if find_masks(tm.masks, start) < 0:
            start = int(tm.masks[0])  # fall back to a recurrent start
            meta["start"] = format(start, "#x")
            meta["start_fallback"] = cfg.initial.hex()
        curve = tv_decay(tm, start, pi, t_max)
    except CapExceeded as exc:
        meta["curve_skipped"] = str(exc)
        write_json(cfg.out / "mixing.json", meta, {"bound_steps": bound_steps})
        print(f"wrote {cfg.out / 'mixing.json'} (bound_steps={bound_steps}; curve skipped)")
        return 0

    rows = [(t, f"{curve[t]:.12e}", f"{bound_at(t):.12e}") for t in range(t_max + 1)]
    write_csv(cfg.out / "mixing.csv", meta, ["t", "tv", "bound"], rows)
    print(f"wrote {cfg.out / 'mixing.csv'} (bound_steps={bound_steps})")
    return 0


def _commute_text(rows: Callable[[np.ndarray], np.ndarray], n: int, den: int | None) -> Iterator[list[str]]:
    """The n x n matrix whose rows `rows(states)` gives for an index array
    of states, as text, computed and formatted COMMUTE_BLOCK cells at a
    time: `str` of each float, or with an integer denominator `den` the
    text of `str(Fraction)` from each cell's numerator and `den` reduced by
    their gcd."""
    step = max(1, COMMUTE_BLOCK // n)
    for start in range(0, n, step):
        cells = rows(np.arange(start, min(start + step, n))).ravel()
        if den is None:
            text = list(map(str, cells.tolist()))
        else:
            g = np.gcd(cells, den)
            text = [f"{a}/{b}" if b != 1 else str(a)
                    for a, b in zip((cells // g).tolist(), (den // g).tolist())]
        yield from (text[i : i + n] for i in range(0, len(text), n))


def cmd_commute(cfg: RunConfig, args: argparse.Namespace) -> int:
    """The N x N commute-time matrix, its N^2 cells counted against the cap."""
    meta = artifact_meta(cfg.host, cfg.seed, model=cfg.model, mode=cfg.mode)
    if cfg.model == "simple":
        m = cfg.host.m
        check_cap(1 << m, cfg.cap, f"2^{m} states")
        check_cap(1 << 2 * m, cfg.cap, f"2^{2 * m} commute-matrix cells")
        table = _commute_table(cfg.host, cfg.p)
        masks, matrix = range(1 << m), _commute_text(table.rows, 1 << m, table.denominator)
    else:
        masks = _recurrent_class(cfg)
        check_cap(len(masks) ** 2, cfg.cap, f"{len(masks)}^2 commute-matrix cells")
        tm = build_chain(cfg.weights, cfg.host, masks, cfg.cap)
        masks = tm.masks.tolist()
        meta["cells"] = "float64"  # one float solve, whatever the mode
        hit = _hitting_columns(tm, range(tm.size))
        matrix = _commute_text(lambda s: hit[s] + hit[:, s].T, tm.size, None)
    names = [format(mask, "#x") for mask in masks]
    rows = ([name] + row for name, row in zip(names, matrix))
    cfg.out.mkdir(parents=True, exist_ok=True)
    write_csv(cfg.out / "commute.csv", meta, ["state"] + names, rows)
    print(f"wrote {cfg.out / 'commute.csv'} ({len(names)} states)")
    return 0


def cmd_export_dot(cfg: RunConfig, args: argparse.Namespace) -> int:
    masks = None if cfg.model == "simple" else _recurrent_class(cfg)
    tm = build_chain(cfg.weights, cfg.host, masks, cfg.cap)
    text = to_dot(tm, cfg.host, labels=args.labels)
    meta = artifact_meta(cfg.host, cfg.seed, model=cfg.model)
    header = "".join(f"// {k}: {v}\n" for k, v in meta.items())
    cfg.out.mkdir(parents=True, exist_ok=True)
    path = cfg.out / "states.dot"
    path.write_text(header + text)
    print(f"wrote {path} ({tm.size} nodes)")
    return 0


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    results = run_verification(
        cfg.host,
        cfg.weights,
        p=cfg.p if cfg.model == "simple" else None,
        rng=np.random.default_rng(cfg.seed),
        exact=cfg.mode == "rational",
        cap=cfg.cap,
    )
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 3 if failed else 0


COMMANDS = {
    "simulate": cmd_simulate,
    "spectrum": cmd_spectrum,
    "stationary": cmd_stationary,
    "mixing": cmd_mixing,
    "commute": cmd_commute,
    "export-dot": cmd_export_dot,
    "verify": cmd_verify,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors (2 is reserved for caps)
        self.print_usage(sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="editwalk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--mode", choices=["rational", "double"], default=None)
        p.add_argument("--cap-states", type=int, default=None)
        if name in ("spectrum", "stationary"):
            p.add_argument("--format", choices=["csv", "json"], default="csv")
        if name == "simulate":
            p.add_argument("--state-format", choices=["hex", "edges"], default="hex")
        if name == "mixing":
            p.add_argument("--c", type=float, default=1.0)
            p.add_argument("--t-max", type=int, default=None)
        if name == "export-dot":
            p.add_argument("--labels", choices=["hex", "edges"], default="hex")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; library warnings are recorded and each distinct
    message is printed once, as `warning: <text>`, when the command ends."""
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return COMMANDS[args.command](load_config(args.config, args), args)
        except (CapExceeded, MemoryError) as exc:  # NumPy names the array that did not fit
            print(f"error (cap): {str(exc) or 'out of memory'}", file=sys.stderr)
            return 2
        except EditWalkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            for text in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {text}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
