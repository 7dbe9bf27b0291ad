"""Command-line entry point: run one simulation, sweep a parameter grid, and
generate or verify selector families. Results are written as CSV that is
byte-stable across repeated invocations."""

from __future__ import annotations

import argparse
import io
import json
import multiprocessing
import os
import sys

from . import selectors
from .core import ConfigError, RestrainViolation, SimulationError, derive_stream, validate_config
from .engine import SimResult, run_simulation

CSV_FIELDS = (
    "protocol", "n", "k", "rho", "p", "b", "seed", "rounds",
    "max_max", "avg_max", "max_avg", "avg_avg", "avg_access",
    "collisions", "injected", "delivered",
)

SEED_ENV_VAR = "CHANNEL_LAB_SEED"


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _csv_row(result: SimResult) -> list:
    cfg = result.config
    m = result.metrics
    return [
        cfg.protocol.canonical(), cfg.n,
        "unbounded" if cfg.restrain_limit is None else cfg.restrain_limit,
        cfg.rho, cfg.burst_p, cfg.stock_b, cfg.seed, cfg.rounds,
        m.max_max, m.avg_max, m.max_avg, m.avg_avg, m.avg_access,
        result.collisions, result.injected, result.delivered,
    ]


def render_csv(results) -> str:
    out = io.StringIO()
    out.write(",".join(CSV_FIELDS) + "\n")
    for result in results:
        queued = sum(result.final_queues)
        if queued != result.queued_total or queued != result.injected - result.delivered:
            raise SimulationError(
                f"row for seed {result.config.seed}: final queues hold {queued} packets, "
                f"injected - delivered = {result.injected - result.delivered}")
        out.write(",".join(_fmt(v) for v in _csv_row(result)) + "\n")
    return out.getvalue()


def emit_csv(results, path) -> None:
    """Write one CSV row per run; header order is fixed, endings are LF."""
    text = render_csv(results)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

_SWEEP_ONLY_KEYS = {"seeds"}


def _as_list(value):
    return list(value) if isinstance(value, (list, tuple)) else [value]


def sweep_size(doc: dict) -> int:
    seeds = doc.get("seeds", 1)
    n_seeds = seeds if isinstance(seeds, int) else len(seeds)
    return len(_as_list(doc.get("n", []))) * len(_as_list(doc.get("rho", []))) * n_seeds


def expand_sweep(doc: dict):
    """Yield validated per-cell configurations for a sweep document.

    A sweep document is a run configuration whose `n` and `rho` may be lists
    and whose `seed` is replaced by `seeds`: either an explicit list or an
    integer count meaning seeds 0..count-1.
    """
    if not isinstance(doc, dict):
        raise ConfigError("sweep config must be a JSON object")
    if "seed" in doc:
        raise ConfigError("sweep configs use 'seeds', not 'seed'", "seed")
    seeds = doc.get("seeds", None)
    if seeds is None:
        raise ConfigError("sweep config needs 'seeds' (list or count)", "seeds")
    if isinstance(seeds, int):
        seeds = list(range(seeds))
    base = {k: v for k, v in doc.items() if k not in _SWEEP_ONLY_KEYS}
    for n in _as_list(doc.get("n")):
        for rho in _as_list(doc.get("rho")):
            for seed in seeds:
                cell = dict(base)
                cell.update(n=n, rho=rho, seed=seed)
                yield validate_config(cell)


def _run_cell(config):
    return run_simulation(config)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc


def _default_seed():
    value = os.environ.get(SEED_ENV_VAR)
    return int(value) if value else None


def _cmd_run(args) -> int:
    doc = _load_json(args.config)
    # --seed beats the config's "seed", which beats the environment default.
    seed = args.seed
    if seed is None and isinstance(doc, dict) and "seed" not in doc:
        seed = _default_seed()
    if seed is not None and isinstance(doc, dict):
        doc["seed"] = seed
    config = validate_config(doc)
    result = run_simulation(config)
    if args.out:
        emit_csv([result], args.out)
    else:
        sys.stdout.write(render_csv([result]))
    return 0


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}", "jobs")
    jobs = min(args.jobs, os.cpu_count() or 1)
    doc = _load_json(args.config)
    cells = list(expand_sweep(doc))
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_run_cell, cells)
    else:
        results = [run_simulation(c) for c in cells]
    emit_csv(results, args.out)
    return 0


def _cmd_selector_gen(args) -> int:
    seed = args.seed if args.seed is not None else (_default_seed() or 0)
    rng = derive_stream(seed, f"selector.gen.{args.n}.{args.omega}.{args.k}")
    try:
        family = selectors.generate_selector_random(
            args.n, args.omega, args.k, args.trials, rng)
    except selectors.SelectorGenerationFailure as exc:
        print(f"generation failed: best failure fraction "
              f"{exc.best_failure_fraction:.4g}", file=sys.stderr)
        return 1
    selectors.save_family_file(args.out, family)
    print(f"wrote {len(family.sets)}-set family to {args.out}")
    return 0


def _cmd_selector_verify(args) -> int:
    families = selectors.load_family_file(args.family)
    seed = args.seed if args.seed is not None else (_default_seed() or 0)
    all_ok = True
    for idx, family in enumerate(families):
        label = f"family[{idx}] (n={family.n}, omega={family.omega}, k={family.k})"
        if args.samples:
            rng = derive_stream(seed, f"selector.verify.{idx}")
            fraction = selectors.verify_selector_sampled(
                family, family.n, family.omega, args.samples, rng)
            print(f"{label}: sampled failure fraction {fraction:.6g}")
            all_ok = all_ok and fraction == 0.0
        else:
            witness = selectors.verify_selector_exact(family)
            if witness is None:
                print(f"{label}: ok")
            else:
                print(f"{label}: counterexample X={list(witness)}")
                all_ok = False
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="channel-lab",
        description="Contention-resolution simulator for restrained shared channels.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="run a (n, rho, seed) grid to CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes, at most the number of CPUs")

    p_sel = sub.add_parser("selector", help="selector family tools")
    sel_sub = p_sel.add_subparsers(dest="selector_command", required=True)

    p_gen = sel_sub.add_parser("gen", help="generate and verify a random family")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--omega", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--trials", type=int, default=20)

    p_ver = sel_sub.add_parser("verify", help="verify a stored family")
    p_ver.add_argument("--family", required=True)
    group = p_ver.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true")
    group.add_argument("--samples", type=int, default=0)
    p_ver.add_argument("--seed", type=int, default=None)

    return parser


def dispatch(argv) -> int:
    """Parse arguments and run; 0 = success, 1 = input error, 2 = invariant hit."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "selector" and args.selector_command == "gen":
            return _cmd_selector_gen(args)
        if args.command == "selector" and args.selector_command == "verify":
            return _cmd_selector_verify(args)
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        kind = "restrain violation" if isinstance(exc, RestrainViolation) else "invariant violation"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
