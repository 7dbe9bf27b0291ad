"""channel-lab benchmark: one command for every workload.

    python3 perfbench/run.py --workload paper_long --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its src/.
With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run,
whose passes alternate with untraced ones so that the tracing overhead is
measured and the traced output can be compared byte for byte. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7

if not (SRC / "channel_lab" / "__init__.py").is_file():
    print(f"perfbench: no channel_lab sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import oracles  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

from channel_lab import cli, selectors  # noqa: E402


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------

def measure_setup(inputs: wl.Inputs, out_dir: Path, extra: wl.PassRecord) -> list[float]:
    """Launch the set-up probe SETUP_PROBES times; seconds from launch to its stamp."""
    plan = out_dir / "setup_plan.json"
    plan.write_text(json.dumps({"segments": [cfg for _, cfg in inputs.segments],
                                "sweeps": inputs.sweeps}), encoding="utf-8")
    probe = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), str(plan)]

    def once():
        t0 = time.time_ns()
        done = subprocess.run(probe, cwd=ROOT, env=wl.child_env(ROOT), capture_output=True,
                              text=True, timeout=60, check=True)
        return (int(done.stdout.split()[-1]) - t0) / 1e9

    times = [extra.attempt("setup probe", once) for _ in range(SETUP_PROBES)]
    return [t for t in times if t is not None]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_first_pass(rec: wl.PassRecord, inputs: wl.Inputs) -> list[str]:
    """Hold every output of one pass against the independent oracles."""
    problems = []
    configs = dict(inputs.segments)
    for name, result in rec.results:
        family_k = wl.FAMILY_K if name == "interleaved" else None
        distribution = configs[name].get("distribution", "focused")
        problems += [f"run {name}: {p}" for p in
                     oracles.check_run(result, family_k, distribution)]
    for doc, text in zip(inputs.sweeps, rec.sweep_csv):
        if text is not None:
            family_k = wl.FAMILY_K if doc["protocol"].startswith("interleaved") else None
            problems += [f"sweep {doc['protocol']}: {p}" for p in
                         oracles.check_sweep_rows(text, doc, family_k)]
    problems += check_selectors(rec.selector_out, inputs)
    return problems


def check_selectors(out: dict, inputs: wl.Inputs) -> list[str]:
    problems = []
    rng = random.Random(f"perfbench.oracle.{inputs.seed}")
    for n, omega, k, how in inputs.selector_instances:
        key = f"{n}.{omega}.{k}"
        if key not in out:
            continue
        got = out[key]
        problems += [f"family {key}: {p}" for p in oracles.check_family_shape(got["sets"], n, k)]
        if how == "all":
            expected = oracles.first_counterexample(got["sets"], n, omega)
        else:
            expected = oracles.sampled_counterexample(got["sets"], n, omega,
                                                      wl.SAMPLED_DRAWS, rng)
        if got["verdict"] != expected:
            problems.append(f"family {key}: verify_selector_exact says {got['verdict']}, "
                            f"oracle ({how} X) finds {expected}")
        if got["sampled"] not in (None, 0.0):
            problems.append(f"family {key}: verify_selector_sampled failure fraction "
                            f"{got['sampled']} on a verified family")
    if "kautz" in out:
        d, b = inputs.kautz
        expected = oracles.disjunct_counterexample(out["kautz"]["rows"], b, d)
        if out["kautz"]["verdict"] != expected or expected is not None:
            problems.append(f"kautz_singleton({d}, {b}): verify_disjunct says "
                            f"{out['kautz']['verdict']}, oracle finds {expected}")
    for name in ("poly_auto", "poly_spliced"):
        if name in out:
            got = out[name]
            problems += [f"{name}: {p}" for p in oracles.check_family_shape(got["sets"], 16, 4)]
            expected = oracles.first_counterexample(got["sets"], 16, 8)
            if got["verdict"] != expected or expected is not None:
                problems.append(f"{name}: verify_selector_exact says {got['verdict']}, "
                                f"oracle finds {expected}")
    if inputs.poly and "poly_spliced" in out and out["poly_spliced"]["provenance"] != "poly":
        problems.append("forced splice did not take the spliced branch")
    return problems


def check_planted(out: dict, inputs: wl.Inputs, extra: wl.PassRecord) -> list[str]:
    """Remove every set that singles out one element of a seeded X0 from an accepted
    family; the program and the oracle must then report the same first counterexample."""
    n, omega, k, _ = next(i for i in inputs.selector_instances if i[3] == "all")
    if f"{n}.{omega}.{k}" not in out:
        return []       # its generation failed, which is already counted
    smin = -(-omega // 2)
    x0 = set(random.Random(f"perfbench.plant.{inputs.seed}").sample(range(1, n + 1), smin))
    kept = tuple(s for s in out[f"{n}.{omega}.{k}"]["sets"] if len(x0 & set(s)) != 1)
    family = selectors.SelectorFamily(n, omega, k, kept, "planted")
    witness = extra.attempt("verify planted family", selectors.verify_selector_exact, family)
    expected = oracles.first_counterexample(kept, n, omega)
    if expected is None or witness != expected:
        return [f"planted family (X0={sorted(x0)}): verify_selector_exact says {witness}, "
                f"oracle finds {expected}"]
    return []


def check_serial_sweeps(first: wl.PassRecord, inputs: wl.Inputs, out_dir: Path,
                        extra: wl.PassRecord) -> list[str]:
    """Serial output must match the worker output byte for byte."""
    problems = []
    for index, (doc, text) in enumerate(zip(inputs.sweeps, first.sweep_csv)):
        got = extra.attempt(f"serial sweep {doc['protocol']}", wl.run_sweep, ROOT, out_dir,
                            index, doc, 1, None)
        if got is not None and text is not None and got[2] != text:
            problems.append(f"sweep {doc['protocol']}: serial and --jobs {wl.SWEEP_JOBS} "
                            "outputs differ")
    return problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(plain: list, setup: list) -> dict:
    m = {}
    for name, _ in wl.SEGMENTS:
        m[f"rounds_per_s.{name}"] = (median(rec.segment_rounds[name] / rec.segment_s[name]
                                            for rec in plain if name in rec.segment_s),
                                     "rounds/s")
    m["cells_per_s"] = (median(rec.sweep_cells / sum(rec.sweep_s)
                               for rec in plain if rec.sweep_s), "cells/s")
    m["first_row_s"] = (median(statistics.fmean(rec.first_row_s)
                               for rec in plain if rec.first_row_s), "s")
    m["verify_subsets_per_s"] = (median(rec.subsets / rec.verify_s
                                        for rec in plain if rec.verify_s), "subsets/s")
    m["families_per_s"] = (median(rec.families / rec.generate_s
                                  for rec in plain if rec.generate_s), "families/s")
    m["setup_s"] = (median(setup), "s")
    m["wall_s"] = (median(rec.wall_s for rec in plain), "s")
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    m["peak_rss_mb"] = (rss_kb / 1024, "MB")
    return m


def per_layer(tr: Tracer, traced: list, plain: list) -> dict:
    passes = len(traced)
    stats, counts = tr.stats, tr.counts

    def calls(name):
        return stats.get(name, [0, 0, 0])[0]

    def busy_us(name):
        return stats.get(name, [0, 0, 0])[1] / 1e3

    def ratio(a, b):
        return a / b if b else 0.0

    rounds = calls("engine.step")
    step = stats.get("engine.step", [0, 0, 0])
    m = {
        "core.validate_config.us": (ratio(busy_us("core.validate_config"),
                                          calls("core.validate_config")), "us"),
        "core.validate_config.calls": (calls("core.validate_config") / passes, "count"),
        "core.family_file_loads": (calls("selectors.load_family_file") / passes, "count"),
        "core.derive_stream.us": (ratio(busy_us("core.derive_stream"),
                                        calls("core.derive_stream")), "us"),
        "core.derive_stream.calls": (calls("core.derive_stream") / passes, "count"),
        "adversary.step.us_per_round": (ratio(busy_us("adversary.step"), rounds), "us"),
        "adversary.packets_per_round": (ratio(counts.get("adversary.packets", 0), rounds),
                                        "packets/round"),
        "protocols.actions.us_per_round": (ratio(busy_us("protocols.actions"), rounds), "us"),
        "protocols.finish_round.us_per_round": (ratio(busy_us("protocols.finish_round"),
                                                      rounds), "us"),
        "protocols.note_injections.us_per_round": (ratio(busy_us("protocols.note_injections"),
                                                         rounds), "us"),
        "protocols.attempts_per_round": (ratio(counts.get("protocols.attempts", 0), rounds),
                                         "attempts/round"),
        "protocols.delivery_ratio": (ratio(counts.get("protocols.deliveries", 0),
                                           counts.get("protocols.busy_rounds", 0)), "ratio"),
        "engine.step.self_us_per_round": (ratio((step[1] - step[2]) / 1e3, rounds), "us"),
        "engine.init.us": (ratio(busy_us("engine.init"), calls("engine.init")), "us"),
        "engine.rounds": (rounds / passes, "count"),
        "metrics.update.us_per_round": (ratio(busy_us("metrics.update"), rounds), "us"),
        "selectors.verify_exact.s": (busy_us("selectors.verify_exact.complete") / 1e6 / passes,
                                     "s"),
        "selectors.verify_exact.subsets": (counts.get("selectors.subsets", 0) / passes,
                                           "count"),
        "selectors.generate.s": (busy_us("selectors.generate") / 1e6 / passes, "s"),
        "selectors.generate.trials_per_family": (ratio(counts.get("selectors.trials", 0),
                                                       counts.get("selectors.families", 0)),
                                                 "trials"),
        "selectors.verify_sampled.draws_per_s": (
            ratio(counts.get("selectors.draws", 0), busy_us("selectors.verify_sampled") / 1e6),
            "1/s"),
        "selectors.kautz_singleton.s": (busy_us("selectors.kautz_singleton") / 1e6 / passes,
                                        "s"),
        "selectors.verify_disjunct.s": (busy_us("selectors.verify_disjunct") / 1e6 / passes,
                                        "s"),
        "selectors.load_family_file.us": (ratio(busy_us("selectors.load_family_file"),
                                                calls("selectors.load_family_file")), "us"),
        "cli.expand_sweep.us_per_cell": (ratio(busy_us("cli.expand_sweep"),
                                               counts.get("cli.cells", 0)), "us"),
        "cli.render_csv.us_per_row": (ratio(busy_us("cli.render_csv"),
                                            counts.get("cli.rows", 0)), "us"),
        "cli.pool_bytes_per_cell": (ratio(counts.get("cli.pool_bytes", 0),
                                          counts.get("cli.pool_cells", 0)), "bytes"),
        "trace.slowdown": (ratio(median(r.wall_s for r in traced),
                                 median(r.wall_s for r in plain)), "ratio"),
    }
    return m


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    os.environ.pop(cli.SEED_ENV_VAR, None)
    workload = wl.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_out" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    wl.make_family_files(out_dir)
    inputs = wl.make_inputs(workload, args.seed, out_dir)
    extra = wl.PassRecord()     # operations outside the timed passes
    setup = [] if args.trace else measure_setup(inputs, out_dir, extra)

    tr = Tracer() if args.trace else None
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        if tr is not None and len(traced) < len(plain):
            trace_dir = out_dir / f"trace_{len(traced)}"
            trace_dir.mkdir()
            tr.install()
            try:
                rec = wl.run_pass(ROOT, out_dir, inputs, trace_dir)
            finally:
                tr.uninstall()
            tr.merge_dumps(trace_dir)
            traced.append(rec)
        else:
            plain.append(wl.run_pass(ROOT, out_dir, inputs))
        if time.perf_counter() >= deadline and (tr is None or len(traced) == len(plain)):
            break

    first = plain[0]
    problems = check_first_pass(first, inputs)
    reference = first.outputs()
    later = [("untraced", rec) for rec in plain[1:]] + [("traced", rec) for rec in traced]
    for index, (kind, rec) in enumerate(later, start=1):
        if rec.outputs() != reference:
            problems.append(f"pass {index} ({kind}) output differs from the first pass")
    problems += check_serial_sweeps(first, inputs, out_dir, extra)
    problems += check_planted(first.selector_out, inputs, extra)

    records = plain + traced + [extra]
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    for error in sorted({e for r in records for e in r.errors}):
        print(f"failed operation: {error}", file=sys.stderr)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    metrics = per_layer(tr, traced, plain) if tr is not None else end_to_end(plain, setup)
    print(f"{workload.name}: {len(plain)} untraced and {len(traced)} traced passes, "
          f"{attempted} operations, {failed} failed, {len(problems)} check failures")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
