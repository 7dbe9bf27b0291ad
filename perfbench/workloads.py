"""What each workload runs, and the three blocks of work a pass is made of.

Every workload runs the same three blocks in every pass, at its own sizes:

- runs: in-process run_simulation at the paper's configurations, one
  segment per protocol family (rounds/s per family);
- sweeps: `channel-lab sweep` as a subprocess with pool workers (cells/s and
  the time until the first CSV row is on disk);
- selectors: generate_selector_random plus verify_selector_exact, the
  Monte Carlo verifier, kautz_singleton/verify_disjunct and, at full size,
  the disperser/code construction (subsets/s, families/s).

paper_long makes the runs block long, sweep_short makes the sweeps block
cover every protocol string, selectors makes the selectors block large; the
other two blocks stay small so that every metric and every layer is measured
on every workload.

A pass repeats exactly the same inputs, which the --seed fixes, so passes can
be compared with each other and counts per pass are exact.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from channel_lab import cli, engine, selectors
from channel_lab.core import derive_stream as _derive_stream

# Selector families for the interleaved protocol: one per level omega = 2^i,
# generated from this fixed seed (never from --seed) before anything is timed.
FAMILY_SEED = 2018
FAMILY_K = 4
FAMILY_SIZES = (4, 8, 16)

# One segment per protocol family, at the release criteria's configurations.
SEGMENTS = (
    ("adaptive", {"n": 32, "protocol": "adaptive", "rho": 1.0}),              # criterion 1
    ("fullsensing", {"n": 32, "protocol": "fullsensing", "rho": 0.96,          # criterion 2
                     "distribution": "flat", "initial_queues": [96] * 32}),
    ("fullsensing_mod", {"n": 32, "protocol": "fullsensing_mod(2)", "rho": 0.9}),
    ("round_robin", {"n": 32, "protocol": "round_robin", "rho": 0.2}),        # criterion 3
    ("state_aware", {"n": 16, "protocol": "state_aware", "rho": 0.9}),        # criterion 9
    ("backoff", {"n": 32, "protocol": "backoff(exponential)", "rho": 0.5}),
    ("interleaved", {"n": 16, "protocol": "interleaved", "rho": 0.5}),
)

SWEEP_PROTOCOLS = (
    "adaptive", "fullsensing", "fullsensing_mod(2)", "round_robin",
    "backoff(exponential)", "backoff(linear)", "backoff(square)", "state_aware",
)
SWEEP_RHO = [0.1, 0.5, 0.9]
SWEEP_ROUNDS = 2000                       # criterion 8's cell length
SWEEP_JOBS = max(1, min(2, os.cpu_count() or 1))
SWEEP_TIMEOUT_S = 150

# (n, omega, k, how the oracle confirms the verdict)
SELECTOR_INSTANCES_FULL = ((12, 8, 4, "all"), (16, 8, 4, "all"),
                           (20, 8, 4, "sample"), (22, 8, 4, "sample"))
SELECTOR_INSTANCES_SMALL = ((16, 8, 4, "all"), (18, 8, 4, "sample"))
SELECTOR_TRIALS = 20
SAMPLED_DRAWS = 2000


@dataclass(frozen=True)
class Workload:
    name: str
    segment_rounds: int
    all_sweeps: bool
    seeds_per_sweep: int
    selector_instances: tuple
    kautz: tuple           # (d, b)
    poly: bool


WORKLOADS = {
    "paper_long": Workload("paper_long", 60_000, False, 2, SELECTOR_INSTANCES_SMALL,
                           (2, 16), False),
    "sweep_short": Workload("sweep_short", 30_000, True, 3, SELECTOR_INSTANCES_SMALL,
                            (2, 16), False),
    "selectors": Workload("selectors", 30_000, False, 2, SELECTOR_INSTANCES_FULL,
                          (2, 20), True),
}


def family_path(out_dir: Path, n: int) -> str:
    return str(out_dir / f"families_{n}.json")


def make_family_files(out_dir: Path) -> None:
    """Write a verified family per level for each interleaved system size."""
    for n in FAMILY_SIZES:
        rng = _derive_stream(FAMILY_SEED, f"perfbench.families.{n}")
        levels = max(1, (n - 1).bit_length())
        families = [selectors.generate_selector_random(n, 2 ** i, FAMILY_K, SELECTOR_TRIALS, rng)
                    for i in range(1, levels + 1)]
        selectors.save_family_file(family_path(out_dir, n), families)


@dataclass
class Inputs:
    segments: list          # (family name, config dict)
    sweeps: list            # sweep documents
    selector_instances: tuple
    kautz: tuple
    poly: bool
    seed: int


def make_inputs(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    base = seed * 1000
    segments = []
    for index, (name, doc) in enumerate(SEGMENTS):
        cfg = dict(doc, seed=base + index, rounds=workload.segment_rounds)
        if name == "interleaved":
            cfg["protocol"] = f"interleaved({family_path(out_dir, cfg['n'])})"
        segments.append((name, cfg))
    seeds = [base + 100 + i for i in range(workload.seeds_per_sweep)]
    sweeps = []
    if workload.all_sweeps:
        for protocol in SWEEP_PROTOCOLS:
            sweeps.append({"protocol": protocol, "n": [4, 8, 16], "rho": SWEEP_RHO,
                           "seeds": seeds, "rounds": SWEEP_ROUNDS})
        sizes = FAMILY_SIZES
    else:
        sizes = (8,)
    for n in sizes:
        sweeps.append({"protocol": f"interleaved({family_path(out_dir, n)})", "n": n,
                       "rho": SWEEP_RHO, "seeds": seeds, "rounds": SWEEP_ROUNDS})
    return Inputs(segments, sweeps, workload.selector_instances, workload.kautz,
                  workload.poly, seed)


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------

@dataclass
class PassRecord:
    """What one pass measured and produced."""

    wall_s: float = 0.0
    segment_s: dict = field(default_factory=dict)     # family -> seconds
    segment_rounds: dict = field(default_factory=dict)
    results: list = field(default_factory=list)       # (family, SimResult)
    sweep_s: list = field(default_factory=list)
    first_row_s: list = field(default_factory=list)
    sweep_cells: int = 0
    sweep_csv: list = field(default_factory=list)     # CSV text per sweep (or None)
    generate_s: float = 0.0
    families: int = 0
    verify_s: float = 0.0
    subsets: int = 0
    selector_out: dict = field(default_factory=dict)  # artefacts for the oracles
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def attempt(self, label, fn, *args):
        """Run one program operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def outputs(self) -> str:
        """Every output of the pass as text, for byte comparison between passes."""
        parts = [cli.render_csv([r for _, r in self.results])]
        parts += [text if text is not None else "FAILED\n" for text in self.sweep_csv]
        parts.append(json.dumps(self.selector_out, sort_keys=True, default=repr))
        parts += self.errors
        return "\n".join(parts)


def run_segments(inputs: Inputs, rec: PassRecord) -> None:
    for name, cfg in inputs.segments:
        t0 = time.perf_counter()
        result = rec.attempt(f"run {name}", engine.run_simulation, cfg)
        dt = time.perf_counter() - t0
        if result is not None:
            rec.results.append((name, result))
            rec.segment_s[name] = dt
            rec.segment_rounds[name] = cfg["rounds"]


def child_env(root: Path) -> dict:
    """Environment for program subprocesses: the checkout's sources, no seed override."""
    env = {k: v for k, v in os.environ.items() if k != cli.SEED_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root / "perfbench")])
    return env


def _has_row(path: str) -> bool:
    try:
        with open(path, "rb") as fh:
            return fh.read().count(b"\n") >= 2
    except FileNotFoundError:
        return False


def run_sweep(root: Path, out_dir: Path, index: int, doc: dict, jobs: int,
              trace_dir: Path | None):
    """Launch one sweep; returns (wall s, first-row s, CSV text)."""
    config = out_dir / f"sweep_{index}.json"
    out = out_dir / f"sweep_{index}_jobs{jobs}.csv"
    config.write_text(json.dumps(doc), encoding="utf-8")
    if out.exists():
        out.unlink()
    args = ["sweep", "--config", str(config), "--out", str(out), "--jobs", str(jobs)]
    if trace_dir is None:
        cmd = [sys.executable, "-m", "channel_lab.cli", *args]
    else:
        dumps = trace_dir / f"sweep_{index}"
        dumps.mkdir()
        cmd = [sys.executable, str(root / "perfbench" / "traced_cli.py"), str(dumps), *args]
    with open(out_dir / "sweep_stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        # Its own process group, so a timeout can stop the pool workers too.
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), start_new_session=True,
                                stdout=subprocess.DEVNULL, stderr=err)
        first = None
        try:
            while proc.poll() is None:
                if first is None and _has_row(str(out)):
                    first = time.perf_counter() - t0
                if time.perf_counter() - t0 > SWEEP_TIMEOUT_S:
                    raise TimeoutError(f"sweep {doc['protocol']} ran past {SWEEP_TIMEOUT_S} s")
                time.sleep(0.002)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        wall = time.perf_counter() - t0
    if proc.returncode != 0:
        detail = (out_dir / "sweep_stderr.txt").read_text(errors="replace").strip()
        raise RuntimeError(f"sweep {doc['protocol']} exited {proc.returncode}: {detail}")
    text = out.read_text(encoding="utf-8")
    return wall, (wall if first is None else first), text


def sweep_cells(doc: dict) -> int:
    ns = doc["n"] if isinstance(doc["n"], list) else [doc["n"]]
    return len(ns) * len(doc["rho"]) * len(doc["seeds"])


def run_sweeps(root: Path, out_dir: Path, inputs: Inputs, rec: PassRecord,
               trace_dir: Path | None) -> None:
    for index, doc in enumerate(inputs.sweeps):
        got = rec.attempt(f"sweep {doc['protocol']}", run_sweep, root, out_dir, index, doc,
                          SWEEP_JOBS, trace_dir)
        if got is None:
            rec.sweep_csv.append(None)
            continue
        wall, first, text = got
        rec.sweep_s.append(wall)
        rec.first_row_s.append(first)
        rec.sweep_cells += sweep_cells(doc)
        rec.sweep_csv.append(text)


def first_valid_disperser(rng):
    """Draw criterion 7's disperser shape until one passes its exhaustive check."""
    for _ in range(100):
        g = selectors.random_disperser(16, 2, 3, 1.0, 0.5, rng)
        if selectors.verify_disperser(g) is None:
            return g
    raise RuntimeError("no dispersing graph in 100 draws")


def run_selectors(inputs: Inputs, rec: PassRecord) -> None:
    out = rec.selector_out
    for n, omega, k, _ in inputs.selector_instances:
        key = f"{n}.{omega}.{k}"
        rng = _derive_stream(inputs.seed, f"perfbench.gen.{key}")
        t0 = time.perf_counter()
        family = rec.attempt(f"generate {key}", selectors.generate_selector_random,
                             n, omega, k, SELECTOR_TRIALS, rng)
        t1 = time.perf_counter()
        if family is None:
            continue
        rec.generate_s += t1 - t0
        rec.families += 1
        verdict = rec.attempt(f"verify {key}", selectors.verify_selector_exact, family)
        rec.verify_s += time.perf_counter() - t1
        rec.subsets += selectors.enumeration_cost(n, omega)
        fraction = rec.attempt(f"sampled {key}", selectors.verify_selector_sampled,
                               family, n, omega, SAMPLED_DRAWS, rng)
        out[key] = {"sets": family.sets, "verdict": verdict, "sampled": fraction}

    d, b = inputs.kautz
    code = rec.attempt(f"kautz_singleton {d} {b}", selectors.kautz_singleton, d, b)
    if code is not None:
        verdict = rec.attempt(f"verify_disjunct {d} {b}", selectors.verify_disjunct, code, d)
        out["kautz"] = {"rows": [sorted(r) for r in code.rows], "verdict": verdict}

    if inputs.poly:
        poly = rec.attempt("poly pipeline", poly_pipeline, inputs.seed)
        if poly is not None:
            for name, family in poly.items():
                t0 = time.perf_counter()
                verdict = rec.attempt(f"verify {name}", selectors.verify_selector_exact, family)
                rec.verify_s += time.perf_counter() - t0
                rec.subsets += selectors.enumeration_cost(family.n, family.omega)
                out[name] = {"sets": family.sets, "verdict": verdict, "k": family.k,
                             "provenance": family.provenance}


def poly_pipeline(seed: int) -> dict:
    """Criterion 7: disperser + Kautz-Singleton code -> selector, both branches."""
    g = first_valid_disperser(_derive_stream(seed, "perfbench.poly"))
    code = selectors.kautz_singleton(2, 16)
    return {
        "poly_auto": selectors.construct_selector_poly(
            16, 8, 4, selectors.PolyParams(c=2), g, code),
        "poly_spliced": selectors.construct_selector_poly(
            16, 8, 4, selectors.PolyParams(c=2, alpha=0.0), g, code),
    }


def run_pass(root: Path, out_dir: Path, inputs: Inputs, trace_dir: Path | None = None):
    rec = PassRecord()
    t0 = time.perf_counter()
    run_segments(inputs, rec)
    run_sweeps(root, out_dir, inputs, rec, trace_dir)
    run_selectors(inputs, rec)
    rec.wall_s = time.perf_counter() - t0
    return rec
