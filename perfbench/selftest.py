"""Show that every check of the benchmark can fail.

    python3 perfbench/selftest.py

Produces genuine outputs at small sizes (a run per protocol family, a sweep,
selector families and a Kautz-Singleton code), confirms the checks pass on
them, then corrupts one field at a time and confirms that the check meant to
catch it reports a problem. Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

import oracles
import run
import workloads as wl

from channel_lab import engine, selectors

OUT = run.ROOT / ".perfbench_out" / "selftest"


def replace(result, **changes):
    return dataclasses.replace(result, **changes)


def with_metrics(result, **changes):
    return replace(result, metrics=dataclasses.replace(result.metrics, **changes))


def move_delivery(result, station: int, extra: int):
    """Credit `extra` more deliveries to station (1-based), debiting another station."""
    queues = list(result.final_queues)
    other = 1 if station != 1 else 2
    queues[station - 1] -= extra
    queues[other - 1] += extra
    return replace(result, final_queues=tuple(queues))


def genuine_runs(family_file: str) -> dict:
    runs = {}
    for name, doc in wl.SEGMENTS:
        cfg = dict(doc, rounds=3000, seed=7)
        if name == "interleaved":
            cfg["protocol"] = f"interleaved({family_file})"
        runs[name] = (engine.run_simulation(cfg), cfg.get("distribution", "focused"))
    return runs


def run_cases(runs) -> list:
    """(what was corrupted, problems reported, word the report must contain)."""
    cases = []

    def case(label, name, corrupted, word):
        result, distribution = runs[name]
        family_k = wl.FAMILY_K if name == "interleaved" else None
        cases.append((label, oracles.check_run(corrupted(result), family_k, distribution), word))

    case("injected off by one", "adaptive", lambda r: replace(r, injected=r.injected + 1),
         "replay")
    case("a station delivers -1 packets", "round_robin",
         lambda r: move_delivery(r, 3, r.config.rounds), "negative")
    case("delivered off by one", "state_aware", lambda r: replace(r, delivered=r.delivered + 1),
         "sum to")
    case("adaptive collision", "adaptive", lambda r: replace(r, collisions=1), "collided")
    case("adaptive on-mode 3", "adaptive", lambda r: replace(r, max_on_mode=3), "on-mode")
    case("adaptive queue past bound", "adaptive", lambda r: with_metrics(r, max_avg=1e6),
         "peak total")
    case("two collisions in a cycle", "fullsensing",
         lambda r: replace(r, max_cycle_collisions=2), "one cycle")
    case("full-sensing on-mode 4", "fullsensing_mod", lambda r: replace(r, max_on_mode=4),
         "on-mode")
    case("round robin collision", "round_robin", lambda r: replace(r, collisions=1), "collided")
    case("round robin station beyond its slots", "round_robin",
         lambda r: move_delivery(r, 1, oracles.owned_slots(r.config.n, r.config.rounds)[0]),
         "more than their slots")
    case("state-aware collision", "state_aware", lambda r: replace(r, collisions=1), "collided")
    case("state-aware access above 1", "state_aware", lambda r: with_metrics(r, avg_access=1.5),
         "avg_access")
    case("backoff access below its attempts", "backoff",
         lambda r: with_metrics(r, avg_access=0.0), "backoff access")
    case("interleaved on-mode above k", "interleaved",
         lambda r: replace(r, max_on_mode=wl.FAMILY_K + 1), "family k")
    case("metrics and run disagree on collisions", "backoff",
         lambda r: with_metrics(r, collisions=r.metrics.collisions + 1), "metrics count")
    return cases


def edit_row(text: str, field: str, change, row: int = 0) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[1 + row].split(",")
    col = header.index(field)
    cells[col] = change(cells[col])
    lines[1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def sweep_cases(family_file: str) -> list:
    cases = []
    docs = {
        "adaptive": {"protocol": "adaptive", "n": [4, 8], "rho": [0.5, 0.9], "seeds": [1, 2],
                     "rounds": 500},
        "backoff": {"protocol": "backoff(linear)", "n": [4], "rho": [0.9], "seeds": [1],
                    "rounds": 500},
        "state_aware": {"protocol": "state_aware", "n": [4], "rho": [0.9], "seeds": [1],
                        "rounds": 500},
        "interleaved": {"protocol": f"interleaved({family_file})", "n": 8, "rho": [0.5],
                        "seeds": [1], "rounds": 500},
    }
    texts = {}
    for key, doc in docs.items():
        wall, first, text = wl.run_sweep(run.ROOT, OUT, 0, doc, 2, None)
        texts[key] = text

    def case(label, key, corrupt, word):
        family_k = wl.FAMILY_K if key == "interleaved" else None
        cases.append((label, oracles.check_sweep_rows(corrupt(texts[key]), docs[key], family_k),
                      word))

    case("sweep row missing", "adaptive", lambda t: "\n".join(t.splitlines()[:-1]) + "\n",
         "grid")
    case("sweep row duplicated", "adaptive",
         lambda t: "\n".join(t.splitlines()[:-1] + [t.splitlines()[1]]) + "\n", "grid")
    case("sweep injected off by one", "adaptive",
         lambda t: edit_row(t, "injected", lambda v: str(int(v) + 1)), "replay")
    case("sweep delivered above injected", "adaptive",
         lambda t: edit_row(t, "delivered", lambda v: str(10 ** 9)), "outside")
    case("sweep adaptive collision", "adaptive",
         lambda t: edit_row(t, "collisions", lambda v: "1"), "collisions")
    case("sweep backoff access too low", "backoff",
         lambda t: edit_row(t, "avg_access", lambda v: "0"), "access")
    case("sweep state-aware access above 1", "state_aware",
         lambda t: edit_row(t, "avg_access", lambda v: "1.5"), "avg_access")
    case("sweep interleaved restrain above k", "interleaved",
         lambda t: edit_row(t, "k", lambda v: str(wl.FAMILY_K + 1)), "family k")
    baseline = [p for key, doc in docs.items() for p in oracles.check_sweep_rows(
        texts[key], doc, wl.FAMILY_K if key == "interleaved" else None)]
    return cases, baseline, docs, texts


def selector_cases() -> tuple[list, list]:
    inputs = wl.Inputs([], [], ((12, 8, 4, "all"), (16, 8, 4, "sample")), (2, 12), False, 5)
    rec = wl.PassRecord()
    wl.run_selectors(inputs, rec)
    out = rec.selector_out
    baseline = run.check_selectors(out, inputs) + run.check_planted(out, inputs, rec)
    cases = []

    def case(label, corrupt, word):
        bad = {k: dict(v) for k, v in out.items()}
        corrupt(bad)
        cases.append((label, run.check_selectors(bad, inputs), word))

    case("verdict on a valid family", lambda o: o["12.8.4"].update(verdict=(1, 2, 3, 4)),
         "verify_selector_exact says")
    case("family loses half its sets (small, all X)",
         lambda o: o["12.8.4"].update(sets=o["12.8.4"]["sets"][::2][:4]), "oracle")
    case("family loses most sets (large, sampled X)",
         lambda o: o["16.8.4"].update(sets=o["16.8.4"]["sets"][:3]), "oracle")
    case("set heavier than k", lambda o: o["12.8.4"].update(
        sets=o["12.8.4"]["sets"] + ((1, 2, 3, 4, 5),)), "heavier")
    case("Monte Carlo failures on a valid family", lambda o: o["12.8.4"].update(sampled=0.25),
         "failure fraction")
    case("code column covered by others", lambda o: o["kautz"].update(
        rows=[sorted(set(r) | {1}) for r in o["kautz"]["rows"]]), "oracle finds")

    exact = selectors.verify_selector_exact
    selectors.verify_selector_exact = lambda family, *a: (1, 2, 3, 4, 5)
    try:
        cases.append(("planted family gets another witness",
                      run.check_planted(out, inputs, wl.PassRecord()), "planted"))
    finally:
        selectors.verify_selector_exact = exact
    return cases, baseline


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    wl.make_family_files(OUT)
    family_file = wl.family_path(OUT, 16)
    runs = genuine_runs(family_file)
    baseline = []
    for name, (result, distribution) in runs.items():
        family_k = wl.FAMILY_K if name == "interleaved" else None
        baseline += oracles.check_run(result, family_k, distribution)
    cases = run_cases(runs)
    more, sweep_baseline, docs, texts = sweep_cases(wl.family_path(OUT, 8))
    cases += more
    baseline += sweep_baseline

    serial = wl.PassRecord(sweep_csv=[texts["adaptive"].replace("adaptive", "adaptivX", 1)])
    inputs = wl.Inputs([], [docs["adaptive"]], (), (2, 12), False, 5)
    cases.append(("serial and worker outputs differ",
                  run.check_serial_sweeps(serial, inputs, OUT, wl.PassRecord()), "differ"))
    more, selector_baseline = selector_cases()
    cases += more
    baseline += selector_baseline

    missed = 0
    print(f"genuine outputs: {len(baseline)} problems" + (f": {baseline}" if baseline else ""))
    for label, problems, word in cases:
        caught = any(word in p for p in problems)
        missed += not caught
        print(f"{'caught' if caught else 'MISSED'}  {label}"
              + (f"  -> {problems[0]}" if problems else ""))
    print(f"{len(cases) - missed}/{len(cases)} corruptions caught")
    return 1 if missed or baseline else 0


if __name__ == "__main__":
    sys.exit(main())
