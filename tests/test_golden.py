"""Golden-output lock: CSV bytes that every engine version must reproduce.

tests/data/golden.csv holds one row per protocol string x n x seed at 10,000
rounds and rho 0.9, followed by a block of runs with a checkpoint at round
5,000 whose snapshot metrics are appended to the row, and then a block of n=8
runs that feed packets through the other injection paths (flat targets, a
single target and a fixed plan), with the path in a leading column. A change
to the round loop must keep the file byte-identical; a change that is meant
to alter simulation output re-blesses it and says why:

    PYTHONPATH=src python tests/test_golden.py --bless

`--check` renders the file and compares it without pytest, which this module
does not import, so any interpreter can run it. It prints the first differing
line and exits 1 on a mismatch:

    PYTHONPATH=src python3.13 tests/test_golden.py --check
"""

import os
import sys
from itertools import zip_longest
from pathlib import Path

from channel_lab import selectors
from channel_lab.cli import CSV_FIELDS, render_csv
from channel_lab.core import derive_stream
from channel_lab.engine import Engine, run_simulation

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden.csv"

PROTOCOLS = (
    "adaptive", "fullsensing", "fullsensing_mod(2)", "round_robin",
    "backoff(exponential)", "backoff(linear)", "backoff(square)", "state_aware",
)
SIZES = (4, 8, 32)
INTERLEAVED_SIZES = (4, 8, 16)   # one committed family file per size
SEEDS = (0, 1, 2)
ROUNDS = 10_000
RHO = 0.9
CHECKPOINT = 5_000
SNAPSHOT_FIELDS = ("rounds", "max_max", "avg_max", "max_avg", "avg_avg",
                   "avg_access", "collisions")

# The other injection paths, each run at n=8 for every protocol string.
PATH_N = 8
PLAN = ([{"round": 100, "station": 3, "count": 60}]
        + [{"round": r, "station": 7 * r % PATH_N + 1, "count": 1 + (r % 3 == 0)}
           for r in range(1, ROUNDS, 2)])
PATHS = (("flat", "flat"), ("single(2)", "single(2)"), ("plan", {"plan": PLAN}))

FAMILY_SEED = 2018
FAMILY_K = 4


def family_file(n: int) -> str:
    # Relative to DATA, so the protocol column does not depend on the checkout.
    return f"families_{n}.json"


def make_family_files() -> None:
    """Write one verified family per level omega = 2^i for each interleaved size."""
    for n in INTERLEAVED_SIZES:
        rng = derive_stream(FAMILY_SEED, f"golden.families.{n}")
        levels = max(1, (n - 1).bit_length())
        families = [selectors.generate_selector_random(n, 2 ** i, FAMILY_K, 20, rng)
                    for i in range(1, levels + 1)]
        selectors.save_family_file(DATA / family_file(n), families)


def cells():
    for protocol in PROTOCOLS:
        for n in SIZES:
            for seed in SEEDS:
                yield protocol, n, seed
    for n in INTERLEAVED_SIZES:
        for seed in SEEDS:
            yield f"interleaved({family_file(n)})", n, seed


def config(protocol, n, seed, distribution="focused"):
    return {"n": n, "protocol": protocol, "rho": RHO, "rounds": ROUNDS, "seed": seed,
            "distribution": distribution}


def golden_text() -> str:
    """Render the golden file; family paths resolve against the working directory."""
    text = render_csv([run_simulation(config(*cell)) for cell in cells()])
    lines = [",".join(CSV_FIELDS + tuple(f"cp_{f}" for f in SNAPSHOT_FIELDS))]
    checkpointed = [cell for cell in cells() if cell[1] == 8 and cell[2] == 0]
    for cell in checkpointed:
        eng = Engine(config(*cell))
        eng.advance(CHECKPOINT)
        snapshot = eng.acc.snapshot()
        assert snapshot.rounds == CHECKPOINT
        result = eng.run()
        row = render_csv([result]).splitlines()[1]
        lines.append(row + "," + ",".join(repr(getattr(snapshot, f))
                                          for f in SNAPSHOT_FIELDS))
    lines.append(",".join(("distribution",) + CSV_FIELDS))
    for label, distribution in PATHS:
        for cell in cells():
            if cell[1] == PATH_N:
                row = render_csv([run_simulation(config(*cell, distribution))]).splitlines()[1]
                lines.append(f"{label},{row}")
    return text + "\n".join(lines) + "\n"


def test_golden_csv_is_byte_identical(monkeypatch):
    monkeypatch.chdir(DATA)
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")


def check() -> int:
    """Compare a fresh rendering with the golden file; 0 when byte-identical."""
    got = golden_text().splitlines(keepends=True)
    want = GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True)
    for number, (line, golden) in enumerate(zip_longest(got, want), start=1):
        if line != golden:
            print(f"{GOLDEN.name} line {number} differs:\n  rendered {line!r}\n"
                  f"  golden   {golden!r}")
            return 1
    print(f"{GOLDEN.name}: {len(want)} lines match under Python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] not in (["--bless"], ["--check"]):
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --bless | --check")
    if sys.argv[1] == "--check":
        os.chdir(DATA)
        sys.exit(check())
    DATA.mkdir(exist_ok=True)
    if not all((DATA / family_file(n)).exists() for n in INTERLEAVED_SIZES):
        make_family_files()
    os.chdir(DATA)
    with open(GOLDEN, "w", encoding="utf-8", newline="") as fh:
        fh.write(golden_text())
    print(f"wrote {GOLDEN}")
