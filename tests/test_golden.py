"""Golden-output lock: CSV bytes that every engine version must reproduce.

tests/data/golden.csv holds one row per protocol string x n x seed at 10,000
rounds and rho 0.9, followed by a block of runs with a checkpoint at round
5,000 whose snapshot metrics are appended to the row. A change to the round
loop must keep the file byte-identical; a change that is meant to alter
simulation output re-blesses it and says why:

    PYTHONPATH=src python tests/test_golden.py --bless
"""

import os
import sys
from pathlib import Path

from channel_lab import selectors
from channel_lab.cli import CSV_FIELDS, render_csv
from channel_lab.core import derive_stream
from channel_lab.engine import run_simulation

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


def config(protocol, n, seed):
    return {"n": n, "protocol": protocol, "rho": RHO, "rounds": ROUNDS, "seed": seed}


def golden_text() -> str:
    """Render the golden file; family paths resolve against the working directory."""
    text = render_csv([run_simulation(config(*cell)) for cell in cells()])
    lines = [",".join(CSV_FIELDS + tuple(f"cp_{f}" for f in SNAPSHOT_FIELDS))]
    checkpointed = [cell for cell in cells() if cell[1] == 8 and cell[2] == 0]
    for cell in checkpointed:
        result = run_simulation(config(*cell), checkpoint_rounds=[CHECKPOINT])
        (cp_round, snapshot), = result.checkpoints
        assert cp_round == CHECKPOINT
        row = render_csv([result]).splitlines()[1]
        lines.append(row + "," + ",".join(repr(getattr(snapshot, f))
                                          for f in SNAPSHOT_FIELDS))
    return text + "\n".join(lines) + "\n"


def test_golden_csv_is_byte_identical(monkeypatch):
    monkeypatch.chdir(DATA)
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--bless"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --bless")
    DATA.mkdir(exist_ok=True)
    if not all((DATA / family_file(n)).exists() for n in INTERLEAVED_SIZES):
        make_family_files()
    os.chdir(DATA)
    with open(GOLDEN, "w", encoding="utf-8", newline="") as fh:
        fh.write(golden_text())
    print(f"wrote {GOLDEN}")
