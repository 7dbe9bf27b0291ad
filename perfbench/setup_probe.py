"""Set-up probe: everything a workload does before its first simulated round.

    python3 perfbench/setup_probe.py PLAN.json

Imports channel_lab, validates every run configuration (which reads the
interleaved family files), expands every sweep document as the CLI does, and
builds the engine each run or sweep starts with. It then prints time.time_ns();
the caller subtracts its own launch time, so interpreter start is included.
"""

import json
import sys
import time

from channel_lab import cli, engine


def main(plan_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    for cfg in plan["segments"]:
        engine.Engine(cfg)
    for doc in plan["sweeps"]:
        cells = list(cli.expand_sweep(doc))
        engine.Engine(cells[0])
    print(time.time_ns())


if __name__ == "__main__":
    main(sys.argv[1])
