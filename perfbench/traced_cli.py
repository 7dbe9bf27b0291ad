"""Run the channel-lab CLI with the per-layer tracer installed.

    python3 perfbench/traced_cli.py TRACE_DIR sweep --config ... --out ... --jobs J

Sweep workers are forked from this process, so they inherit the wrappers.
Each worker writes its cumulative counts to TRACE_DIR/trace-<pid>.json after
every cell (pool workers are terminated, not shut down, so nothing later runs
in them); this process writes its own when the command returns. The worker
wrapper also adds the pickled size of each cell's config and result, the
bytes the pool moves per cell.
"""

import functools
import os
import pickle
import sys

from tracer import Tracer

from channel_lab import cli


def main(argv) -> int:
    trace_dir = argv[0]
    tracer = Tracer()
    tracer.install()
    run_cell = cli._run_cell

    @functools.wraps(run_cell)
    def traced_run_cell(config):
        tracer.adopt_process()
        result = run_cell(config)
        tracer.count("cli.pool_bytes",
                     len(pickle.dumps(config)) + len(pickle.dumps(result)))
        tracer.count("cli.pool_cells")
        tracer.dump(os.path.join(trace_dir, f"trace-{os.getpid()}.json"))
        return result

    tracer.patch(cli, "_run_cell", traced_run_cell)
    try:
        return cli.dispatch(argv[1:])
    finally:
        tracer.dump(os.path.join(trace_dir, f"trace-{os.getpid()}.json"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
