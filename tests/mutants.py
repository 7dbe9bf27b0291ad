"""Mutant table: one-line faults that the test suite must catch.

    python tests/mutants.py                          # every row, default selection
    python tests/mutants.py tests/test_reference.py  # every row, another selection

Each row of MUTANTS is (file, old text, new text, why). For each row the
script copies `src/`, `tests/` and `pyproject.toml` into a temporary
directory, replaces the old text, which must occur exactly once in the file,
by the new text in the copy, and runs `python -m pytest -x -q` there on the
selection: SELECTION, or the pytest arguments given on the command line. The
checkout is never modified. A row whose run fails is caught; a row whose run
passes survived. The selection first runs once on an unmutated copy, which
must pass. The script prints one line per row and exits 1 if the unmutated
run fails, a row no longer applies, or any mutant survives.

Pytest does not collect this file, and it is not part of the tier-1 run: a
full table takes minutes.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SELECTION = [
    "tests/test_reference.py", "tests/test_adversary.py", "tests/test_protocols.py",
    "tests/test_engine.py", "tests/test_cli.py", "tests/test_golden.py",
]

ENGINE = "src/channel_lab/engine.py"
ADVERSARY = "src/channel_lab/adversary.py"
PROTOCOLS = "src/channel_lab/protocols.py"
CLI = "src/channel_lab/cli.py"

MUTANTS = [
    # Counters that no CSV column shows.
    (ENGINE,
     "if (r - 1) // n != cycle:\n                    cycle = (r - 1) // n",
     "if r // n != cycle:\n                    cycle = r // n",
     "a: collision cycles shifted by one round"),
    (ENGINE,
     "if cycle_collisions > max_cycle_collisions:",
     "if cycle_collisions > max_cycle_collisions + 1:",
     "b: max_cycle_collisions under-reports"),
    (ENGINE,
     "if on_count > max_on_mode:",
     "if on_count > max_on_mode + 1:",
     "c: max_on_mode under-reports"),
    (PROTOCOLS,
     "        if len(attempts) > 1 and isinstance(self.stations[0], AdaptiveStation):\n"
     "            raise ProtocolInvariantBroken(\n"
     "                f\"round {round_no}: {len(attempts)} adaptive stations transmitted\")\n",
     "",
     "d: the guard against two adaptive transmitters deleted"),
    (ADVERSARY,
     "        if d - running_min > bound:\n"
     "            for t1 in range(1, t2 + 1):\n"
     "                if d - prefix[t1 - 1] > bound:",
     "        if d - running_min >= bound:\n"
     "            for t1 in range(1, t2 + 1):\n"
     "                if d - prefix[t1 - 1] >= bound:",
     "e: a window exactly at rho*len + b called a violation"),
    (ENGINE,
     "if q > round_max:",
     "if q > round_max + 1:",
     "metrics: an injection one above the round max is not seen"),
    (ENGINE,
     "round_max = q - 1   # this station alone held the max",
     "pass",
     "metrics: the round max is not lowered by a delivery"),
    # Checks and protocol laws.
    (ENGINE,
     "if queued != total or min(queues) < 0:",
     "if queued != total:",
     "the stop check no longer sees a negative queue"),
    (PROTOCOLS,
     "if round_no % n == 0 and remaining <= 2 * n:",
     "if round_no % n == 0 and remaining < 2 * n:",
     "full-sensing big exit at < 2n"),
    (PROTOCOLS,
     "+ (self.variant_k - 1) * n",
     "+ self.variant_k * n",
     "fullsensing_mod sleeps kn instead of (k-1)n"),
    (PROTOCOLS,
     "if self.queue_seen - 1 > (2 + self.variant_k) * n:",
     "if self.queue_seen - 1 > (1 + self.variant_k) * n:",
     "full-sensing big threshold (1 + k)n instead of (2 + k)n"),
    (PROTOCOLS,
     "                if own_ack:\n",
     "                if True:\n",
     "full-sensing: a transmitter always takes a single for its own"),
    (CLI,
     "if queued != result.queued_total or queued != result.injected - result.delivered:",
     "if False:",
     "the CSV writer's final-queue check removed"),
    (CLI,
     "by_cell = sorted(table.cells, key=lambda res: (res.config.n, res.config.rho))",
     "by_cell = table.cells",
     "stability_sweep groups unsorted cells"),
    # Backoff driver.
    (PROTOCOLS,
     "                self._book(st, round_no)\n",
     "                self._book(st, round_no + 1)\n",
     "backoff: a fresh station draws in the window one round late"),
    (PROTOCOLS,
     "            if st.slot is None:\n                self._book(st, round_no)",
     "            self._book(st, round_no)",
     "backoff: a booked station draws again on an injection"),
    (PROTOCOLS,
     "        due.sort()\n",
     "",
     "backoff: due stations not sorted"),
    (PROTOCOLS,
     "if queues[success_sid - 1] > 0:",
     "if queues[success_sid - 1] >= 0:",
     "backoff: an emptied station stays booked"),
    # Token driver and stations.
    (PROTOCOLS,
     "st.observe(round_no, obs, st.sid == success_sid)",
     "st.observe(round_no, obs, False)",
     "token: own_ack dropped"),
    (PROTOCOLS,
     "        if woken:\n",
     "        if woken:\n            woken = woken[:1]\n",
     "token: only the first due station woken"),
    (PROTOCOLS,
     "self.pos = pos + 1",
     "self.pos = pos",
     "token: pos not moved when a station behind it goes to the front"),
    # Adversary release stream.
    (ADVERSARY,
     "if (random() < burst_p or stock >= stock_b) and stock:",
     "if stock and (random() < burst_p or stock >= stock_b):",
     "stream: burst coin drawn only with a non-empty stock"),
    (ADVERSARY,
     "    for r in range(start + 1, stop + 1):",
     "    for r in range(start + 1, stop + 2):",
     "stream: draws one round past stop"),
    (ADVERSARY,
     "bisect_right(plan, stop, key=_ROUND)",
     "bisect_right(plan, stop + 1, key=_ROUND)",
     "stream: plan stretch one round too long"),
    (ADVERSARY,
     "t1 = (n + 1) / (3 * n)",
     "t1 = n / (3 * n)",
     "stream: focused station 1 loses its 1/(3n) share to station 2"),
    (ADVERSARY,
     "sid = 3 + int((u - t2) / tail)",
     "sid = 3 + int((u - t1) / tail)",
     "stream: focused tail offset from t1"),
    (ADVERSARY,
     "                for _ in range(stock):\n"
     "                    sid = randbelow(getrandbits, n) + 1",
     "                for r in range(stock):\n"
     "                    sid = randbelow(getrandbits, n) + 1",
     "stream: the flat loop shadows the round variable r"),
]


def copy_tree(dest):
    shutil.copytree(ROOT / "src", dest / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(ROOT / "tests", dest / "tests",
                    ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_pytest(tree, selection):
    """None when the selection passes in `tree`, else the first failure pytest names."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode == 0:
        return None
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return failed[0].split(" - ")[0] if failed else f"pytest exit {proc.returncode}"


def main(argv):
    selection = argv or SELECTION
    failures = 0
    with tempfile.TemporaryDirectory(prefix="channel-lab-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        failed = run_pytest(clean, selection)
        if failed:
            print(f"unmutated copy fails the selection ({failed}); no mutant can be judged")
            return 1
        for i, (file, old, new, why) in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{i}"
            copy_tree(tree)
            path = tree / file
            text = path.read_text()
            if text.count(old) != 1:
                print(f"stale     {why}: old text found {text.count(old)} times in {file}")
                failures += 1
                continue
            path.write_text(text.replace(old, new))
            start = time.perf_counter()
            failed = run_pytest(tree, selection)
            seconds = time.perf_counter() - start
            print(f"{'caught  ' if failed else 'SURVIVED'}  {seconds:5.1f} s  {why}"
                  f"  [{failed or 'selection passed'}]", flush=True)
            failures += not failed
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
