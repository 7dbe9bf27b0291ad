"""The benchmark tracer's contract with the package.

perfbench/tracer.py times channel_lab from outside by replacing names it looks
up with getattr: `engine.adversary_step`, `engine.metrics_update`,
`Engine.step`, `Engine.__init__`, each protocol system's bound methods,
`cli.render_csv` and more. A refactor that moves one of them breaks
`perfbench/run.py --trace 1` (or silently zeroes a layer figure) while every
other test still passes. This test installs the tracer around a short run
and checks that it sees every round and leaves the results unchanged.
"""

from pathlib import Path

from channel_lab import cli, engine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

ROUNDS = 2000
DOC = {"n": 8, "protocol": "adaptive", "rho": 0.9, "rounds": ROUNDS, "seed": 5}


def test_tracer_sees_every_round_and_changes_nothing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    plain = engine.run_simulation(DOC)
    originals = (engine.Engine.__init__, engine.adversary_step, cli.render_csv)
    tracer = Tracer()
    tracer.install()
    try:
        traced = engine.run_simulation(DOC)
        text = cli.render_csv([traced])
    finally:
        tracer.uninstall()

    assert (engine.Engine.__init__, engine.adversary_step, cli.render_csv) == originals
    assert tracer.stats["protocols.actions"][0] == ROUNDS
    assert tracer.stats["protocols.finish_round"][0] == ROUNDS
    assert tracer.stats["adversary.step"][0] == ROUNDS
    assert tracer.stats["engine.init"][0] == 1
    assert tracer.counts["cli.rows"] == 1
    assert traced == plain
    assert text == cli.render_csv([plain])
