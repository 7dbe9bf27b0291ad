import dataclasses
import json
import multiprocessing
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from channel_lab import cli, selectors
from channel_lab.cli import (
    CSV_FIELDS, dispatch, emit_csv, expand_sweep, render_csv, stability_sweep, sweep_size,
)
from channel_lab.core import ConfigError, SimulationError, validate_config
from channel_lab.engine import Engine, run_simulation

DATA = Path(__file__).resolve().parent / "data"


def write_config(tmp_path, name="config.json", **overrides):
    doc = {"n": 8, "protocol": "adaptive", "rho": 1.0, "rounds": 2000, "seed": 5}
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestRunCommand:
    def test_adaptive_run_reports_zero_collisions(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert dispatch(["run", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        header, row = out.strip().split("\n")
        assert header == ",".join(CSV_FIELDS)
        values = dict(zip(CSV_FIELDS, row.split(",")))
        assert values["collisions"] == "0"
        assert values["protocol"] == "adaptive"
        assert values["k"] == "2"

    def test_out_file_is_written(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "result.csv"
        assert dispatch(["run", "--config", str(path), "--out", str(out)]) == 0
        assert out.read_text().startswith(",".join(CSV_FIELDS))

    def test_malformed_json_names_the_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 8,,}')
        assert dispatch(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_validation_error_exits_one(self, tmp_path, capsys):
        path = write_config(tmp_path, rho=1.5)
        assert dispatch(["run", "--config", str(path)]) == 1
        assert "rho" in capsys.readouterr().err

    @pytest.mark.parametrize("plan", ['5', '[{"round": 1, "station": 1, "count": 1e400}]',
                                      '[{"round": 1.9, "station": 1, "count": 2}]'])
    def test_bad_plan_exits_one_without_traceback(self, tmp_path, capsys, plan):
        path = tmp_path / "config.json"
        path.write_text('{"n": 8, "protocol": "adaptive", "rho": 1.0, "rounds": 20, '
                        f'"seed": 5, "distribution": {{"plan": {plan}}}}}')
        assert dispatch(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "plan" in err
        assert "Traceback" not in err

    def test_invariant_violation_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, protocol="backoff(exponential)", rho=0.9,
                            rounds=5000, restrain_limit=1)
        assert dispatch(["run", "--config", str(path)]) == 2
        assert "restrain" in capsys.readouterr().err

    def test_seed_option_overrides_config(self, tmp_path, capsys):
        path = write_config(tmp_path)
        dispatch(["run", "--config", str(path), "--seed", "9"])
        row = capsys.readouterr().out.strip().split("\n")[1]
        assert row.split(",")[CSV_FIELDS.index("seed")] == "9"

    def test_env_var_supplies_default_seed(self, tmp_path, capsys, monkeypatch):
        doc = {"n": 8, "protocol": "round_robin", "rho": 0.5, "rounds": 100}
        path = tmp_path / "noseed.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setenv("CHANNEL_LAB_SEED", "77")
        assert dispatch(["run", "--config", str(path)]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        assert row.split(",")[CSV_FIELDS.index("seed")] == "77"

    def test_config_seed_beats_env_var(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, seed=5)
        monkeypatch.setenv("CHANNEL_LAB_SEED", "99")
        assert dispatch(["run", "--config", str(path)]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        assert row.split(",")[CSV_FIELDS.index("seed")] == "5"

    def test_seed_option_beats_config_and_env_var(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, seed=5)
        monkeypatch.setenv("CHANNEL_LAB_SEED", "99")
        assert dispatch(["run", "--config", str(path), "--seed", "9"]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        assert row.split(",")[CSV_FIELDS.index("seed")] == "9"


class TestEmitCsv:
    def run_result(self, **overrides):
        doc = {"n": 4, "protocol": "round_robin", "rho": 0.5, "rounds": 500, "seed": 1}
        doc.update(overrides)
        return run_simulation(doc)

    def test_empty_sweep_writes_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == ",".join(CSV_FIELDS) + "\n"

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv([self.run_result()], a)
        emit_csv([self.run_result()], b)
        assert a.read_bytes() == b.read_bytes()

    def test_floats_use_six_significant_digits(self):
        text = render_csv([self.run_result(rho=0.123456789)])
        row = text.strip().split("\n")[1]
        assert row.split(",")[CSV_FIELDS.index("rho")] == "0.123457"

    def test_queues_that_do_not_balance_are_refused(self):
        result = self.run_result(rho=0.9)
        queues = list(result.final_queues)
        queues[0] += 1
        with pytest.raises(SimulationError, match="final queues"):
            render_csv([dataclasses.replace(result, final_queues=tuple(queues))])

    def test_unbounded_restrain_spelled_out(self):
        text = render_csv([self.run_result(protocol="backoff(linear)")])
        row = text.strip().split("\n")[1]
        assert row.split(",")[CSV_FIELDS.index("k")] == "unbounded"

    def test_interleaved_k_counts_only_the_families_the_schedule_uses(self, tmp_path):
        # n = 8 has levels omega = 2, 4, 8; a family for omega = 16 is never
        # scheduled, so its 6-station set must not raise k above the limit
        # the engine checks.
        families = list(selectors.load_family_file(DATA / "families_8.json"))
        used = max(len(s) for fam in families if fam.omega in (2, 4, 8) for s in fam.sets)
        families.append(selectors.SelectorFamily(8, 16, 6, ((1, 2, 3, 4, 5, 6), (7, 8))))
        path = tmp_path / "families.json"
        selectors.save_family_file(path, families)
        doc = {"n": 8, "protocol": f"interleaved({path})", "rho": 0.5, "rounds": 200,
               "seed": 1}
        row = render_csv([run_simulation(doc)]).strip().split("\n")[1]
        assert int(row.split(",")[CSV_FIELDS.index("k")]) == Engine(doc).limit == used == 4


class TestSweep:
    def sweep_doc(self, **overrides):
        doc = {"n": 4, "protocol": "round_robin", "rho": [0.1, 0.3, 0.5],
               "rounds": 300, "seeds": [1, 2]}
        doc.update(overrides)
        return doc

    def test_three_rhos_by_two_seeds_is_six_rows(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(self.sweep_doc()))
        out = tmp_path / "sweep.csv"
        assert dispatch(["sweep", "--config", str(path), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 6

    def test_parallel_jobs_match_serial_output(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(self.sweep_doc()))
        serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
        dispatch(["sweep", "--config", str(path), "--out", str(serial)])
        dispatch(["sweep", "--config", str(path), "--out", str(parallel),
                  "--jobs", "3"])
        assert serial.read_bytes() == parallel.read_bytes()

    def test_jobs_below_one_exits_one(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(self.sweep_doc()))
        out = tmp_path / "sweep.csv"
        assert dispatch(["sweep", "--config", str(path), "--out", str(out),
                         "--jobs", "0"]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_jobs_clamped_to_cpu_count(self, tmp_path, monkeypatch):
        # The pool is faked: no worker process is started.
        started = []

        class FakePool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(self.sweep_doc()))
        out = tmp_path / "sweep.csv"
        assert dispatch(["sweep", "--config", str(path), "--out", str(out),
                         "--jobs", "64"]) == 0
        assert started == [2]
        assert len(out.read_text().strip().split("\n")) == 1 + 6

    def test_seed_count_shorthand(self):
        cells = list(expand_sweep(self.sweep_doc(seeds=4)))
        assert {c.seed for c in cells} == {0, 1, 2, 3}

    @pytest.mark.parametrize("overrides", [
        {"seeds": 2.5}, {"seeds": -3}, {"seeds": 0}, {"seeds": True}, {"seeds": "3"},
        {"seeds": []}, {"n": []}, {"rho": []},
    ])
    def test_bad_grid_exits_one_before_any_output(self, tmp_path, capsys, overrides):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(self.sweep_doc(**overrides)))
        out = tmp_path / "sweep.csv"
        assert dispatch(["sweep", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and next(iter(overrides)) in err
        assert not out.exists()

    def test_sweep_size_matches_expansion(self):
        doc = self.sweep_doc(n=[4, 8])
        assert sweep_size(doc) == len(list(expand_sweep(doc))) == 12

    @pytest.mark.parametrize("overrides, field", [
        ({"seeds": "abc"}, "seeds"), ({"n": []}, "n"), ({"seeds": 0}, "seeds"),
        ({"seeds": None, "seed": 1}, "seed"),
    ])
    def test_sweep_size_rejects_what_expansion_rejects(self, overrides, field):
        doc = {k: v for k, v in self.sweep_doc(**overrides).items() if v is not None}
        for count in (sweep_size, lambda d: len(list(expand_sweep(d)))):
            with pytest.raises(ConfigError) as info:
                count(doc)
            assert info.value.field == field

    def test_sweep_rejects_singular_seed_key(self, tmp_path):
        with pytest.raises(Exception):
            list(expand_sweep(self.sweep_doc(seed=1)))

    def test_cells_equal_per_cell_validation(self):
        doc = self.sweep_doc(n=[4, 8], protocol="fullsensing_mod(2)", rho=[0.1, 0.5],
                             distribution="single(3)", seeds=[1, 2])
        base = {k: v for k, v in doc.items() if k != "seeds"}
        expected = [validate_config(dict(base, n=n, rho=rho, seed=seed))
                    for n in (4, 8) for rho in (0.1, 0.5) for seed in (1, 2)]
        assert list(expand_sweep(doc)) == expected

    def test_family_file_read_once_per_sweep(self, tmp_path, monkeypatch):
        loads = []
        load = selectors.load_family_file

        def counting_load(path):
            loads.append(path)
            return load(path)

        monkeypatch.setattr(selectors, "load_family_file", counting_load)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(self.sweep_doc(
            n=8, protocol=f"interleaved({DATA / 'families_8.json'})", seeds=3, rounds=100)))
        out = tmp_path / "sweep.csv"
        assert dispatch(["sweep", "--config", str(path), "--out", str(out)]) == 0
        assert len(out.read_text().strip().split("\n")) == 1 + 9
        assert len(loads) == 1

    def test_bad_last_rho_exits_one_before_any_output(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(self.sweep_doc(rho=[0.1, 0.3, 1.5])))
        out = tmp_path / "sweep.csv"
        assert dispatch(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert "rho" in capsys.readouterr().err
        assert not out.exists()

    def test_failing_cell_keeps_the_rows_before_it(self, tmp_path, capsys):
        # The first cell stays within restrain 1; the second breaks it in round 2.
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(self.sweep_doc(
            n=8, protocol="backoff(exponential)", rho=[0.01, 0.9], rounds=2000,
            seeds=[0], restrain_limit=1)))
        out = tmp_path / "sweep.csv"
        assert dispatch(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert "restrain" in capsys.readouterr().err
        header, row = out.read_text().strip().split("\n")
        assert header == ",".join(CSV_FIELDS)
        assert row.split(",")[CSV_FIELDS.index("rho")] == "0.01"


class TestStabilitySweep:
    def test_adaptive_never_crosses_delta(self):
        # For n=4 the worst-case bound on total queued is far below 1024, so
        # the boundary cannot exist at any injection rate.
        table = stability_sweep({"n": 4, "protocol": "adaptive", "rho": [0.5, 1.0],
                                 "rounds": 20_000, "seeds": 2}, delta=1024.0)
        assert table.boundaries[4] is None
        assert not table.non_monotonic

    def test_round_robin_destabilizes_above_its_capacity(self):
        # Focused load on station 1 exceeds its 1/n service share beyond
        # rho = 0.6 at n=4; the grid should cross between 0.4 and 0.8.
        table = stability_sweep({"n": 4, "protocol": "round_robin", "rho": [0.2, 0.4, 0.8],
                                 "rounds": 100_000, "seeds": 2}, delta=1024.0)
        assert table.boundaries[4] == 0.8

    def test_cells_are_recorded_for_every_run(self):
        doc = {"n": [4, 8], "protocol": "state_aware", "rho": [0.3, 0.6], "rounds": 1000,
               "seeds": 3}
        table = stability_sweep(doc, delta=1024.0)
        assert table.cells == [run_simulation(config) for config in expand_sweep(doc)]
        assert len(table.cells) == 2 * 2 * 3
        assert {res.config.n for res in table.cells} == {4, 8}

    def test_non_monotone_cells_are_flagged_not_hidden(self, monkeypatch):
        # A cell back below delta after the crossing must be reported, not
        # masked. The runs are replaced by a fixed grid of avg-max values:
        # at n=4 the mean crosses 1024 at rho 0.6, dips to 1000 at 0.7 and
        # crosses again at 0.8; n=8 crosses once, at 0.7. The document lists
        # the rhos out of order.
        avg_max = {
            4: {0.5: (10, 30), 0.6: (2000, 1500), 0.7: (900, 1100), 0.8: (3000, 2500)},
            8: {0.5: (10, 30), 0.6: (100, 200), 0.7: (1100, 1000), 0.8: (4000, 5000)},
        }

        def fixed_run(config):
            value = avg_max[config.n][config.rho][config.seed - 3]
            return SimpleNamespace(config=config, metrics=SimpleNamespace(avg_max=value))

        monkeypatch.setattr(cli, "run_simulation", fixed_run)
        table = stability_sweep({"n": [4, 8], "protocol": "round_robin",
                                 "rho": [0.8, 0.5, 0.7, 0.6], "rounds": 10, "seeds": [3, 4]},
                                delta=1024.0)
        assert len(table.cells) == 2 * 4 * 2
        assert table.boundaries == {4: 0.6, 8: 0.7}
        assert table.non_monotonic == {4: [0.7]}

    def test_fullsensing_boundary_depends_on_the_starting_queues(self):
        # Full-sensing's threshold depends on a loaded start: from empty
        # queues n=8 stays drained at rho 0.92 (mean avg-max about 13), while
        # 3n packets per station keep it big and growing (about 280).
        doc = {"n": 8, "protocol": "fullsensing", "rho": [0.8, 0.92], "rounds": 20_000,
               "seeds": 2, "distribution": "flat"}
        assert stability_sweep(doc, delta=100).boundaries == {8: None}
        loaded = stability_sweep(dict(doc, initial_queues=[24] * 8), delta=100)
        assert loaded.boundaries == {8: 0.92}
        assert not loaded.non_monotonic


class TestSelectorCommands:
    def test_gen_then_exact_verify(self, tmp_path, capsys):
        out = tmp_path / "family.json"
        assert dispatch(["selector", "gen", "--n", "8", "--omega", "4",
                         "--k", "4", "--out", str(out), "--seed", "3"]) == 0
        assert dispatch(["selector", "verify", "--family", str(out),
                         "--exact"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_verify_flags_bad_family(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 4, "omega": 4, "k": 1, "sets": [[1]]}))
        assert dispatch(["selector", "verify", "--family", str(path),
                         "--exact"]) == 1
        assert "counterexample" in capsys.readouterr().out

    def test_sampled_verification_path(self, tmp_path, capsys):
        out = tmp_path / "family.json"
        dispatch(["selector", "gen", "--n", "8", "--omega", "4", "--k", "8",
                  "--out", str(out), "--seed", "4"])
        assert dispatch(["selector", "verify", "--family", str(out),
                         "--samples", "500"]) == 0
        assert "failure fraction 0" in capsys.readouterr().out

    def test_gen_with_no_trials_exits_one(self, tmp_path, capsys):
        out = tmp_path / "family.json"
        assert dispatch(["selector", "gen", "--n", "8", "--omega", "4", "--k", "4",
                         "--out", str(out), "--trials", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trials" in err
        assert not out.exists()

    @pytest.mark.parametrize("document", ["5", "null", "true", '"sets"'])
    def test_verify_rejects_a_family_file_that_is_not_an_object_or_list(
            self, tmp_path, capsys, document):
        path = tmp_path / "bad.json"
        path.write_text(document + "\n")
        assert dispatch(["selector", "verify", "--family", str(path), "--exact"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "family file" in err

    def test_verify_rejects_an_empty_family_file(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("[]\n")
        assert dispatch(["selector", "verify", "--family", str(path), "--exact"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "no families" in captured.err

    def test_run_rejects_an_interleaved_family_file_holding_no_families(self, tmp_path, capsys):
        family = tmp_path / "empty.json"
        family.write_text("[]\n")
        path = write_config(tmp_path, protocol=f"interleaved({family})")
        assert dispatch(["run", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "no families" in captured.err

    def test_run_rejects_an_interleaved_family_file_holding_null(self, tmp_path, capsys):
        family = tmp_path / "null.json"
        family.write_text("null\n")
        path = write_config(tmp_path, protocol=f"interleaved({family})")
        assert dispatch(["run", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "family file" in captured.err

    def test_gen_output_loads_as_family(self, tmp_path):
        out = tmp_path / "family.json"
        dispatch(["selector", "gen", "--n", "8", "--omega", "2", "--k", "2",
                  "--out", str(out), "--seed", "5"])
        (family,) = selectors.load_family_file(out)
        assert family.n == 8 and family.omega == 2
        assert all(len(s) <= 2 for s in family.sets)
