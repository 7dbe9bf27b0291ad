import dataclasses
import json
import multiprocessing
import os

import pytest

from channel_lab import selectors
from channel_lab.cli import (
    CSV_FIELDS, dispatch, emit_csv, expand_sweep, render_csv, sweep_size,
)
from channel_lab.core import SimulationError
from channel_lab.engine import run_simulation


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

            def map(self, fn, items):
                return [fn(item) for item in items]

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

    def test_sweep_size_matches_expansion(self):
        doc = self.sweep_doc(n=[4, 8])
        assert sweep_size(doc) == len(list(expand_sweep(doc))) == 12

    def test_sweep_rejects_singular_seed_key(self, tmp_path):
        with pytest.raises(Exception):
            list(expand_sweep(self.sweep_doc(seed=1)))


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

    def test_gen_output_loads_as_family(self, tmp_path):
        out = tmp_path / "family.json"
        dispatch(["selector", "gen", "--n", "8", "--omega", "2", "--k", "2",
                  "--out", str(out), "--seed", "5"])
        (family,) = selectors.load_family_file(out)
        assert family.n == 8 and family.omega == 2
        assert all(len(s) <= 2 for s in family.sets)
