import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import channel_lab
from channel_lab.core import (
    AdaptiveBits, ConfigError, MissingParameter, RangeError, SimConfig,
    derive_stream, randbelow, validate_config,
)
from channel_lab.cli import CSV_FIELDS, render_csv
from channel_lab.engine import Engine, run_simulation
from channel_lab.protocols import PROTOCOLS

DATA = Path(__file__).resolve().parent / "data"

BASE = {"n": 32, "rho": 0.5, "p": 0.5, "b": 256, "protocol": "round_robin",
        "rounds": 1000, "seed": 7}

# One protocol string per table entry, at n = 8, with the restrain it promises.
EXAMPLES = {
    "adaptive": ("adaptive", 2),
    "fullsensing": ("fullsensing", 3),
    "fullsensing_mod": ("fullsensing_mod(2)", 3),
    "round_robin": ("round_robin", 1),
    "interleaved": (f"interleaved({DATA / 'families_8.json'})", 4),
    "backoff": ("backoff(linear)", None),
    "state_aware": ("state_aware", 1),
}


class TestValidateConfig:
    def test_accepts_baseline_document(self):
        cfg = validate_config(dict(BASE))
        assert cfg.n == 32
        assert cfg.rho == 0.5
        assert cfg.burst_p == 0.5
        assert cfg.stock_b == 256
        assert cfg.protocol.name == "round_robin"
        assert cfg.initial_queues == (0,) * 32

    def test_rho_one_is_valid(self):
        cfg = validate_config({"n": 2, "rho": 1.0, "protocol": "adaptive",
                               "rounds": 10, "seed": 1})
        assert cfg.rho == 1.0

    def test_rho_above_one_rejected(self):
        with pytest.raises(RangeError) as err:
            validate_config(dict(BASE, rho=1.5))
        assert err.value.field == "rho"

    def test_idempotent_on_validated_config(self):
        cfg = validate_config(dict(BASE))
        assert validate_config(cfg) is cfg

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError):
            validate_config(dict(BASE, extra_knob=3))

    def test_canonical_and_alias_keys_equivalent(self):
        a = validate_config(dict(BASE))
        doc = {k: v for k, v in BASE.items() if k not in ("p", "b")}
        doc.update(burst_p=0.5, stock_b=256)
        b = validate_config(doc)
        assert a == b

    def test_duplicate_alias_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(dict(BASE, burst_p=0.5))

    def test_missing_required_key(self):
        doc = dict(BASE)
        del doc["seed"]
        with pytest.raises(MissingParameter):
            validate_config(doc)

    def test_n_below_two_rejected(self):
        with pytest.raises(RangeError):
            validate_config(dict(BASE, n=1))

    def test_rounds_zero_allowed(self):
        assert validate_config(dict(BASE, rounds=0)).rounds == 0

    def test_negative_seed_rejected(self):
        with pytest.raises(RangeError):
            validate_config(dict(BASE, seed=-1))

    def test_initial_queues_length_checked(self):
        with pytest.raises(ConfigError):
            validate_config(dict(BASE, initial_queues=[0, 1]))
        cfg = validate_config(dict(BASE, initial_queues=[3] * 32))
        assert cfg.initial_queues == (3,) * 32


class TestProtocolField:
    def test_backoff_needs_kind(self):
        with pytest.raises(MissingParameter):
            validate_config(dict(BASE, protocol="backoff"))

    def test_backoff_kind_validated(self):
        with pytest.raises(RangeError):
            validate_config(dict(BASE, protocol="backoff(cubic)"))
        cfg = validate_config(dict(BASE, protocol="backoff(exponential)"))
        assert cfg.protocol.backoff_kind == "exponential"
        assert cfg.restrain_limit is None

    def test_fullsensing_mod_parses_k(self):
        cfg = validate_config(dict(BASE, protocol="fullsensing_mod(3)"))
        assert cfg.protocol.variant_k == 3
        assert cfg.restrain_limit == 3

    def test_interleaved_needs_family_file(self):
        with pytest.raises(MissingParameter):
            validate_config(dict(BASE, protocol="interleaved"))
        with pytest.raises(MissingParameter):
            validate_config(dict(BASE, protocol="interleaved(/no/such/file.json)"))

    @pytest.mark.parametrize("document", ["[]", "5"])
    def test_interleaved_refuses_a_family_file_without_families(self, tmp_path, document):
        path = tmp_path / "family.json"
        path.write_text(document + "\n")
        with pytest.raises(ConfigError) as info:
            validate_config(dict(BASE, n=8, protocol=f"interleaved({path})"))
        assert info.value.field == "protocol"

    def test_unknown_protocol(self):
        with pytest.raises(ConfigError):
            validate_config(dict(BASE, protocol="csma"))

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_declared_restrain_defaults(self, name):
        protocol, promised = EXAMPLES[name]
        cfg = validate_config(dict(BASE, n=8, protocol=protocol))
        assert cfg.restrain_limit == promised
        assert Engine(cfg).limit == promised

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_unbounded_only_for_backoff_and_state_aware(self, name):
        allowed = name in ("backoff", "state_aware")
        assert PROTOCOLS[name].unbounded_ok == allowed
        protocol, promised = EXAMPLES[name]
        doc = dict(BASE, n=8, protocol=protocol, restrain_limit="unbounded")
        if allowed:
            # "unbounded" lifts no promise: state_aware still runs at 1.
            assert validate_config(doc).restrain_limit == promised
        else:
            with pytest.raises(RangeError):
                validate_config(doc)

    @pytest.mark.parametrize("name", sorted(PROTOCOLS))
    def test_limit_above_the_promise_is_the_promise_everywhere(self, name):
        # The CSV k column and the limit the engine checks are one stored value.
        protocol, promised = EXAMPLES[name]
        asks = ["unbounded"] if PROTOCOLS[name].unbounded_ok else []
        if promised is not None:
            asks.append(promised + 3)
        for ask in asks:
            doc = dict(BASE, n=8, protocol=protocol, rounds=50, restrain_limit=ask)
            row = render_csv([run_simulation(doc)]).strip().split("\n")[1]
            k = row.split(",")[CSV_FIELDS.index("k")]
            assert k == ("unbounded" if promised is None else str(promised))
            assert Engine(doc).limit == validate_config(doc).restrain_limit == promised

    def test_core_imports_without_protocol_code(self):
        # core reaches the protocol table through a deferred import, because
        # protocols imports core; importing core alone must not load it.
        code = ("import sys, channel_lab.core; "
                "print(' '.join(m for m in sys.modules if m.startswith('channel_lab')))")
        src = str(Path(channel_lab.__file__).resolve().parents[1])
        loaded = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                                capture_output=True, text=True, check=True).stdout.split()
        assert "channel_lab.core" in loaded
        for name in ("protocols", "selectors", "engine"):
            assert f"channel_lab.{name}" not in loaded


class TestDistributionField:
    def test_named_distributions(self):
        assert validate_config(dict(BASE, distribution="flat")).distribution.kind == "flat"
        assert validate_config(dict(BASE)).distribution.kind == "focused"

    def test_single_target(self):
        cfg = validate_config(dict(BASE, distribution="single(3)"))
        assert cfg.distribution.target == 3
        with pytest.raises(RangeError):
            validate_config(dict(BASE, distribution="single(33)"))

    def test_plan(self):
        plan = [{"round": 2, "station": 1, "count": 4}]
        cfg = validate_config(dict(BASE, distribution={"plan": plan}))
        assert cfg.distribution.plan == ((2, 1, 4),)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            validate_config(dict(BASE, distribution="poisson"))

    @pytest.mark.parametrize("plan, field", [
        (5, "distribution"),
        ("round 1", "distribution"),
        ({"round": 1, "station": 1, "count": 1}, "distribution"),
        ([5], "distribution"),
        ([{"round": 1, "station": 1}], "distribution"),
        ([{"round": 1.9, "station": 1, "count": 1}], "distribution.plan.round"),
        ([{"round": 1, "station": True, "count": 1}], "distribution.plan.station"),
        ([{"round": 1, "station": 1, "count": 2.7}], "distribution.plan.count"),
        ([{"round": 1, "station": 1, "count": float("inf")}], "distribution.plan.count"),
        ([{"round": 1, "station": 1, "count": "2"}], "distribution.plan.count"),
        ([{"round": 0, "station": 1, "count": 1}], "distribution.plan.round"),
        ([{"round": 1, "station": 33, "count": 1}], "distribution.plan.station"),
        ([{"round": 1, "station": 1, "count": -1}], "distribution.plan.count"),
    ])
    def test_bad_plan_entries_rejected(self, plan, field):
        with pytest.raises(ConfigError) as err:
            validate_config(dict(BASE, distribution={"plan": plan}))
        assert err.value.field == field


class TestAdaptiveBits:
    def test_big_and_last_big_exclusive(self):
        with pytest.raises(ValueError):
            AdaptiveBits(big=True, last_big=True)


class TestDeriveStream:
    def test_same_seed_and_label_repeat(self):
        a = [derive_stream(7, "adversary").random() for _ in range(2)]
        first = derive_stream(7, "adversary")
        second = derive_stream(7, "adversary")
        assert [first.random() for _ in range(100)] == [second.random() for _ in range(100)]

    def test_distinct_labels_differ(self):
        a = derive_stream(7, "adversary")
        b = derive_stream(7, "backoff.3")
        assert [a.random() for _ in range(100)] != [b.random() for _ in range(100)]

    def test_distinct_seeds_differ(self):
        a = derive_stream(7, "adversary")
        b = derive_stream(8, "adversary")
        assert [a.random() for _ in range(100)] != [b.random() for _ in range(100)]


class TestRandbelow:
    @pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 2048])
    @pytest.mark.parametrize("make", [lambda: random.Random(5),
                                      lambda: derive_stream(5, "adversary")])
    def test_matches_randrange_on_a_twin_stream(self, make, n):
        # Same values and the same final state as randrange(n), so runs keep
        # their bytes; n = 1 still consumes a draw.
        ours, twin = make(), make()
        drawn = [randbelow(ours.getrandbits, n) for _ in range(500)]
        assert drawn == [twin.randrange(n) for _ in range(500)]
        assert ours.getstate() == twin.getstate()
        assert ours.getstate() != make().getstate()
