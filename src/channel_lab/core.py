"""Domain types, configuration validation, and deterministic random streams.

Every stochastic component draws from its own labeled stream, so the adversary's
randomness stays independent of any protocol's and identical configurations
reproduce identical runs bit for bit. Integer draws go through `randbelow`,
so the bytes depend only on the streams' MT19937 `getrandbits`.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field

_MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class ConfigError(ValueError):
    """A configuration document violates the schema."""

    def __init__(self, message: str, field_name: str | None = None):
        super().__init__(message)
        self.field = field_name


class RangeError(ConfigError):
    """A field value is outside its allowed range."""

    def __init__(self, field_name: str, bound: str, value):
        super().__init__(f"{field_name}={value!r} violates {bound}", field_name)
        self.bound = bound
        self.value = value


class MissingParameter(ConfigError):
    """A required field or protocol parameter is absent."""


class SimulationError(RuntimeError):
    """Base class for failures raised while a simulation is running."""


class ProtocolInvariantBroken(SimulationError):
    """A protocol state machine reached a state it must never reach."""


class RestrainViolation(SimulationError):
    """More stations were switched on in one round than the channel allows."""

    def __init__(self, round_no: int, count: int, limit: int):
        super().__init__(f"round {round_no}: {count} stations on, limit {limit}")
        self.round = round_no
        self.count = count
        self.limit = limit


# ---------------------------------------------------------------------------
# Per-round actions and channel feedback
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdaptiveBits:
    """Control bits a transmitter may attach to a packet."""

    big: bool = False
    last_big: bool = False

    def __post_init__(self):
        if self.big and self.last_big:
            raise ValueError("big and last_big are mutually exclusive")


BITS_BIG = AdaptiveBits(big=True)
BITS_LAST_BIG = AdaptiveBits(last_big=True)


@dataclass(frozen=True)
class StationAction:
    """What one station does in one round: transmit, listen, or stay off."""

    kind: str  # "transmit" | "listen" | "off"
    bits: AdaptiveBits | None = None


OFF = StationAction("off")
LISTEN = StationAction("listen")
TRANSMIT = StationAction("transmit")
TRANSMIT_BIG = StationAction("transmit", BITS_BIG)
TRANSMIT_LAST_BIG = StationAction("transmit", BITS_LAST_BIG)


@dataclass(frozen=True)
class ChannelObservation:
    """Resolved channel state for one round."""

    kind: str  # "silence" | "single" | "collision"
    sender: int | None = None
    bits: AdaptiveBits | None = None


SILENCE = ChannelObservation("silence")
COLLISION = ChannelObservation("collision")


def single(sender: int, bits: AdaptiveBits | None = None) -> ChannelObservation:
    return ChannelObservation("single", sender, bits)


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------

def derive_stream(seed: int, label: str) -> random.Random:
    """The Mersenne-Twister stream seeded from SHA-256 of (seed, label).

    Same (seed, label) always yields the same sequence; distinct labels give
    independent streams even under the same seed.
    """
    material = hashlib.sha256(f"{seed & _MASK64:016x}|{label}".encode()).digest()
    return random.Random(int.from_bytes(material, "big"))


def randbelow(getrandbits, n: int) -> int:
    """A uniform integer in [0, n) for n >= 1, drawn from getrandbits.

    This is the law of CPython's Random._randbelow_with_getrandbits, so it
    returns what randrange(n) would and leaves the stream in the same state,
    without randrange's argument checks. It draws n.bit_length() bits and
    rejects values >= n; it still draws when n == 1.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionSpec:
    """Where injected packets go: focused/flat draws, a single target, or a plan."""

    kind: str  # "focused" | "flat" | "single" | "plan"
    target: int | None = None
    plan: tuple[tuple[int, int, int], ...] | None = None  # (round, station, count)


@dataclass(frozen=True)
class ProtocolSpec:
    """Parsed protocol identifier plus its parameters (at most one is set)."""

    name: str
    backoff_kind: str | None = None
    variant_k: int | None = None
    selector_path: str | None = None
    families: tuple = ()  # interleaved: the family each level of the schedule uses

    def canonical(self) -> str:
        for arg in (self.backoff_kind, self.variant_k, self.selector_path):
            if arg is not None:
                return f"{self.name}({arg})"
        return self.name


@dataclass(frozen=True)
class SimConfig:
    """Validated description of one simulation run."""

    n: int
    protocol: ProtocolSpec
    rho: float
    rounds: int
    seed: int
    burst_p: float = 0.5
    stock_b: int = 256
    restrain_limit: int | None = None  # the limit checked each round; None means unbounded
    distribution: DistributionSpec = field(default_factory=lambda: DistributionSpec("focused"))
    initial_queues: tuple[int, ...] = ()


_CONFIG_KEYS = {
    "n", "protocol", "rho", "rounds", "seed", "burst_p", "stock_b",
    "restrain_limit", "distribution", "initial_queues",
}
# Short spellings that mirror the CSV column names.
_KEY_ALIASES = {"p": "burst_p", "b": "stock_b"}

_PROTOCOL_RE = re.compile(r"^([a-z_]+)(?:\((.*)\))?$")
_DIST_SINGLE_RE = re.compile(r"^single\((\d+)\)$")


def _require_int(value, name: str, low: int, high: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise RangeError(name, "integer required", value)
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    if value < low or (high is not None and value > high):
        raise RangeError(name, bound, value)
    return value


def _require_prob(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RangeError(name, "number required", value)
    if not 0 < value <= 1:
        raise RangeError(name, "in (0, 1]", value)
    return float(value)


def _parse_protocol(value, n: int):
    """Parse a protocol string; returns (ProtocolSpec, its protocols.PROTOCOLS entry)."""
    from .protocols import PROTOCOLS  # deferred: protocols imports this module

    if not isinstance(value, str):
        raise ConfigError(f"protocol must be a string, got {value!r}", "protocol")
    match = _PROTOCOL_RE.match(value.strip())
    if not match:
        raise ConfigError(f"cannot parse protocol {value!r}", "protocol")
    name, arg = match.group(1), match.group(2)
    entry = PROTOCOLS.get(name)
    if entry is None:
        raise ConfigError(f"unknown protocol {name!r}", "protocol")
    if entry.parse is not None:
        return ProtocolSpec(name, **entry.parse(arg, n)), entry
    if arg:
        raise ConfigError(f"protocol {name!r} takes no parameter", "protocol")
    return ProtocolSpec(name), entry


def _parse_distribution(value, n: int) -> DistributionSpec:
    if isinstance(value, str):
        text = value.strip()
        if text in ("focused", "flat"):
            return DistributionSpec(text)
        match = _DIST_SINGLE_RE.match(text)
        if match:
            target = int(match.group(1))
            if not 1 <= target <= n:
                raise RangeError("distribution", f"single(i) with 1 <= i <= {n}", target)
            return DistributionSpec("single", target=target)
        raise ConfigError(f"unknown distribution {value!r}", "distribution")
    if isinstance(value, dict) and set(value) == {"plan"}:
        plan = value["plan"]
        if not isinstance(plan, (list, tuple)):
            raise ConfigError(f"distribution plan must be a list of entries, got {plan!r}",
                              "distribution")
        entries = []
        for item in plan:
            try:
                rnd, sid, cnt = item["round"], item["station"], item["count"]
            except (KeyError, TypeError):
                raise ConfigError("plan entries need integer round/station/count",
                                  "distribution") from None
            entries.append((_require_int(rnd, "distribution.plan.round", 1),
                            _require_int(sid, "distribution.plan.station", 1, n),
                            _require_int(cnt, "distribution.plan.count", 0)))
        entries.sort()
        return DistributionSpec("plan", plan=tuple(entries))
    raise ConfigError(f"cannot parse distribution {value!r}", "distribution")


def validate_config(raw) -> SimConfig:
    """Normalize and validate a configuration document.

    Accepts a dict (parsed JSON) or an already validated SimConfig, which is
    returned unchanged. Raises a ConfigError naming the first violated
    constraint otherwise.
    """
    if isinstance(raw, SimConfig):
        return raw
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")

    doc = {}
    for key, value in raw.items():
        canon = _KEY_ALIASES.get(key, key)
        if canon not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}", key)
        if canon in doc:
            raise ConfigError(f"duplicate config key {key!r}", key)
        doc[canon] = value

    for key in ("n", "protocol", "rho", "rounds", "seed"):
        if key not in doc:
            raise MissingParameter(f"config key {key!r} is required", key)

    n = _require_int(doc["n"], "n", 2)
    rho = _require_prob(doc["rho"], "rho")
    rounds = _require_int(doc["rounds"], "rounds", 0)
    seed = _require_int(doc["seed"], "seed", 0, _MASK64)
    burst_p = _require_prob(doc.get("burst_p", 0.5), "burst_p")
    stock_b = _require_int(doc.get("stock_b", 256), "stock_b", 1)
    protocol, entry = _parse_protocol(doc["protocol"], n)
    distribution = _parse_distribution(doc.get("distribution", "focused"), n)

    # The stored limit is the tighter of the configured one and the protocol's
    # promise; the engine checks it and the CSV reports it as k.
    restrain = entry.restrain(protocol)
    limit = doc.get("restrain_limit", None)
    if limit == "unbounded":
        if not entry.unbounded_ok:
            raise RangeError("restrain_limit", f"an integer >= 1 for {protocol.name}", limit)
    elif limit is not None:
        limit = _require_int(limit, "restrain_limit", 1)
        restrain = limit if restrain is None else min(limit, restrain)

    initial = doc.get("initial_queues", None)
    if initial is None:
        queues = (0,) * n
    else:
        if not isinstance(initial, (list, tuple)) or len(initial) != n:
            raise ConfigError(f"initial_queues must list {n} integers", "initial_queues")
        queues = tuple(_require_int(v, "initial_queues", 0) for v in initial)

    return SimConfig(
        n=n, protocol=protocol, rho=rho, rounds=rounds, seed=seed,
        burst_p=burst_p, stock_b=stock_b, restrain_limit=restrain,
        distribution=distribution, initial_queues=queues,
    )
