"""Independent checks on channel-lab outputs.

Nothing here imports channel_lab: each oracle is written from the documented
behaviour, so a fault in the program cannot hide in a shared helper. Every
check returns a list of problems; an empty list means the output is right.

- AdversaryReplay recomputes the stock adversary's per-station injections.
- check_run holds a finished run against the replay (packet conservation per
  station) and against the properties its protocol must keep.
- check_sweep_rows does the same for the rows of a sweep CSV.
- The selector oracles enumerate or sample with itertools and sets.
"""

from __future__ import annotations

import csv
import hashlib
import heapq
import io
import itertools
import random

_MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# Adversary replay
# ---------------------------------------------------------------------------

def adversary_rng(seed: int) -> random.Random:
    """The adversary's stream: Mersenne Twister seeded by SHA-256(seed|"adversary")."""
    digest = hashlib.sha256(f"{seed & _MASK64:016x}|adversary".encode()).digest()
    return random.Random(int.from_bytes(digest, "big"))


def replay_injections(n, rho, burst_p, stock_b, seed, rounds, distribution="focused"):
    """Per-station packet counts the stock adversary injects over `rounds`.

    Each round the stock grows by one with probability rho, then the whole
    stock is released with probability burst_p, or unconditionally once it
    holds stock_b packets. Released packets pick targets independently:
    "flat" is uniform; "focused" gives stations 1 and 2 probability
    1/3 + 1/(3n) each and every other station 1/(3n).
    """
    rng = adversary_rng(seed)
    draw = rng.random
    counts = [0] * (n + 1)
    if distribution == "focused":
        p12 = (n + 1) / (3 * n)          # 1/3 + 1/(3n)
        first, second = p12, 2 * (n + 1) / (3 * n)
        tail = 1.0 / (3 * n)

        def target():
            u = draw()
            if u < first:
                return 1
            if u < second:
                return 2
            return min(3 + int((u - second) / tail), n)
    elif distribution == "flat":
        def target():
            return rng.randrange(n) + 1
    else:
        raise ValueError(f"replay supports focused and flat targets, not {distribution!r}")

    stock = 0
    for _ in range(rounds):
        if draw() < rho:
            stock += 1
        release = draw() < burst_p or stock >= stock_b
        if release and stock:
            for _ in range(stock):
                counts[target()] += 1
            stock = 0
    return counts[1:]


# ---------------------------------------------------------------------------
# Runs (SimResult-shaped objects)
# ---------------------------------------------------------------------------

def adaptive_total_bound(n: int, b: int) -> int:
    """Peak total queue for adaptive at rho <= 1: n(3n-1)+1 + (n-1)^2 + n + b."""
    return n * (3 * n - 1) + 1 + (n - 1) ** 2 + n + b


def owned_slots(n: int, rounds: int) -> list[int]:
    """Rounds 1..rounds that round robin gives station i: those with (r-1) % n == i-1."""
    return [(rounds - i) // n + 1 if rounds >= i else 0 for i in range(1, n + 1)]


def check_run(result, family_k=None, distribution="focused") -> list[str]:
    """Conservation against the replay plus the protocol's own properties.

    `result` carries config, injected, delivered, final_queues, collisions,
    max_cycle_collisions, max_on_mode and metrics, like channel_lab's
    SimResult. `family_k` is the lightness bound of an interleaved run's
    selector families.
    """
    cfg = result.config
    n, rounds = cfg.n, cfg.rounds
    name = cfg.protocol.name
    problems = []
    replay = replay_injections(n, cfg.rho, cfg.burst_p, cfg.stock_b, cfg.seed, rounds,
                               distribution)
    initial = list(cfg.initial_queues)
    if result.injected != sum(replay) + sum(initial):
        problems.append(f"injected {result.injected} != replay {sum(replay)} "
                        f"+ initial {sum(initial)}")
    deliveries = [r + q0 - q for r, q0, q in zip(replay, initial, result.final_queues)]
    if len(result.final_queues) != n or min(deliveries) < 0:
        problems.append(f"per-station deliveries {deliveries} include a negative count")
    if sum(deliveries) != result.delivered:
        problems.append(f"per-station deliveries sum to {sum(deliveries)}, "
                        f"delivered is {result.delivered}")

    m = result.metrics
    on_mode_sum = round(m.avg_access * rounds)
    if name == "adaptive":
        if result.collisions:
            problems.append(f"adaptive collided {result.collisions} times")
        if result.max_on_mode > 2:
            problems.append(f"adaptive on-mode {result.max_on_mode} > 2")
        bound = adaptive_total_bound(n, cfg.stock_b)
        if cfg.rho <= 1 and m.max_avg * n > bound + 1e-6:
            problems.append(f"adaptive peak total {m.max_avg * n:.0f} > {bound}")
    elif name in ("fullsensing", "fullsensing_mod"):
        if result.max_cycle_collisions > 1:
            problems.append(f"{result.max_cycle_collisions} collisions in one cycle")
        if result.max_on_mode > 3:
            problems.append(f"full-sensing on-mode {result.max_on_mode} > 3")
    elif name == "round_robin":
        if result.collisions:
            problems.append(f"round robin collided {result.collisions} times")
        over = [i + 1 for i, (d, s) in enumerate(zip(deliveries, owned_slots(n, rounds)))
                if d > s]
        if over:
            problems.append(f"round robin stations {over} delivered more than their slots")
    elif name == "state_aware":
        if result.collisions:
            problems.append(f"state-aware collided {result.collisions} times")
        if m.avg_access > 1:
            problems.append(f"state-aware avg_access {m.avg_access} > 1")
    elif name == "backoff":
        if on_mode_sum < result.delivered + 2 * result.collisions:
            problems.append(f"backoff access {on_mode_sum} < delivered {result.delivered} "
                            f"+ 2 * collisions {result.collisions}")
    elif name == "interleaved":
        if family_k is None or result.max_on_mode > family_k:
            problems.append(f"interleaved on-mode {result.max_on_mode} > family k {family_k}")
    if m.collisions != result.collisions:
        problems.append(f"metrics count {m.collisions} collisions, run counts "
                        f"{result.collisions}")
    return problems


# ---------------------------------------------------------------------------
# Sweep CSV rows
# ---------------------------------------------------------------------------

def parse_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_sweep_rows(text: str, doc: dict, family_k=None) -> list[str]:
    """Grid coverage, replayed injections and protocol properties of a sweep CSV."""
    problems = []
    rows = parse_rows(text)
    ns = doc["n"] if isinstance(doc["n"], list) else [doc["n"]]
    grid = sorted((n, float(rho), seed) for n in ns for rho in doc["rho"]
                  for seed in doc["seeds"])
    seen = sorted((int(r["n"]), float(r["rho"]), int(r["seed"])) for r in rows)
    if seen != grid:
        problems.append(f"rows cover {len(seen)} cells, not the {len(grid)}-cell grid")
        return problems
    name = doc["protocol"].split("(")[0]
    for r in rows:
        n, rounds = int(r["n"]), int(r["rounds"])
        injected, delivered = int(r["injected"]), int(r["delivered"])
        collisions = int(r["collisions"])
        where = f"{doc['protocol']} n={n} rho={r['rho']} seed={r['seed']}"
        replay = sum(replay_injections(n, float(r["rho"]), float(r["p"]), int(r["b"]),
                                       int(r["seed"]), rounds))
        if injected != replay:
            problems.append(f"{where}: injected {injected} != replay {replay}")
        if not 0 <= delivered <= injected:
            problems.append(f"{where}: delivered {delivered} outside [0, {injected}]")
        access = round(float(r["avg_access"]) * rounds)
        if name in ("adaptive", "round_robin", "state_aware") and collisions:
            problems.append(f"{where}: {collisions} collisions")
        if name == "state_aware" and float(r["avg_access"]) > 1:
            problems.append(f"{where}: avg_access {r['avg_access']} > 1")
        if name in ("fullsensing", "fullsensing_mod") and collisions > -(-rounds // n):
            problems.append(f"{where}: {collisions} collisions exceed one per cycle")
        if name == "backoff" and access < delivered + 2 * collisions:
            problems.append(f"{where}: access {access} < delivered + 2 * collisions")
        if name == "interleaved" and (family_k is None or int(r["k"]) > family_k):
            problems.append(f"{where}: restrain {r['k']} > family k {family_k}")
    return problems


# ---------------------------------------------------------------------------
# Selectors and superimposed codes
# ---------------------------------------------------------------------------

def selector_shape(n: int, omega: int) -> tuple[int, int, int]:
    """(smallest |X|, largest |X|, hits needed): ceil(w/2) <= |X| <= w, ceil(w/4) hits."""
    return -(-omega // 2), min(omega, n), -(-omega // 4)


def hits(sets, x: set, need: int) -> int:
    """Elements of x singled out by some set (capped once `need` is reached)."""
    found = set()
    for s in sets:
        inter = s & x
        if len(inter) == 1:
            found |= inter
            if len(found) >= need:
                break
    return len(found)


def first_counterexample(sets, n: int, omega: int):
    """Lexicographically first X the family fails, or None, by full enumeration."""
    smin, smax, need = selector_shape(n, omega)
    fsets = [frozenset(s) for s in sets]
    every_x = heapq.merge(*(itertools.combinations(range(1, n + 1), size)
                            for size in range(smin, smax + 1)))
    for x in every_x:
        if hits(fsets, set(x), need) < need:
            return x
    return None


def sampled_counterexample(sets, n: int, omega: int, draws: int, rng: random.Random):
    """First failing X among `draws` random X, or None."""
    smin, smax, need = selector_shape(n, omega)
    fsets = [frozenset(s) for s in sets]
    universe = range(1, n + 1)
    for _ in range(draws):
        x = set(rng.sample(universe, rng.randint(smin, smax)))
        if hits(fsets, x, need) < need:
            return tuple(sorted(x))
    return None


def check_family_shape(sets, n: int, k: int) -> list[str]:
    bad = [s for s in sets if not s or len(s) > k or min(s) < 1 or max(s) > n]
    return [f"{len(bad)} sets are empty, heavier than k={k} or outside 1..{n}"] if bad else []


def disjunct_counterexample(rows, b: int, d: int):
    """A column covered by the union of d others, as (column, others), or None."""
    columns = {j: {y for y, row in enumerate(rows) if j in row} for j in range(1, b + 1)}
    for j in range(1, b + 1):
        others = [c for c in range(1, b + 1) if c != j]
        for group in itertools.combinations(others, d):
            if columns[j] <= set().union(*(columns[c] for c in group)):
                return j, group
    return None
