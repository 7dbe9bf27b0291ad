"""The protocol families: token-cycle adaptive and full-sensing state machines,
fixed-schedule round-robin and interleaved selectors, three backoff variants,
and the centralized state-aware comparator. PROTOCOLS, at the end, is the one
table of protocol names that config validation and the engine read.

Both token families share the TokenStation base (token list, initial roles,
position). Token stations expose decide(round, queue_len) -> StationAction and
observe(round, observation, own_ack); decide mutates only transmission-phase
state, observe is the sole channel-feedback mutator. Backoff stations expose
draw_slot, on_success and on_failure. A per-protocol system object drives the
stations without polling them: TokenSystem keeps one list of the non-idle
token stations and files idle ones in a wake calendar, and each backlogged
backoff station sits in a slot calendar under the one round it drew, so a
round costs work only for the stations that act. The fixed schedules
(round robin, interleaved) and the state-aware choice are computed inside
their drivers' `actions`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from . import selectors
from .core import (
    LISTEN, OFF, TRANSMIT, TRANSMIT_BIG, TRANSMIT_LAST_BIG, ChannelObservation, ConfigError,
    MissingParameter, ProtocolInvariantBroken, ProtocolSpec, RangeError, SimConfig,
    StationAction, derive_stream,
)
from .selectors import SelectorFamily

IDLE = "idle"
LISTENING = "listening"
TRANSMITTING = "transmitting"
BIG = "big"
LAST_BIG = "last_big"

BACKOFF_KINDS = ("exponential", "linear", "square")
BACKOFF_WINDOW_CAP = 2048


def _move_to_front(order: list[int], sid: int) -> None:
    if order[0] != sid:
        order.remove(sid)
        order.insert(0, sid)


# ---------------------------------------------------------------------------
# Token-cycle stations (adaptive and full-sensing)
# ---------------------------------------------------------------------------

class TokenStation:
    """State shared by both token-cycle families.

    Every station keeps its own copy of the shared token list. Station 1
    starts with the token, station 2 listens, and every other station sleeps
    until its first listening slot. The driver wakes a sleeping station by
    setting it LISTENING in its wake round.
    """

    __slots__ = ("sid", "n", "state", "order", "wake_round")

    def __init__(self, sid: int, n: int):
        self.sid = sid
        self.n = n
        self.order = list(range(1, n + 1))
        if sid == 1:
            self.state = TRANSMITTING
            self.wake_round = 0
        elif sid == 2:
            self.state = LISTENING
            self.wake_round = 0
        else:
            self.state = IDLE
            self.wake_round = sid - 1  # its first listening slot

    def position(self) -> int:
        return self.order.index(self.sid)


class AdaptiveStation(TokenStation):
    """Token-cycle station that marks its packets with big/last-big bits.

    One station holds the transmit token per round while its successor on the
    shared list listens; a station whose queue exceeds 3n keeps the token as
    "big" until an end-of-cycle round finds it back at or below 3n, then
    announces the handoff for one more full cycle so every station moves it to
    the front of its local list.
    """

    __slots__ = ()

    def decide(self, round_no: int, queue_len: int) -> StationAction:
        n = self.n
        state = self.state
        if state is TRANSMITTING:
            if queue_len > 3 * n:
                self.state = BIG
                return TRANSMIT_BIG
            self.state = IDLE
            self.wake_round = round_no + n - 1
            if queue_len > 0:
                return TRANSMIT
            return OFF  # token held with an empty queue: silent round
        if state is BIG:
            if round_no % n == 0 and queue_len <= 3 * n:
                self.state = LAST_BIG
                return TRANSMIT_LAST_BIG
            if queue_len == 0:
                raise ProtocolInvariantBroken(f"big station {self.sid} has no packets")
            return TRANSMIT_BIG
        if state is LAST_BIG:
            if queue_len == 0:
                raise ProtocolInvariantBroken(f"last-big station {self.sid} has no packets")
            if round_no % n == 0:
                # Handoff cycle complete: take the head of the list and keep
                # the token as a plain transmitter from the next round on.
                _move_to_front(self.order, self.sid)
                self.state = TRANSMITTING
            return TRANSMIT_LAST_BIG
        if state is LISTENING:
            return LISTEN
        return OFF

    def observe(self, round_no: int, obs: ChannelObservation, own_ack: bool) -> None:
        if self.state is not LISTENING:
            return
        if obs.kind == "collision":
            raise ProtocolInvariantBroken("collision heard under the adaptive protocol")
        bits = obs.bits
        if obs.kind == "single" and bits is not None and (bits.big or bits.last_big):
            # Sleep until the same listening slot next cycle, one round later
            # when the front-move pushed this station's position up by one.
            before = self.position()
            if bits.last_big:
                _move_to_front(self.order, obs.sender)
            shifted = 1 if self.position() > before else 0
            self.state = IDLE
            self.wake_round = round_no + self.n + shifted
        else:
            # Plain transmission or silence: the token passes to this station.
            self.state = TRANSMITTING


class FullSensingStation(TokenStation):
    """Token-cycle station that infers big stations from IDs and collisions.

    Without control bits, a listener learns about a big station either by
    hearing a transmitter that is not its list predecessor or by waiting one
    extra round after a collision. variant_k = 0 is the original protocol
    (big threshold 3n); variant_k >= 1 raises the threshold to 2n + k*n and
    makes an interrupted transmitter sleep about k*n rounds.
    """

    __slots__ = ("variant_k", "transmitted", "queue_seen", "token_from_exit")

    def __init__(self, sid: int, n: int, variant_k: int = 0):
        super().__init__(sid, n)
        self.variant_k = variant_k
        self.transmitted = False
        self.queue_seen = 0
        self.token_from_exit = False

    def predecessor(self) -> int:
        return self.order[self.position() - 1]

    def _big_threshold(self) -> int:
        if self.variant_k >= 1:
            return 2 * self.n + self.variant_k * self.n
        return 3 * self.n

    def _slot_next_cycle(self, round_no: int) -> int:
        """This station's listening round within the cycle after round_no.

        A station at list position p listens in rounds congruent to p and
        transmits the round after; re-deriving the wake from the current
        position re-packs the schedule after big-station moves reshuffle
        the list.
        """
        n = self.n
        cycle_close = round_no + (-round_no) % n
        position = self.position()
        return cycle_close + (position if position >= 1 else n)

    def decide(self, round_no: int, queue_len: int) -> StationAction:
        state = self.state
        self.queue_seen = queue_len
        if state is TRANSMITTING:
            if queue_len > 0:
                self.transmitted = True
                return TRANSMIT
            self.transmitted = False
            return LISTEN  # nothing to send; stay on to read the channel
        if state is BIG:
            if queue_len == 0:
                raise ProtocolInvariantBroken(f"big station {self.sid} has no packets")
            self.transmitted = True
            return TRANSMIT
        if state is LISTENING:
            return LISTEN
        return OFF

    def observe(self, round_no: int, obs: ChannelObservation, own_ack: bool) -> None:
        n = self.n
        state = self.state
        if state is LISTENING:
            if obs.kind == "collision":
                return  # hold on one round to hear the big station's ID
            if obs.kind == "single" and obs.sender != self.predecessor():
                # Out-of-order transmitter: it must be big; learn it and
                # sleep until this station's listening slot next cycle.
                _move_to_front(self.order, obs.sender)
                self.state = IDLE
                self.wake_round = self._slot_next_cycle(round_no)
            else:  # predecessor transmitted, or silence: take the token
                self.state = TRANSMITTING
            return

        if state is TRANSMITTING:
            if obs.kind == "collision":
                # Interrupted by the big station whose transmission handed
                # this station the token; a station that took the token via
                # its own big-state exit learned nothing from the collision.
                if not self.token_from_exit:
                    _move_to_front(self.order, self.predecessor())
                extra = (self.variant_k - 1) * n if self.variant_k >= 1 else 0
                self.state = IDLE
                self.wake_round = self._slot_next_cycle(round_no) + extra
            elif obs.kind == "single":
                if self.transmitted:
                    if self.queue_seen - 1 > self._big_threshold():
                        self.state = BIG
                    else:
                        self.state = IDLE
                        self.wake_round = round_no + n - 1
                else:
                    # A big predecessor transmitted through this empty slot.
                    _move_to_front(self.order, obs.sender)
                    self.state = IDLE
                    self.wake_round = round_no + n - 1
            else:  # silence: queue was empty and no big station exists
                self.state = IDLE
                self.wake_round = round_no + n - 1
            self.transmitted = False
            self.token_from_exit = False
            return

        if state is BIG:
            remaining = self.queue_seen - (1 if own_ack else 0)
            if round_no % n == 0 and remaining <= 2 * n:
                _move_to_front(self.order, self.sid)
                self.state = TRANSMITTING
                self.token_from_exit = True
            self.transmitted = False


# ---------------------------------------------------------------------------
# Backoff stations
# ---------------------------------------------------------------------------

def backoff_window(kind: str, i: int) -> int:
    """Contention window after i failures, capped at 2048 and floored at 1."""
    if kind == "exponential":
        w = 2 ** i if i < 11 else BACKOFF_WINDOW_CAP
    elif kind == "linear":
        w = 2 * i
    elif kind == "square":
        w = 2 * i * i
    else:
        raise ValueError(f"unknown backoff kind {kind!r}")
    return max(1, min(BACKOFF_WINDOW_CAP, w))


def _windows_below_cap(kind: str) -> tuple[int, ...]:
    """backoff_window(kind, i) for i = 0, 1, ... up to the first i at the cap."""
    windows = [backoff_window(kind, 0)]
    while windows[-1] < BACKOFF_WINDOW_CAP:
        windows.append(backoff_window(kind, len(windows)))
    return tuple(windows)


# Every window grows with i and stays at the cap once it gets there, so a
# station reads its window from here and uses the cap past the end.
BACKOFF_WINDOWS = {kind: _windows_below_cap(kind) for kind in BACKOFF_KINDS}


class BackoffStation:
    """Randomized sender: pick a slot in the current window, grow it on failure.

    The failure counter belongs to the head-of-line packet; it resets on a
    delivered packet and never shrinks while that packet waits.
    """

    __slots__ = ("sid", "windows", "attempts", "slot", "rng")

    def __init__(self, sid: int, kind: str, rng):
        self.sid = sid
        self.windows = BACKOFF_WINDOWS[kind]
        self.attempts = 0
        self.slot = None
        self.rng = rng

    def draw_slot(self, round_no: int) -> int:
        """Pick this station's slot in the window that opens at round_no."""
        windows, i = self.windows, self.attempts
        window = windows[i] if i < len(windows) else BACKOFF_WINDOW_CAP
        self.slot = slot = round_no + self.rng.randrange(window)
        return slot

    def on_success(self) -> None:
        self.attempts = 0
        self.slot = None

    def on_failure(self) -> None:
        self.attempts += 1
        self.slot = None


# ---------------------------------------------------------------------------
# Protocol systems: drive stations for the engine
# ---------------------------------------------------------------------------

class ProtocolSystem:
    """Round driver for one protocol family."""

    wants_feedback = False
    wants_injection_notes = False

    def __init__(self, config: SimConfig):
        self.n = config.n

    def actions(self, round_no: int, queues) -> tuple[Sequence, int]:
        """Return ((station, bits), ...) transmit attempts and the on-mode count.

        The attempts are a read-only sequence: a driver may hand out the same
        prebuilt tuple in every round it sends from a station.
        """
        raise NotImplementedError

    def finish_round(self, round_no: int, obs, success_sid, queues) -> None:
        pass

    def note_injections(self, injections) -> None:
        pass

    def schedule_oracle(self):
        """round -> tuple of on-mode stations, for fixed-schedule protocols."""
        return None


class TokenSystem(ProtocolSystem):
    """Drives token-cycle stations, built by the subclass, through the wake calendar.

    `active` holds the stations that are not idle; a station leaves it the
    moment it goes idle and is filed in `calendar` under its wake round. The
    stations still active after `decide` are exactly the ones that switched on
    this round, so they are the ones that observe the channel. Each `decide`
    and `observe` touches only its own station, so the list needs no order.
    """

    wants_feedback = True

    def __init__(self, config: SimConfig):
        self.stations = [self.make_station(sid, config) for sid in range(1, config.n + 1)]
        # Stations start idle only in their own first listening slot, one each.
        self.calendar = {st.wake_round: [st] for st in self.stations if st.state is IDLE}
        self.active = [st for st in self.stations if st.state is not IDLE]

    def actions(self, round_no: int, queues):
        active = self.active
        woken = self.calendar.pop(round_no, None)
        if woken:
            for st in woken:
                st.state = LISTENING
            active += woken
        attempts = []
        on_count = 0
        still_active = []
        for st in active:
            action = st.decide(round_no, queues[st.sid - 1])
            kind = action.kind
            if kind == "transmit":
                attempts.append((st.sid, action.bits))
                on_count += 1
            elif kind == "listen":
                on_count += 1
            if st.state is IDLE:
                self.calendar.setdefault(st.wake_round, []).append(st)
            else:
                still_active.append(st)
        self.active = still_active
        if len(attempts) > 1 and isinstance(self.stations[0], AdaptiveStation):
            raise ProtocolInvariantBroken(
                f"round {round_no}: {len(attempts)} adaptive stations transmitted")
        return attempts, on_count

    def finish_round(self, round_no, obs, success_sid, queues):
        dropped = False
        for st in self.active:
            st.observe(round_no, obs, st.sid == success_sid)
            if st.state is IDLE:
                self.calendar.setdefault(st.wake_round, []).append(st)
                dropped = True
        if dropped:
            self.active = [st for st in self.active if st.state is not IDLE]

    def local_lists(self) -> list[tuple[int, ...]]:
        return [tuple(st.order) for st in self.stations]


class AdaptiveSystem(TokenSystem):
    def make_station(self, sid: int, config: SimConfig) -> AdaptiveStation:
        return AdaptiveStation(sid, config.n)


class FullSensingSystem(TokenSystem):
    def make_station(self, sid: int, config: SimConfig) -> FullSensingStation:
        return FullSensingStation(sid, config.n, config.protocol.variant_k or 0)


def _one_sender_results(n: int) -> tuple:
    """The result of a round in which station i alone sends, at index i - 1."""
    return tuple((((sid, None),), 1) for sid in range(1, n + 1))


class RoundRobinSystem(ProtocolSystem):
    """One scheduled station per round; it listens when it has nothing to send."""

    LISTEN_ONLY = ((), 1)

    def __init__(self, config: SimConfig):
        super().__init__(config)
        self.sends = _one_sender_results(config.n)

    def actions(self, round_no: int, queues):
        i = (round_no - 1) % self.n     # station i + 1's turn
        if queues[i] > 0:
            return self.sends[i]
        return self.LISTEN_ONLY

    def schedule_oracle(self):
        n = self.n
        return lambda r: ((r - 1) % n + 1,)


class InterleavedSystem(ProtocolSystem):
    """Cycles the per-level selector sets; set members are on every time.

    `config.protocol.families` holds one family per level. Round
    t = j*L + i + 1 (level i in 0..L-1) plays set j mod m_i of level i.
    """

    def __init__(self, config: SimConfig):
        self.families = config.protocol.families

    def active_set(self, round_no: int) -> tuple[int, ...]:
        j, i = divmod(round_no - 1, len(self.families))
        sets = self.families[i].sets
        return sets[j % len(sets)]

    def actions(self, round_no: int, queues):
        members = self.active_set(round_no)
        attempts = [(sid, None) for sid in members if queues[sid - 1] > 0]
        return attempts, len(members)

    def schedule_oracle(self):
        return self.active_set


class BackoffSystem(ProtocolSystem):
    """Backoff stations on a slot calendar (slot round -> sids).

    Each backlogged station is filed under the one round it drew and costs
    nothing in any other round. A station draws when a packet reaches it
    empty (in that round's actions, since injections are noted first) and,
    after it transmits, for the next round: on a success that leaves it
    packets, or on a collision.
    """

    wants_feedback = True
    wants_injection_notes = True

    def __init__(self, config: SimConfig):
        kind = config.protocol.backoff_kind
        self.stations = [
            BackoffStation(sid, kind, derive_stream(config.seed, f"backoff.{sid}"))
            for sid in range(1, config.n + 1)
        ]
        self.calendar: dict[int, list[int]] = {}   # slot round -> sids
        self._fresh: list[BackoffStation] = []     # backlogged, slot not drawn yet
        self._attempted = ()                       # sids that transmitted this round
        for st, q in zip(self.stations, config.initial_queues):
            if q > 0:
                self._book(st, 1)

    def _book(self, st: BackoffStation, round_no: int) -> None:
        self.calendar.setdefault(st.draw_slot(round_no), []).append(st.sid)

    def note_injections(self, injections):
        stations = self.stations
        for sid in injections:
            st = stations[sid - 1]
            if st.slot is None:
                self._fresh.append(st)

    def actions(self, round_no: int, queues):
        if self._fresh:
            for st in self._fresh:
                self._book(st, round_no)
            self._fresh = []
        due = self.calendar.pop(round_no, None)
        if due is None:
            self._attempted = ()
            return [], 0
        due.sort()
        self._attempted = due
        return [(sid, None) for sid in due], len(due)

    def finish_round(self, round_no, obs, success_sid, queues):
        if not self._attempted:
            return
        stations = self.stations
        if success_sid is not None:
            st = stations[success_sid - 1]
            st.on_success()
            if queues[success_sid - 1] > 0:
                self._book(st, round_no + 1)
        else:
            for sid in self._attempted:
                st = stations[sid - 1]
                st.on_failure()
                self._book(st, round_no + 1)


class StateAwareSystem(ProtocolSystem):
    """Centralized comparator: the largest queue transmits each round.

    Ties go to the lowest ID; a round with every queue empty is silent.
    """

    SILENT = ((), 0)

    def __init__(self, config: SimConfig):
        super().__init__(config)
        self.sends = _one_sender_results(config.n)

    def actions(self, round_no: int, queues):
        best = max(queues)
        if best == 0:
            return self.SILENT
        return self.sends[queues.index(best)]


# ---------------------------------------------------------------------------
# The protocol table
# ---------------------------------------------------------------------------

def _parse_backoff_kind(arg: str | None, n: int) -> dict:
    if not arg:
        raise MissingParameter("backoff requires a kind: backoff(exponential|linear|square)",
                               "protocol")
    if arg not in BACKOFF_KINDS:
        raise RangeError("protocol", f"backoff kind in {BACKOFF_KINDS}", arg)
    return {"backoff_kind": arg}


def _parse_variant_k(arg: str | None, n: int) -> dict:
    if not arg:
        raise MissingParameter("fullsensing_mod requires an integer k: fullsensing_mod(2)",
                               "protocol")
    try:
        k = int(arg)
    except ValueError:
        raise RangeError("protocol", "fullsensing_mod(k) with integer k >= 1", arg) from None
    if k < 1:
        raise RangeError("protocol", "fullsensing_mod(k) with k >= 1", k)
    return {"variant_k": k}


def _parse_family_file(arg: str | None, n: int) -> dict:
    """Load the family file and keep one family per level omega = 2^i.

    A level uses the first family in the file whose omega matches; a level
    with none runs the plain one-station-per-round schedule.
    """
    if not arg:
        raise MissingParameter("interleaved requires a selector family file: interleaved(path)",
                               "protocol")
    try:
        families = selectors.load_family_file(arg)
    except OSError as exc:
        raise MissingParameter(f"cannot read selector family file {arg!r}: {exc}",
                               "protocol") from exc
    for fam in families:
        if fam.n != n:
            raise ConfigError(f"selector family has n={fam.n}, run has n={n}", "protocol")
    singletons = tuple((i,) for i in range(1, n + 1))
    chosen = []
    for i in range(1, max(1, math.ceil(math.log2(n))) + 1):
        omega = 2 ** i
        chosen.append(next((fam for fam in families if fam.omega == omega), None)
                      or SelectorFamily(n, omega, 1, singletons, "singletons"))
    return {"selector_path": arg, "families": tuple(chosen)}


def _largest_scheduled_set(protocol: ProtocolSpec) -> int:
    return max((len(s) for fam in protocol.families for s in fam.sets), default=1)


@dataclass(frozen=True)
class ProtocolEntry:
    """Everything the package knows about one protocol name."""

    system: type                                    # its ProtocolSystem
    restrain: Callable[[ProtocolSpec], int | None]  # restrain it promises; None = unbounded
    parse: Callable[[str | None, int], dict] | None = None  # (argument, n) -> spec fields
    unbounded_ok: bool = False                      # may run with restrain_limit "unbounded"


PROTOCOLS = {
    "adaptive": ProtocolEntry(AdaptiveSystem, lambda spec: 2),
    "fullsensing": ProtocolEntry(FullSensingSystem, lambda spec: 3),
    "fullsensing_mod": ProtocolEntry(FullSensingSystem, lambda spec: 3, _parse_variant_k),
    "round_robin": ProtocolEntry(RoundRobinSystem, lambda spec: 1),
    "interleaved": ProtocolEntry(InterleavedSystem, _largest_scheduled_set, _parse_family_file),
    "backoff": ProtocolEntry(BackoffSystem, lambda spec: None, _parse_backoff_kind,
                             unbounded_ok=True),
    "state_aware": ProtocolEntry(StateAwareSystem, lambda spec: 1, unbounded_ok=True),
}
