"""Per-layer tracing from outside the program.

A Tracer replaces selected public functions of channel_lab with timing
wrappers and restores them on uninstall. Nothing inside channel_lab changes:
the wrapped names are module globals that the program looks up at call time,
class attributes (Engine.step and Engine.__init__), and the bound methods of
each Engine's protocol system, replaced per instance after construction.

Each wrapped name keeps three numbers: calls, busy nanoseconds, and the
nanoseconds spent in wrapped calls nested inside it, so self time is busy
minus children. Plain counters (packets injected, attempts, cells, ...) sit
beside them. Nothing is kept per call, so memory stays flat however long a
run is.
"""

from __future__ import annotations

import functools
import json
import os
from pathlib import Path
from time import perf_counter_ns

import channel_lab
from channel_lab import cli, core, engine, protocols, selectors


class Tracer:
    def __init__(self):
        self.stats = {}      # name -> [calls, busy_ns, child_ns]
        self.counts = {}     # name -> int
        self._stack = []     # child_ns accumulators of the open wrapped calls
        self._patches = []   # (owner, attribute, original)
        self._pid = os.getpid()

    # -- bookkeeping -------------------------------------------------------

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def adopt_process(self):
        """Start from zero in a forked worker, which inherits its parent's counts."""
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self.stats.clear()
            self.counts.clear()

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}

    def merge(self, snap: dict):
        for name, (calls, busy, child) in snap["stats"].items():
            st = self.stats.setdefault(name, [0, 0, 0])
            st[0] += calls
            st[1] += busy
            st[2] += child
        for name, value in snap["counts"].items():
            self.count(name, value)

    def merge_dumps(self, directory):
        """Add every trace-*.json dump that traced CLI processes left under directory."""
        for path in sorted(Path(directory).rglob("trace-*.json")):
            self.merge(json.loads(path.read_text(encoding="utf-8")))

    def dump(self, path):
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name, observe=None):
        """Time every call of fn under `name`; observe(result, args, kwargs) may count."""
        stats = self.stats
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0, 0]
                st[0] += 1
                st[1] += dt
                st[2] += child
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(result, args, kwargs)
            return result

        return wrapper

    def wrap_generator(self, fn, name, item_counter):
        """Time each step of a generator function; counts yielded items."""
        stats = self.stats
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                stack.append(0)
                t0 = perf_counter_ns()
                done = False
                try:
                    item = next(gen)
                except StopIteration:
                    done = True
                finally:
                    dt = perf_counter_ns() - t0
                    child = stack.pop()
                    st = stats.setdefault(name, [0, 0, 0])
                    st[1] += dt
                    st[2] += child
                    if stack:
                        stack[-1] += dt
                if done:
                    st[0] += 1
                    return
                tracer.count(item_counter)
                yield item

        return wrapper

    def patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def uninstall(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def install(self):
        """Wrap the public entry points of every channel_lab module."""
        count = self.count

        def packets(result, args, kwargs):
            if result:
                count("adversary.packets", sum(result.values()))

        def attempts(result, args, kwargs):
            n_attempts = len(result[0])
            if n_attempts:
                count("protocols.attempts", n_attempts)
                count("protocols.busy_rounds")
                if n_attempts == 1:
                    count("protocols.deliveries")

        self.patch(engine, "adversary_step",
                   self.wrap(engine.adversary_step, "adversary.step", packets))
        self.patch(engine, "metrics_update",
                   self.wrap(engine.metrics_update, "metrics.update"))
        self.patch(engine.Engine, "step", self.wrap(engine.Engine.step, "engine.step"))

        timed_init = self.wrap(engine.Engine.__init__, "engine.init")
        wrap = self.wrap

        @functools.wraps(engine.Engine.__init__)
        def init(eng, *args, **kwargs):
            timed_init(eng, *args, **kwargs)
            system = eng.system
            system.actions = wrap(system.actions, "protocols.actions", attempts)
            system.finish_round = wrap(system.finish_round, "protocols.finish_round")
            system.note_injections = wrap(system.note_injections,
                                          "protocols.note_injections")

        self.patch(engine.Engine, "__init__", init)

        validate = self.wrap(core.validate_config, "core.validate_config")
        for owner in (core, engine, cli, channel_lab):
            self.patch(owner, "validate_config", validate)
        derive = self.wrap(core.derive_stream, "core.derive_stream")
        for owner in (core, engine, protocols, cli, channel_lab):
            self.patch(owner, "derive_stream", derive)

        self.patch(cli, "expand_sweep",
                   self.wrap_generator(cli.expand_sweep, "cli.expand_sweep", "cli.cells"))
        self.patch(cli, "render_csv", self.wrap(
            cli.render_csv, "cli.render_csv",
            lambda result, args, kwargs: count("cli.rows", len(args[0]))))

        self.patch(selectors, "load_family_file",
                   self.wrap(selectors.load_family_file, "selectors.load_family_file"))
        self._install_selectors()

    def _install_selectors(self):
        count = self.count
        stack = self._stack
        stats = self.stats
        guard = selectors.ENUMERATION_GUARD
        cost = selectors.enumeration_cost
        generate_depth = [0]

        def accepted(result, args, kwargs):
            count("selectors.families")

        generate = self.wrap(selectors.generate_selector_random, "selectors.generate",
                             accepted)

        @functools.wraps(selectors.generate_selector_random)
        def generate_scope(*args, **kwargs):
            generate_depth[0] += 1
            try:
                return generate(*args, **kwargs)
            finally:
                generate_depth[0] -= 1

        exact = selectors.verify_selector_exact

        @functools.wraps(exact)
        def verify_exact(family, n=None, omega=None):
            # Complete enumerations (verdict None) are timed apart from those
            # that stop at a counterexample, so subsets/s has a known count.
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                witness = exact(family, n, omega)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1] += dt
            if generate_depth[0]:
                count("selectors.trials")
            if witness is None:
                full = stats.setdefault("selectors.verify_exact.complete", [0, 0, 0])
                full[0] += 1
                full[1] += dt
                count("selectors.subsets", cost(family.n if n is None else n,
                                                family.omega if omega is None else omega))
            return witness

        def sampled(result, args, kwargs):
            family, n, omega, samples = args[:4]
            count("selectors.draws", samples)
            if generate_depth[0] and cost(n, omega) > guard:
                count("selectors.trials")

        self.patch(selectors, "generate_selector_random", generate_scope)
        self.patch(selectors, "verify_selector_exact", verify_exact)
        self.patch(selectors, "verify_selector_sampled",
                   self.wrap(selectors.verify_selector_sampled,
                             "selectors.verify_sampled", sampled))
        self.patch(selectors, "kautz_singleton",
                   self.wrap(selectors.kautz_singleton, "selectors.kautz_singleton"))
        self.patch(selectors, "verify_disjunct",
                   self.wrap(selectors.verify_disjunct, "selectors.verify_disjunct"))
