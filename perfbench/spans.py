"""Timing spans around the package's public callables, installed from outside.

The package is not edited: ``Tracer.install`` replaces module attributes (and
the ``verification.SUITES`` entries) with timed wrappers, so every call that
goes through a module global is recorded. Spans nest; a span's self time is
its duration minus the time of the spans it caused. Only per-name aggregates
(calls, total, self) are kept in memory; ``write`` saves them when the run
ends.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

# A span is charged to the layer named by the first part of its name; the
# command-line module counts as part of config_io.
LAYERS = ("channel", "bargaining", "matching", "game", "learners", "harness",
          "verification", "config_io")
_LAYER_ALIASES = {"cli": "config_io"}

# (module, attribute) of every plain function wrapped under its own name.
_FUNCTIONS = (
    ("channel", "expected_log_rate"),
    ("channel", "true_rates"),
    ("channel", "generate_topology"),
    ("bargaining", "nbs_alpha"),
    ("bargaining", "nbs_alpha_oracle"),
    ("matching", "build_preferences"),
    ("matching", "gale_shapley"),
    ("matching", "is_stable"),
    ("matching", "find_blocking_pairs"),
    ("matching", "enumerate_stable_matchings"),
    ("game", "choice_winners"),
    ("game", "induced_matching"),
    ("game", "enumerate_pne"),
    ("harness", "write_manifest"),
    ("harness", "run_experiment"),
    ("config_io", "load_config"),
)


class _AgentProxy:
    """Stands in for one agent so its ``act`` and ``update`` calls are timed."""

    def __init__(self, agent, policy, act, update):
        self._agent = agent
        self.policy = policy
        self.act = act
        self.update = update

    def alpha_estimate(self, n):  # called every period: skip the __getattr__ fallback
        return self._agent.alpha_estimate(n)

    def __getattr__(self, name):
        return getattr(self._agent, name)


class Tracer:
    def __init__(self):
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.counts = {}  # name -> [events, summed value]
        self._stack = [0.0]  # child time accumulated per open span; [0] is the root
        self._undo = []

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child

        return timed

    def add(self, name, value):
        entry = self.counts.setdefault(name, [0, 0])
        entry[0] += 1
        entry[1] += value

    @property
    def top_level_seconds(self) -> float:
        """Time spent inside outermost spans since the tracer was created."""
        return self._stack[0]

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, modules, original, replacement):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)

    def install(self, rm) -> None:
        """Wrap the public callables of the imported package ``rm``."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "relaymatch" or n.startswith("relaymatch.")) and m is not None]
        for mod_name, attr in _FUNCTIONS:
            original = getattr(getattr(rm, mod_name), attr)
            self._replace_everywhere(modules, original, self.wrap(f"{mod_name}.{attr}", original))

        brp = rm.game.better_reply_path
        timed_brp = self.wrap("game.better_reply_path", brp)

        def better_reply_path(*args, **kwargs):
            path = timed_brp(*args, **kwargs)
            self.add("game.better_reply_path.steps", len(path) - 1)
            return path

        self._replace_everywhere(modules, brp, better_reply_path)

        emit = rm.harness.emit_csv
        timed_emit = self.wrap("harness.emit_csv", emit)

        def emit_csv(results, path):
            timed_emit(results, path)
            self.add("harness.emit_csv.bytes", os.path.getsize(path))

        self._replace_everywhere(modules, emit, emit_csv)

        rule = rm.game.TieBreakRule
        for_instance = rule.__dict__["for_instance"].__func__
        self._set(rule, "for_instance",
                  classmethod(self.wrap("game.TieBreakRule.for_instance", for_instance)))

        env_class = rm.harness.SimEnvironment
        timed_env = self.wrap("harness.SimEnvironment", env_class)

        def sim_environment(*args, **kwargs):
            env = timed_env(*args, **kwargs)
            timed_check = self.wrap("harness.matching_is_stable", env.matching_is_stable)
            seen = set()

            def matching_is_stable(winners):
                key = tuple(winners)
                if key not in seen:
                    seen.add(key)
                    self.add("harness.matching_is_stable.distinct", 1)
                return timed_check(winners)

            env.matching_is_stable = matching_is_stable
            return env

        self._replace_everywhere(modules, env_class, sim_environment)

        make_agents = rm.harness.make_agents

        def traced_make_agents(policy, *args, **kwargs):
            return [
                _AgentProxy(agent, policy,
                            self.wrap(f"learners.{policy}.act", agent.act),
                            self.wrap(f"learners.{policy}.update", agent.update))
                for agent in make_agents(policy, *args, **kwargs)
            ]

        self._replace_everywhere(modules, make_agents, traced_make_agents)

        run_period = rm.harness.run_period
        by_policy = {p: self.wrap(f"harness.run_period.{p}", run_period)
                     for p in rm.harness.POLICIES}

        def traced_run_period(env, agents, *args, **kwargs):
            return by_policy[agents[0].policy](env, agents, *args, **kwargs)

        self._replace_everywhere(modules, run_period, traced_run_period)

        self._set(rm.cli, "main", self.wrap("cli.main", rm.cli.main))
        suites = rm.verification.SUITES
        for name, fn in list(suites.items()):
            self._undo.append((suites, name, fn))
            suites[name] = self.wrap(f"verification.{name}", fn)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    def layer_self_seconds(self) -> dict:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.stats.items():
            prefix = name.split(".", 1)[0]
            totals[_LAYER_ALIASES.get(prefix, prefix)] += self_s
        return totals

    def write(self, path) -> None:
        table = {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in sorted(self.stats.items())},
            "counts": {name: {"events": e, "sum": v}
                       for name, (e, v) in sorted(self.counts.items())},
        }
        with open(path, "w") as fh:
            json.dump(table, fh, indent=1)
