"""Spans and counters around budnav's public functions, installed from outside.

The package binds names with ``from .x import y``, so each wrapper is
installed on the module that looks the name up (``budnav.trainer.plan``,
``budnav.rectify.plan``, ...), and ``GradAccumulator.add_step`` on the class.
Nothing under ``src/`` is edited.

Coarse boundaries (episode, rollout, loss, plan, field, evaluate, ...) record
one span per call: ``(id, parent, name, thread id, start, end)``.  Hot leaves
(observe, featurize+forward, add_step, snapshot) only add a count and a time to
their parent span, per thread, so memory stays bounded.  A span's self time is
its duration minus the part of it that its child spans and leaves cover.

Outcome counters (routes, triggers, steps, zero-advantage groups, rollback
depth, repeated oracle inputs, world-cache hits) are computed from the values
the wrapped functions return, not from timers.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

perf = time.perf_counter

TRIGGERS = {
    "OffTrack": "off_track",
    "ProgressStall": "progress_stall",
    "PrematureStop": "premature_stop",
    "ForcedStop": "forced_stop",
}


class _ThreadState:
    def __init__(self):
        self.tid = threading.get_ident()
        self.stack = []
        self.leaves = defaultdict(lambda: [0, 0.0])  # (parent id, name) -> [calls, s]


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans = []  # (id, parent, name, tid, t0, t1)
        # Parent of spans opened on a thread whose own stack is empty: the
        # evaluate call that handed work to its thread pool.
        self.adopt = 0
        self.counts = defaultdict(int)
        self.seen = defaultdict(set)
        self.rollback = []
        self.eval_episode_s = defaultdict(float)  # (evaluate id, episode) -> s

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def span(self, name, fn, observe=None, adopt=False):
        """Wrap fn so each call records a span; observe(args, result, parent, dt)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            parent = st.stack[-1] if st.stack else self.adopt
            sid = next(self._ids)
            st.stack.append(sid)
            prev_adopt = self.adopt
            if adopt:
                self.adopt = sid
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                if adopt:
                    self.adopt = prev_adopt
                st.stack.pop()
                self.spans.append((sid, parent, name, st.tid, t0, t1))
            if observe is not None:
                with self._lock:
                    observe(args, result, parent, t1 - t0)
            return result

        return wrapper

    def leaf(self, name, fn, count=1):
        """Wrap a hot function: add its count and time to the parent span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                st = self._state()
                cell = st.leaves[(st.stack[-1] if st.stack else self.adopt, name)]
                cell[0] += count
                cell[1] += dt

        return wrapper

    def repeat(self, kind: str, key) -> None:
        """Count a call and whether its inputs were already seen (lock held)."""
        self.counts[kind + ".calls_seen"] += 1
        if key in self.seen[kind]:
            self.counts[kind + ".repeats"] += 1
        else:
            self.seen[kind].add(key)

    # ------------------------------------------------------------------
    # Report.

    def report(self, root_name: str) -> dict:
        kids = defaultdict(list)
        for sid, parent, _, _, t0, t1 in self.spans:
            kids[parent].append((t0, t1))
        leaf_in = defaultdict(float)
        leaf_total = defaultdict(lambda: [0, 0.0])
        for st in self._states:
            for (parent, name), (n, s) in st.leaves.items():
                leaf_in[parent] += s
                leaf_total[name][0] += n
                leaf_total[name][1] += s
        parent_of = {sid: parent for sid, parent, *_ in self.spans}
        roots = {sid for sid, _, name, *_ in self.spans if name == root_name}

        def in_run(sid):
            while sid and sid not in roots:
                sid = parent_of.get(sid, 0)
            return bool(sid)

        calls = defaultdict(int)
        self_s = defaultdict(float)
        durations = defaultdict(list)
        attributed = sum(s for parent, s in leaf_in.items() if in_run(parent))
        for sid, _, name, _, t0, t1 in self.spans:
            covered = _union(kids.get(sid, ()), t0, t1) + leaf_in.get(sid, 0.0)
            self_s[name] += (t1 - t0) - covered
            calls[name] += 1
            durations[name].append(t1 - t0)
            if name != root_name and in_run(sid):
                attributed += (t1 - t0) - covered
        for name, (n, s) in leaf_total.items():
            calls[name] += n
            self_s[name] += s

        c = self.counts
        m = {}

        def per_call(name):
            return 1e6 * self_s[name] / calls[name] if calls[name] else 0.0

        def frac(num, den):
            return num / den if den else 0.0

        def pct(values, q):
            return 1e3 * float(np.percentile(values, q)) if values else 0.0

        m["world.observe.calls"] = calls["world.observe"]
        m["world.observe.self_s"] = self_s["world.observe"]
        m["world.generate_episode.calls"] = calls["world.generate_episode"]
        m["world.generate_episode.self_s"] = self_s["world.generate_episode"]
        m["world.generate_world.calls"] = c["world.generate_world"]

        for name in ("oracle.plan", "oracle.geodesic_field"):
            m[name + ".calls"] = calls[name]
            m[name + ".self_s"] = self_s[name]
            m[name + ".us_per_call"] = per_call(name)
            m[name + ".repeat_frac"] = frac(c[name + ".repeats"], c[name + ".calls_seen"])

        m["policy.forward.calls"] = calls["policy.forward"]
        m["policy.forward.self_s"] = self_s["policy.forward"]
        m["policy.forward.us_per_call"] = per_call("policy.forward")
        for name in ("policy.backward", "policy.snapshot"):
            m[name + ".calls"] = calls[name]
            m[name + ".self_s"] = self_s[name]

        rollout_dur = sum(durations["rollout.greedy"]) + sum(durations["rollout.sampled"])
        m["rollout.greedy.calls"] = calls["rollout.greedy"]
        m["rollout.sampled.calls"] = calls["rollout.sampled"]
        m["rollout.steps"] = c["rollout.steps"]
        m["rollout.self_s"] = self_s["rollout.greedy"] + self_s["rollout.sampled"]
        m["rollout.us_per_step"] = 1e6 * frac(rollout_dur, c["rollout.steps"])
        for kind in TRIGGERS.values():
            m["rollout.trigger." + kind] = c["rollout.trigger." + kind]

        m["grpo.groups"] = c["grpo.groups"]
        m["grpo.make_group.self_s"] = self_s["grpo.make_group"]
        m["grpo.loss.calls"] = calls["grpo.loss"]
        m["grpo.loss.self_s"] = self_s["grpo.loss"]
        m["grpo.loss.steps"] = c["grpo.loss.steps"]
        m["grpo.zero_adv_frac"] = frac(c["grpo.zero_adv"], c["grpo.groups"])

        m["rectify.demos"] = len(self.rollback)
        m["rectify.demo.self_s"] = self_s["rectify.demo"]
        m["rectify.loss.calls"] = calls["rectify.loss"]
        m["rectify.loss.self_s"] = self_s["rectify.loss"]
        m["rectify.loss.steps"] = c["rectify.loss.steps"]
        m["rectify.rollback_steps_mean"] = frac(sum(self.rollback), len(self.rollback))

        m["trainer.episodes"] = calls["trainer.episode"]
        for route in ("grpo", "rect", "bc", "skipped"):
            m["trainer.route." + route] = c["trainer.route." + route]
        m["trainer.env_steps"] = c["trainer.env_steps"]
        m["trainer.episode.self_s"] = self_s["trainer.episode"]
        m["trainer.episode_gen.self_s"] = self_s["trainer.episode_gen"]
        m["trainer.pretrain.self_s"] = self_s["trainer.pretrain"]
        m["trainer.adamw.calls"] = calls["trainer.adamw"]
        m["trainer.adamw.self_s"] = self_s["trainer.adamw"]
        m["trainer.episode_ms_p50"] = pct(durations["trainer.episode"], 50)
        m["trainer.episode_ms_p99"] = pct(durations["trainer.episode"], 99)

        episode_s = list(self.eval_episode_s.values())
        m["metrics.evaluate.calls"] = calls["metrics.evaluate"]
        m["metrics.evaluate.self_s"] = self_s["metrics.evaluate"]
        m["metrics.evaluate.episodes"] = len(episode_s)
        m["metrics.episode_result.self_s"] = self_s["metrics.episode_result"]
        m["metrics.dtw.self_s"] = self_s["metrics.dtw"]
        m["metrics.episode_ms_p50"] = pct(episode_s, 50)
        m["metrics.episode_ms_p99"] = pct(episode_s, 99)

        lookups = c["suite.world_cache.lookups"]
        m["suite.world_cache.lookups"] = lookups
        m["suite.world_cache.hit_frac"] = frac(lookups - c["suite.world_cache.misses"], lookups)
        m["suite.build_held.self_s"] = self_s["suite.build_held"]

        # The timed call is the root span.  Inside it, layer self times add up
        # to the run time less the unattributed remainder; threads that run at
        # once (the eval pool) make the sum exceed the wall time.
        m["tracing.run_s"] = sum(durations[root_name])
        m["tracing.attributed_s"] = attributed
        m["tracing.unattributed_s"] = self_s[root_name]
        return m


def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _patch(owner, attr: str, wrap) -> None:
    setattr(owner, attr, wrap(getattr(owner, attr)))


def install(tracer: Tracer) -> None:
    """Wrap budnav's functions where each module looks them up."""
    from budnav import grpo, metrics, oracle, policy, rectify, rollout, suite, trainer

    span, leaf = tracer.span, tracer.leaf
    c = tracer.counts

    def spanner(name, observe=None, adopt=False):
        return lambda fn: span(name, fn, observe, adopt)

    # world / suite
    for mod in (rollout, rectify):
        _patch(mod, "observe", lambda fn: leaf("world.observe", fn))
    _patch(suite, "generate_episode", spanner("world.generate_episode"))
    _patch(suite, "build_held_episodes", spanner("suite.build_held"))

    def world_built(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                c["world.generate_world"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def world_lookup(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = c["world.generate_world"]
            world = fn(*args, **kwargs)
            with tracer._lock:
                c["suite.world_cache.lookups"] += 1
                c["suite.world_cache.misses"] += c["world.generate_world"] - before
            return world

        return wrapper

    _patch(suite, "generate_world", world_built)
    _patch(suite, "suite_world", world_lookup)

    # oracle
    def world_key(world):
        return (world.seed, world.width, world.height)

    def plan_seen(args, result, parent, dt):
        world, start, goal = args[:3]
        tracer.repeat("oracle.plan", (world_key(world), start, tuple(goal)))

    def field_seen(args, result, parent, dt):
        world, goal = args[:2]
        tracer.repeat("oracle.geodesic_field", (world_key(world), tuple(goal)))

    for mod in (oracle, trainer, rectify):
        _patch(mod, "plan", spanner("oracle.plan", plan_seen))
    for mod in (oracle, trainer, metrics, grpo):
        _patch(mod, "geodesic_field", spanner("oracle.geodesic_field", field_seen))

    # policy: featurize+forward is one "forward"; featurize adds time, not calls
    def logits_fn_factory(fn):
        @functools.wraps(fn)
        def wrapper(snap):
            return leaf("policy.forward", fn(snap))

        return wrapper

    _patch(rollout, "snapshot_logits_fn", logits_fn_factory)
    _patch(grpo, "featurize", lambda fn: leaf("policy.forward", fn, count=0))
    _patch(grpo, "forward", lambda fn: leaf("policy.forward", fn))
    for mod in (grpo, rectify):
        _patch(mod, "forward_cached", lambda fn: leaf("policy.forward", fn))
    _patch(policy.GradAccumulator, "add_step", lambda fn: leaf("policy.backward", fn))
    _patch(trainer, "snapshot", lambda fn: leaf("policy.snapshot", fn))

    # rollout
    def rollout_done(args, traj, parent, dt):
        c["rollout.steps"] += len(traj.steps)
        if traj.trigger is not None:
            c["rollout.trigger." + TRIGGERS[traj.trigger[0].value]] += 1

    def eval_rollout_done(args, traj, parent, dt):
        rollout_done(args, traj, parent, dt)
        tracer.eval_episode_s[(parent, id(args[1]))] += dt

    def eval_result_done(args, result, parent, dt):
        tracer.eval_episode_s[(parent, id(args[1]))] += dt

    _patch(trainer, "run_greedy", spanner("rollout.greedy", rollout_done))
    _patch(trainer, "run_sampled", spanner("rollout.sampled", rollout_done))
    _patch(metrics, "run_greedy", spanner("rollout.greedy", eval_rollout_done))

    # grpo
    def group_made(args, group, parent, dt):
        c["grpo.groups"] += 1
        # Equal rewards standardise to zero advantages: the group's rollouts
        # teach nothing but the KL term.
        c["grpo.zero_adv"] += bool(np.ptp(group.rewards) == 0.0)

    def grpo_loss_done(args, result, parent, dt):
        c["grpo.loss.steps"] += sum(len(t.steps) for t in args[1].trajectories)

    _patch(trainer, "make_group", spanner("grpo.make_group", group_made))
    _patch(trainer, "grpo_loss_and_grad", spanner("grpo.loss", grpo_loss_done))

    # rectify
    def demo_made(args, demo, parent, dt):
        tracer.rollback.append(len(args[0].steps) - demo.anchor_step)

    def rect_loss_done(args, result, parent, dt):
        c["rectify.loss.steps"] += len(args[1].oracle_actions)

    _patch(trainer, "synthesize_demo", spanner("rectify.demo", demo_made))
    _patch(trainer, "rect_loss_and_grad", spanner("rectify.loss", rect_loss_done))

    # trainer
    def stepped(args, result, parent, dt):
        report = result[2]
        c["trainer.route." + report.route] += 1
        c["trainer.env_steps"] += report.env_steps_used

    def routed(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outcome = fn(*args, **kwargs)
            if outcome.skipped:
                with tracer._lock:
                    c["trainer.route.skipped"] += 1
            return outcome

        return wrapper

    _patch(trainer, "gro_step", spanner("trainer.episode", stepped))
    _patch(trainer, "route_episode", routed)
    _patch(trainer, "training_episode", spanner("trainer.episode_gen"))
    _patch(trainer, "pretrain_bc", spanner("trainer.pretrain"))
    _patch(trainer, "adamw_update", spanner("trainer.adamw"))

    # metrics
    for mod in (trainer, metrics):
        _patch(mod, "evaluate", spanner("metrics.evaluate", adopt=True))
    _patch(metrics, "episode_result", spanner("metrics.episode_result", eval_result_done))
    _patch(metrics, "dtw_distance", spanner("metrics.dtw"))
