"""Lockstep rollouts against the per-episode reference loop, bit for bit.

run_lockstep steps many episodes together and scores every running one
with one row-batched featurize+forward per tick.  The reference below is
the loop every rollout ran before: one rolling FeatureRows per episode,
push + forward once per step, and one record per step.  Each step's
logits bytes, action and pose, the observation bytes gathered from its
recorded state, and each trajectory's trigger, final pose and path
length must agree exactly, whether an episode runs alone or in a batch
whose rows end at different ticks.  The reference moves by
conftest.reference_step and tracks waypoint progress, the anchor step
and the goal zone with euclid_m on its own, so none of them is taken
from the code under test.
"""
from dataclasses import replace
from typing import NamedTuple
from pathlib import Path

import numpy as np
import pytest

from budnav import rollout
from budnav.config import load_config
from budnav.metrics import evaluate
from budnav.policy import (
    NO_ACTION, FeatureRows, forward, greedy_action, init_params, initial_features, snapshot, softmax,
)
from budnav.rollout import (
    RolloutConfig,
    RolloutJob,
    Trajectory,
    TriggerKind,
    check_triggers,
    rollout_stream,
    run_greedy,
    run_lockstep,
    run_sampled,
    sample_action,
)
from budnav.suite import build_held_episodes, parse_suite
from budnav.trainer import pretrain_bc, training_episode
from budnav.world import (
    Action, euclid_m, generate_episode, generate_world, observe, observe_states, pose_state,
)

from conftest import reference_step
from test_rectify import ordered_anchor_reference

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CFG = RolloutConfig()


class RefStep(NamedTuple):
    """One step of the reference rollout."""

    t: int
    pose_before: object
    observation: np.ndarray
    action: int
    logits: np.ndarray


def euclid_progress(j, pos, waypoints, radius, cell):
    """Progress past every next-in-order waypoint within radius of pos."""
    while j + 1 < len(waypoints) and euclid_m(pos, waypoints[j + 1], cell) <= radius:
        j += 1
    return j


def reference_rollout(snap, episode, cfg, mode, rng_stream=0, temperature=None, triggers=True):
    """One episode alone: a FeatureRows, push + forward per step."""
    params = snap.params
    track = FeatureRows(params, initial_features(params, episode.instruction))
    rng = np.random.Generator(np.random.PCG64(rng_stream)) if mode == "sampled" else None
    world, waypoints, cell = episode.world, episode.reference_waypoints, episode.world.cell_size
    max_steps = cfg.max_steps(episode)
    prev_action = NO_ACTION
    pose = episode.start
    progress = euclid_progress(-1, pose.position, waypoints, cfg.visit_radius_m, cell)
    steps_since_progress = grace_used = anchor_step = 0
    path_length = 0.0
    steps = []
    for t in range(max_steps):
        obs = observe(world, pose, params.cfg.obs_k).ravel()
        logits = forward(params, track.push(obs, prev_action))
        if mode == "greedy":
            action = greedy_action(logits)
        else:
            action = sample_action(softmax(logits / temperature), rng.random())
        new_pose = reference_step(world, pose, Action(action))
        steps.append(RefStep(t, pose, obs, action, logits))
        if action == Action.FORWARD and new_pose.position != pose.position:
            path_length += cell
        reached = euclid_progress(progress, new_pose.position, waypoints, cfg.visit_radius_m, cell)
        steps_since_progress = 0 if reached != progress else steps_since_progress + 1
        anchor_step = t + 1 if reached != progress else anchor_step
        progress = reached
        goal_dist = euclid_m(new_pose.position, episode.goal, cell)
        grace_used = grace_used + 1 if goal_dist <= episode.goal_radius else 0
        stopped = action == Action.STOP
        trig = None
        if triggers:
            trig = check_triggers(
                pose_state(new_pose, world.width), progress, steps_since_progress, grace_used,
                stopped, episode, cfg,
            )
        if trig is not None or stopped:
            return Trajectory(
                episode.id, mode, rng_stream, tuple(steps), new_pose, stopped=stopped,
                success=trig is None and goal_dist <= episode.goal_radius,
                trigger=None if trig is None else (trig, t), path_length=path_length,
                anchor_step=anchor_step,
            )
        prev_action = action
        pose = new_pose
    trigger = (TriggerKind.FORCED_STOP, max_steps - 1) if triggers else None
    return Trajectory(
        episode.id, mode, rng_stream, tuple(steps), pose,
        stopped=True, success=False, trigger=trigger, path_length=path_length,
        anchor_step=anchor_step,
    )


def assert_same(got, want, episode, snap):
    steps = got.steps
    assert len(steps) == len(want.steps)
    assert steps.width == episode.world.width
    assert steps.states.dtype == steps.actions.dtype == np.int64
    assert steps.logits.dtype == np.float64 and steps.logits.shape == (len(steps), 4)
    observations = observe_states(episode.world, steps.states, snap.params.cfg.obs_k)
    for t, b in enumerate(want.steps):
        assert b.t == t
        assert steps.states[t] == pose_state(b.pose_before, episode.world.width)
        assert steps.actions[t] == b.action
        assert observations[t].tobytes() == b.observation.tobytes()
        assert steps.logits[t].tobytes() == b.logits.tobytes()
    assert steps.poses() == [b.pose_before for b in want.steps]
    assert (got.episode_id, got.mode, got.rng_stream_id) == (want.episode_id, want.mode, want.rng_stream_id)
    assert (got.final_pose, got.stopped, got.success) == (want.final_pose, want.stopped, want.success)
    assert got.trigger == want.trigger
    assert got.path_length == want.path_length
    assert got.anchor_step == want.anchor_step


@pytest.fixture(scope="module")
def held():
    suite = parse_suite((CONFIGS / "desk.suite").read_text())
    episodes = build_held_episodes(suite)
    assert len(episodes) == 200
    return episodes


def pretrained_policy(pretrain_episodes, **policy):
    """A desk policy BC-pretrained on the first training episodes, with
    the given policy.* fields replaced."""
    cfg = load_config(CONFIGS / "desk_full.cfg")[0]
    cfg = replace(cfg, policy=replace(cfg.policy, **policy))
    episodes = [training_episode(cfg, "pretrain", i) for i in range(pretrain_episodes)]
    return snapshot(pretrain_bc(init_params(cfg.policy, 0), episodes, cfg)[0])


@pytest.fixture(scope="module")
def policies():
    """A BC-pretrained desk policy, whose episodes end at many different
    steps, some at the step cap, and an untrained one that never stops,
    so every episode runs into the cap; two more pretrained ones see a
    3 x 3 and a 7 x 7 patch."""
    cfg = load_config(CONFIGS / "desk_full.cfg")[0]
    wanderer = init_params(cfg.policy, 1)
    wanderer.b2[Action.STOP] = -10.0
    return {
        "pretrained": pretrained_policy(600),
        "wanderer": snapshot(wanderer),
        "obs_k3": pretrained_policy(150, obs_k=3),
        "obs_k7": pretrained_policy(150, obs_k=7),
    }


@pytest.fixture(scope="module")
def mixed_worlds():
    """Episodes from worlds of five different extents, interleaved, so
    rows of one batch read their patches at different grid strides."""
    worlds = [
        generate_world(seed, width, height, 0.15)
        for seed, (width, height) in enumerate([(6, 14), (14, 6), (10, 10), (9, 13), (16, 5)])
    ]
    return [generate_episode(worlds[i % 5], 100 + i, min_length=4.0) for i in range(40)]


@pytest.mark.parametrize("name", ["pretrained", "wanderer"])
def test_evaluate_matches_the_reference_on_every_held_episode(held, policies, name):
    snap = policies[name]
    outcome = evaluate(snap, held, CFG)
    assert [t.episode_id for t in outcome.trajectories] == [ep.id for ep in held]
    for episode, traj in zip(held, outcome.trajectories):
        want = reference_rollout(snap, episode, CFG, "greedy", triggers=False)
        assert_same(traj, want, episode, snap)
    lengths = [len(t.steps) for t in outcome.trajectories]
    at_cap = sum(n == CFG.max_steps(ep) for n, ep in zip(lengths, held))
    if name == "pretrained":
        # Rows drop out of the batch at many different ticks.
        assert len(set(lengths)) >= 15 and 0 < at_cap < len(held)
        assert sum(t.success for t in outcome.trajectories) > 0
    else:
        assert at_cap == len(held)
        assert len(set(lengths)) >= 5  # the cap depends on the reference length


@pytest.mark.parametrize("name", ["pretrained", "wanderer"])
def test_single_rollouts_match_the_reference_with_and_without_triggers(held, policies, name):
    snap = policies[name]
    triggered = set()
    for episode in held[:60]:
        for triggers in (True, False):
            want = reference_rollout(snap, episode, CFG, "greedy", triggers=triggers)
            got = (
                run_greedy(snap, episode, CFG) if triggers
                else run_lockstep(snap, [RolloutJob(episode, triggers=False)], CFG)[0]
            )
            assert_same(got, want, episode, snap)
            if want.trigger is not None:
                triggered.add(want.trigger[0])
        for i in (1, 2, 3):
            stream = rollout_stream(7, episode.id, i)
            want = reference_rollout(snap, episode, CFG, "sampled", stream, 0.4)
            assert_same(run_sampled(snap, episode, 0.4, stream, CFG), want, episode, snap)
    assert triggered


@pytest.mark.parametrize("name, batch", [
    ("pretrained", "held"), ("pretrained", "mixed_worlds"), ("obs_k3", "held"), ("obs_k7", "mixed_worlds"),
])
def test_mixed_jobs_in_one_batch_match_the_reference(held, mixed_worlds, policies, name, batch):
    # Greedy and sampled jobs, with and without triggers, ending at
    # different ticks, share one batch; a job yields its trajectory in
    # its own slot whatever the order in which jobs finish.  The batch
    # comes from the desk worlds or from worlds of different extents.
    snap = policies[name]
    episodes = held[:40] if batch == "held" else mixed_worlds
    jobs = []
    for k, episode in enumerate(episodes):
        if k % 3 == 0:
            jobs.append(RolloutJob(episode, None, 0, k % 2 == 0))
        else:
            jobs.append(RolloutJob(episode, 0.4, rollout_stream(3, episode.id, k), k % 2 == 0))
    got = run_lockstep(snap, jobs, CFG)
    lengths = set()
    for k, (traj, job) in enumerate(zip(got, jobs)):
        mode = "greedy" if k % 3 == 0 else "sampled"
        want = reference_rollout(
            snap, job.episode, CFG, mode, job.rng_stream, job.temperature, job.triggers
        )
        assert_same(traj, want, job.episode, snap)
        lengths.add(len(traj.steps))
    assert len(lengths) >= 10


def test_each_step_owns_its_logits(held, policies):
    # A trajectory's logits are its own [T, 4] array, not a view into the
    # call's stacked tick logits that would keep every job's alive.
    outcome = evaluate(policies["pretrained"], held[:20], CFG)
    for traj in outcome.trajectories:
        logits = traj.steps.logits
        assert logits.base is None and logits.shape == (len(traj.steps), 4)


@pytest.mark.parametrize("visit_radius_m", [0.5, 1.5])
def test_probe_anchor_step_equals_the_rescan_on_every_failed_probe(held, policies, visit_radius_m):
    # The rollout records the anchor as it tracks progress; a rescan of
    # the probe's positions under the same radius must find the same step.
    cfg = RolloutConfig(visit_radius_m=visit_radius_m)
    failed = 0
    anchors = set()
    for snap in policies.values():
        for episode in held:
            probe = run_greedy(snap, episode, cfg)
            if probe.trigger is None:
                continue
            failed += 1
            assert probe.anchor_step == ordered_anchor_reference(probe, episode, visit_radius_m)
            anchors.add(probe.anchor_step)
    assert failed >= 200 and len(anchors) >= 5


def scored_steps(traj, history_k):
    """Steps a greedy, trigger-free rollout scores: up to and including
    the first step whose last history_k + 1 (pose, action) pairs are one
    pair that leaves the pose where it was, else every step."""
    poses, actions = traj.poses(), traj.steps.actions.tolist()
    for t in range(history_k, len(actions)):
        pairs = {(poses[j], actions[j]) for j in range(t - history_k, t + 1)}
        if len(pairs) == 1 and poses[t + 1] == poses[t]:
            return t + 1
    return len(actions)


def count_scored_rows(monkeypatch):
    """A list that gets, for every tick of every later rollout, the
    number of rows scored."""
    counts = []
    make = rollout.snapshot_logits_fn

    def counting(snap):
        score = make(snap)

        def logits_fn(rows, obs, prev_actions):
            logits = score(rows, obs, prev_actions)
            counts.append(logits.size // 4)
            return logits

        return logits_fn

    monkeypatch.setattr(rollout, "snapshot_logits_fn", counting)
    return counts


@pytest.mark.parametrize("alone", [True, False])
def test_a_row_pressed_against_a_wall_ends_at_its_fixed_point(held, policies, monkeypatch, alone):
    # A policy that always goes FORWARD, started facing a wall, bumps it
    # on every step: once history_k + 1 bumps fill its history, its
    # features, logits and action repeat until the cap, so its row stops
    # being scored while the trajectory still runs to the cap.  Alone,
    # its steps outnumber the call's ticks.
    cfg = load_config(CONFIGS / "desk_full.cfg")[0]
    params = init_params(cfg.policy, 1)
    params.b2[Action.FORWARD] = 50.0
    snap = snapshot(params)
    k = cfg.policy.history_k
    episode = held[0]
    world, start = episode.world, episode.start
    facing_wall = next(
        pose for pose in (replace(start, heading=h) for h in range(4))
        if reference_step(world, pose, Action.FORWARD) == pose
    )
    walled = replace(episode, start=facing_wall)
    counts = count_scored_rows(monkeypatch)
    jobs = [RolloutJob(walled, triggers=False)] + ([] if alone else [RolloutJob(held[1], triggers=False)])
    got = run_lockstep(snap, jobs, CFG)
    want = reference_rollout(snap, walled, CFG, "greedy", triggers=False)
    assert_same(got[0], want, walled, snap)
    assert len(got[0].steps) == CFG.max_steps(walled) > k + 1
    assert set(got[0].steps.actions.tolist()) == {Action.FORWARD}
    if alone:
        assert counts == [1] * (k + 1)
    else:
        assert_same(got[1], reference_rollout(snap, held[1], CFG, "greedy", triggers=False), held[1], snap)
        assert counts[: k + 1] == [2] * (k + 1) and set(counts[k + 1 :]) <= {1}


def test_evaluation_scores_each_row_up_to_its_fixed_point(held, policies, monkeypatch):
    # Every greedy, trigger-free row is scored up to the step that
    # completes its fixed point, or to its last step; the steps after it
    # are copies, and test_evaluate_matches_the_reference_on_every_held_episode
    # holds them to the reference.
    snap = policies["pretrained"]
    counts = count_scored_rows(monkeypatch)
    outcome = evaluate(snap, held, CFG)
    k = snap.params.cfg.history_k
    scored = [scored_steps(traj, k) for traj in outcome.trajectories]
    total = sum(len(traj.steps) for traj in outcome.trajectories)
    assert sum(counts) == sum(scored) < total
    assert len(counts) == max(scored)


def test_lockstep_with_no_jobs_returns_nothing(policies):
    assert run_lockstep(policies["pretrained"], []) == []
