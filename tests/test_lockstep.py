"""Lockstep rollouts against the per-episode reference loop, bit for bit.

run_lockstep steps many episodes together and scores every running one
with one row-batched featurize+forward per tick.  The reference below is
the loop every rollout ran before: one rolling FeatureRows per episode,
and push + forward once per step.  Each step's observation and logits
bytes, action and pose, and each trajectory's trigger, final pose and
path length must agree exactly, whether an episode runs alone or in a
batch whose rows end at different ticks.  The reference tracks the
anchor step and tests the goal zone with euclid_m on its own, so neither
is taken from the code under test.
"""
from pathlib import Path

import numpy as np
import pytest

from budnav.config import load_config
from budnav.metrics import evaluate
from budnav.oracle import advance_progress, progress_index
from budnav.policy import (
    NO_ACTION, FeatureRows, forward, greedy_action, init_params, initial_features, snapshot, softmax,
)
from budnav.rollout import (
    RolloutConfig,
    RolloutState,
    Trajectory,
    TrajectoryStep,
    TriggerKind,
    _episode_steps,
    check_triggers,
    rollout_stream,
    run_greedy,
    run_lockstep,
    run_sampled,
    sample_action,
)
from budnav.suite import build_held_episodes, parse_suite
from budnav.trainer import pretrain_bc, training_episode
from budnav.world import Action, euclid_m, observe, step

from test_rectify import ordered_anchor_reference

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CFG = RolloutConfig()


def reference_rollout(snap, episode, cfg, mode, rng_stream=0, temperature=None, triggers=True):
    """One episode alone: a FeatureRows, push + forward per step."""
    params = snap.params
    track = FeatureRows(params, initial_features(params, episode.instruction))
    rng = np.random.Generator(np.random.PCG64(rng_stream)) if mode == "sampled" else None
    world, waypoints, cell = episode.world, episode.reference_waypoints, episode.world.cell_size
    max_steps = cfg.max_steps(episode)
    prev_action = NO_ACTION
    pose = episode.start
    progress = progress_index([pose.position], waypoints, cfg.visit_radius_m, cell)
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
        new_pose = step(world, pose, Action(action))
        steps.append(TrajectoryStep(t, pose, obs, action, logits))
        if action == Action.FORWARD and new_pose.position != pose.position:
            path_length += cell
        reached = advance_progress(progress, new_pose.position, waypoints, cfg.visit_radius_m, cell)
        steps_since_progress = 0 if reached != progress else steps_since_progress + 1
        anchor_step = t + 1 if reached != progress else anchor_step
        progress = reached
        goal_dist = euclid_m(new_pose.position, episode.goal, cell)
        grace_used = grace_used + 1 if goal_dist <= episode.goal_radius else 0
        stopped = action == Action.STOP
        trig = None
        if triggers:
            state = RolloutState(new_pose, t, steps_since_progress, stopped, grace_used, progress)
            trig = check_triggers(state, episode, cfg)
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


def assert_same(got, want):
    assert len(got.steps) == len(want.steps)
    for a, b in zip(got.steps, want.steps):
        assert (a.t, a.pose_before, a.action) == (b.t, b.pose_before, b.action)
        assert a.observation.tobytes() == b.observation.tobytes()
        assert a.logits.shape == (4,)
        assert a.logits.tobytes() == b.logits.tobytes()
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


@pytest.fixture(scope="module")
def policies():
    """A BC-pretrained desk policy, whose episodes end at many different
    steps, some at the step cap, and an untrained one that never stops,
    so every episode runs into the cap."""
    cfg = load_config(CONFIGS / "desk_full.cfg")[0]
    episodes = [training_episode(cfg, "pretrain", i) for i in range(600)]
    pretrained, _ = pretrain_bc(init_params(cfg.policy, 0), episodes, cfg)
    wanderer = init_params(cfg.policy, 1)
    wanderer.b2[Action.STOP] = -10.0
    return {"pretrained": snapshot(pretrained), "wanderer": snapshot(wanderer)}


@pytest.mark.parametrize("name", ["pretrained", "wanderer"])
def test_evaluate_matches_the_reference_on_every_held_episode(held, policies, name):
    snap = policies[name]
    outcome = evaluate(snap, held, CFG)
    assert [t.episode_id for t in outcome.trajectories] == [ep.id for ep in held]
    for episode, traj in zip(held, outcome.trajectories):
        assert_same(traj, reference_rollout(snap, episode, CFG, "greedy", triggers=False))
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
            assert_same(run_greedy(snap, episode, CFG, triggers=triggers), want)
            if want.trigger is not None:
                triggered.add(want.trigger[0])
        for i in (1, 2, 3):
            stream = rollout_stream(7, episode.id, i)
            want = reference_rollout(snap, episode, CFG, "sampled", stream, 0.4)
            assert_same(run_sampled(snap, episode, 0.4, stream, CFG), want)
    assert triggered


def test_mixed_jobs_in_one_batch_match_the_reference(held, policies):
    # Greedy and sampled jobs, with and without triggers, ending at
    # different ticks, share one batch; a job yields its trajectory in
    # its own slot whatever the order in which jobs finish.
    snap = policies["pretrained"]
    specs = []
    for k, episode in enumerate(held[:40]):
        if k % 3 == 0:
            specs.append((episode, "greedy", 0, None, k % 2 == 0))
        else:
            specs.append((episode, "sampled", rollout_stream(3, episode.id, k), 0.4, k % 2 == 0))
    jobs = [
        (ep, _episode_steps(ep, CFG, snap.params.cfg.obs_k, mode, stream, temp, triggers))
        for ep, mode, stream, temp, triggers in specs
    ]
    got = run_lockstep(snap, jobs)
    lengths = set()
    for traj, (ep, mode, stream, temp, triggers) in zip(got, specs):
        assert_same(traj, reference_rollout(snap, ep, CFG, mode, stream, temp, triggers))
        lengths.add(len(traj.steps))
    assert len(lengths) >= 10


def test_each_step_owns_its_logits(held, policies):
    # A step's logits are its own four floats, not a view into a tick's
    # batch that would keep the whole batch alive.
    outcome = evaluate(policies["pretrained"], held[:20], CFG)
    for traj in outcome.trajectories:
        for s in traj.steps:
            assert s.logits.base is None and s.logits.shape == (4,)


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


def test_lockstep_with_no_jobs_returns_nothing(policies):
    assert run_lockstep(policies["pretrained"], []) == []
