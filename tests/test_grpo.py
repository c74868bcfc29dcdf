"""Group rewards, advantage normalization, and the on-policy GRPO loss:
advantage-weighted log-likelihood with a KL penalty to the reference."""
import dataclasses
import logging

import budnav.grpo

import numpy as np
import pytest

from budnav.errors import GroupTooSmall, SnapshotMismatch
from budnav.grpo import (
    GrpoConfig,
    RewardConfig,
    group_advantages,
    grpo_loss_and_grad,
    make_group,
    reward,
)
from budnav.metrics import spl
from budnav.oracle import geodesic_field
from budnav.policy import (
    PolicyConfig,
    PolicyParams,
    forward,
    init_params,
    kl_and_log_ratio,
    snapshot,
    softmax,
)
from budnav.rollout import rollout_stream, run_sampled
from budnav.world import (
    Action,
    Episode,
    GridWorld,
    Pose,
    compile_instruction,
)

from conftest import replay
from test_policy import logprob_and_grad
from test_rollout import corridor_episode, run_script

F, L, R, S = Action.FORWARD, Action.TURN_LEFT, Action.TURN_RIGHT, Action.STOP


# ------------------------------------------------------------------ reward

def test_spl_closed_forms():
    ep = corridor_episode()  # start (0,0), goal (8,0), zone entered at (5,0)
    direct = run_script(ep, [F] * 5 + [S])
    assert direct.success
    # Geodesic start-to-goal is 8 m; a 5 m successful path caps at 1.
    assert spl(direct, ep) == 1.0

    detour = run_script(ep, [F] * 7 + [L, L] + [F] * 2 + [S], triggers=False)
    assert detour.success and detour.path_length == 9.0
    assert spl(detour, ep) == pytest.approx(8.0 / 9.0)

    failed = run_script(ep, [S])
    assert spl(failed, ep) == 0.0


def test_spl_immediate_stop_inside_zone():
    ep = corridor_episode(goal=(2, 0))  # start already 2 m from the goal
    traj = run_script(ep, [S])
    assert traj.success and traj.path_length == 0.0
    assert spl(traj, ep) == 1.0


def test_reward_closed_forms():
    ep = corridor_episode()
    cfg = RewardConfig()
    success = run_script(ep, [F] * 5 + [S])
    # 2.0 + 1.0 * SPL - 0.1 * d_remain, with 3 m left at (5,0).
    assert reward(success, ep, cfg) == pytest.approx(2.0 + 1.0 - 0.1 * 3.0)

    failure = run_script(ep, [F, S])
    assert reward(failure, ep, cfg) == pytest.approx(-0.1 * 7.0)


def test_reward_weights_are_configurable():
    ep = corridor_episode()
    traj = run_script(ep, [F] * 5 + [S])
    cfg = RewardConfig(c_succ=5.0, spl_weight=2.0, c_dist=0.0)
    assert reward(traj, ep, cfg) == pytest.approx(5.0 + 2.0 * 1.0)


def test_reward_straight_line_fallback_warns(caplog):
    # Disconnected world built by hand: the free cells (0,0) and (2,0)
    # cannot reach each other, so the field is infinite at the far cell.
    w = GridWorld(3, 1, frozenset({(1, 0)}))
    start = Pose(2, 0, 3)
    ep = Episode(
        id=9, world=w, start=start, goal=(0, 0),
        reference_path=(start, start), reference_waypoints=((2, 0),),
        instruction=compile_instruction([S]), goal_radius=0.5,
    )
    from budnav.rollout import Trajectory

    traj = Trajectory(
        episode_id=9, mode="greedy", rng_stream_id=0, steps=(),
        final_pose=start, stopped=True, success=False, trigger=None,
        path_length=0.0,
    )
    with caplog.at_level(logging.WARNING):
        r = reward(traj, ep)
    assert r == pytest.approx(-0.1 * 2.0)
    assert any("straight-line" in rec.message for rec in caplog.records)


# -------------------------------------------------------------- advantages

def test_advantages_standardize_exactly():
    rng = np.random.default_rng(0)
    cfg = GrpoConfig(adv_epsilon=0.0)
    for _ in range(200):
        rewards = rng.normal(size=rng.integers(2, 9))
        if rewards.std() == 0.0:
            continue
        adv = group_advantages(rewards, cfg)
        assert abs(adv.mean()) < 1e-9
        assert abs(adv.std() - 1.0) < 1e-6


def test_advantages_epsilon_guard_shrinks_std():
    rewards = np.array([1.0, 2.0, 3.0, 4.0])
    adv = group_advantages(rewards, GrpoConfig(adv_epsilon=1e-8))
    assert abs(adv.std() - 1.0) < 1e-6  # guard is negligible at this scale


def test_advantages_zero_variance_is_all_zero():
    adv = group_advantages(np.array([1.5, 1.5, 1.5, 1.5]), GrpoConfig())
    assert np.array_equal(adv, np.zeros(4))


def test_advantages_group_too_small():
    with pytest.raises(GroupTooSmall):
        group_advantages(np.array([1.0]), GrpoConfig())


# ------------------------------------------------------------------ groups

def sampled_group(episode, params, n=4, seed=0):
    snap = snapshot(params, "old")
    trajs = [
        run_sampled(snap, episode, params.cfg.temperature, rollout_stream(seed, episode.id, i))
        for i in range(n)
    ]
    return make_group(trajs, episode, snap, RewardConfig(), GrpoConfig()), snap


def test_make_group_wires_rewards_and_advantages(sample_episode, default_policy):
    group, _ = sampled_group(sample_episode, default_policy)
    field = geodesic_field(sample_episode.world, sample_episode.goal)
    want = np.array([reward(t, sample_episode, RewardConfig(), field) for t in group.trajectories])
    assert np.array_equal(group.rewards, want)
    if want.std() > 0:
        assert abs(group.advantages.mean()) < 1e-9


# -------------------------------------------------------------------- loss

def test_grpo_zero_when_nothing_moves(sample_episode, default_policy):
    # Same params as behaviour and reference, all advantages zero:
    # the surrogate is constant and the KL is at its minimum, so both
    # the loss and the gradient vanish.
    snap = snapshot(default_policy, "old")
    trajs = [
        run_sampled(snap, sample_episode, 0.4, rollout_stream(1, sample_episode.id, i))
        for i in range(4)
    ]
    group, _ = sampled_group(sample_episode, default_policy, seed=1)
    group = dataclasses.replace(group, advantages=np.zeros(len(group.trajectories)))
    loss, grad = grpo_loss_and_grad(default_policy, group, snap, GrpoConfig())
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(grad, 0.0, atol=1e-12)


def test_grpo_kl_term_is_the_policy_helper(sample_episode, default_policy, monkeypatch):
    # With zero advantages only the KL penalty is left, so the loss is
    # kl_beta times the step-averaged KL that policy.kl_and_log_ratio
    # reports, and the loss calls that helper once per trajectory, on
    # all of its steps.
    group, snap = sampled_group(sample_episode, default_policy)
    group = dataclasses.replace(group, advantages=np.zeros(len(group.trajectories)))
    ref = snapshot(init_params(default_policy.cfg, 7), "ref")
    calls = []

    def counted(p, q):
        calls.append(len(p))
        return kl_and_log_ratio(p, q)

    monkeypatch.setattr(budnav.grpo, "kl_and_log_ratio", counted)
    cfg = GrpoConfig(kl_beta=0.5)
    loss, _ = grpo_loss_and_grad(default_policy, group, ref, cfg)
    want = 0.0
    G = len(group.trajectories)
    for traj in group.trajectories:
        live = replay(default_policy, group.instruction, traj.steps)
        refs = replay(ref.params, group.instruction, traj.steps)
        for (s, live_steps), (_, ref_steps) in zip(live, refs):
            p = softmax(forward(default_policy, live_steps.rows[0]) / 0.4)
            q = softmax(forward(ref.params, ref_steps.rows[0]) / 0.4)
            want += cfg.kl_beta * kl_and_log_ratio(p, q)[0] / (G * len(traj.steps))
    assert calls == [len(t.steps) for t in group.trajectories]
    assert want > 0.0
    assert loss == pytest.approx(want, rel=1e-12)


def test_grpo_matches_policy_gradient_at_origin(sample_episode, default_policy):
    # At params == snapshot (KL = 0 against itself) the loss gradient
    # reduces to the vanilla advantage-weighted score function, which
    # logprob_and_grad computes independently.
    group, snap = sampled_group(sample_episode, default_policy)
    loss, grad = grpo_loss_and_grad(default_policy, group, snap, GrpoConfig())
    want = np.zeros_like(grad)
    G = len(group.trajectories)
    for adv, traj in zip(group.advantages, group.trajectories):
        for s, steps in replay(default_policy, group.instruction, traj.steps):
            _, g = logprob_and_grad(default_policy, steps, s.action, 0.4)
            want += adv * g / (G * len(traj.steps))
    assert np.allclose(grad, -want, atol=1e-10)


def test_grpo_gradient_matches_finite_differences(sample_episode):
    cfg = PolicyConfig(d_e=4, d_o=4, d_a=3, d_h=8, history_k=3)
    old = init_params(cfg, 0)
    ref = init_params(cfg, 1)
    group, snap_old = sampled_group(sample_episode, old)
    snap_ref = snapshot(ref, "ref")
    rng = np.random.default_rng(2)
    # Evaluate away from the snapshot so the advantage and KL terms both
    # move with the live params.
    theta0 = old.flatten() + 0.02 * rng.standard_normal(old.count)
    live = PolicyParams(old.cfg, theta0)
    gcfg = GrpoConfig()
    loss0, grad = grpo_loss_and_grad(live, group, snap_ref, gcfg)

    def f(theta):
        l, _ = grpo_loss_and_grad(PolicyParams(old.cfg, theta), group, snap_ref, gcfg)
        return l

    idx = rng.choice(old.count, size=60, replace=False)
    for i in idx:
        up, down = theta0.copy(), theta0.copy()
        up[i] += 1e-5
        down[i] -= 1e-5
        fd = (f(up) - f(down)) / 2e-5
        if abs(fd) > 1e-8:
            assert abs(grad[i] - fd) / max(abs(fd), 1e-8) < 1e-4, i


def test_grpo_detects_stale_snapshot(sample_episode, default_policy):
    group, snap = sampled_group(sample_episode, default_policy)
    traj0 = group.trajectories[0]
    doctored_step = dataclasses.replace(traj0.steps[0], logits=traj0.steps[0].logits + 1.0)
    doctored = dataclasses.replace(traj0, steps=(doctored_step,) + traj0.steps[1:])
    bad_group = dataclasses.replace(group, trajectories=(doctored,) + group.trajectories[1:])
    with pytest.raises(SnapshotMismatch):
        grpo_loss_and_grad(default_policy, bad_group, snap, GrpoConfig())


def test_grpo_stale_snapshot_names_the_first_drifting_step(sample_episode, default_policy):
    # Logits perturbed at two steps in the middle of one trajectory: the
    # error names the earlier one and its drift, whatever comes later.
    params = PolicyParams(default_policy.cfg, default_policy.theta.copy())
    params.b2[3] = -10.0  # STOP: the walks run long
    snap = snapshot(params, "old")
    trajs = [
        run_sampled(snap, sample_episode, 1.0, rollout_stream(0, sample_episode.id, j), triggers=False)
        for j in range(4)
    ]
    group = make_group(trajs, sample_episode, snap, RewardConfig(), GrpoConfig())
    i, traj = max(enumerate(group.trajectories), key=lambda it: len(it[1].steps))
    assert len(traj.steps) > 8
    steps = list(traj.steps)
    for t, bump in ((5, 1e-6), (7, 1.0)):
        logits = steps[t].logits.copy()
        logits[2] += bump
        steps[t] = dataclasses.replace(steps[t], logits=logits)
    doctored = dataclasses.replace(traj, steps=tuple(steps))
    trajs = group.trajectories[:i] + (doctored,) + group.trajectories[i + 1 :]
    message = f"episode {group.episode_id} step 5: recorded logits drift 1e-06$"
    with pytest.raises(SnapshotMismatch, match=message):
        grpo_loss_and_grad(params, dataclasses.replace(group, trajectories=trajs), snap, GrpoConfig())
    # Below SNAPSHOT_TOL the same group is accepted.
    steps[5] = dataclasses.replace(steps[5], logits=traj.steps[5].logits + 1e-10)
    steps[7] = traj.steps[7]
    doctored = dataclasses.replace(traj, steps=tuple(steps))
    trajs = group.trajectories[:i] + (doctored,) + group.trajectories[i + 1 :]
    grpo_loss_and_grad(params, dataclasses.replace(group, trajectories=trajs), snap, GrpoConfig())


def test_grpo_group_too_small(sample_episode, default_policy):
    group, snap = sampled_group(sample_episode, default_policy)
    lone = dataclasses.replace(
        group, trajectories=group.trajectories[:1], rewards=group.rewards[:1],
        advantages=group.advantages[:1],
    )
    with pytest.raises(GroupTooSmall):
        grpo_loss_and_grad(default_policy, lone, snap, GrpoConfig())
