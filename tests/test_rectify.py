"""Anchor selection, corrective demos, and the weighted imitation loss."""
import numpy as np
import pytest

from budnav.errors import NotAFailure
from budnav.oracle import advance_progress
from budnav.policy import PolicyConfig, PolicyParams, init_params
from budnav.rectify import (
    RectConfig,
    bc_demo,
    decay_weights,
    find_anchor,
    rect_loss_and_grad,
    synthesize_demo,
)
from budnav.rollout import RolloutConfig, Steps, TriggerKind
from budnav.world import (
    Action,
    Episode,
    Pose,
    compile_instruction,
    expand_instruction,
    step,
)

from conftest import open_world, prefix_progress
from test_rollout import corridor_episode, run_script

F, L, R, S = Action.FORWARD, Action.TURN_LEFT, Action.TURN_RIGHT, Action.STOP


def replay(world, pose, actions):
    for a in actions:
        pose = step(world, pose, Action(a))
    return pose


def ordered_anchor_reference(probe, episode, visit_radius_m):
    """The anchor step by a rescan of the probe's visited positions: the
    steps taken before the first visit of the furthest reference waypoint
    reached in order, 0 if none was.  The rollout tracks the same step
    as it goes (Trajectory.anchor_step)."""
    j = arrival = -1
    for i, pose in enumerate(probe.poses()):
        reached = advance_progress(
            j, pose.position, episode.reference_waypoints, visit_radius_m,
            episode.world.cell_size,
        )
        if reached != j:
            j, arrival = reached, i
    return max(arrival, 0)


# ----------------------------------------------------------------- weights

def test_decay_weights_closed_form():
    w = decay_weights(4, RectConfig(decay_gamma=0.95))
    assert np.allclose(w, [1.0, 0.95, 0.95**2, 0.95**3])
    assert np.array_equal(decay_weights(3, RectConfig(decay_gamma=1.0)), np.ones(3))
    assert decay_weights(0, RectConfig(decay_gamma=0.5)).shape == (0,)
    scaled = decay_weights(4, RectConfig(decay_gamma=0.95, alpha=2.0))
    assert scaled.tobytes() == (2.0 * w).tobytes()


# ------------------------------------------------------------------ anchor

def test_anchor_requires_a_failure():
    ep = corridor_episode()
    probe = run_script(ep, [F] * 5 + [S])
    assert probe.success
    with pytest.raises(NotAFailure):
        find_anchor(probe)


def test_anchor_is_furthest_ordered_waypoint():
    ep = corridor_episode()  # reference visits (0,0)..(5,0)
    probe = run_script(ep, [F, F, S])  # premature stop at (2,0)
    assert probe.trigger[0] == TriggerKind.PREMATURE_STOP
    anchor_step = find_anchor(probe)
    anchor_pose = probe.poses()[anchor_step]
    assert anchor_step == 2
    assert anchor_pose == Pose(2, 0, 1)


def test_anchor_keeps_first_arrival_on_revisit():
    ep = corridor_episode()
    # Reaches (2,0), backtracks to (1,0), then stops: the anchor stays
    # at the first visit of (2,0), not the revisit of (1,0).
    probe = run_script(ep, [F, F, L, L, F, S], triggers=True)
    assert probe.trigger is not None
    anchor_step = find_anchor(probe)
    anchor_pose = probe.poses()[anchor_step]
    assert anchor_step == 2
    assert anchor_pose == Pose(2, 0, 1)


def test_anchor_without_any_visit_is_the_start():
    w = open_world(6, 6)
    start = Pose(0, 0, 1)
    # A reference path whose waypoints, (3,3) and (4,4), lie off the
    # probe's route; two actions long, so the step cap stays 50.
    ref = (Pose(3, 3, 1), Pose(4, 4, 1), Pose(4, 4, 1))
    ep = Episode(
        id=1, world=w, start=start, goal=(5, 5), reference_path=ref,
        instruction=compile_instruction([F, F, S]), goal_radius=0.5,
    )
    probe = run_script(ep, [F, S])
    assert probe.trigger is not None
    anchor_step = find_anchor(probe)
    anchor_pose = probe.poses()[anchor_step]
    assert anchor_step == 0
    assert anchor_pose == start
    # (1,0) is 3.61 m from (3,3): a visit once the rollout's radius
    # covers it.
    wide = run_script(ep, [F, S], RolloutConfig(visit_radius_m=3.7))
    assert wide.trigger is not None
    assert find_anchor(wide) == 1
    assert wide.poses()[1] == Pose(1, 0, 1)


def test_anchor_order_respecting_vs_raw_furthest():
    # Waypoints deliberately out of walking order: the probe touches the
    # last waypoint (2,0) without ever nearing (4,0), so the anchor stays
    # at the start instead of jumping ahead to the furthest raw visit.
    w = open_world(6, 6)
    start = Pose(0, 0, 1)
    ref = (start, Pose(4, 0, 1), Pose(2, 0, 3))  # two actions: the step cap stays 50
    ep = Episode(
        id=2, world=w, start=start, goal=(5, 5), reference_path=ref,
        instruction=compile_instruction([S]), goal_radius=0.5,
    )
    probe = run_script(ep, [F, F, S])
    assert probe.trigger is not None
    ordered_step = find_anchor(probe)
    ordered_pose = probe.poses()[ordered_step]
    assert ordered_step == 0
    assert ordered_pose == start


def test_anchor_forced_stop_is_current_pose():
    # Loiter inside the corridor until the grace budget runs out.
    ep = corridor_episode()
    probe = run_script(ep, [F] * 5 + [L, R] * 20)
    assert probe.trigger[0] == TriggerKind.FORCED_STOP
    anchor_step = find_anchor(probe)
    anchor_pose = probe.poses()[anchor_step]
    assert anchor_step == len(probe.steps)
    assert anchor_pose == probe.final_pose


# ------------------------------------------------------------------- demos

def test_demo_prefix_replays_to_anchor():
    ep = corridor_episode()
    probe = run_script(ep, [F, F, S])
    demo = synthesize_demo(probe, ep)
    assert len(demo.retained_prefix) == demo.anchor_step
    pose = replay(ep.world, ep.start, demo.retained_prefix.actions.tolist())
    assert pose == demo.anchor_pose


def test_demo_completion_reaches_goal_zone():
    ep = corridor_episode()
    probe = run_script(ep, [F, F, S])
    demo = synthesize_demo(probe, ep)
    assert demo.oracle_actions == (F, F, F, S)
    assert demo.oracle_actions[-1] == Action.STOP
    end = replay(ep.world, demo.anchor_pose, demo.oracle_actions)
    assert np.hypot(end.x - ep.goal[0], end.y - ep.goal[1]) <= ep.goal_radius
    assert np.allclose(demo.weights, [1.0, 0.95, 0.95**2, 0.95**3])


def test_demo_forced_stop_completion_is_stop():
    ep = corridor_episode()
    probe = run_script(ep, [F] * 5 + [L, R] * 20)
    assert probe.trigger[0] == TriggerKind.FORCED_STOP
    demo = synthesize_demo(probe, ep)
    assert demo.oracle_actions == (Action.STOP,)
    assert demo.retained_prefix.states.tobytes() == probe.steps.states.tobytes()
    assert demo.retained_prefix.actions.tobytes() == probe.steps.actions.tobytes()
    assert demo.retained_prefix.logits.tobytes() == probe.steps.logits.tobytes()


def test_demo_progress_never_regresses():
    ep = corridor_episode()
    probe = run_script(ep, [F, F, L, L, F, S])  # backtracks before stopping
    demo = synthesize_demo(probe, ep)
    pose = ep.start
    positions = [pose.position]
    for action in demo.retained_prefix.actions.tolist():
        pose = step(ep.world, pose, Action(action))
        positions.append(pose.position)
    for a in demo.oracle_actions:
        pose = step(ep.world, pose, Action(a))
        positions.append(pose.position)
    progress = prefix_progress(positions, ep.reference_waypoints, 0.5, ep.world.cell_size)
    assert progress == sorted(progress)


def test_bc_demo_is_the_full_reference_plan():
    ep = corridor_episode()
    demo = bc_demo(ep)
    assert demo.anchor_step == 0
    assert demo.anchor_pose == ep.start
    assert len(demo.retained_prefix) == 0 and demo.retained_prefix.width == ep.world.width
    assert demo.oracle_actions == tuple(expand_instruction(ep.instruction, ep.max_run))
    assert np.array_equal(demo.weights, np.ones(len(demo.oracle_actions)))
    end = replay(ep.world, ep.start, demo.oracle_actions)
    assert end == ep.reference_path[-1]


def test_demo_poses_replay_the_oracle_actions_on_the_desk_pool():
    # Every demo carries the pose before each oracle action, taken from
    # its plan; rect_loss_and_grad observes at those poses instead of
    # re-stepping the world, so they must be the step replay exactly.
    import dataclasses
    from pathlib import Path

    from budnav.config import load_config
    from budnav.trainer import route_episode, training_episode

    desk = Path(__file__).resolve().parent.parent / "configs" / "desk_full.cfg"
    cfg = load_config(desk)[0]
    eager = init_params(cfg.policy, 0)  # mostly stops at once
    wanderer = init_params(cfg.policy, 0)
    wanderer.b2[3] = -10.0  # rarely stops: goes off track or hits the step cap
    demos = {"bc": [], "rect": [], "dagger": []}
    for i in range(25):
        episode = training_episode(cfg, "train", i)
        for params in (eager, wanderer):
            for variant in ("bc", "full", "dagger"):
                outcome = route_episode(params, episode, dataclasses.replace(cfg, variant=variant))
                if outcome.demo is not None:
                    error_state = variant == "dagger" and outcome.report.route == "rect"
                    kind = "dagger" if error_state else outcome.report.route
                    demos[kind].append((outcome.demo, episode))
    for kind, made in demos.items():
        assert len(made) >= 10, kind
        if kind != "bc":  # some completions start mid-episode
            assert any(len(d.poses) > 1 and d.anchor_step > 0 for d, _ in made), kind
        for demo, episode in made:
            poses = [demo.anchor_pose]
            for a in demo.oracle_actions[:-1]:
                poses.append(step(episode.world, poses[-1], Action(a)))
            assert demo.poses == tuple(poses), (kind, episode.id)


# -------------------------------------------------------------------- loss

def test_rect_loss_scales_with_alpha_and_truncates_with_gamma_zero(tiny_policy):
    params = tiny_policy
    ep = corridor_episode()
    probe = run_script(ep, [F, F, S])

    demo1 = synthesize_demo(probe, ep, RectConfig(alpha=1.0))
    demo2 = synthesize_demo(probe, ep, RectConfig(alpha=2.0))
    loss1, grad1 = rect_loss_and_grad(params, demo1, ep)
    loss2, grad2 = rect_loss_and_grad(params, demo2, ep)
    assert loss2 == pytest.approx(2.0 * loss1)
    assert np.allclose(grad2, 2.0 * grad1)

    demo0 = synthesize_demo(probe, ep, RectConfig(decay_gamma=0.0))
    loss0, _ = rect_loss_and_grad(params, demo0, ep)
    # gamma = 0 keeps only the first completion token (0^0 = 1).
    assert loss0 < loss1
    assert loss0 > 0.0


def test_rect_loss_decomposes_per_token(tiny_policy):
    # With all weights equal the loss is the plain sum of per-token
    # cross-entropies, which we can accumulate by scoring one-token
    # demos whose prefix grows by the executed action each time.
    params = tiny_policy
    ep = corridor_episode()
    probe = run_script(ep, [F, F, S])
    demo = synthesize_demo(probe, ep, RectConfig(decay_gamma=1.0))
    total, _ = rect_loss_and_grad(params, demo, ep)

    from budnav.policy import NO_ACTION, FeatureRows, forward, initial_features, softmax
    from budnav.world import observe

    pcfg = params.cfg
    track = FeatureRows(params, initial_features(params, ep.instruction))
    prev_action = NO_ACTION
    prefix = demo.retained_prefix
    for pose, action in zip(prefix.poses(), prefix.actions.tolist()):
        track.push(observe(ep.world, pose, pcfg.obs_k).ravel(), prev_action)
        prev_action = action
    pose = demo.anchor_pose
    manual = 0.0
    for action in demo.oracle_actions:
        obs = observe(ep.world, pose, pcfg.obs_k).ravel()
        feats = track.push(obs, prev_action)
        probs = softmax(forward(params, feats) / pcfg.temperature)
        manual += -np.log(probs[action])
        prev_action = int(action)
        pose = step(ep.world, pose, Action(action))
    assert total == pytest.approx(manual, rel=1e-12)


def test_rect_gradient_matches_finite_differences():
    cfg = PolicyConfig(d_e=4, d_o=4, d_a=3, d_h=8, history_k=3)
    params = init_params(cfg, 5)
    ep = corridor_episode()
    probe = run_script(ep, [F, F, S])
    demo = synthesize_demo(probe, ep)
    theta0 = params.flatten()
    _, grad = rect_loss_and_grad(params, demo, ep)

    def f(theta):
        l, _ = rect_loss_and_grad(PolicyParams(params.cfg, theta), demo, ep)
        return l

    rng = np.random.default_rng(7)
    for i in rng.choice(params.count, size=60, replace=False):
        up, down = theta0.copy(), theta0.copy()
        up[i] += 1e-5
        down[i] -= 1e-5
        fd = (f(up) - f(down)) / 2e-5
        if abs(fd) > 1e-8:
            assert abs(grad[i] - fd) / max(abs(fd), 1e-8) < 1e-4, i


def test_rect_prefix_conditioning_changes_the_loss(tiny_policy):
    # Dropping the retained prefix changes the history fed to the policy,
    # so the same completion scores differently.
    import dataclasses

    params = tiny_policy
    ep = corridor_episode()
    probe = run_script(ep, [F, F, S])
    demo = synthesize_demo(probe, ep)
    assert len(demo.retained_prefix)
    stripped = dataclasses.replace(demo, retained_prefix=Steps(ep.world.width))
    loss_with, _ = rect_loss_and_grad(params, demo, ep)
    loss_without, _ = rect_loss_and_grad(params, stripped, ep)
    assert loss_with != pytest.approx(loss_without, abs=1e-9)
