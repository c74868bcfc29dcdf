"""Corrective supervision for failed probes: rollback, then re-plan.

When the greedy probe trips a failure trigger, training does not imitate
from the failure state.  Instead the trajectory is rolled back to its
anchor: the furthest reference waypoint visited in order, at the step it
was first reached.  The steps up to the anchor are kept verbatim as
conditioning context, the oracle plans a fresh completion from the
anchor pose, and the completion is taught with exponentially decaying
weights w_t = gamma^t (w_0 = 1), concentrating credit right after the
rollback point:

    loss = -alpha * sum_t  w_t * log pi(a*_t | prefix, a*_<t)

A ForcedStop probe (the step cap ended it) anchors at its final pose with
its whole history retained, wherever that pose is.  Inside the goal zone
the completion is the single STOP action.  Outside it the completion is a
fresh plan from the failure state, not from a valid historical one, and
it need not pass the reference waypoints the probe left unvisited.  A
desk_full seed-0 run has 36 such failures among its 4,428 failed
probes.  ROADMAP.md item 2 (rectify step-cap failures from their anchor)
tracks the fix.

Every other completion starts at the anchor waypoint and is the
planner's shortest route from there into the goal zone; nothing forces
it to visit the remaining reference waypoints in order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAFailure
from .oracle import advance_progress, plan
from .policy import (
    NO_ACTION,
    GradAccumulator,
    PolicyParams,
    featurize,
    forward_cached,
    softmax,
)
from .rollout import RolloutConfig, Trajectory, TriggerKind
from .world import Episode, Pose, expand_instruction, observe_many
# Unused here: perfbench's tracer patches rectify.observe when it installs.
from .world import observe  # noqa: F401


@dataclass(frozen=True)
class RectConfig:
    decay_gamma: float = 0.95
    alpha: float = 1.0


@dataclass(frozen=True)
class RectificationDemo:
    """Retained probe prefix plus an oracle completion from the anchor.

    anchor_step counts the retained steps: replaying that many probe
    actions from the start lands exactly on anchor_pose.  poses[i] is
    the pose before oracle_actions[i] (poses[0] = anchor_pose), taken
    from the plan that produced the actions.
    """

    episode_id: int
    anchor_step: int
    anchor_pose: Pose
    retained_prefix: tuple
    oracle_actions: tuple
    weights: np.ndarray
    poses: tuple


def decay_weights(n: int, gamma: float) -> np.ndarray:
    return np.power(float(gamma), np.arange(n, dtype=np.float64))


def _ordered_anchor_index(positions, waypoints, visit_radius, cell_size) -> int:
    """Arrival index of the furthest order-respecting waypoint, -1 if none."""
    j = -1
    arrival = -1
    for i, pos in enumerate(positions):
        reached = advance_progress(j, pos, waypoints, visit_radius, cell_size)
        if reached != j:
            j, arrival = reached, i
    return arrival


def find_anchor(
    probe: Trajectory, episode: Episode, visit_radius_m: float = RolloutConfig.visit_radius_m
):
    """(anchor_step, anchor_pose) for a failed probe.

    A waypoint counts as visited within visit_radius_m, the radius the
    probe's rollout tracked progress with.  Revisited waypoints anchor
    at their first (order-respecting) visit; a probe that visited
    nothing anchors at the start.  ForcedStop anchors at the final pose
    with every step retained, also when the step cap fired outside the
    goal zone (see the module docstring and ROADMAP.md item 2).
    """
    if probe.trigger is None:
        raise NotAFailure(f"probe for episode {probe.episode_id} has no trigger")
    if probe.trigger[0] == TriggerKind.FORCED_STOP:
        return len(probe.steps), probe.final_pose
    arrival = _ordered_anchor_index(
        probe.positions(), episode.reference_waypoints, visit_radius_m, episode.world.cell_size
    )
    if arrival < 0:
        return 0, episode.start
    return arrival, probe.poses()[arrival]


def synthesize_demo(
    probe: Trajectory,
    episode: Episode,
    cfg: RectConfig = RectConfig(),
    visit_radius_m: float = RolloutConfig.visit_radius_m,
) -> RectificationDemo:
    """Build the corrective demo: retained prefix + oracle completion."""
    anchor_step, anchor_pose = find_anchor(probe, episode, visit_radius_m)
    completion = plan(episode.world, anchor_pose, episode.goal, episode.goal_radius)
    return RectificationDemo(
        episode_id=episode.id,
        anchor_step=anchor_step,
        anchor_pose=anchor_pose,
        retained_prefix=tuple(probe.steps[:anchor_step]),
        oracle_actions=tuple(completion.actions),
        weights=decay_weights(len(completion.actions), cfg.decay_gamma),
        poses=completion.poses[:-1],
    )


def bc_demo(episode: Episode) -> RectificationDemo:
    """Teacher-forcing demo of the full reference plan from the start,
    every action weighted 1."""
    actions = tuple(expand_instruction(episode.instruction, episode.max_run))
    return RectificationDemo(
        episode_id=episode.id,
        anchor_step=0,
        anchor_pose=episode.start,
        retained_prefix=(),
        oracle_actions=actions,
        weights=np.ones(len(actions)),
        poses=episode.reference_path[:-1],
    )


def rect_loss_and_grad(
    params: PolicyParams,
    demo: RectificationDemo,
    episode: Episode,
    cfg: RectConfig = RectConfig(),
):
    """Weighted cross-entropy of the completion, conditioned on the prefix.

    Every completion token is scored against the real observation
    stream: the prefix's recorded observations and the completion's,
    gathered at the demo's poses, are featurized as one sequence and its
    completion rows scored in one forward and one backward pass.
    """
    pcfg = params.cfg
    kept = len(demo.retained_prefix)
    patches = observe_many(episode.world, demo.poses, pcfg.obs_k)
    if kept:
        patches = np.concatenate([[s.observation for s in demo.retained_prefix], patches])
    actions = [s.action for s in demo.retained_prefix] + list(demo.oracle_actions)
    steps = featurize(params, episode.instruction, patches, [NO_ACTION, *actions][:-1], kept)
    logits, cache = forward_cached(params, steps)
    temp = pcfg.temperature
    probs = softmax(logits / temp)
    w = cfg.alpha * demo.weights
    picked = np.arange(len(w)), actions[kept:]
    loss = -float(np.dot(w, np.log(probs[picked])))
    dlogits = w[:, None] * probs / temp
    dlogits[picked] -= w / temp
    acc = GradAccumulator(params)
    acc.add_step(cache, dlogits)
    return loss, acc.flat()
