"""Corrective supervision for failed probes: rollback, then re-plan.

When the greedy probe trips a failure trigger, training does not imitate
from the failure state.  Instead the trajectory is rolled back to its
anchor: the furthest reference waypoint visited in order, at the step it
was first reached, which the rollout records (Trajectory.anchor_step).
The steps up to the anchor are kept verbatim as conditioning context,
the oracle plans a fresh completion from the anchor pose, and the
completion is taught with the decaying weights each demo carries,
w_t = alpha * gamma^t, concentrating credit right after the rollback:

    loss = -sum_t  w_t * log pi(a*_t | prefix, a*_<t)

A ForcedStop probe (the step cap ended it) anchors at its final pose with
its whole history retained, wherever that pose is.  Inside the goal zone
the completion is the single STOP action.  Outside it the completion is a
fresh plan from the failure state, not from a valid historical one, and
it need not pass the reference waypoints the probe left unvisited.  A
desk_full seed-0 run has 36 such failures among its 4,428 failed
probes.  The ROADMAP.md item "rectify step-cap failures from their
anchor" tracks the fix.

Every other completion starts at the anchor waypoint and is the
planner's shortest route from there into the goal zone; nothing forces
it to visit the remaining reference waypoints in order.

synthesize_demo is the one demo builder for failed probes.  Its anchor
is the step count it keeps, and the completion starts at the pose those
steps reach.  The dagger variant passes the error state, len(steps): the
whole erroneous history is kept and the completion starts where the
probe failed.  That anchor is all that tells the two apart.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAFailure
from .oracle import plan
from .policy import (
    NO_ACTION,
    GradAccumulator,
    PolicyParams,
    featurize,
    forward_cached,
    softmax,
)
from .rollout import Steps, Trajectory, TriggerKind
from .world import Episode, Pose, expand_instruction, observe_states, pose_state
# Unused here: perfbench's tracer patches rectify.observe when it installs.
from .world import observe  # noqa: F401


@dataclass(frozen=True)
class RectConfig:
    decay_gamma: float = 0.95
    alpha: float = 1.0


@dataclass(frozen=True)
class RectificationDemo:
    """Retained probe prefix plus an oracle completion from the anchor.

    retained_prefix is the probe's Steps cut at the anchor (no steps for
    a teacher-forcing demo); anchor_step counts them: replaying that many
    probe actions from the start lands exactly on anchor_pose.  poses[i]
    is the pose before oracle_actions[i] (poses[0] = anchor_pose), taken
    from the plan that produced the actions.
    """

    retained_prefix: Steps
    oracle_actions: tuple
    weights: np.ndarray
    poses: tuple

    @property
    def anchor_step(self) -> int:
        return len(self.retained_prefix)

    @property
    def anchor_pose(self) -> Pose:
        return self.poses[0]


def decay_weights(n: int, cfg: RectConfig) -> np.ndarray:
    """alpha * gamma^t for t = 0 .. n-1."""
    return cfg.alpha * np.power(float(cfg.decay_gamma), np.arange(n, dtype=np.float64))


def find_anchor(probe: Trajectory) -> int:
    """The anchor step of a failed probe: its rollout's anchor_step.
    ForcedStop keeps every step, also when the step cap fired outside
    the goal zone (see the module docstring and the ROADMAP.md item
    "rectify step-cap failures from their anchor").
    """
    if probe.trigger is None:
        raise NotAFailure(f"probe for episode {probe.episode_id} has no trigger")
    if probe.trigger[0] == TriggerKind.FORCED_STOP:
        return len(probe.steps)
    return probe.anchor_step


def synthesize_demo(
    probe: Trajectory, episode: Episode, cfg: RectConfig = RectConfig(), anchor_step=None
) -> RectificationDemo:
    """Build the corrective demo: the probe's first anchor_step steps
    (find_anchor(probe) by default) kept as the prefix, and the oracle's
    completion from the pose they reach, probe.poses()[anchor_step]."""
    anchor_step = find_anchor(probe) if anchor_step is None else anchor_step
    anchor_pose = probe.poses()[anchor_step]
    completion = plan(episode.world, anchor_pose, episode.goal, episode.goal_radius)
    return RectificationDemo(
        retained_prefix=probe.steps.prefix(anchor_step),
        oracle_actions=tuple(completion.actions),
        weights=decay_weights(len(completion.actions), cfg),
        poses=completion.poses[:-1],
    )


def bc_demo(episode: Episode) -> RectificationDemo:
    """Teacher-forcing demo of the full reference plan from the start,
    every action weighted 1."""
    actions = tuple(expand_instruction(episode.instruction, episode.max_run))
    return RectificationDemo(
        retained_prefix=Steps(episode.world.width),
        oracle_actions=actions,
        weights=np.ones(len(actions)),
        poses=episode.reference_path[:-1],
    )


def rect_loss_and_grad(params: PolicyParams, demo: RectificationDemo, episode: Episode):
    """Cross-entropy of the completion under demo.weights, conditioned on
    the prefix.

    Every completion token is scored against the real observation
    stream: the observations at the prefix's states and at the demo's
    poses are gathered with one index, featurized as one sequence and
    the completion rows scored in one forward and one backward pass.
    """
    pcfg = params.cfg
    prefix, width = demo.retained_prefix, episode.world.width
    kept = len(prefix)
    states = prefix.states.tolist() + [pose_state(pose, width) for pose in demo.poses]
    patches = observe_states(episode.world, states, pcfg.obs_k)
    actions = prefix.actions.tolist() + list(demo.oracle_actions)
    steps = featurize(params, episode.instruction, patches, [NO_ACTION, *actions][:-1], kept)
    logits, cache = forward_cached(params, steps)
    temp = pcfg.temperature
    probs = softmax(logits / temp)
    w = demo.weights
    picked = np.arange(len(w)), actions[kept:]
    loss = -float(np.dot(w, np.log(probs[picked])))
    dlogits = w[:, None] * probs / temp
    dlogits[picked] -= w / temp
    acc = GradAccumulator(params)
    acc.add_step(cache, dlogits)
    return loss, acc.flat()
