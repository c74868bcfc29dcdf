"""Group-relative policy optimisation over rollout groups.

A group holds G rollouts of one episode: the greedy probe plus G-1
stochastic rollouts, all produced under the same behaviour snapshot.
Each rollout earns a scalar reward

    R = 1[success] * (c_succ + spl_weight * SPL) - c_dist * d_remain

where SPL and d_remain are metrics.spl and metrics.navigation_error:
d_remain is the geodesic distance (meters) from the final position to
the goal (straight-line, with a logged warning here, when the final cell
is cut off from the goal).  Advantages are the group-wise
standardised rewards; a zero-variance group yields all-zero advantages
and leaves only the KL term.

Training is strictly on-policy: each group is rolled out under a
snapshot of the current params and feeds exactly one optimizer step
(one inner iteration, mu = 1), so the behaviour policy is the live one.
The PPO probability ratio is then identically 1 and its clip never
binds, and the loss is the advantage-weighted log-likelihood with a
per-step KL penalty against a fixed reference policy:

    J = mean_i (1/T_i) * sum_t [ A_i * log pi_theta(a_t)
                                 - beta * KL(pi_theta || pi_ref) ]
    loss = -J

Gradients are fully analytic.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import GroupTooSmall, SnapshotMismatch
from .metrics import navigation_error, spl
from .oracle import GeodesicField, geodesic_field
from .policy import (
    NO_ACTION,
    GradAccumulator,
    PolicyParams,
    PolicySnapshot,
    featurize,
    forward,
    forward_cached,
    kl_and_log_ratio,
    softmax,
)
from .rollout import Trajectory
from .world import Episode

log = logging.getLogger(__name__)

SNAPSHOT_TOL = 1e-9


@dataclass(frozen=True)
class RewardConfig:
    c_succ: float = 2.0
    spl_weight: float = 1.0
    c_dist: float = 0.1


@dataclass(frozen=True)
class GrpoConfig:
    group_size: int = 4
    kl_beta: float = 0.01
    adv_epsilon: float = 1e-8


@dataclass(frozen=True)
class RolloutGroup:
    episode_id: int
    instruction: tuple
    trajectories: tuple
    rewards: np.ndarray
    advantages: np.ndarray
    snapshot_old: PolicySnapshot


def reward(
    traj: Trajectory,
    episode: Episode,
    cfg: RewardConfig = RewardConfig(),
    field: GeodesicField | None = None,
) -> float:
    if field is None:
        field = geodesic_field(episode.world, episode.goal)
    if math.isinf(field.at(*traj.final_pose.position)):
        log.warning(
            "episode %s: final cell %s cut off from goal, using straight-line distance",
            episode.id, traj.final_pose.position,
        )
    base = cfg.c_succ + cfg.spl_weight * spl(traj, episode, field) if traj.success else 0.0
    return base - cfg.c_dist * navigation_error(traj, episode, field)


def group_advantages(rewards: np.ndarray, cfg: GrpoConfig = GrpoConfig()) -> np.ndarray:
    """Standardise rewards by the group's population std; zero spread maps to zeros."""
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.size < 2:
        raise GroupTooSmall(f"group of {rewards.size} rollouts cannot be standardised")
    return (rewards - rewards.mean()) / (rewards.std() + cfg.adv_epsilon)


def make_group(
    trajectories,
    episode: Episode,
    snapshot_old: PolicySnapshot,
    reward_cfg: RewardConfig,
    grpo_cfg: GrpoConfig,
    field: GeodesicField | None = None,
) -> RolloutGroup:
    if field is None:
        field = geodesic_field(episode.world, episode.goal)
    rewards = np.array([reward(t, episode, reward_cfg, field) for t in trajectories])
    return RolloutGroup(
        episode_id=episode.id,
        instruction=tuple(episode.instruction),
        trajectories=tuple(trajectories),
        rewards=rewards,
        advantages=group_advantages(rewards, grpo_cfg),
        snapshot_old=snapshot_old,
    )


def grpo_loss_and_grad(
    params: PolicyParams,
    group: RolloutGroup,
    snapshot_ref: PolicySnapshot,
    cfg: GrpoConfig = GrpoConfig(),
):
    """(loss, flat gradient) of the advantage-weighted log-likelihood with KL penalty.

    Each trajectory is featurized and scored as one sequence under three
    parameter sets: the group's snapshot (old), params (live) and
    snapshot_ref.  Every step's behaviour logits are recomputed under
    the old one and must match the recorded ones to SNAPSHOT_TOL, else
    the group is stale and SnapshotMismatch names the first drifting step.
    """
    if len(group.trajectories) < 2:
        raise GroupTooSmall(f"group of {len(group.trajectories)} rollouts")
    temp = params.cfg.temperature
    old_params = group.snapshot_old.params
    ref_params = snapshot_ref.params
    n_groups = len(group.trajectories)
    acc = GradAccumulator(params)
    objective = 0.0
    for adv, traj in zip(group.advantages, group.trajectories):
        scale = 1.0 / (n_groups * len(traj.steps))
        patches = np.array([s.observation for s in traj.steps])
        actions = [s.action for s in traj.steps]
        prev_actions = [NO_ACTION, *actions][:-1]
        old, live, ref = (
            featurize(w, group.instruction, patches, prev_actions)
            for w in (old_params, params, ref_params)
        )
        recomputed = forward(old_params, old.rows)
        drift = np.abs(recomputed - np.array([s.logits for s in traj.steps])).max(axis=1)
        stale = np.flatnonzero(drift > SNAPSHOT_TOL)
        if stale.size:
            i = stale[0]
            raise SnapshotMismatch(
                f"episode {group.episode_id} step {traj.steps[i].t}:"
                f" recorded logits drift {drift[i]:g}"
            )
        logits, cache = forward_cached(params, live)
        p = softmax(logits / temp)
        q = softmax(forward(ref_params, ref.rows) / temp)
        kl, log_ratio = kl_and_log_ratio(p, q)
        picked = np.arange(len(actions)), actions

        objective += scale * (adv * float(np.log(p[picked]).sum()) - cfg.kl_beta * float(kl.sum()))

        dlogits = -cfg.kl_beta * p * (log_ratio - kl[:, None]) / temp
        coef = adv / temp
        dlogits += coef * (-p)
        dlogits[picked] += coef
        acc.add_step(cache, dlogits * scale)
    return -objective, -acc.flat()
