"""Training loops: BC pretraining and the greedy-routed step.

The core update rule routes every training episode down exactly one of
two paths based on a deterministic greedy probe:

    probe succeeds -> group optimisation: the probe plus G-1 stochastic
                      rollouts form a group, scored and standardised,
                      then one on-policy (mu = 1) advantage-weighted
                      log-likelihood update (KL-anchored to the frozen
                      post-pretrain reference policy);
    probe fails    -> rectification: roll back to the anchor waypoint,
                      plan an oracle completion, and take one weighted
                      cross-entropy step on it.

Hard episodes therefore consume a single rollout, while group sampling
is spent only where the policy is already competent.  The ablation
variants in VARIANTS go through the same step and differ only in how
route_episode builds the supervision; the dagger variant shares the
probe and trigger machinery but supervises from the raw error state
with the full erroneous history retained, and falls back to teacher
forcing on the reference when the probe succeeds.

All updates use AdamW with decoupled weight decay.  Every random choice
is drawn from streams named by (run_seed, purpose, ids), so training is
reproducible to the byte.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteGradient
from .grpo import GrpoConfig, RewardConfig, grpo_loss_and_grad, make_group
from .metrics import METRICS_HEADER, evaluate, format_metrics_row, write_eval_artifacts
from .oracle import geodesic_field, plan
from .policy import (
    PolicyConfig,
    PolicyParams,
    PolicySnapshot,
    init_params,
    save_checkpoint,
    snapshot,
)
from .rectify import (
    RectConfig,
    RectificationDemo,
    bc_demo,
    decay_weights,
    rect_loss_and_grad,
    synthesize_demo,
)
from .rng import stream_id
from .rollout import RolloutConfig, rollout_stream, run_greedy, run_sampled
from .suite import Suite, suite_episode
from .world import Episode

VARIANTS = ("full", "bc", "rect_only", "grpo_only", "dagger")


@dataclass(frozen=True)
class OptHyper:
    learning_rate: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01


@dataclass(frozen=True)
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    step: int

    @classmethod
    def zeros(cls, count: int) -> "OptimizerState":
        return cls(m=np.zeros(count), v=np.zeros(count), step=0)


def adamw_update(
    params: PolicyParams, grad: np.ndarray, state: OptimizerState, hyper: OptHyper
):
    """One decoupled-weight-decay Adam step; pure in all arguments.

    Per element it computes

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        theta = (theta - lr * wd * theta) - lr * m_hat / (sqrt(v_hat) + eps)

    with m_hat = m / (1 - beta1^t) and v_hat = v / (1 - beta2^t), each
    operation in that order, so the bits are those of the plain
    expressions.  The results go into fresh theta, m and v arrays through
    out= buffers, with one scratch array in between.
    """
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradient("gradient contains NaN or Inf")
    lr, b1, b2 = hyper.learning_rate, hyper.beta1, hyper.beta2
    t = state.step + 1
    m = np.multiply(b1, state.m)
    scratch = np.multiply(1.0 - b1, grad)
    np.add(m, scratch, out=m)
    v = np.multiply(b2, state.v)
    np.multiply(1.0 - b2, grad, out=scratch)
    np.multiply(scratch, grad, out=scratch)
    np.add(v, scratch, out=v)
    np.divide(v, 1.0 - b2**t, out=scratch)  # v_hat, then sqrt(v_hat) + eps
    np.sqrt(scratch, out=scratch)
    np.add(scratch, hyper.eps, out=scratch)
    delta = np.divide(m, 1.0 - b1**t)  # m_hat, then lr * m_hat / scratch
    np.multiply(lr, delta, out=delta)
    np.divide(delta, scratch, out=delta)
    # Decay before the moment delta; the new theta reuses delta's buffer.
    np.multiply(lr * hyper.weight_decay, params.theta, out=scratch)
    np.subtract(params.theta, scratch, out=scratch)
    theta = np.subtract(scratch, delta, out=delta)
    return PolicyParams(params.cfg, theta), OptimizerState(m=m, v=v, step=t)


@dataclass(frozen=True)
class TrainConfig:
    run_seed: int = 0
    variant: str = "full"
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    opt: OptHyper = field(default_factory=OptHyper)
    grpo: GrpoConfig = field(default_factory=GrpoConfig)
    rect: RectConfig = field(default_factory=RectConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    rollout: RolloutConfig = field(default_factory=RolloutConfig)
    suite: Suite | None = None
    pretrain_episodes: int = 250
    train_episodes: int = 1500
    eval_every: int = 500
    eval_episodes: int = 0  # 0 = the full held-out split


@dataclass(frozen=True)
class UpdateReport:
    episode_id: int
    route: str  # "grpo", "rect", or "bc"
    probe_success: bool
    rollouts_used: int
    env_steps_used: int
    loss: float
    grad_norm: float
    trigger: str | None = None
    trigger_step: int | None = None


def _check_finite_loss(loss: float) -> None:
    if not math.isfinite(loss):
        raise NonFiniteGradient(f"loss diverged to {loss}")


def pretrain_bc(params: PolicyParams, episodes, cfg: TrainConfig):
    """Teacher-forcing warm start; returns (params, reference snapshot).

    The reference snapshot is taken after the last pretraining episode
    (or of the initial params when the list is empty) and stays frozen
    for the rest of the run.
    """
    opt = OptimizerState.zeros(params.count)
    for episode in episodes:
        loss, grad = rect_loss_and_grad(params, bc_demo(episode), episode)
        _check_finite_loss(loss)
        params, opt = adamw_update(params, grad, opt, cfg.opt)
    return params, snapshot(params, "ref")


@dataclass(frozen=True)
class RouteOutcome:
    """Rollout phase of one training episode, before any update."""

    route: str
    probe_success: bool
    skipped: bool
    env_steps: int
    rollouts_used: int
    probe: object
    group: object = None
    demo: RectificationDemo | None = None
    episode: Episode | None = None


def _error_state_demo(probe, episode: Episode, cfg: TrainConfig) -> RectificationDemo:
    """DAgger supervision: oracle completion from the failure pose, with
    the entire erroneous history kept as conditioning."""
    completion = plan(episode.world, probe.final_pose, episode.goal, episode.goal_radius)
    return RectificationDemo(
        episode_id=episode.id,
        anchor_step=len(probe.steps),
        anchor_pose=probe.final_pose,
        retained_prefix=probe.steps,
        oracle_actions=tuple(completion.actions),
        weights=decay_weights(len(completion.actions), cfg.rect),
        poses=completion.poses[:-1],
    )


def route_episode(params: PolicyParams, episode: Episode, cfg: TrainConfig) -> RouteOutcome:
    """Probe greedily, then stage exactly one of the two update paths.

    Ablation variants reuse the same probe: rect_only skips proficient
    episodes (zero update), grpo_only skips failed ones, bc never probes
    at all, and dagger replaces both branches with imitation (reference
    plan on success, error-state correction on failure).
    """
    if cfg.variant == "bc":
        return RouteOutcome(
            route="bc", probe_success=False, skipped=False, env_steps=0,
            rollouts_used=0, probe=None, demo=bc_demo(episode), episode=episode,
        )
    snap_old = snapshot(params, "old")
    probe = run_greedy(snap_old, episode, cfg.rollout)
    env_steps = len(probe.steps)
    if probe.success:
        if cfg.variant == "rect_only":
            return RouteOutcome("grpo", True, True, env_steps, 1, probe, episode=episode)
        if cfg.variant == "dagger":
            return RouteOutcome(
                "bc", True, False, env_steps, 1, probe,
                demo=bc_demo(episode), episode=episode,
            )
        rollouts = [probe]
        for i in range(1, cfg.grpo.group_size):
            r = run_sampled(
                snap_old, episode, cfg.policy.temperature,
                rollout_stream(cfg.run_seed, episode.id, i), cfg.rollout,
            )
            rollouts.append(r)
            env_steps += len(r.steps)
        group = make_group(
            rollouts, episode, snap_old, cfg.reward, cfg.grpo,
            geodesic_field(episode.world, episode.goal),
        )
        return RouteOutcome(
            "grpo", True, False, env_steps, cfg.grpo.group_size, probe,
            group=group, episode=episode,
        )
    if cfg.variant == "grpo_only":
        return RouteOutcome("rect", False, True, env_steps, 1, probe, episode=episode)
    if cfg.variant == "dagger":
        demo = _error_state_demo(probe, episode, cfg)
    else:
        demo = synthesize_demo(probe, episode, cfg.rect)
    return RouteOutcome("rect", False, False, env_steps, 1, probe, demo=demo, episode=episode)


def outcome_loss_and_grad(params: PolicyParams, outcome: RouteOutcome, ref: PolicySnapshot, cfg: TrainConfig):
    if outcome.skipped:
        return 0.0, np.zeros(params.count)
    if outcome.group is not None:
        return grpo_loss_and_grad(params, outcome.group, ref, cfg.grpo)
    return rect_loss_and_grad(params, outcome.demo, outcome.episode)


def _report(outcome: RouteOutcome, loss: float, grad_norm: float) -> UpdateReport:
    probe = outcome.probe
    trigger = probe.trigger if probe is not None else None
    return UpdateReport(
        episode_id=outcome.episode.id,
        route=outcome.route,
        probe_success=outcome.probe_success,
        rollouts_used=outcome.rollouts_used,
        env_steps_used=outcome.env_steps,
        loss=loss,
        grad_norm=grad_norm,
        trigger=trigger[0].value if trigger else None,
        trigger_step=trigger[1] if trigger else None,
    )


def gro_step(
    params: PolicyParams,
    opt: OptimizerState,
    episode: Episode,
    ref: PolicySnapshot,
    cfg: TrainConfig,
    debug: dict | None = None,
):
    """One greedy-routed update under cfg.variant; returns (params, opt, UpdateReport).

    A skipped episode takes no optimizer step; any other takes exactly one.
    """
    outcome = route_episode(params, episode, cfg)
    if outcome.skipped:
        report = _report(outcome, 0.0, 0.0)
        if debug is not None:
            debug.update(outcome=outcome, gradient=np.zeros(params.count))
        return params, opt, report
    loss, grad = outcome_loss_and_grad(params, outcome, ref, cfg)
    _check_finite_loss(loss)
    params, opt = adamw_update(params, grad, opt, cfg.opt)
    report = _report(outcome, loss, float(np.linalg.norm(grad)))
    if debug is not None:
        debug.update(outcome=outcome, gradient=grad)
    return params, opt, report


@dataclass
class TrainResult:
    params: PolicyParams
    ref: PolicySnapshot
    csv_rows: list
    reports: list
    evals: list  # (step, MetricsReport)


def training_episode(cfg: TrainConfig, phase: str, index: int) -> Episode:
    """Deterministic episode stream over the suite's training worlds."""
    suite = cfg.suite
    seeds = suite.train_world_seeds
    world_seed = seeds[stream_id(cfg.run_seed, phase, "world", index) % len(seeds)]
    episode_seed = stream_id(cfg.run_seed, phase, "episode", index)
    return suite_episode(suite, world_seed, episode_seed)


def train(cfg: TrainConfig, out_dir=None) -> TrainResult:
    """Full run: pretrain, snapshot the reference, iterate updates,
    evaluate periodically, and (optionally) write run artifacts."""
    from pathlib import Path

    if cfg.suite is None:
        raise ValueError("TrainConfig.suite is required for training")

    params = init_params(cfg.policy, cfg.run_seed)
    held = _held_episodes(cfg)

    pretrain_eps = (
        training_episode(cfg, "pretrain", i) for i in range(cfg.pretrain_episodes)
    )
    params, ref = pretrain_bc(params, pretrain_eps, cfg)
    opt = OptimizerState.zeros(params.count)

    rows = [METRICS_HEADER]
    evals = []
    reports = []
    env_total = 0
    grpo_routes = 0

    def run_eval(step_count: int):
        outcome = evaluate(snapshot(params, "eval"), held, cfg.rollout)
        frac = grpo_routes / len(reports) if reports else 0.0
        rows.append(format_metrics_row(step_count, outcome.report, frac, env_total))
        evals.append((step_count, outcome.report))
        return outcome

    final_outcome = run_eval(0)

    for i in range(1, cfg.train_episodes + 1):
        episode = training_episode(cfg, "train", i - 1)
        params, opt, report = gro_step(params, opt, episode, ref, cfg)
        reports.append(report)
        env_total += report.env_steps_used
        grpo_routes += report.route == "grpo"
        if i % cfg.eval_every == 0 or i == cfg.train_episodes:
            final_outcome = run_eval(i)

    if out_dir is not None:
        out = Path(out_dir)
        (out / "checkpoints").mkdir(parents=True, exist_ok=True)
        save_checkpoint(out / "checkpoints" / "pretrain.ckpt", ref.params)
        save_checkpoint(out / "checkpoints" / "final.ckpt", params)
        write_eval_artifacts(out, rows, held, final_outcome)
    return TrainResult(params=params, ref=ref, csv_rows=rows, reports=reports, evals=evals)


def _held_episodes(cfg: TrainConfig) -> list:
    # Imported at call time, so that perfbench's tracer, which patches
    # suite.build_held_episodes, wraps this call.
    from .suite import build_held_episodes

    return build_held_episodes(cfg.suite, cfg.eval_episodes)
