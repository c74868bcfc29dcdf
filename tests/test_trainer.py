"""Optimizer math, episode routing, and the end-to-end training loop."""
import dataclasses

import numpy as np
import pytest

from budnav.errors import NonFiniteGradient
from budnav.grpo import grpo_loss_and_grad
from budnav.policy import init_params, load_checkpoint
from budnav.rectify import bc_demo, find_anchor, rect_loss_and_grad, synthesize_demo
from budnav.rollout import TriggerKind, verify_trace, parse_trace
from budnav.suite import generate_suite
from budnav.trainer import (
    OptHyper,
    OptimizerState,
    TrainConfig,
    adamw_update,
    gro_step,
    outcome_loss_and_grad,
    pretrain_bc,
    route_episode,
    train,
    training_episode,
)

from test_rectify import ordered_anchor_reference


@pytest.fixture(scope="session")
def tiny_suite():
    return generate_suite(
        "tiny", seed=1, n_train_worlds=3, n_held=6,
        width=8, height=8, density=0.12, min_episode_length=5.0,
        held_per_world=3,
    )


@pytest.fixture(scope="session")
def warm(tiny_suite):
    """Params pretrained enough that greedy probes sometimes succeed."""
    cfg = TrainConfig(run_seed=0, suite=tiny_suite, pretrain_episodes=200)
    params = init_params(cfg.policy, cfg.run_seed)
    eps = (training_episode(cfg, "pretrain", i) for i in range(cfg.pretrain_episodes))
    params, ref = pretrain_bc(params, eps, cfg)
    return params, ref, cfg


def routed_outcomes(warm_state, variant, want_routes, limit=200):
    """First RouteOutcome (with its episode index) per requested route."""
    params, _, cfg = warm_state
    cfg = dataclasses.replace(cfg, variant=variant)
    found = {}
    for i in range(limit):
        episode = training_episode(cfg, "train", i)
        outcome = route_episode(params, episode, cfg)
        key = (outcome.report.route, outcome.skipped)
        if key in want_routes and key not in found:
            found[key] = outcome
        if len(found) == len(want_routes):
            break
    return found


# ------------------------------------------------------------------- AdamW

def test_adamw_first_step_closed_form(tiny_policy):
    params = tiny_policy
    theta0 = params.flatten()
    rng = np.random.default_rng(0)
    grad = rng.standard_normal(params.count)
    h = OptHyper()
    new, state = adamw_update(params, grad, OptimizerState.zeros(params.count), h)
    # After bias correction the first step is lr * g / (|g| + eps),
    # applied after the decoupled decay.
    want = theta0 * (1.0 - h.learning_rate * h.weight_decay)
    want = want - h.learning_rate * grad / (np.abs(grad) + h.eps)
    assert np.allclose(new.flatten(), want, atol=1e-15)
    assert state.step == 1
    assert np.allclose(state.m, 0.1 * grad)
    assert np.allclose(state.v, 0.001 * grad * grad)


def test_adamw_matches_reference_implementation(tiny_policy):
    params = tiny_policy
    h = OptHyper(learning_rate=1e-2, weight_decay=0.05)
    state = OptimizerState.zeros(params.count)
    rng = np.random.default_rng(1)
    theta = params.flatten()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t in range(1, 8):
        g = rng.standard_normal(params.count)
        params, state = adamw_update(params, g, state, h)
        theta = theta * (1 - h.learning_rate * h.weight_decay)
        m = h.beta1 * m + (1 - h.beta1) * g
        v = h.beta2 * v + (1 - h.beta2) * g * g
        theta = theta - h.learning_rate * (m / (1 - h.beta1**t)) / (
            np.sqrt(v / (1 - h.beta2**t)) + h.eps
        )
        assert np.allclose(params.flatten(), theta, atol=1e-14)
    assert state.step == 7


def test_adamw_is_bit_exact_against_the_plain_formula(tiny_policy):
    # The one-expression-per-line AdamW step, as adamw_update computed it
    # before it wrote into out= buffers: 50 steps must agree to the bit,
    # with gradients that hold 0.0, -0.0, subnormals and tiny values.
    rng = np.random.default_rng(7)
    for h in (OptHyper(), OptHyper(learning_rate=1e-2, weight_decay=0.05)):
        params = tiny_policy
        state = OptimizerState.zeros(params.count)
        theta = params.flatten()
        m = np.zeros(params.count)
        v = np.zeros(params.count)
        for t in range(1, 51):
            g = rng.normal(size=params.count) * 10.0 ** rng.integers(-320, 3, size=params.count)
            g[0::9] = 0.0
            g[1::9] = -0.0
            g[2::9] = 5e-324
            g[3::9] = -1e-300
            params, state = adamw_update(params, g, state, h)
            lr = h.learning_rate
            theta = theta - lr * h.weight_decay * theta
            m = h.beta1 * m + (1.0 - h.beta1) * g
            v = h.beta2 * v + (1.0 - h.beta2) * g * g
            m_hat = m / (1.0 - h.beta1**t)
            v_hat = v / (1.0 - h.beta2**t)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + h.eps)
            assert params.theta.tobytes() == theta.tobytes()
            assert state.m.tobytes() == m.tobytes()
            assert state.v.tobytes() == v.tobytes()
            assert state.step == t


def test_adamw_zero_gradient_only_decays(tiny_policy):
    params = tiny_policy
    h = OptHyper()
    new, state = adamw_update(
        params, np.zeros(params.count), OptimizerState.zeros(params.count), h
    )
    assert np.allclose(new.flatten(), params.flatten() * (1 - h.learning_rate * h.weight_decay))
    assert np.array_equal(state.m, np.zeros(params.count))


def test_adamw_rejects_non_finite_gradients(tiny_policy):
    params = tiny_policy
    state = OptimizerState.zeros(params.count)
    for bad in (np.nan, np.inf, -np.inf):
        grad = np.zeros(params.count)
        grad[3] = bad
        with pytest.raises(NonFiniteGradient):
            adamw_update(params, grad, state, OptHyper())


def test_adamw_does_not_mutate_inputs(tiny_policy):
    params = tiny_policy
    grad = np.ones(params.count)
    state = OptimizerState.zeros(params.count)
    before = params.flatten()
    adamw_update(params, grad, state, OptHyper())
    assert np.array_equal(params.flatten(), before)
    assert np.array_equal(state.m, np.zeros(params.count))
    assert state.step == 0


# ---------------------------------------------------------------- pretrain

def test_pretrain_empty_is_identity(tiny_suite):
    cfg = TrainConfig(suite=tiny_suite)
    params = init_params(cfg.policy, 0)
    out, ref = pretrain_bc(params, [], cfg)
    assert np.array_equal(out.flatten(), params.flatten())
    assert np.array_equal(ref.params.flatten(), params.flatten())
    assert ref.role == "ref"


def test_pretrain_reference_tracks_final_params(warm):
    params, ref, _ = warm
    assert np.array_equal(ref.params.flatten(), params.flatten())


# ----------------------------------------------------------------- routing

def test_routes_are_mutually_exclusive(warm):
    params, _, cfg = warm
    saw = set()
    for i in range(60):
        episode = training_episode(cfg, "train", i)
        outcome = route_episode(params, episode, cfg)
        saw.add(outcome.report.route)
        if outcome.report.probe_success:
            assert outcome.report.route == "grpo"
            assert outcome.report.rollouts_used == cfg.grpo.group_size
            assert outcome.group is not None and outcome.demo is None
            assert outcome.group.trajectories[0] is outcome.probe
            sampled = sum(len(t.steps) for t in outcome.group.trajectories)
            assert outcome.report.env_steps_used == sampled
        else:
            assert outcome.report.route == "rect"
            assert outcome.report.rollouts_used == 1
            assert outcome.demo is not None and outcome.group is None
            assert outcome.report.env_steps_used == len(outcome.probe.steps)
    assert saw == {"grpo", "rect"}  # the warm policy must hit both paths


def test_rect_only_skips_proficient_episodes(warm):
    found = routed_outcomes(warm, "rect_only", {("grpo", True), ("rect", False)})
    skipped = found[("grpo", True)]
    assert skipped.skipped and skipped.report.probe_success
    assert skipped.group is None and skipped.demo is None
    assert skipped.report.rollouts_used == 1  # the probe itself
    active = found[("rect", False)]
    assert active.demo is not None


def test_grpo_only_skips_failed_episodes(warm):
    found = routed_outcomes(warm, "grpo_only", {("rect", True), ("grpo", False)})
    skipped = found[("rect", True)]
    assert skipped.skipped and not skipped.report.probe_success
    assert skipped.demo is None and skipped.group is None


def test_bc_variant_never_probes(warm):
    params, _, cfg = warm
    cfg = dataclasses.replace(cfg, variant="bc")
    episode = training_episode(cfg, "train", 0)
    outcome = route_episode(params, episode, cfg)
    assert outcome.report.route == "bc" and outcome.probe is None
    assert outcome.report.env_steps_used == 0 and outcome.report.rollouts_used == 0
    assert outcome.demo.oracle_actions == bc_demo(episode).oracle_actions


def test_dagger_success_teacher_forces_the_reference(warm):
    found = routed_outcomes(warm, "dagger", {("bc", False)})
    outcome = found[("bc", False)]
    assert outcome.report.probe_success
    want = bc_demo(outcome.episode)
    assert outcome.demo.oracle_actions == want.oracle_actions
    assert len(outcome.demo.retained_prefix) == 0
    assert np.array_equal(outcome.demo.weights, want.weights)


def test_dagger_failure_corrects_from_the_error_state(warm):
    params, ref, cfg = warm
    found = routed_outcomes(warm, "dagger", {("rect", False)})
    outcome = found[("rect", False)]
    probe, demo = outcome.probe, outcome.demo
    assert not outcome.report.probe_success
    # Supervision starts exactly where the probe ended, with the whole
    # erroneous history kept; contrast with the rollback demo, which
    # retreats to the anchor waypoint.
    assert demo.anchor_step == len(probe.steps)
    assert demo.anchor_pose == probe.final_pose
    for name in ("states", "actions", "logits"):
        assert np.array_equal(getattr(demo.retained_prefix, name), getattr(probe.steps, name))
    rollback = synthesize_demo(probe, outcome.episode, cfg.rect)
    assert rollback.anchor_step <= demo.anchor_step


def test_rect_anchor_uses_the_rollout_visit_radius(warm):
    # One definition of "visited" per run: the radius the probe tracked
    # progress with also places the rollback anchor.  Rolled out under
    # 1.5 m, the anchor is the rescan's at 1.5 m, and on some probes not
    # the one it would be at 0.5 m.
    params, _, cfg = warm
    cfg = dataclasses.replace(cfg, rollout=dataclasses.replace(cfg.rollout, visit_radius_m=1.5))
    moved = 0
    for i in range(60):
        episode = training_episode(cfg, "train", i)
        outcome = route_episode(params, episode, cfg)
        if outcome.report.route != "rect":
            continue
        probe = outcome.probe
        assert outcome.demo.anchor_step == find_anchor(probe)
        assert outcome.demo.anchor_pose == probe.poses()[outcome.demo.anchor_step]
        if probe.trigger[0] != TriggerKind.FORCED_STOP:
            assert outcome.demo.anchor_step == ordered_anchor_reference(probe, episode, 1.5)
            moved += outcome.demo.anchor_step != ordered_anchor_reference(probe, episode, 0.5)
    assert moved > 0


# ------------------------------------------------------------------- steps

def test_skipped_outcome_returns_zero_gradient(warm):
    params, ref, cfg = warm
    found = routed_outcomes(warm, "rect_only", {("grpo", True)})
    outcome = found[("grpo", True)]
    loss, grad = outcome_loss_and_grad(params, outcome, ref, dataclasses.replace(cfg, variant="rect_only"))
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros(params.count))


def test_outcome_loss_matches_standalone_losses(warm):
    params, ref, cfg = warm
    for key, outcome in routed_outcomes(warm, "full", {("grpo", False), ("rect", False)}).items():
        loss, grad = outcome_loss_and_grad(params, outcome, ref, cfg)
        if outcome.report.route == "grpo":
            want_loss, want_grad = grpo_loss_and_grad(params, outcome.group, ref, cfg.grpo)
        else:
            want_loss, want_grad = rect_loss_and_grad(params, outcome.demo, outcome.episode)
        assert loss == want_loss
        assert np.max(np.abs(grad - want_grad)) <= 1e-12


def test_gro_step_applies_exactly_the_computed_gradient(warm):
    params, ref, cfg = warm
    opt = OptimizerState.zeros(params.count)
    for i in range(8):
        episode = training_episode(cfg, "train", i)
        # Routing is deterministic, so this is the outcome gro_step routes.
        outcome = route_episode(params, episode, cfg)
        new_params, new_opt, report = gro_step(params, opt, episode, ref, cfg)
        standalone_loss, standalone = outcome_loss_and_grad(params, outcome, ref, cfg)
        # The step's report is the routed one with the loss filled in.
        assert dataclasses.replace(report, loss=0.0, grad_norm=0.0) == outcome.report
        if not outcome.skipped:
            # Exactly one AdamW step on the standalone gradient, bit for bit.
            want, want_opt = adamw_update(params, standalone, opt, cfg.opt)
            assert np.array_equal(new_params.flatten(), want.flatten())
            assert np.array_equal(new_opt.m, want_opt.m) and np.array_equal(new_opt.v, want_opt.v)
            assert new_opt.step == want_opt.step == opt.step + 1  # one AdamW step
            assert report.loss == standalone_loss
        params, opt = new_params, new_opt


def test_gro_step_skipped_leaves_everything_unchanged(warm):
    params, ref, _ = warm
    found = routed_outcomes(warm, "rect_only", {("grpo", True)})
    # Re-run the same episode through gro_step under rect_only.
    cfg = dataclasses.replace(warm[2], variant="rect_only")
    episode = found[("grpo", True)].episode
    opt = OptimizerState.zeros(params.count)
    new_params, new_opt, report = gro_step(params, opt, episode, ref, cfg)
    assert new_params is params and new_opt is opt
    assert report.loss == 0.0 and report.grad_norm == 0.0
    assert report.route == "grpo" and report.probe_success


def test_report_carries_probe_trigger(warm):
    params, ref, cfg = warm
    opt = OptimizerState.zeros(params.count)
    for i in range(40):
        episode = training_episode(cfg, "train", i)
        _, _, report = gro_step(params, opt, episode, ref, cfg)
        if report.route == "rect":
            assert report.trigger is not None and report.trigger_step is not None
            return
    pytest.skip("no failed probe in the first 40 episodes")


def test_dagger_step_never_routes_to_grpo(warm):
    params, ref, cfg = warm
    cfg = dataclasses.replace(cfg, variant="dagger")
    opt = OptimizerState.zeros(params.count)
    routes = set()
    for i in range(20):
        episode = training_episode(cfg, "train", i)
        params, opt, report = gro_step(params, opt, episode, ref, cfg)
        routes.add(report.route)
    assert routes <= {"bc", "rect"}


def test_rect_and_grpo_gradients_sum_to_full(warm):
    # With shared parameters the probe (and therefore the route) is
    # identical across variants, so each episode's FULL gradient equals
    # the rect_only gradient plus the grpo_only gradient: exactly one of
    # the two is active, the other is the zero vector.
    params, ref, base = warm
    for i in range(10):
        episode = training_episode(base, "train", i)
        grads = {}
        for name in ("full", "rect_only", "grpo_only"):
            cfg = dataclasses.replace(base, variant=name)
            outcome = route_episode(params, episode, cfg)
            _, grads[name] = outcome_loss_and_grad(params, outcome, ref, cfg)
        assert np.array_equal(grads["full"], grads["rect_only"] + grads["grpo_only"])
        skipped = min(grads["rect_only"], grads["grpo_only"], key=np.linalg.norm)
        assert np.array_equal(skipped, np.zeros(params.count))


# ---------------------------------------------------------------- schedule

def test_training_episode_schedule_is_deterministic(tiny_suite):
    cfg = TrainConfig(run_seed=5, suite=tiny_suite)
    a = training_episode(cfg, "train", 3)
    b = training_episode(cfg, "train", 3)
    assert a.id == b.id and a.start == b.start and a.goal == b.goal
    other_phase = training_episode(cfg, "pretrain", 3)
    other_seed = training_episode(dataclasses.replace(cfg, run_seed=6), "train", 3)
    assert (a.id, a.world) != (other_phase.id, other_phase.world) or a.start != other_phase.start
    assert (a.id, a.start, a.goal) != (other_seed.id, other_seed.start, other_seed.goal)


# ------------------------------------------------------------------- train

def fast_cfg(suite, **kw):
    base = dict(
        run_seed=0, suite=suite, pretrain_episodes=30, train_episodes=20,
        eval_every=10, eval_episodes=4,
    )
    base.update(kw)
    return TrainConfig(**base)


def test_train_requires_a_suite():
    with pytest.raises(ValueError):
        train(TrainConfig(suite=None))


def test_train_is_deterministic(tiny_suite):
    cfg = fast_cfg(tiny_suite)
    a = train(cfg)
    b = train(cfg)
    assert a.csv_rows == b.csv_rows
    assert np.array_equal(a.params.flatten(), b.params.flatten())
    assert a.reports == b.reports


def test_train_eval_schedule_and_accounting(tiny_suite):
    cfg = fast_cfg(tiny_suite)
    res = train(cfg)
    steps = [int(row.split(",")[0]) for row in res.csv_rows[1:]]
    assert steps == [0, 10, 20]
    assert len(res.reports) == cfg.train_episodes
    env_total = sum(r.env_steps_used for r in res.reports)
    assert int(res.csv_rows[-1].split(",")[-1]) == env_total
    grpo_frac = sum(r.route == "grpo" for r in res.reports) / len(res.reports)
    assert res.csv_rows[-1].split(",")[-2] == f"{grpo_frac:.3f}"
    assert all(row.split(",")[1] == "4" for row in res.csv_rows[1:])


def test_train_evaluates_after_a_partial_last_interval(tiny_suite):
    res = train(fast_cfg(tiny_suite, pretrain_episodes=0, train_episodes=5, eval_every=2))
    assert [s for s, _ in res.evals] == [0, 2, 4, 5]
    assert len(res.reports) == 5


def test_train_writes_run_artifacts(tiny_suite, tmp_path):
    cfg = fast_cfg(tiny_suite)
    res = train(cfg, out_dir=tmp_path)
    final = load_checkpoint(tmp_path / "checkpoints" / "final.ckpt")
    assert np.array_equal(final.flatten(), res.params.flatten())
    pre = load_checkpoint(tmp_path / "checkpoints" / "pretrain.ckpt")
    assert np.array_equal(pre.flatten(), res.ref.params.flatten())
    csv_text = (tmp_path / "metrics.csv").read_text()
    assert csv_text == "\n".join(res.csv_rows) + "\n"
    traces = sorted((tmp_path / "traces").glob("*.trace"))
    assert len(traces) == 3
    for t in traces:
        verify_trace(*parse_trace(t.read_text())[:4])
