"""Release gate: twelve numbered end-to-end checks, one verdict line each.

Run `pytest tests/test_acceptance.py -s -q` to see the full table; every
test prints exactly one line of the form

    CRITERION  7: PASS (SR gains +30.5/+24.0/+28.5 ...)

before asserting.  Criteria 1 through 6 are property checks (gradients,
advantage normalization, planner optimality, trigger boundaries, demo
synthesis, routing exclusivity); 7 through 9 train the bundled desk
benchmark (full / rect_only / dagger, seeds 0-2) and check learning
direction; 10 through 12 cover cost accounting, byte-level determinism,
and metric sanity.  The nine benchmark runs are trained once in a
session fixture and shared by everything downstream.
"""
import math
import time
from pathlib import Path

import numpy as np
import pytest

from budnav.cli import main
from budnav.config import load_config
from budnav.errors import GenerationFailed
from budnav.grpo import GrpoConfig, RewardConfig, group_advantages, grpo_loss_and_grad, make_group
from budnav.metrics import dtw_distance, evaluate, ndtw
from budnav.oracle import geodesic_field, plan
from budnav.policy import PolicyConfig, PolicyParams, init_params, snapshot
from budnav.rectify import rect_loss_and_grad, synthesize_demo
from budnav.rollout import (
    RolloutConfig,
    TriggerKind,
    check_triggers,
    offtrack_exceeded,
    rollout_stream,
    run_greedy,
    run_sampled,
)
from budnav.suite import build_held_episodes
from budnav.trainer import (
    OptimizerState,
    adamw_update,
    gro_step,
    outcome_loss_and_grad,
    pretrain_bc,
    route_episode,
    train,
    training_episode,
)
from budnav.world import (
    Action,
    Episode,
    GridWorld,
    Pose,
    compile_instruction,
    euclid_m,
    generate_episode,
    generate_world,
    pose_state,
    step,
)

from conftest import prefix_progress
from test_metrics import dtw_oracle
from test_oracle import bfs_distance_oracle, pose_bfs_cost_oracle

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SEEDS = (0, 1, 2)

# Small but full-featured policy for the per-instance gradient checks.
SMALL = PolicyConfig(d_e=4, d_o=4, d_a=3, d_h=8, history_k=3)


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def desk_config(variant: str, seed: int):
    return load_config(CONFIGS / f"desk_{variant}.cfg", {"trainer.run_seed": seed})[0]


@pytest.fixture(scope="session")
def desk_runs():
    """The nine benchmark runs plus their total wall time in seconds."""
    runs = {}
    t0 = time.perf_counter()
    for variant in ("full", "rect_only", "dagger"):
        for seed in SEEDS:
            cfg = desk_config(variant, seed)
            runs[variant, seed] = (cfg, train(cfg))
    return runs, time.perf_counter() - t0


def eval_sr(result, which: int) -> float:
    return result.evals[which][1].sr


def eval_spl(result, which: int) -> float:
    return result.evals[which][1].spl


# --------------------------------------------------- 1: gradient correctness

def episode_pool(n=10, base=40):
    pool = []
    j = 0
    while len(pool) < n:
        try:
            w = generate_world(seed=base + j, width=9, height=9, density=0.15)
            pool.append(generate_episode(w, seed=90 + j, min_length=5.0))
        except GenerationFailed:
            pass
        j += 1
    return pool


def max_fd_error(f, theta, grad, rng, coords=4, h=1e-5):
    """Worst relative error of `grad` against central differences."""
    worst = 0.0
    for i in rng.choice(len(theta), size=coords, replace=False):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        fd = (f(up) - f(down)) / (2 * h)
        if abs(fd) > 1e-8:
            worst = max(worst, abs(grad[i] - fd) / max(abs(fd), 1e-8))
    return worst


def test_criterion_1_gradients_match_finite_differences():
    t0 = time.perf_counter()
    pool = episode_pool()
    rng = np.random.default_rng(11)
    gcfg = GrpoConfig()

    worst_grpo, n_grpo = 0.0, 0
    for k in range(100):
        ep = pool[k % len(pool)]
        old = init_params(SMALL, k)
        snap_old = snapshot(old, "old")
        trajs = [run_greedy(snap_old, ep)] + [
            run_sampled(snap_old, ep, SMALL.temperature, rollout_stream(500 + k, ep.id, i))
            for i in range(1, 4)
        ]
        group = make_group(trajs, ep, snap_old, RewardConfig(), gcfg)
        ref = snapshot(init_params(SMALL, 7000 + k), "ref")
        # Evaluate off the snapshot so the advantage and KL terms are live.
        theta = old.flatten() + 0.02 * rng.standard_normal(old.count)
        _, grad = grpo_loss_and_grad(PolicyParams(old.cfg, theta), group, ref, gcfg)

        def f(th, group=group, ref=ref, old=old):
            return grpo_loss_and_grad(PolicyParams(old.cfg, th), group, ref, gcfg)[0]

        worst_grpo = max(worst_grpo, max_fd_error(f, theta, grad, rng))
        n_grpo += 1

    worst_rect, n_rect, k = 0.0, 0, 0
    while n_rect < 100:
        ep = pool[k % len(pool)]
        params = init_params(SMALL, 300 + k)
        probe = run_greedy(snapshot(params, "old"), ep)
        k += 1
        if probe.success:
            continue
        demo = synthesize_demo(probe, ep)
        theta = params.flatten() + 0.02 * rng.standard_normal(params.count)
        _, grad = rect_loss_and_grad(PolicyParams(params.cfg, theta), demo, ep)

        def f(th, demo=demo, ep=ep, params=params):
            return rect_loss_and_grad(PolicyParams(params.cfg, th), demo, ep)[0]

        worst_rect = max(worst_rect, max_fd_error(f, theta, grad, rng))
        n_rect += 1

    dt = time.perf_counter() - t0
    ok = worst_grpo < 1e-4 and worst_rect < 1e-4 and dt < 60.0
    verdict(1, ok, f"max rel err {worst_grpo:.1e} over {n_grpo} grpo + "
                   f"{worst_rect:.1e} over {n_rect} rect instances, {dt:.1f}s")


# ------------------------------------------------- 2: advantage normalization

def test_criterion_2_advantages_standardize():
    rng = np.random.default_rng(21)
    # Measured with the guard term disabled; the default adv_epsilon only
    # shrinks the std below 1 by eps/std.
    cfg = GrpoConfig(adv_epsilon=0.0)
    worst_mean = worst_std = 0.0
    n = 0
    while n < 1000:
        rewards = rng.normal(scale=rng.uniform(0.1, 10.0), size=int(rng.integers(2, 9)))
        if rewards.std() == 0.0:
            continue
        adv = group_advantages(rewards, cfg)
        worst_mean = max(worst_mean, abs(float(adv.mean())))
        worst_std = max(worst_std, abs(float(adv.std()) - 1.0))
        n += 1
    flat = all(
        np.array_equal(group_advantages(np.full(g, v), GrpoConfig()), np.zeros(g))
        for g in (2, 4, 8)
        for v in (-3.0, 0.0, 2.5)
    )
    ok = worst_mean < 1e-9 and worst_std < 1e-6 and flat
    verdict(2, ok, f"1000 groups: |mean| <= {worst_mean:.1e}, |std-1| <= {worst_std:.1e}, "
                   f"zero-variance -> zeros: {flat}")


# ------------------------------------------------------ 3: planner optimality

def test_criterion_3_planner_matches_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    cells = plans = 0
    bad = []
    for case in range(500):
        w = generate_world(
            seed=3000 + case,
            width=int(rng.integers(4, 13)),
            height=int(rng.integers(4, 13)),
            density=float(rng.uniform(0.05, 0.3)),
        )
        free = w.free_cells()
        goal = free[int(rng.integers(len(free)))]
        field = geodesic_field(w, goal)
        want = bfs_distance_oracle(w, goal)
        for c in free:
            cells += 1
            if field.at(*c) != want[c]:
                bad.append(("field", w.seed, c))
        start = Pose(*free[int(rng.integers(len(free)))], int(rng.integers(4)))
        radius = (0.0, 1.0, 2.0)[case % 3]
        cost = plan(w, start, goal, radius).cost
        plans += 1
        if cost != pose_bfs_cost_oracle(w, start, goal, radius):
            bad.append(("plan", w.seed, start))
    dt = time.perf_counter() - t0
    ok = not bad and dt < 60.0
    verdict(3, ok, f"500 worlds: {cells} field cells exact, {plans} plan costs "
                   f"minimal, {len(bad)} mismatches, {dt:.1f}s")


# ------------------------------------------------------ 4: trigger boundaries

def test_criterion_4_trigger_thresholds_are_strict():
    cfg = RolloutConfig()
    checks = {}
    # Threshold predicate: exactly 3.0 m / 120 degrees never fire.
    checks["dev 3.0 quiet"] = not offtrack_exceeded(3.0, 0.0, cfg)
    checks["dev 3.0+d fires"] = offtrack_exceeded(3.0 + 1e-9, 0.0, cfg)
    checks["hdg 120 quiet"] = not offtrack_exceeded(0.0, 120.0, cfg)
    checks["hdg 120+d fires"] = offtrack_exceeded(0.0, 120.0 + 1e-9, cfg)

    # Behavioural: reference along y=0, agent displaced sideways.  (2,3)
    # is exactly 3.0 m from the nearest reference cell, (2,4) is 4.0 m.
    w = GridWorld(9, 7, frozenset())
    ref = plan(w, Pose(0, 0, 1), (8, 0), 0.5)
    ep = Episode(
        id=4, world=w, start=Pose(0, 0, 1), goal=(8, 0),
        reference_path=tuple(ref.poses),
        instruction=compile_instruction(ref.actions), goal_radius=0.5,
    )

    def triggers(episode, pose, stopped=False, stall=0, progress=2):
        s = pose_state(pose, episode.world.width)
        return check_triggers(s, progress, stall, 0, stopped, episode, cfg)

    checks["on-boundary walk quiet"] = triggers(ep, Pose(2, 3, 0)) is None
    checks["off-track walk fires"] = triggers(ep, Pose(2, 4, 0)) is TriggerKind.OFF_TRACK
    # Facing away from the next waypoint (161.6 deg) at legal deviation.
    checks["averted heading fires"] = triggers(ep, Pose(2, 3, 2)) is TriggerKind.OFF_TRACK
    checks["59-step stall quiet"] = triggers(ep, Pose(2, 0, 1), stall=59) is None
    checks["60-step stall fires"] = (
        triggers(ep, Pose(2, 0, 1), stall=60) is TriggerKind.PROGRESS_STALL
    )

    # Premature stop: same cell geometry, metric scale nudged across the
    # radius.  At cell_size 1.0 the stop lands exactly 3.0 m out
    # (success); one part in 1e9 larger and it is past the radius.
    for cell_size, want in ((1.0, None), (1.0 + 1e-9, TriggerKind.PREMATURE_STOP)):
        cw = GridWorld(8, 1, frozenset(), cell_size)
        p = plan(cw, Pose(0, 0, 1), (6, 0), 3.0)
        cep = Episode(
            id=5, world=cw, start=Pose(0, 0, 1), goal=(6, 0),
            reference_path=tuple(p.poses),
            instruction=compile_instruction(p.actions), goal_radius=3.0,
        )
        prog = prefix_progress([(x, 0) for x in range(4)], cep.reference_waypoints,
                               cfg.visit_radius_m, cell_size)[-1]
        got = triggers(cep, Pose(3, 0, 1), stopped=True, progress=prog)
        checks[f"stop at 3.0m x {cell_size}"] = got is want

    failed = [name for name, ok in checks.items() if not ok]
    verdict(4, not failed,
            f"{len(checks)} boundary cases exact" if not failed else f"failed: {failed}")


# -------------------------------------------------------- 5: demo consistency

def test_criterion_5_synthesized_demos_stay_consistent():
    pool = episode_pool(n=60, base=5000)
    made = bad_prog = bad_end = bad_anchor = 0
    k = 0
    while made < 500:
        ep = pool[k % len(pool)]
        probe = run_greedy(snapshot(init_params(SMALL, k % 17), "old"), ep)
        k += 1
        if probe.success:
            continue
        demo = synthesize_demo(probe, ep)
        pose = ep.start
        positions = [pose.position]
        actions = demo.retained_prefix.actions.tolist() + list(demo.oracle_actions)
        for i, a in enumerate(actions):
            pose = step(ep.world, pose, Action(a))
            positions.append(pose.position)
            if i + 1 == demo.anchor_step and pose != demo.anchor_pose:
                bad_anchor += 1
        cell = ep.world.cell_size
        prog = prefix_progress(positions, ep.reference_waypoints, 0.5, cell)
        if any(b < a for a, b in zip(prog, prog[1:])):
            bad_prog += 1
        if euclid_m(pose.position, ep.goal, cell) > ep.goal_radius:
            bad_end += 1
        made += 1
    ok = bad_prog == bad_end == bad_anchor == 0
    verdict(5, ok, f"{made} demos from seeded failures: {bad_prog} progress dips, "
                   f"{bad_end} end outside the goal zone, {bad_anchor} anchor misses")


# ------------------------------------------------------ 6: routing exclusivity

def test_criterion_6_routes_are_mutually_exclusive():
    cfg = desk_config("full", 0)
    params = init_params(cfg.policy, cfg.run_seed)
    params, ref = pretrain_bc(
        params, (training_episode(cfg, "pretrain", i) for i in range(400)), cfg
    )
    opt = OptimizerState.zeros(params.count)
    routes = {"grpo": 0, "rect": 0}
    worst = 0.0
    clean = True
    for i in range(1000):
        ep = training_episode(cfg, "train", i)
        # Routing is deterministic, so this is the outcome gro_step routes.
        outcome = route_episode(params, ep, cfg)
        new_params, new_opt, report = gro_step(params, opt, ep, ref, cfg)
        routes[report.route] += 1
        clean &= not outcome.skipped
        clean &= (outcome.group is None) != (outcome.demo is None)
        clean &= report.route == ("grpo" if outcome.group is not None else "rect")
        want_rollouts = cfg.grpo.group_size if report.route == "grpo" else 1
        clean &= report.rollouts_used == want_rollouts
        # The update must be exactly one AdamW step on the routed
        # standalone gradient, bit for bit.
        _, standalone = outcome_loss_and_grad(params, outcome, ref, cfg)
        want, _ = adamw_update(params, standalone, opt, cfg.opt)
        clean &= np.array_equal(new_params.theta, want.theta)
        worst = max(worst, float(np.max(np.abs(new_params.theta - want.theta))))
        params, opt = new_params, new_opt
    ok = clean and worst == 0.0 and routes["grpo"] > 0 and routes["rect"] > 0
    verdict(6, ok, f"1000 episodes: {routes['grpo']} grpo / {routes['rect']} rect, "
                   f"one exclusive route each, applied params diff {worst:.1e}")


# --------------------------------------------------- 7-9: benchmark direction

def test_criterion_7_full_training_beats_bc_start(desk_runs):
    runs, elapsed = desk_runs
    gains = [eval_sr(runs["full", s][1], -1) - eval_sr(runs["full", s][1], 0) for s in SEEDS]
    wins = sum(g >= 10.0 for g in gains)
    ok = wins >= 2 and elapsed < 45 * 60
    verdict(7, ok, "SR gain over the BC-pretrained start "
            + "/".join(f"{g:+.1f}" for g in gains)
            + f", {wins}/3 seeds >= +10, nine runs in {elapsed:.0f}s")


def test_criterion_8_full_keeps_efficiency(desk_runs):
    runs, _ = desk_runs
    pairs = [(eval_spl(runs["full", s][1], -1), eval_spl(runs["rect_only", s][1], -1)) for s in SEEDS]
    wins = sum(f >= r for f, r in pairs)
    verdict(8, wins >= 2, "final SPL full vs rect_only "
            + " ".join(f"{f:.1f}>={r:.1f}" for f, r in pairs) + f", {wins}/3 seeds")


def test_criterion_9_full_matches_dagger(desk_runs):
    runs, _ = desk_runs
    pairs = [(eval_sr(runs["full", s][1], -1), eval_sr(runs["dagger", s][1], -1)) for s in SEEDS]
    wins = sum(f >= d for f, d in pairs)
    # Both strategies route through the same probe and trigger machinery;
    # their failure reports draw from the same trigger vocabulary.
    kinds = {t.value for t in TriggerKind}
    shared = all(
        r.trigger is None or r.trigger in kinds
        for s in SEEDS
        for variant in ("full", "dagger")
        for r in runs[variant, s][1].reports
    )
    verdict(9, wins >= 2 and shared, "final SR full vs dagger "
            + " ".join(f"{f:.1f}>={d:.1f}" for f, d in pairs) + f", {wins}/3 seeds")


# ------------------------------------------------------- 10: cost accounting

def test_criterion_10_env_step_accounting(desk_runs, tmp_path, capsys):
    runs, _ = desk_runs
    reports = [r for s in SEEDS for r in runs["full", s][1].reports]
    # The hard-sample pathway never draws stochastic group rollouts: a
    # rect route consumes exactly its one deterministic probe.
    probe_only = all(r.rollouts_used == 1 for r in reports if r.route == "rect")
    logged = all(r.env_steps_used >= 1 for r in reports)
    csv_ok = all(
        row.split(",")[-1].isdigit()
        for s in SEEDS
        for row in runs["full", s][1].csv_rows[1:]
    )

    out = tmp_path / "cmp"
    code = main(["compare", "--configs", str(CONFIGS / "smoke.cfg"),
                 "--seeds", "0", "--out", str(out)])
    table = (out / "compare.txt").read_text().splitlines()
    header = table[0].split()
    smoke_row = next(ln for ln in table if ln.startswith("smoke"))
    env_col = int(smoke_row.split()[header.index("env-steps")])
    capsys.readouterr()
    ok = probe_only and logged and csv_ok and code == 0 and env_col > 0
    verdict(10, ok, f"{len(reports)} reports log env steps, rect routes used the "
                    f"probe only, compare table reports env-steps={env_col}")


# ---------------------------------------------------------- 11: determinism

def test_criterion_11_reruns_are_byte_identical(tmp_path, capsys):
    cfg = str(CONFIGS / "smoke.cfg")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", cfg, "--out", str(a)]) == 0
    assert main(["train", "--config", cfg, "--out", str(b)]) == 0
    same = {
        rel: (a / rel).read_bytes() == (b / rel).read_bytes()
        for rel in ("metrics.csv", "suite.suite",
                    "checkpoints/pretrain.ckpt", "checkpoints/final.ckpt")
    }
    ea, eb = tmp_path / "ea", tmp_path / "eb"
    for out in (ea, eb):
        assert main(["eval", "--ckpt", str(a / "checkpoints" / "final.ckpt"),
                     "--suite", str(a / "suite.suite"), "--out", str(out)]) == 0
    same["eval metrics.csv"] = (ea / "metrics.csv").read_bytes() == (eb / "metrics.csv").read_bytes()
    capsys.readouterr()  # keep the CLI's own run chatter out of the gate table
    bad = [k for k, v in same.items() if not v]
    verdict(11, not bad,
            "train and eval reruns byte-identical" if not bad else f"differs: {bad}")


# --------------------------------------------------------- 12: metric sanity

def test_criterion_12_metric_invariants(desk_runs):
    runs, _ = desk_runs
    rows = [rep for (_, result) in runs.values() for _, rep in result.evals]
    bounds = all(r.spl <= r.sr + 1e-9 and r.osr >= r.sr - 1e-9 for r in rows)

    cfg, result = runs["full", 0]
    held = build_held_episodes(cfg.suite, 40)
    outcome = evaluate(snapshot(result.params, "eval"), held, cfg.rollout)
    per_ep = all(
        r.spl <= float(r.success) and r.osr >= float(r.success)
        for r in outcome.results
    )

    rng = np.random.default_rng(121)
    worst = 0.0
    for _ in range(60):
        path = [tuple(p) for p in rng.integers(0, 6, size=(int(rng.integers(1, 7)), 2))]
        ref = [tuple(p) for p in rng.integers(0, 6, size=(int(rng.integers(1, 7)), 2))]
        worst = max(worst, abs(dtw_distance(path, ref) - dtw_oracle(path, ref)))

    self_identity = all(
        ndtw(list(ep.reference_waypoints), list(ep.reference_waypoints),
             ep.goal_radius, ep.world.cell_size) == 1.0
        for ep in held
    )
    ok = bounds and per_ep and worst <= 1e-9 and self_identity
    verdict(12, ok, f"{len(rows)} eval rows keep SPL<=SR and OSR>=SR, dtw vs brute "
                    f"force diff <= {worst:.1e}, ndtw(ref,ref)=1 on {len(held)} refs")
