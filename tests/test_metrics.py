"""Navigation metrics against brute-force oracles, and trigger-free eval."""
import math
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from budnav.metrics import (
    METRICS_HEADER,
    EpisodeResult,
    aggregate,
    dtw_distance,
    dtw_distances,
    episode_result,
    evaluate,
    format_metrics_row,
    navigation_error,
    ndtw,
    oracle_success,
    spl,
)
from budnav.oracle import geodesic_field
from budnav.policy import PolicyConfig, init_params, snapshot
from budnav.rollout import RolloutJob, Steps, Trajectory, run_lockstep
from budnav.suite import build_held_episodes, parse_suite
from budnav.world import (
    MAX_SIDE, Action, Pose, dedup_positions, euclid_m, generate_episode, generate_world,
)

from conftest import walled_world
from test_oracle import bfs_distance_oracle
from test_lockstep import mixed_worlds, pretrained_policy  # noqa: F401 (a fixture)
from test_rollout import corridor_episode, run_script

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

F, L, R, S = Action.FORWARD, Action.TURN_LEFT, Action.TURN_RIGHT, Action.STOP


def dtw_oracle(path, reference, cell_size=1.0):
    """Exhaustive recursion over all monotone alignments (tiny inputs only)."""

    def go(i, j):
        if i == 0 and j == 0:
            return 0.0
        if i == 0 or j == 0:
            return math.inf
        cost = math.hypot(
            path[i - 1][0] - reference[j - 1][0],
            path[i - 1][1] - reference[j - 1][1],
        ) * cell_size
        return cost + min(go(i - 1, j), go(i, j - 1), go(i - 1, j - 1))

    return go(len(path), len(reference))


# ----------------------------------------------------------- scalar metrics

def test_navigation_error_is_geodesic():
    w = walled_world()
    ep = corridor_episode()
    # On the walled world the straight line under-counts; the metric
    # must agree with an independent BFS from the goal.
    goal = (3, 2)
    dist = bfs_distance_oracle(w, goal)
    import dataclasses

    for cell in [(1, 2), (0, 0), (4, 4)]:
        traj = Trajectory(
            episode_id=0, mode="greedy", rng_stream_id=0, steps=Steps(w.width),
            final_pose=Pose(cell[0], cell[1], 0), stopped=True, success=False,
            trigger=None, path_length=0.0,
        )
        ep2 = dataclasses.replace(ep, world=w, goal=goal)
        assert navigation_error(traj, ep2) == pytest.approx(dist[cell])


def test_oracle_success_uses_geodesic_not_euclid():
    # (1,2) is 2 m from (3,2) as the crow flies but 6 m around the wall.
    w = walled_world()
    import dataclasses

    ep = dataclasses.replace(corridor_episode(), world=w, goal=(3, 2))
    near_wall = Trajectory(
        episode_id=0, mode="greedy", rng_stream_id=0, steps=Steps(w.width),
        final_pose=Pose(1, 2, 0), stopped=True, success=False,
        trigger=None, path_length=0.0,
    )
    assert not oracle_success(near_wall, ep)
    around = Trajectory(
        episode_id=0, mode="greedy", rng_stream_id=0, steps=Steps(w.width),
        final_pose=Pose(3, 0, 0), stopped=True, success=False,
        trigger=None, path_length=0.0,
    )
    assert oracle_success(around, ep)  # geodesic 2 m from (3,0)


def test_oracle_success_counts_walled_off_successful_stop():
    # The Euclidean goal zone reaches across the wall: stopping at (1,2)
    # succeeds at 2 m even though the geodesic detour is 6 m, and OSR
    # must not drop below SR there.
    import dataclasses

    w = walled_world()
    ep = dataclasses.replace(corridor_episode(), world=w, goal=(3, 2))
    traj = Trajectory(
        episode_id=0, mode="greedy", rng_stream_id=0, steps=Steps(w.width),
        final_pose=Pose(1, 2, 0), stopped=True, success=True,
        trigger=None, path_length=0.0,
    )
    assert oracle_success(traj, ep)
    r = episode_result(traj, ep)
    assert r.osr >= float(r.success)


def test_oracle_success_covers_whole_visit_sequence():
    ep = corridor_episode()
    # Passes through the zone (5,0) then backtracks out and stops far away.
    traj = run_script(ep, [F] * 6 + [L, L] + [F] * 6 + [S], triggers=False)
    assert not traj.success
    assert oracle_success(traj, ep)


# -------------------------------------------------------------------- nDTW

def test_dtw_matches_exhaustive_oracle():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n, m = rng.integers(1, 7), rng.integers(1, 7)
        path = [tuple(p) for p in rng.integers(0, 8, size=(n, 2))]
        ref = [tuple(p) for p in rng.integers(0, 8, size=(m, 2))]
        assert dtw_distance(path, ref) == pytest.approx(dtw_oracle(path, ref))


def dtw_table_reference(path, reference, cell_size=1.0):
    """The numpy-table DTW that dtw_distance replaced, kept as a reference."""
    n, m = len(path), len(reference)
    acc = np.full((n + 1, m + 1), math.inf)
    acc[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = euclid_m(path[i - 1], reference[j - 1], cell_size)
            acc[i, j] = cost + min(acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1])
    return float(acc[n, m])


def test_dtw_is_bit_identical_to_the_table_reference():
    rng = np.random.default_rng(12)
    cases = []
    for _ in range(200):
        n, m = rng.integers(1, 40), rng.integers(1, 30)
        path = [tuple(int(v) for v in p) for p in rng.integers(0, 12, size=(n, 2))]
        ref = [tuple(int(v) for v in p) for p in rng.integers(0, 12, size=(m, 2))]
        cases.append((path, ref, float(rng.choice([1.0, 0.5, 2.5, 0.3]))))
    ref = [(0, 0), (1, 0), (1, 1), (2, 1), (3, 1)]
    cases += [
        ([(4, 2)], ref, 1.0),  # one-point path
        (ref, [(4, 2)], 0.3),  # one-point reference
        ([(4, 2)], [(4, 2)], 1.0),
        (ref, list(ref), 0.7),  # reference equal to the path
        ([], ref, 1.0),
        (ref, [], 1.0),
        ([], [], 1.0),
    ]
    # Offsets of MAX_SIDE - 1 cells on both axes, the widest one grid holds.
    far = MAX_SIDE - 1
    cases += [
        ([(0, 0), (far, far), (0, far)], [(far, 0), (far, far), (0, 0)], 0.5),
        ([(far, far)], [(0, 0)], 1.0),
    ]
    want = [dtw_table_reference(path, reference, cell) for path, reference, cell in cases]
    for (path, reference, cell), expected in zip(cases, want):
        got = dtw_distance(path, reference, cell)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (path, reference, cell)
    # All cases as one batch, forward and reversed: a pair's distance
    # does not depend on the pairs swept with it.
    for batch in (cases, cases[::-1]):
        got = dtw_distances(*zip(*batch))
        expected = [dtw_table_reference(*case) for case in batch]
        assert all(type(g) is float for g in got)
        assert np.array(got).tobytes() == np.array(expected).tobytes()
    assert dtw_distance(ref, list(ref)) == 0.0


def test_dtw_cell_size_scales_linearly():
    path = [(0, 0), (1, 0), (2, 1)]
    ref = [(0, 1), (2, 2)]
    assert dtw_distance(path, ref, 2.5) == pytest.approx(2.5 * dtw_distance(path, ref))


def test_ndtw_self_is_exactly_one():
    ref = [(0, 0), (1, 0), (2, 0), (2, 1)]
    assert ndtw(ref, ref) == 1.0


def test_ndtw_translation_invariant():
    ref = [(0, 0), (1, 0), (2, 0)]
    path = [(0, 0), (1, 1), (2, 0)]
    shifted_ref = [(x + 7, y - 3) for x, y in ref]
    shifted_path = [(x + 7, y - 3) for x, y in path]
    assert ndtw(path, ref) == pytest.approx(ndtw(shifted_path, shifted_ref))


def test_dtw_keeps_diagonals_not_the_table():
    # A 600 x 600 pair: its full accumulated-cost table would be 2.9 MB,
    # three diagonals are 14 KB (and the offset table of a 64-cell span
    # 129 KB).  The sweep's peak allocation stays far below the full
    # table, and the distance matches the reference.
    path = [(i % 64, i // 64) for i in range(600)]
    reference = path[::-1]
    tracemalloc.start()
    try:
        got = dtw_distance(path, reference)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000
    assert np.float64(got).tobytes() == np.float64(dtw_table_reference(path, reference, 1.0)).tobytes()


def test_ndtw_parallel_shift_closed_form():
    # A copy of the reference offset by d has every aligned pair at cost
    # exactly d, so DTW = |R| * d and nDTW = exp(-d / threshold).
    ref = [(x, 0) for x in range(6)]
    for d in [1.0, 2.0, 4.0]:
        path = [(x, d) for x in range(6)]
        assert ndtw(path, ref, threshold=3.0) == pytest.approx(math.exp(-d / 3.0))


def test_dtw_points_are_integer_cells():
    # An integral float is its cell; any other coordinate is refused.
    assert dtw_distance([(1.0, 2.0), (3, 4.0)], [(1, 2)]) == dtw_distance([(1, 2), (3, 4)], [(1, 2)])
    for bad in (0.5, math.nan, math.inf, "1", None):
        with pytest.raises(TypeError, match="integer cells"):
            dtw_distance([(0, 0), (1, bad)], [(0, 0)])
        with pytest.raises(TypeError, match="integer cells"):
            ndtw([(0, 0)], [(bad, 0)])


# -------------------------------------------------------- per-episode report

def test_episode_result_invariants_hold():
    ep = corridor_episode()
    success = run_script(ep, [F] * 5 + [S])
    failure = run_script(ep, [F, S])
    for traj in (success, failure):
        r = episode_result(traj, ep)
        assert r.spl <= float(r.success)
        assert r.osr >= float(r.success)
        assert r.ne >= 0.0
        assert 0.0 < r.ndtw <= 1.0


def test_episode_result_perfect_run():
    ep = corridor_episode()
    traj = run_script(ep, [F] * 5 + [S])
    r = episode_result(traj, ep)
    assert r.success and r.spl == 1.0 and r.osr == 1.0
    assert r.ne == pytest.approx(3.0)
    assert r.ndtw == 1.0  # visited cells coincide with the reference


def episode_result_reference(traj, episode):
    """episode_result from the poses, one episode at a time: OSR by
    field.at over every visited position, nDTW by the table DTW over
    dedup_positions(traj.poses())."""
    field = geodesic_field(episode.world, episode.goal)
    osr = traj.success or any(field.at(p.x, p.y) <= episode.goal_radius for p in traj.poses())
    reference = list(episode.reference_waypoints)
    distance = dtw_table_reference(
        list(dedup_positions(traj.poses())), reference, episode.world.cell_size
    )
    return EpisodeResult(
        episode_id=episode.id,
        success=traj.success,
        spl=spl(traj, episode),
        osr=float(osr),
        ne=navigation_error(traj, episode),
        ndtw=math.exp(-distance / (len(reference) * episode.goal_radius)),
        path_length=traj.path_length,
        steps=len(traj.steps),
    )


def assert_results_equal_the_reference(outcome, episodes):
    for episode, traj, got in zip(episodes, outcome.trajectories, outcome.results, strict=True):
        want = episode_result_reference(traj, episode)
        assert repr(astuple(got)) == repr(astuple(want))
        assert got == want


@pytest.mark.parametrize("policy", ["initial", "pretrained"])
def test_episode_result_from_arrays_equals_the_pose_reference(policy, mixed_worlds):
    # Every held desk episode, under the initial policy (which mostly
    # stops at once) and a BC-pretrained one (which walks, revisits
    # cells and passes through the goal zone).
    held = build_held_episodes(parse_suite((CONFIGS / "desk.suite").read_text()))
    assert len(held) == 200
    if policy == "initial":
        snap = snapshot(init_params(PolicyConfig(), 0))
    else:
        snap = pretrained_policy(600)
    outcome = evaluate(snap, held)
    assert_results_equal_the_reference(outcome, held)
    if policy == "pretrained":
        # Some failures pass through the goal zone: OSR above SR.
        assert sum(r.osr for r in outcome.results) > sum(r.success for r in outcome.results)
    # One evaluation over worlds of five extents and one of half-meter
    # cells: its paths and references are padded to the longest in the
    # batch, and each pair is scored at its own cell size.
    half = generate_world(7, 9, 9, 0.12, cell_size=0.5)
    episodes = mixed_worlds + [generate_episode(half, 300 + i, min_length=3.0) for i in range(8)]
    outcome = evaluate(snap, episodes)
    assert_results_equal_the_reference(outcome, episodes)
    assert len({len(dedup_positions(t.poses())) for t in outcome.trajectories}) >= 2
    assert len({len(e.reference_waypoints) for e in episodes}) >= 3


def test_aggregate_means_and_percentages():
    ep = corridor_episode()
    good = episode_result(run_script(ep, [F] * 5 + [S]), ep)
    bad = episode_result(run_script(ep, [S]), ep)
    rep = aggregate([good, bad])
    assert rep.n == 2
    assert rep.sr == pytest.approx(50.0)
    assert rep.spl == pytest.approx(50.0)
    assert rep.ne == pytest.approx((3.0 + 8.0) / 2)
    assert aggregate([]).n == 0


# -------------------------------------------------------------- evaluation

def held_episodes(n=6):
    eps = []
    for i in range(n):
        w = generate_world(30 + i, 9, 9, density=0.12)
        eps.append(generate_episode(w, seed=100 + i))
    return eps


def test_evaluate_orders_results_by_episode(default_policy):
    eps = held_episodes()
    out = evaluate(snapshot(default_policy, "eval"), eps)
    assert [r.episode_id for r in out.results] == [ep.id for ep in eps]
    assert len(out.trajectories) == len(eps)
    assert out.report.n == len(eps)


def test_evaluate_does_not_mutate_params(default_policy):
    snap = snapshot(default_policy, "eval")
    before = default_policy.flatten()
    evaluate(snap, held_episodes(3))
    assert np.array_equal(default_policy.flatten(), before)


def test_evaluate_is_trigger_free(default_policy):
    eps = held_episodes()
    out = evaluate(snapshot(default_policy, "eval"), eps)
    assert all(t.trigger is None for t in out.trajectories)


def test_evaluate_matches_direct_greedy_rollouts(default_policy):
    eps = held_episodes(4)
    snap = snapshot(default_policy, "eval")
    out = evaluate(snap, eps)
    for ep, traj in zip(eps, out.trajectories):
        direct = run_lockstep(snap, [RolloutJob(ep, triggers=False)])[0]
        assert direct.steps.actions.tolist() == traj.steps.actions.tolist()


# ------------------------------------------------------------------ format

def test_metrics_row_formatting_is_fixed():
    from budnav.metrics import MetricsReport

    rep = MetricsReport(n=200, sr=61.5, spl=54.321, osr=80.0, ne=2.345, ndtw=71.06)
    row = format_metrics_row(1500, rep, 0.4275, 123456)
    assert row == "1500,200,61.5,54.3,80.0,2.35,71.1,0.427,123456"
    assert METRICS_HEADER == "step,n,sr,spl,osr,ne,ndtw,route_grpo_frac,env_steps_total"
