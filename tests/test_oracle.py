"""Planner correctness against brute-force searches, plus tracking helpers."""
import math
from collections import deque

import pytest

from budnav.errors import InvalidGoal, Unreachable
from budnav.oracle import geodesic_field, path_deviation, plan, progress_index
from budnav.world import Action, HEADING_VECS, GridWorld, Pose, euclid_m, generate_world, step

from conftest import corridor_world, open_world, walled_world


# ----------------------------------------------------- independent oracles

def bfs_distance_oracle(world, goal):
    """Plain dict BFS, written independently of the field implementation."""
    dist = {goal: 0}
    q = deque([goal])
    while q:
        x, y = q.popleft()
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            n = (x + dx, y + dy)
            if world.is_free(*n) and n not in dist:
                dist[n] = dist[(x, y)] + 1
                q.append(n)
    return {c: d * world.cell_size for c, d in dist.items()}


def pose_bfs_cost_oracle(world, start, goal, goal_radius):
    """Minimum action count by uniform-cost BFS over (x, y, heading)."""

    def in_zone(x, y):
        return euclid_m((x, y), goal, world.cell_size) <= goal_radius

    if in_zone(start.x, start.y):
        return 1  # just STOP
    seen = {(start.x, start.y, start.heading)}
    q = deque([(start, 0)])
    while q:
        pose, cost = q.popleft()
        if in_zone(pose.x, pose.y):
            return cost + 1  # plus the final STOP
        for action in (Action.FORWARD, Action.TURN_LEFT, Action.TURN_RIGHT):
            nxt = step(world, pose, action)
            key = (nxt.x, nxt.y, nxt.heading)
            if key not in seen:
                seen.add(key)
                q.append((nxt, cost + 1))
    return None


# ---------------------------------------------------------- geodesic field

def test_field_matches_bfs_oracle_on_random_worlds():
    for seed in range(15):
        w = generate_world(seed=seed, width=9, height=7, density=0.2)
        goal = w.free_cells()[seed % len(w.free_cells())]
        field = geodesic_field(w, goal)
        want = bfs_distance_oracle(w, goal)
        for (x, y), d in want.items():
            assert field.at(x, y) == d
        for x, y in w.blocked:
            assert math.isinf(field.at(x, y))


def test_field_zero_at_goal_and_scales_with_cell_size():
    w = open_world(6, 6, cell_size=0.5)
    field = geodesic_field(w, (2, 3))
    assert field.at(2, 3) == 0.0
    assert field.at(5, 3) == 1.5  # three cells at half a meter


def test_field_rejects_blocked_goal():
    w = walled_world()
    with pytest.raises(InvalidGoal):
        geodesic_field(w, (2, 2))


def test_field_is_memoized_per_world_and_goal_and_read_only():
    w = generate_world(seed=40, width=9, height=7, density=0.2)
    goal, other = w.free_cells()[0], w.free_cells()[-1]
    field = geodesic_field(w, goal)
    assert geodesic_field(w, goal) is field
    assert geodesic_field(w, other) is not field
    with pytest.raises(ValueError):
        field.dist[goal[1], goal[0]] = 5.0
    # An equal world built separately gets its own, identical field.
    twin = GridWorld(w.width, w.height, w.blocked, w.cell_size, w.seed)
    assert twin == w
    twin_field = geodesic_field(twin, goal)
    assert twin_field is not field
    assert twin_field.dist.tobytes() == field.dist.tobytes()
    # A blocked goal is rejected on every call, never memoized.
    blocked = next(iter(w.blocked))
    for _ in range(2):
        with pytest.raises(InvalidGoal):
            geodesic_field(w, blocked)


# -------------------------------------------------------------------- plan

def test_plan_cost_matches_pose_bfs_on_random_worlds():
    checked = 0
    for seed in range(25):
        w = generate_world(seed=100 + seed, width=8, height=8, density=0.2)
        free = w.free_cells()
        start = Pose(*free[seed % len(free)], heading=seed % 4)
        goal = free[(7 * seed + 3) % len(free)]
        for radius in (0.0, 1.0, 2.0):
            want = pose_bfs_cost_oracle(w, start, goal, radius)
            if want is None:
                with pytest.raises(Unreachable):
                    plan(w, start, goal, radius)
            else:
                assert plan(w, start, goal, radius).cost == want
                checked += 1
    assert checked > 40


def test_plan_executes_to_the_goal_zone():
    w = generate_world(seed=9, width=10, height=10, density=0.2)
    free = w.free_cells()
    start = Pose(*free[0], heading=1)
    goal = free[-1]
    p = plan(w, start, goal, goal_radius=1.0)
    pose = start
    for a in p.actions:
        pose = step(w, pose, a)
    assert pose == p.poses[-1]
    assert euclid_m(pose.position, goal, w.cell_size) <= 1.0
    assert p.actions[-1] == Action.STOP
    assert all(a != Action.STOP for a in p.actions[:-1])


def test_plan_stops_at_first_pose_inside_zone():
    # Start 4 cells from the goal with radius 3: one FORWARD suffices.
    w = corridor_world(10)
    p = plan(w, Pose(0, 0, 1), (4, 0), goal_radius=3.0)
    assert p.actions == (Action.FORWARD, Action.STOP)


def test_plan_start_already_in_zone():
    w = open_world()
    p = plan(w, Pose(2, 2, 0), (3, 2), goal_radius=3.0)
    assert p.actions == (Action.STOP,)
    assert p.poses == (Pose(2, 2, 0), Pose(2, 2, 0))


def test_plan_prefers_forward_on_cost_ties():
    # From (0,0) facing E with the goal at (2,0), radius 1: both
    # FORWARD,STOP and any turning detour of equal cost exist only if
    # FORWARD is on a shortest path; expansion order must pick it.
    w = corridor_world(5)
    p = plan(w, Pose(0, 0, 1), (2, 0), goal_radius=1.0)
    assert p.actions == (Action.FORWARD, Action.STOP)


def test_plan_about_turn_tie_is_stable():
    # Goal directly behind: LEFT,LEFT and RIGHT,RIGHT tie on cost.  The
    # pop order (cost, y, x, heading) processes the east-facing pose
    # before the west-facing one, so the rightward turn wins the
    # first-writer relaxation.  Frozen as a regression.
    w = open_world(7, 7)
    p = plan(w, Pose(3, 3, 0), (3, 6), goal_radius=2.0)
    assert p.actions == (
        Action.TURN_RIGHT,
        Action.TURN_RIGHT,
        Action.FORWARD,
        Action.STOP,
    )


def test_plan_deterministic():
    w = generate_world(seed=42, width=10, height=10, density=0.2)
    free = w.free_cells()
    a = plan(w, Pose(*free[2], heading=3), free[-3], 2.0)
    b = plan(w, Pose(*free[2], heading=3), free[-3], 2.0)
    assert a == b


def test_plan_unreachable_raises():
    # Goal zone radius 0 around a cell walled off from the start.
    blocked = frozenset({(1, 0), (1, 1), (1, 2)})
    from budnav.world import GridWorld

    w = GridWorld(3, 3, blocked)
    with pytest.raises(Unreachable):
        plan(w, Pose(0, 0, 0), (2, 1), goal_radius=0.0)


def test_plan_rejects_blocked_start():
    w = walled_world()
    with pytest.raises(InvalidGoal):
        plan(w, Pose(2, 2, 0), (0, 0), 1.0)


# ---------------------------------------------------------------- tracking

def test_progress_requires_order():
    waypoints = [(0, 0), (1, 0), (2, 0), (3, 0)]
    # Touching waypoint 2 before 1 does not count it.
    assert progress_index([(2, 0)], waypoints) == -1
    assert progress_index([(0, 0), (2, 0)], waypoints) == 0
    assert progress_index([(0, 0), (1, 0), (2, 0)], waypoints) == 2
    # A single position can advance several waypoints only when they
    # coincide within the radius; otherwise one at a time.
    assert progress_index([(0, 0), (1, 0)], waypoints) == 1


def test_progress_counts_earliest_arrival_once():
    waypoints = [(0, 0), (1, 0), (2, 0)]
    # Revisit of waypoint 1 after reaching 2 changes nothing.
    path = [(0, 0), (1, 0), (2, 0), (1, 0)]
    assert progress_index(path, waypoints) == 2


def test_progress_is_monotone_in_the_path_prefix():
    waypoints = [(0, 0), (1, 0), (2, 0), (2, 1)]
    path = [(0, 0), (0, 1), (1, 1), (1, 0), (2, 0), (2, 1)]
    values = [progress_index(path[: i + 1], waypoints) for i in range(len(path))]
    assert values == sorted(values)


def test_progress_respects_visit_radius():
    waypoints = [(0, 0), (3, 0)]
    assert progress_index([(0, 0), (3, 1)], waypoints, visit_radius=0.5) == 0
    assert progress_index([(0, 0), (3, 1)], waypoints, visit_radius=1.0) == 1


def test_deviation_is_min_distance_to_reference():
    waypoints = [(0, 0), (1, 0), (2, 0)]
    dev, _ = path_deviation((1, 2), 0, waypoints, progress=0, goal=(2, 0))
    assert dev == 2.0
    dev, _ = path_deviation((2, 0), 0, waypoints, progress=2, goal=(2, 0))
    assert dev == 0.0


def test_heading_error_values():
    waypoints = [(0, 0), (3, 0)]
    # Facing E toward the next waypoint at (3,0): zero error.
    _, err = path_deviation((0, 0), 1, waypoints, progress=0, goal=(3, 0))
    assert err == pytest.approx(0.0)
    # Facing W, target due E: 180 degrees.
    _, err = path_deviation((0, 0), 3, waypoints, progress=0, goal=(3, 0))
    assert err == pytest.approx(180.0)
    # Facing N, target due E: 90 degrees.
    _, err = path_deviation((0, 0), 0, waypoints, progress=0, goal=(3, 0))
    assert err == pytest.approx(90.0)
    # Diagonal bearing: 45 degrees.
    _, err = path_deviation((0, 0), 1, [(0, 0), (2, 2)], progress=0, goal=(2, 2))
    assert err == pytest.approx(45.0)


def test_heading_error_zero_on_target():
    waypoints = [(0, 0), (1, 0)]
    _, err = path_deviation((1, 0), 2, waypoints, progress=0, goal=(5, 5))
    assert err == 0.0


def test_heading_error_targets_goal_after_last_waypoint():
    waypoints = [(0, 0), (1, 0)]
    # All waypoints visited: bearing measured to the goal, due south.
    _, err = path_deviation((1, 0), 2, waypoints, progress=1, goal=(1, 5))
    assert err == pytest.approx(0.0)
