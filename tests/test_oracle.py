"""Planner correctness against brute-force searches, plus tracking helpers."""
import heapq
import math
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from budnav.errors import InvalidGoal, Unreachable
from budnav.oracle import (
    geodesic_field,
    goal_zone,
    offsets_within,
    path_deviation,
    plan,
)
from budnav.suite import generate_world, parse_suite, suite_world
from budnav.world import (
    Action, HEADING_VECS, GridWorld, Pose, euclid_m, pose_state, state_pose, step, transitions,
)

from conftest import corridor_world, open_world, prefix_progress, reference_step, walled_world

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
            nxt = reference_step(world, pose, action)
            key = (nxt.x, nxt.y, nxt.heading)
            if key not in seen:
                seen.add(key)
                q.append((nxt, cost + 1))
    return None


def heap_plan_reference(world, start, goal, goal_radius=3.0):
    """The heap planner over Pose objects that plan() replaced.

    Pops equal-cost states in ascending (y, x, heading), expands them in
    the order FORWARD, TURN_LEFT, TURN_RIGHT and relaxes first-writer;
    returns (actions, poses) or raises like plan().
    """
    if not world.is_free(start.x, start.y):
        raise InvalidGoal(f"start on blocked cell: {start}")

    def in_zone(x, y):
        return euclid_m((x, y), goal, world.cell_size) <= goal_radius

    if in_zone(start.x, start.y):
        return (Action.STOP,), (start, start)

    start_key = (start.x, start.y, start.heading)
    best = {start_key: 0}
    parents = {}
    heap = [(0, start.y, start.x, start.heading)]
    while heap:
        cost, y, x, h = heapq.heappop(heap)
        key = (x, y, h)
        if cost > best.get(key, math.inf):
            continue  # stale entry
        if in_zone(x, y):
            actions = []
            while key != start_key:
                key, action = parents[key]
                actions.append(action)
            actions.reverse()
            actions.append(Action.STOP)
            poses = [start]
            for a in actions:
                poses.append(reference_step(world, poses[-1], a))
            return tuple(actions), tuple(poses)
        pose = Pose(x, y, h)
        for action in (Action.FORWARD, Action.TURN_LEFT, Action.TURN_RIGHT):
            nxt = reference_step(world, pose, action)
            nkey = (nxt.x, nxt.y, nxt.heading)
            if nkey == key:
                continue  # bumped a wall
            if cost + 1 < best.get(nkey, math.inf):
                best[nkey] = cost + 1
                parents[nkey] = (key, action)
                heapq.heappush(heap, (cost + 1, nxt.y, nxt.x, nxt.heading))
    raise Unreachable(f"goal zone around {goal} unreachable from {start}")


RADII = (0.0, 1.0, 1.5, 3.0)


def outcome(planner, world, start, goal, radius):
    """(actions, poses) of a planner, or the type of the error it raised."""
    try:
        result = planner(world, start, goal, radius)
    except (InvalidGoal, Unreachable) as e:
        return type(e)
    if planner is plan:
        assert all(type(a) is Action for a in result.actions)
        return result.actions, result.poses
    return result


def assert_plans_match_reference(world, goals_and_radii):
    """Every free start cell and heading, for each (goal, radius)."""
    outcomes = set()
    for goal, radius in goals_and_radii:
        for x, y in world.free_cells():
            for h in range(4):
                start = Pose(x, y, h)
                want = outcome(heap_plan_reference, world, start, goal, radius)
                got = outcome(plan, world, start, goal, radius)
                assert got == want, (world, start, goal, radius)
                outcomes.add(want if isinstance(want, type) else len(want[0]))
    return outcomes


def desk_worlds():
    suite = parse_suite((CONFIGS / "desk.suite").read_text())
    held = sorted({ws for ws, _ in suite.held_pairs})
    return [suite_world(suite, ws) for ws in (*suite.train_world_seeds, *held)]


def scattered_world(seed, width, height, density):
    """Blocked cells drawn without a connectivity check: may split."""
    rng = np.random.default_rng(seed)
    mask = rng.random((height, width)) < density
    blocked = frozenset((int(x), int(y)) for y, x in zip(*np.nonzero(mask)))
    return GridWorld(width, height, blocked, cell_size=(1.0, 0.5, 1.3)[seed % 3], seed=seed)


def serpentine_world(width=7, height=7):
    """1-wide corridor snaking through every other row."""
    blocked = set()
    for row in range(1, height, 2):
        gap = width - 1 if row % 4 == 1 else 0
        blocked |= {(x, row) for x in range(width) if x != gap}
    return GridWorld(width, height, frozenset(blocked))


def test_plan_matches_heap_reference_on_every_desk_world():
    # One goal per world, on the grid edge in every other world, with
    # the radius cycling through RADII: 28 x 340 start poses.  Every
    # goal at every radius would cost the heap reference over a minute;
    # the small worlds below take the full product.
    worlds = desk_worlds()
    assert len(worlds) == 28
    outcomes = set()
    for i, w in enumerate(worlds):
        free = w.free_cells()
        edge = [c for c in free if c[0] in (0, w.width - 1) or c[1] in (0, w.height - 1)]
        goal = edge[(5 * i) % len(edge)] if i % 2 == 0 else free[(13 * i) % len(free)]
        outcomes |= assert_plans_match_reference(w, [(goal, RADII[i % 4])])
    assert 1 in outcomes and max(o for o in outcomes if isinstance(o, int)) > 15


def test_plan_matches_heap_reference_on_random_and_corridor_worlds():
    worlds = [
        corridor_world(9),
        GridWorld(1, 8, frozenset()),  # vertical 1-wide corridor
        GridWorld(1, 1, frozenset()),
        serpentine_world(),
        walled_world(),
        *(generate_world(seed=s, width=7, height=6, density=0.3) for s in range(2)),
        *(scattered_world(s, 6 + s % 3, 5 + s % 2, 0.3) for s in range(6)),
    ]
    outcomes = set()
    for w in worlds:
        free = w.free_cells()
        goals = {free[0], free[-1], free[len(free) // 2]}
        if w.blocked:
            goals.add(sorted(w.blocked)[0])  # a blocked goal cell is legal for plan
        outcomes |= assert_plans_match_reference(
            w, [(g, r) for g in sorted(goals) for r in RADII]
        )
    # Start-in-zone plans, long plans and unreachable zones all occur.
    assert {1, Unreachable} <= outcomes
    assert max(o for o in outcomes if isinstance(o, int)) > 20


def test_plan_matches_heap_reference_on_blocked_and_off_grid_starts():
    w = walled_world()
    for start in (Pose(2, 2, 0), Pose(-1, 0, 1), Pose(0, 5, 2)):
        assert outcome(plan, w, start, (0, 0), 1.0) is InvalidGoal
        assert outcome(heap_plan_reference, w, start, (0, 0), 1.0) is InvalidGoal


def test_plan_rejects_a_heading_outside_the_four():
    # A heading of 4 would alias the next cell's north-facing state.
    w = open_world(4, 4)
    for heading in (-1, 4):
        with pytest.raises(ValueError, match="heading"):
            plan(w, Pose(1, 1, heading), (3, 3), 0.0)


def test_transitions_match_reference_step():
    # Every state and all four actions; a state on a blocked cell, which
    # no walk reaches, keeps its own number under every action.
    worlds = [serpentine_world(), scattered_world(3, 8, 6, 0.3), corridor_world(4), *desk_worlds()]
    for w in worlds:
        table = transitions(w)
        assert transitions(w) is table
        assert len(table) == w.width * w.height * 16
        for s in range(w.width * w.height * 4):
            pose = state_pose(s, w.width)
            free = w.is_free(pose.x, pose.y)
            for action in Action:
                want = reference_step(w, pose, action) if free else pose
                assert table[4 * s + action] == pose_state(want, w.width), (w, pose, action)
                assert not free or step(w, pose, action) == want


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


def test_field_is_bit_identical_to_bfs_oracle_on_scattered_worlds():
    # Split worlds leave cells cut off (inf); odd cell sizes check that
    # distances are whole steps times cell_size, rounded once.
    for seed in range(9):
        w = scattered_world(seed, 9, 7, 0.3)
        goal = w.free_cells()[seed]
        want = np.full((w.height, w.width), math.inf)
        for (x, y), d in bfs_distance_oracle(w, goal).items():
            want[y, x] = d
        assert geodesic_field(w, goal).dist.tobytes() == want.tobytes()


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


def test_goal_zone_table_is_memoized_per_radius_and_immutable():
    # A fresh world plans under radius 3.0, then 2.0, then 3.0 again: a
    # table memoized without its radius would serve the wrong zone.
    w = scattered_world(4, 9, 7, 0.2)
    goal = next(c for c in w.free_cells() if c[0] >= 4 and c[1] >= 3)
    starts = [Pose(x, y, h) for x, y in w.free_cells()[::3] for h in (0, 3)]
    for radius in (3.0, 2.0, 3.0):
        for start in starts:
            want = outcome(heap_plan_reference, w, start, goal, radius)
            assert outcome(plan, w, start, goal, radius) == want, (start, radius)
    zone = goal_zone(w, goal, 3.0)
    assert goal_zone(w, goal, 3.0) is zone
    assert zone != goal_zone(w, goal, 2.0)
    assert isinstance(zone, bytes) and len(zone) == w.width * w.height
    with pytest.raises(TypeError):
        zone[0] = 1
    # The table is built from the cells of the radius box only; it must
    # equal a scan of every cell, byte for byte, for radii on and between
    # lattice distances, one wider than the world, and other cell sizes.
    for cell_size in (1.0, 0.5, 1.7):
        world = GridWorld(w.width, w.height, w.blocked, cell_size)
        for center in [goal, (0, 0), (w.width - 1, w.height - 1)]:
            for radius in (0.0, 1.0, math.sqrt(2), 2.9999, 3.0, 3 * cell_size, 100.0):
                full = bytes(
                    euclid_m((c % world.width, c // world.width), center, cell_size) <= radius
                    for c in range(world.width * world.height)
                )
                assert goal_zone(world, center, radius) == full, (cell_size, center, radius)


def test_plan_start_exactly_on_the_zone_boundary_stops():
    w = open_world()
    start = Pose(5, 2, 1)  # offset (3, 0) from the goal: exactly goal_radius
    p = plan(w, start, (2, 2), goal_radius=3.0)
    assert p.actions == (Action.STOP,)
    assert p.poses == (start, start)
    assert goal_zone(w, (2, 2), 3.0)[2 * w.width + 5] == 1
    assert goal_zone(w, (2, 2), 3.0)[2 * w.width + 6] == 0


def test_plan_prefers_forward_on_cost_ties():
    # From (0,0) facing E with the goal at (2,0), radius 1: both
    # FORWARD,STOP and any turning detour of equal cost exist only if
    # FORWARD is on a shortest path; expansion order must pick it.
    w = corridor_world(5)
    p = plan(w, Pose(0, 0, 1), (2, 0), goal_radius=1.0)
    assert p.actions == (Action.FORWARD, Action.STOP)


def test_plan_about_turn_tie_is_stable():
    # Goal directly behind: LEFT,LEFT and RIGHT,RIGHT tie on cost.  The
    # one-action layer is taken in (y, x, heading) order, east-facing
    # before west-facing, so the rightward turn discovers the
    # south-facing pose first.  Frozen as a regression.
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
    assert prefix_progress([(2, 0)], waypoints)[-1] == -1
    assert prefix_progress([(0, 0), (2, 0)], waypoints)[-1] == 0
    assert prefix_progress([(0, 0), (1, 0), (2, 0)], waypoints)[-1] == 2
    # A single position can advance several waypoints only when they
    # coincide within the radius; otherwise one at a time.
    assert prefix_progress([(0, 0), (1, 0)], waypoints)[-1] == 1


def test_progress_counts_earliest_arrival_once():
    waypoints = [(0, 0), (1, 0), (2, 0)]
    # Revisit of waypoint 1 after reaching 2 changes nothing.
    path = [(0, 0), (1, 0), (2, 0), (1, 0)]
    assert prefix_progress(path, waypoints) == [0, 1, 2, 2]


def test_progress_is_monotone_in_the_path_prefix():
    waypoints = [(0, 0), (1, 0), (2, 0), (2, 1)]
    path = [(0, 0), (0, 1), (1, 1), (1, 0), (2, 0), (2, 1)]
    values = prefix_progress(path, waypoints)
    assert values == sorted(values)


def test_progress_respects_visit_radius():
    waypoints = [(0, 0), (3, 0)]
    assert prefix_progress([(0, 0), (3, 1)], waypoints, visit_radius=0.5)[-1] == 0
    assert prefix_progress([(0, 0), (3, 1)], waypoints, visit_radius=1.0)[-1] == 1


@pytest.mark.parametrize("cell_size", [1.0, 0.5, 1.7])
def test_offsets_within_match_euclid_on_every_offset_a_world_holds(cell_size):
    # The progress table and the goal zone read offsets_within; each
    # offset between two cells of one world is in it exactly when
    # euclid_m puts the two cell centers within the radius.
    for radius in (0.0, 0.5, 1.0, math.sqrt(2), 1.5, 2.9999, 3.0, 70.0, math.inf):
        within = offsets_within(radius, cell_size)
        for dx in range(-63, 64, 3):
            for dy in range(-63, 64):
                want = euclid_m((5 + dx, 9 + dy), (5, 9), cell_size) <= radius
                assert ((dx, dy) in within) == want, (radius, dx, dy)


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
