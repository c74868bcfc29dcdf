"""Shortest-path oracle over the grid.

Both planners run over one int-indexed pose graph per world.  State
s = (y * width + x) * 4 + heading numbers every pose, so ascending s is
ascending (y, x, heading), and both read their moves from
world.transitions (a FORWARD that bumps a wall keeps s).

  * geodesic_field: 4-connected BFS distances (in meters) from every
    free cell to a goal cell, ignoring headings; generate_world's
    connectivity test reads the same BFS's step counts (bfs_steps).
  * plan: minimum-action-count pose-graph search where FORWARD and turns
    each cost one action.  The plan ends with STOP as soon as the agent's
    position is within goal_radius (Euclidean) of the goal; that test
    reads a per-cell table, goal_zone, memoized per (goal, goal_radius)
    and built from offsets_within, the table of cell offsets within a
    radius that waypoint progress reads too.

Both are deterministic.  plan is a breadth-first search by layers of
equal action count, each layer taken in ascending s, that is in
(y, x, heading) order.  Ties break by that order twice: the plan ends at
the first state of the first layer that lies in the goal zone, and a
state's parent is the first state of the layer before that reaches it
(by FORWARD, TURN_LEFT or TURN_RIGHT; the three successors of one state
are distinct, so their order cannot matter, and a bump leads back to the
state itself, which is already discovered).  This is the order in
which a uniform-cost search popping (cost, y, x, heading) from a heap
would settle states, so identical inputs always yield the identical
action sequence.

The module also hosts the reference-tracking helpers used by the failure
triggers: order-respecting progress over reference waypoints, and the
deviation / heading-error measure against the reference path.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGoal, Unreachable
from .world import (
    MAX_SIDE, Action, HEADING_VECS, GridWorld, Pose, euclid_m, pose_state, state_pose, transitions,
)

_ACTIONS = tuple(Action)  # _ACTIONS[a] is Action(a), read without the enum's call


@dataclass(frozen=True)
class GeodesicField:
    """Distances in meters from each cell to a fixed goal; inf = cut off."""

    dist: np.ndarray  # [height, width], float64, read-only

    def at(self, x: int, y: int) -> float:
        return float(self.dist[y, x])


def geodesic_field(world: GridWorld, goal) -> GeodesicField:
    """BFS distance field over free cells, 4-connected.

    Computed once per (world, goal) and memoized on the world; the
    returned distances are read-only.
    """
    gx, gy = goal
    if not world.is_free(gx, gy):
        raise InvalidGoal(f"goal cell blocked or out of bounds: {goal}")
    return world.derived(("geodesic_field", gx, gy), lambda: _bfs_field(world, gx, gy))


def bfs_steps(world: GridWorld, cell: int) -> list:
    """FORWARD steps from cell (y * width + x) to every cell, indexed
    like it: 4-connected BFS over world.transitions, inf where a cell is
    cut off (blocked cells always are).  Not memoized."""
    table = transitions(world)
    steps = [math.inf] * (world.width * world.height)
    steps[cell] = 0.0
    frontier = [cell]
    for c in frontier:  # grows while iterated: a FIFO queue
        d = steps[c] + 1.0
        # FORWARD from each heading of cell c; a bump stays on c, whose
        # count is already set.
        for n in table[16 * c : 16 * c + 16 : 4]:
            n >>= 2
            if steps[n] == math.inf:
                steps[n] = d
                frontier.append(n)
    return steps


def _bfs_field(world: GridWorld, gx: int, gy: int) -> GeodesicField:
    steps = bfs_steps(world, gy * world.width + gx)
    dist = np.array(steps).reshape(world.height, world.width) * world.cell_size
    dist.flags.writeable = False
    return GeodesicField(dist)


@dataclass(frozen=True)
class OraclePlan:
    """Action sequence plus the pose after each action (start included)."""

    actions: tuple
    poses: tuple

    @property
    def cost(self) -> int:
        return len(self.actions)


def goal_zone(world: GridWorld, goal, goal_radius: float) -> bytes:
    """Per-cell goal-zone test, indexed y * width + x: 1 where the cell
    center lies within goal_radius (Euclidean) of the goal, else 0.

    Built once per (world, goal, goal_radius) and memoized on the world;
    bytes are immutable, so callers cannot corrupt it.
    """
    gx, gy = goal
    return world.derived(
        ("goal_zone", gx, gy, goal_radius), lambda: _build_goal_zone(world, goal, goal_radius)
    )


def _build_goal_zone(world: GridWorld, goal, goal_radius: float) -> bytes:
    # Only the offsets_within the radius can mark a cell; every other
    # cell stays 0.
    width, height = world.width, world.height
    zone = bytearray(width * height)
    gx, gy = goal
    for dx, dy in offsets_within(goal_radius, world.cell_size):
        if 0 <= gx + dx < width and 0 <= gy + dy < height:
            zone[(gy + dy) * width + gx + dx] = 1
    return bytes(zone)


@functools.lru_cache(maxsize=64)
def offsets_within(radius: float, cell_size: float) -> frozenset:
    """Cell offsets (dx, dy) whose cell center lies within radius of the
    origin's: for two cells a and b of one world, euclid_m(a, b,
    cell_size) <= radius exactly when (a[0] - b[0], a[1] - b[1]) is in
    the set, since both are the same hypot of the same integers.

    euclid_m runs only on the box |dx|, |dy| <= int(radius / cell_size)
    + 1, which holds every qualifying offset: for integers,
    math.hypot(dx, dy) >= |dx| holds in floating point, and |dx| >=
    radius / cell_size + 1 puts |dx| * cell_size a whole cell past the
    radius, far beyond rounding.  The box stops at the largest offset
    within one world (MAX_SIDE - 1); a radius that wide, an infinite or
    NaN one, or a cell size that is not positive scans all of that.
    Memoized per (radius, cell_size).
    """
    per_cell = radius / cell_size if cell_size > 0 else math.inf
    reach = int(per_cell) + 1 if per_cell < MAX_SIDE - 2 else MAX_SIDE - 1
    span = range(-reach, reach + 1)
    return frozenset(
        (dx, dy) for dy in span for dx in span if euclid_m((dx, dy), (0, 0), cell_size) <= radius
    )


def plan(world: GridWorld, start: Pose, goal, goal_radius: float = 3.0) -> OraclePlan:
    """Minimum-action-count plan from start into the goal zone, then STOP.

    Raises Unreachable when no pose within goal_radius of the goal can
    be reached.
    """
    if not world.is_free(start.x, start.y):
        raise InvalidGoal(f"start on blocked cell: {start}")
    if not 0 <= start.heading < 4:
        raise ValueError(f"heading out of range: {start}")
    zone = goal_zone(world, goal, goal_radius)
    s0 = pose_state(start, world.width)
    if zone[s0 >> 2]:
        return OraclePlan(actions=(Action.STOP,), poses=(start, start))

    table = transitions(world)
    parent = [-1] * (len(table) // 4)  # -1 = not yet discovered
    parent[s0] = s0
    layer = [s0]
    while layer:
        layer.sort()
        for s in layer:
            if zone[s >> 2]:
                return _trace_back(world, start, parent, s)
        discovered = []
        for s in layer:
            for n in table[4 * s : 4 * s + 3]:  # FORWARD, TURN_LEFT, TURN_RIGHT
                if parent[n] < 0:
                    parent[n] = s
                    discovered.append(n)
        layer = discovered
    raise Unreachable(f"goal zone around {goal} unreachable from {start}")


def _trace_back(world: GridWorld, start: Pose, parent: list, s: int) -> OraclePlan:
    """The plan along parent links from the start state to state s, then STOP."""
    states = [s]
    while parent[s] != s:
        s = parent[s]
        states.append(s)
    states.reverse()
    table = transitions(world)
    actions = [
        _ACTIONS[table[4 * prev : 4 * prev + 3].index(cur)] for prev, cur in zip(states, states[1:])
    ]
    actions.append(Action.STOP)
    poses = [start] + [state_pose(s, world.width) for s in states[1:]]
    poses.append(poses[-1])
    return OraclePlan(actions=tuple(actions), poses=tuple(poses))


def advance_progress(j: int, pos, waypoints, visit_radius: float, cell_size: float) -> int:
    """Progress index after standing at pos, given progress j before.

    Advances past every next-in-order waypoint within visit_radius of
    pos, read from the offsets_within table; this is the one
    ordered-waypoint scan that progress tracking, the rollout triggers
    and the rectification anchor all share.
    """
    within = offsets_within(visit_radius, cell_size)
    x, y = pos
    while j + 1 < len(waypoints):
        wx, wy = waypoints[j + 1]
        if (x - wx, y - wy) not in within:
            break
        j += 1
    return j


def path_deviation(
    pos,
    heading: int,
    waypoints,
    progress: int,
    goal,
    cell_size: float = 1.0,
) -> tuple:
    """(deviation_m, heading_error_deg) against the reference path.

    Deviation is the minimum Euclidean distance from pos to any
    reference cell center.  Heading error is the absolute angle (<= 180)
    between the agent's heading and the bearing toward the next
    unvisited waypoint, or toward the goal once all are visited; it is
    0 when the agent stands on that target.
    """
    deviation = min(euclid_m(pos, w, cell_size) for w in waypoints)
    target = waypoints[progress + 1] if progress + 1 < len(waypoints) else goal
    bx, by = target[0] - pos[0], target[1] - pos[1]
    if bx == 0 and by == 0:
        return deviation, 0.0
    hx, hy = HEADING_VECS[heading]
    cos = (hx * bx + hy * by) / math.hypot(bx, by)
    return deviation, math.degrees(math.acos(max(-1.0, min(1.0, cos))))
