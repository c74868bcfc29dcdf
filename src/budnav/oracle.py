"""Shortest-path oracle over the grid.

Two related planners:

  * geodesic_field: 4-connected BFS distances (in meters) from every
    free cell to a goal cell, ignoring headings.
  * plan: minimum-action-count pose-graph search where FORWARD and turns
    each cost one action.  The plan ends with STOP as soon as the agent's
    position is within goal_radius (Euclidean) of the goal.

Both are deterministic.  plan breaks ties by expanding successors in the
order FORWARD, TURN_LEFT, TURN_RIGHT and popping equal-cost frontier
states in ascending (y, x, heading) order, so identical inputs always
yield the identical action sequence.

The module also hosts the reference-tracking helpers used by the failure
triggers: order-respecting progress over reference waypoints, and the
deviation / heading-error measure against the reference path.
"""
from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGoal, Unreachable
from .world import Action, HEADING_VECS, GridWorld, Pose, euclid_m, step


@dataclass(frozen=True)
class GeodesicField:
    """Distances in meters from each cell to a fixed goal; inf = cut off."""

    goal: tuple
    dist: np.ndarray  # [height, width], float64, read-only
    cell_size: float

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


def _bfs_field(world: GridWorld, gx: int, gy: int) -> GeodesicField:
    dist = np.full((world.height, world.width), math.inf)
    dist[gy, gx] = 0.0
    frontier = deque([(gx, gy)])
    while frontier:
        x, y = frontier.popleft()
        for dx, dy in HEADING_VECS:
            nx, ny = x + dx, y + dy
            if world.is_free(nx, ny) and math.isinf(dist[ny, nx]):
                dist[ny, nx] = dist[y, x] + 1.0
                frontier.append((nx, ny))
    dist = dist * world.cell_size
    dist.flags.writeable = False
    return GeodesicField(goal=(gx, gy), dist=dist, cell_size=world.cell_size)


@dataclass(frozen=True)
class OraclePlan:
    """Action sequence plus the pose after each action (start included)."""

    actions: tuple
    poses: tuple

    @property
    def cost(self) -> int:
        return len(self.actions)


# Successor expansion order; part of the determinism contract.
_EXPANSION = (Action.FORWARD, Action.TURN_LEFT, Action.TURN_RIGHT)


def plan(world: GridWorld, start: Pose, goal, goal_radius: float = 3.0) -> OraclePlan:
    """Minimum-action-count plan from start into the goal zone, then STOP.

    Raises Unreachable when no pose within goal_radius of the goal can
    be reached.
    """
    if not world.is_free(start.x, start.y):
        raise InvalidGoal(f"start on blocked cell: {start}")

    def in_zone(x, y):
        return euclid_m((x, y), goal, world.cell_size) <= goal_radius

    if in_zone(start.x, start.y):
        return OraclePlan(actions=(Action.STOP,), poses=(start, start))

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
                poses.append(step(world, poses[-1], a))
            return OraclePlan(actions=tuple(actions), poses=tuple(poses))
        pose = Pose(x, y, h)
        for action in _EXPANSION:
            nxt = step(world, pose, action)
            nkey = (nxt.x, nxt.y, nxt.heading)
            if nkey == key:
                continue  # bumped a wall
            if cost + 1 < best.get(nkey, math.inf):
                best[nkey] = cost + 1
                parents[nkey] = (key, action)
                heapq.heappush(heap, (cost + 1, nxt.y, nxt.x, nxt.heading))
    raise Unreachable(f"goal zone around {goal} unreachable from {start}")


def progress_index(
    positions,
    waypoints,
    visit_radius: float = 0.5,
    cell_size: float = 1.0,
) -> int:
    """Index of the furthest reference waypoint visited in order.

    Waypoint j counts as visited only after j-1 has been; returns -1
    when not even waypoint 0 was reached.
    """
    j = -1
    for pos in positions:
        j = advance_progress(j, pos, waypoints, visit_radius, cell_size)
    return j


def advance_progress(j: int, pos, waypoints, visit_radius: float, cell_size: float) -> int:
    """Progress index after standing at pos, given progress j before.

    Advances past every next-in-order waypoint within visit_radius of
    pos; this is the one ordered-waypoint scan that progress tracking,
    the rollout triggers and the rectification anchor all share.
    """
    while j + 1 < len(waypoints) and euclid_m(pos, waypoints[j + 1], cell_size) <= visit_radius:
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
