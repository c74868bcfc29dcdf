"""Deterministic occupancy-grid navigation environment.

The world is a width x height grid of free ('.') and blocked ('#') cells.
An agent occupies a free cell with one of four cardinal headings and acts
with a discrete action set:

    FORWARD     move one cell along the current heading (no-op on a wall
                or grid edge, heading preserved)
    TURN_LEFT   rotate 90 degrees counter-clockwise in place
    TURN_RIGHT  rotate 90 degrees clockwise in place
    STOP        declare the episode finished

Coordinates follow screen convention: x grows eastward, y grows
southward, so heading N decreases y.  State s = (y * width + x) * 4 +
heading numbers every pose (pose_state), and transitions(world) holds
the one move rule: the successor of every state under every action.
step, the rollouts, the planner and the BFS distance field all read that
table.  All dynamics are pure functions of (world, pose, action); the
only randomness lives in the generators, which are fully determined by
their seeds.

Episodes bundle a world with a start pose, a goal cell, the oracle
reference path, and a compiled instruction.  Instructions are token
sequences over a small vocabulary: run-length encoded FORWARD moves
FWD(n) with 1 <= n <= max_run, single turns, and a trailing
STOP_AT_GOAL.  Expanding the instruction and replaying it from the start
pose reproduces the reference path exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from .errors import GenerationFailed, MalformedPlan, UnknownToken
from .rng import stream


class Action(IntEnum):
    FORWARD = 0
    TURN_LEFT = 1
    TURN_RIGHT = 2
    STOP = 3


# Headings in clockwise order so TURN_RIGHT is +1 mod 4.
HEADINGS = "NESW"
HEADING_VECS = ((0, -1), (1, 0), (0, 1), (-1, 0))  # N, E, S, W

MAX_SIDE = 64
MAX_DENSITY = 0.35
MAX_CELL_SIZE = 1e6  # metres; far larger cells overflow distances to inf
DEFAULT_MAX_RUN = 8


@dataclass(frozen=True)
class Pose:
    """Agent state: cell coordinates plus heading index into HEADINGS."""

    x: int
    y: int
    heading: int

    @property
    def position(self) -> tuple[int, int]:
        return (self.x, self.y)


@dataclass(frozen=True)
class GridWorld:
    """Immutable occupancy grid.

    Attributes:
        width, height: grid extent, at most MAX_SIDE each.
        blocked: frozenset of blocked (x, y) cells.
        cell_size: edge length of one cell in meters.
        seed: generator seed recorded for reproducibility.

    Arrays derived from the grid (padded occupancy, geodesic fields) are
    built on first use and memoized on the world via derived().
    """

    width: int
    height: int
    blocked: frozenset
    cell_size: float = 1.0
    seed: int = 0
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 < self.width <= MAX_SIDE and 0 < self.height <= MAX_SIDE):
            raise ValueError(f"grid extent out of range: {self.width}x{self.height}")
        for x, y in self.blocked:
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ValueError(f"blocked cell out of bounds: {(x, y)}")

    def in_bounds(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def is_free(self, x: int, y: int) -> bool:
        return self.in_bounds(x, y) and (x, y) not in self.blocked

    def derived(self, key, build):
        """build(), computed once per world and key.

        The world is immutable, so a memoized value never goes stale;
        callers must treat it as read-only.
        """
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build()
        return value

    def free_cells(self) -> tuple:
        """All free cells in row-major order (deterministic iteration)."""
        return self.derived("free_cells", lambda: tuple(
            (x, y)
            for y in range(self.height)
            for x in range(self.width)
            if (x, y) not in self.blocked
        ))


def step(world: GridWorld, pose: Pose, action: Action) -> Pose:
    """Apply one action: the pose its transitions entry names.  Total:
    blocked moves are in-place no-ops."""
    if not world.is_free(pose.x, pose.y):
        raise ValueError(f"pose on blocked or out-of-bounds cell: {pose}")
    if not (0 <= pose.heading < 4 and 0 <= action < 4):
        raise ValueError(f"unknown action {action} or heading of {pose}")
    s = pose_state(pose, world.width)
    return state_pose(transitions(world)[4 * s + action], world.width)


def transitions(world: GridWorld) -> tuple:
    """The pose graph's move rule: table[4 * s + action] is the state
    that action leads to from pose-graph state s (pose_state).

    FORWARD into a wall or the grid edge keeps s, and so does STOP; the
    turns change the heading bits of s.  States on blocked cells keep s
    under every action.  Built once per world and memoized on it.
    """
    return world.derived("transitions", lambda: _build_transitions(world))


def _build_transitions(world: GridWorld) -> tuple:
    # Every entry naming state s holds the one int object states[s],
    # which keeps the table small and quick to read.
    width, height, blocked = world.width, world.height, world.blocked
    states = list(range(width * height * 4))
    table = []
    for y in range(height):
        for x in range(width):
            cell = (y * width + x) * 4
            turns = states[cell : cell + 4]  # the cell's states, by heading
            if (x, y) in blocked:
                for s in turns:
                    table += (s, s, s, s)
                continue
            for h, (dx, dy) in enumerate(HEADING_VECS):
                s = turns[h]
                nx, ny = x + dx, y + dy
                ahead = 0 <= nx < width and 0 <= ny < height and (nx, ny) not in blocked
                forward = states[(ny * width + nx) * 4 + h] if ahead else s
                # FORWARD, TURN_LEFT, TURN_RIGHT, STOP
                table += (forward, turns[h - 1], turns[(h + 1) % 4], s)
    return tuple(table)


def observe(world: GridWorld, pose: Pose, k: int = 5) -> np.ndarray:
    """Egocentric k x k occupancy patch, rotated so the agent faces up.

    Row 0 is ahead of the agent, the center cell is the agent's own
    (always free).  Cells outside the grid read as blocked (1.0).
    """
    if not world.in_bounds(pose.x, pose.y):
        raise ValueError(f"pose out of bounds: {pose}")
    grid = _padded_grid(world, k)
    window = grid[pose.y : pose.y + k, pose.x : pose.x + k]
    return _TO_EGOCENTRIC[pose.heading](window).copy()


# np.rot90(window, heading) as plain views (rot90 itself costs several
# microseconds per call): a north-up window turned counter-clockwise once
# per clockwise heading step puts the agent's heading at row 0.
_TO_EGOCENTRIC = (
    lambda w: w,
    lambda w: w.T[::-1],
    lambda w: w[::-1, ::-1],
    lambda w: w.T[:, ::-1],
)


def pose_state(pose: Pose, width: int) -> int:
    """The pose-graph state s = (y * width + x) * 4 + heading of pose on a
    grid width cells wide: the numbering the planner searches and
    rollouts record."""
    return (pose.y * width + pose.x) * 4 + pose.heading


def state_pose(s: int, width: int) -> Pose:
    """The pose that state s numbers on a grid width cells wide."""
    y, x = divmod(s >> 2, width)
    return Pose(x, y, s & 3)


def observe_states(world: GridWorld, states, k: int = 5) -> np.ndarray:
    """observe(world, pose, k).ravel() of the pose each pose-graph state
    numbers (pose_state), stacked [len(states), k*k]; the states must lie
    on the grid.  One index into the padded occupancy grid."""
    flat, stride, offsets, _ = patch_layout([world], k)
    states = np.asarray(states, dtype=np.intp)
    ys, xs = np.divmod(states >> 2, world.width)
    return flat[(ys * stride + xs)[:, None] + offsets[states & 3]]


def patch_layout(worlds, k: int) -> tuple:
    """(flat, stride, offsets, bases): where the k x k patches of poses in
    any of the distinct worlds lie in one flat occupancy array.

    observe(worlds[i], Pose(x, y, h), k).ravel() equals
    flat[bases[i] + y * stride + x + offsets[h]], so one fancy index
    gathers the patches of many poses.  One world reads its own padded
    grid; several are stacked top to bottom into a fresh array whose rows
    are as wide as the widest padded grid (the columns past a narrower
    grid read blocked, and no patch of an in-bounds pose reaches them).
    """
    grids = [_padded_grid(world, k) for world in worlds]
    if len(grids) == 1:
        (world,), (grid,) = worlds, grids
        offsets = world.derived(("egocentric_offsets", k), lambda: _egocentric_offsets(grid, k))
        return grid.ravel(), grid.shape[1], offsets, (0,)
    stride = max(grid.shape[1] for grid in grids)
    stacked = np.ones((sum(grid.shape[0] for grid in grids), stride))
    bases, top = [], 0
    for grid in grids:
        stacked[top : top + grid.shape[0], : grid.shape[1]] = grid
        bases.append(top * stride)
        top += grid.shape[0]
    return stacked.ravel(), stride, _egocentric_offsets(stacked, k), tuple(bases)


def _egocentric_offsets(grid: np.ndarray, k: int) -> np.ndarray:
    """[4, k*k] flat offsets into grid from a window's top-left cell, in
    the order observe reads each heading's patch."""
    window = np.arange(k)[:, None] * grid.shape[1] + np.arange(k)
    return np.array([to_ego(window).ravel() for to_ego in _TO_EGOCENTRIC])


def _padded_grid(world: GridWorld, k: int) -> np.ndarray:
    if k % 2 != 1 or k < 1:
        raise ValueError(f"patch side must be odd and positive, got {k}")
    return world.derived(("padded_occupancy", k), lambda: _padded_occupancy(world, k // 2))


def _padded_occupancy(world: GridWorld, pad: int) -> np.ndarray:
    """Read-only [height + 2*pad, width + 2*pad] grid, 1.0 = blocked/off-grid."""
    grid = np.ones((world.height + 2 * pad, world.width + 2 * pad))
    grid[pad : pad + world.height, pad : pad + world.width] = 0.0
    for x, y in world.blocked:
        grid[y + pad, x + pad] = 1.0
    grid.flags.writeable = False
    return grid


def _connected(width: int, height: int, blocked: set) -> bool:
    """True when the free cells form a single 4-connected component."""
    free = [
        (x, y) for y in range(height) for x in range(width) if (x, y) not in blocked
    ]
    if not free:
        return False
    seen = {free[0]}
    frontier = [free[0]]
    while frontier:
        x, y = frontier.pop()
        for dx, dy in HEADING_VECS:
            nxt = (x + dx, y + dy)
            if (
                0 <= nxt[0] < width
                and 0 <= nxt[1] < height
                and nxt not in blocked
                and nxt not in seen
            ):
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == len(free)


def generate_world(
    seed: int,
    width: int,
    height: int,
    density: float,
    cell_size: float = 1.0,
    max_tries: int = 200,
) -> GridWorld:
    """Sample a connected world with roughly `density` blocked cells.

    Candidate obstacle sets are drawn from the seed's stream and
    resampled until the free cells form one connected component.
    """
    if not (0.0 <= density <= MAX_DENSITY):
        raise ValueError(f"density out of range [0, {MAX_DENSITY}]: {density}")
    rng = stream("world", seed, width, height)
    n_cells = width * height
    n_blocked = int(round(density * n_cells))
    for _ in range(max_tries):
        picks = rng.choice(n_cells, size=n_blocked, replace=False)
        blocked = {(int(i) % width, int(i) // width) for i in picks}
        if _connected(width, height, blocked):
            return GridWorld(width, height, frozenset(blocked), cell_size, seed)
    raise GenerationFailed(
        f"no connected world after {max_tries} tries (seed={seed}, density={density})"
    )


# --------------------------------------------------------------------------
# Instruction tokens.
#
# Stable integer ids for a given max_run:
#   0 .. max_run-1   FWD(1) .. FWD(max_run)
#   max_run          LEFT
#   max_run + 1      RIGHT
#   max_run + 2      STOP_AT_GOAL
# --------------------------------------------------------------------------


def vocab_size(max_run: int) -> int:
    return max_run + 3


def fwd_token(n: int, max_run: int) -> int:
    if not 1 <= n <= max_run:
        raise ValueError(f"run length {n} outside [1, {max_run}]")
    return n - 1


def left_token(max_run: int) -> int:
    return max_run


def right_token(max_run: int) -> int:
    return max_run + 1


def stop_token(max_run: int) -> int:
    return max_run + 2


def token_name(token: int, max_run: int) -> str:
    if 0 <= token < max_run:
        return f"FWD({token + 1})"
    if token == max_run:
        return "LEFT"
    if token == max_run + 1:
        return "RIGHT"
    if token == max_run + 2:
        return "STOP_AT_GOAL"
    raise UnknownToken(f"token id {token} outside vocabulary (max_run={max_run})")


def compile_instruction(actions, max_run: int = DEFAULT_MAX_RUN) -> tuple:
    """Run-length encode an oracle action sequence into instruction tokens.

    FORWARD runs longer than max_run are split.  The sequence must end
    with exactly one STOP and contain no interior STOP.
    """
    actions = list(actions)
    if not actions or actions[-1] != Action.STOP:
        raise MalformedPlan("plan must end with STOP")
    if any(a == Action.STOP for a in actions[:-1]):
        raise MalformedPlan("STOP before the end of the plan")
    tokens = []
    run = 0
    for a in actions:  # the final STOP flushes the last FORWARD run
        if a == Action.FORWARD:
            run += 1
            continue
        while run > 0:
            chunk = min(run, max_run)
            tokens.append(fwd_token(chunk, max_run))
            run -= chunk
        if a == Action.TURN_LEFT:
            tokens.append(left_token(max_run))
        elif a == Action.TURN_RIGHT:
            tokens.append(right_token(max_run))
        elif a == Action.STOP:
            tokens.append(stop_token(max_run))
        else:
            raise MalformedPlan(f"unencodable action: {a}")
    return tuple(tokens)


def expand_instruction(tokens, max_run: int = DEFAULT_MAX_RUN) -> list:
    """Semantic expansion of instruction tokens back into actions."""
    actions = []
    for token in tokens:
        if 0 <= token < max_run:
            actions.extend([Action.FORWARD] * (token + 1))
        elif token == max_run:
            actions.append(Action.TURN_LEFT)
        elif token == max_run + 1:
            actions.append(Action.TURN_RIGHT)
        elif token == max_run + 2:
            actions.append(Action.STOP)
        else:
            raise UnknownToken(f"token id {token} outside vocabulary (max_run={max_run})")
    return actions


@dataclass(frozen=True)
class Episode:
    """One navigation task: world, start pose, goal, reference, instruction.

    reference_path is the oracle pose sequence from start into the goal
    zone (one pose per plan action, STOP included, so its length is the
    plan's action count plus one).  reference_waypoints are the distinct
    positions along it, in visiting order.
    """

    id: int
    world: GridWorld
    start: Pose
    goal: tuple
    reference_path: tuple
    reference_waypoints: tuple
    instruction: tuple
    goal_radius: float = 3.0
    max_run: int = DEFAULT_MAX_RUN

    @property
    def reference_action_count(self) -> int:
        return len(self.reference_path) - 1


def euclid_m(a, b, cell_size: float = 1.0) -> float:
    """Euclidean distance between two cell centers, in meters."""
    return math.hypot(a[0] - b[0], a[1] - b[1]) * cell_size


def dedup_positions(poses) -> tuple:
    """Distinct positions along a pose sequence, order preserved."""
    out = []
    for p in poses:
        pos = (p.x, p.y)
        if not out or out[-1] != pos:
            out.append(pos)
    return tuple(out)


def generate_episode(
    world: GridWorld,
    seed: int,
    goal_radius: float = 3.0,
    min_length: float = 6.0,
    max_run: int = DEFAULT_MAX_RUN,
    max_tries: int = 200,
) -> Episode:
    """Sample an episode whose start-goal geodesic is at least min_length.

    Draws goal and start from the (world.seed, seed) stream, plans with
    the oracle, and compiles the instruction from the plan.  Raises
    GenerationFailed when the world cannot support the requested length.
    """
    from . import oracle  # deferred: oracle depends on this module's types

    rng = stream("episode", world.seed, seed)
    free = world.free_cells()
    for _ in range(max_tries):
        goal = free[int(rng.integers(len(free)))]
        d = oracle.geodesic_field(world, goal).dist.ravel()
        # Row-major cell indices, in the order of free_cells().
        candidates = np.flatnonzero((d >= min_length) & (d < math.inf))
        if not candidates.size:
            continue
        cell = int(candidates[int(rng.integers(candidates.size))])
        heading = int(rng.integers(4))
        start = Pose(cell % world.width, cell // world.width, heading)
        plan = oracle.plan(world, start, goal, goal_radius)
        return Episode(
            id=seed,
            world=world,
            start=start,
            goal=goal,
            reference_path=tuple(plan.poses),
            reference_waypoints=dedup_positions(plan.poses),
            instruction=compile_instruction(plan.actions, max_run),
            goal_radius=goal_radius,
            max_run=max_run,
        )
    raise GenerationFailed(
        f"no start/goal pair with geodesic >= {min_length} after {max_tries} tries"
    )


# --------------------------------------------------------------------------
# Episode serialization: "budnav-episode v1", a self-describing text
# document with a bit-exact round-trip.
# --------------------------------------------------------------------------

EPISODE_MAGIC = "budnav-episode v1"


def serialize_episode(episode: Episode) -> str:
    w = episode.world
    lines = [EPISODE_MAGIC]
    lines.append(
        f"header id={episode.id} width={w.width} height={w.height}"
        f" world_seed={w.seed} cell_size={w.cell_size!r}"
        f" goal_radius={episode.goal_radius!r} max_run={episode.max_run}"
    )
    for y in range(w.height):
        lines.append(
            "".join("#" if (x, y) in w.blocked else "." for x in range(w.width))
        )
    s = episode.start
    lines.append(f"start {s.x} {s.y} {HEADINGS[s.heading]}")
    lines.append(f"goal {episode.goal[0]} {episode.goal[1]}")
    lines.append(
        "path " + " ".join(f"{p.x},{p.y},{HEADINGS[p.heading]}" for p in episode.reference_path)
    )
    lines.append("instr " + " ".join(str(t) for t in episode.instruction))
    return "\n".join(lines) + "\n"


def parse_pose(fields) -> Pose:
    """A Pose from its serialized fields [x, y, heading], the heading one
    of HEADINGS; ValueError on anything else."""
    if len(fields) != 3 or len(fields[2]) != 1 or fields[2] not in HEADINGS:
        raise ValueError(f"bad pose: {fields}")
    x, y, heading = fields
    return Pose(int(x), int(y), HEADINGS.index(heading))


def parse_episode(text: str) -> Episode:
    lines = text.splitlines()
    if not lines or lines[0] != EPISODE_MAGIC:
        raise ValueError(f"bad episode magic: {lines[:1]}")
    fields = dict(kv.split("=", 1) for kv in lines[1].removeprefix("header ").split())
    width = int(fields["width"])
    height = int(fields["height"])
    rows = lines[2 : 2 + height]
    blocked = frozenset(
        (x, y) for y, row in enumerate(rows) for x, c in enumerate(row) if c == "#"
    )
    world = GridWorld(
        width, height, blocked, float(fields["cell_size"]), int(fields["world_seed"])
    )
    rest = lines[2 + height :]
    start = parse_pose(rest[0].removeprefix("start ").split())
    gx, gy = rest[1].removeprefix("goal ").split()
    path = []
    for triple in rest[2].removeprefix("path ").split():
        path.append(parse_pose(triple.split(",")))
    instruction = tuple(int(t) for t in rest[3].removeprefix("instr ").split())
    return Episode(
        id=int(fields["id"]),
        world=world,
        start=start,
        goal=(int(gx), int(gy)),
        reference_path=tuple(path),
        reference_waypoints=dedup_positions(path),
        instruction=instruction,
        goal_radius=float(fields["goal_radius"]),
        max_run=int(fields["max_run"]),
    )
