"""Benchmark suites, and the generators that draw their worlds and episodes.

A suite pins the world-generation parameters, a pool of training world
seeds, and an explicit list of (world_seed, episode_seed) pairs for the
held-out set.  Train and held-out world seeds are disjoint, so
evaluation always happens on unseen layouts, and no seed or pair
appears twice.  Every pair in a generated suite is validated (the
episode actually generates), which keeps downstream consumers free of
generation failures.

World and episode generation lives here too: generate_world and
generate_episode draw from their seeds' streams and reach the oracle
through its module (oracle.bfs_steps, oracle.geodesic_field,
oracle.plan), where perfbench's tracer patches it.  suite_world builds
each world once per process, and suite_episode draws through it;
generate_suite caches only the worlds it accepts.  MAX_TRIES bounds
every rejection loop.

File format "budnav-suite v1" is a plain text document:

    budnav-suite v1
    name <name>
    world <width> <height> <density> <cell_size>
    episode <goal_radius> <min_length> <max_run>
    train-world <seed>          (one line per training world)
    held <world_seed> <ep_seed> (one line per held-out episode)
"""
from __future__ import annotations

import dataclasses
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import oracle
from .errors import GenerationFailed, SuiteError
from .rng import stream
from .world import DEFAULT_MAX_RUN, MAX_SIDE, Episode, GridWorld, Pose, compile_instruction

SUITE_MAGIC = "budnav-suite v1"

MAX_DENSITY = 0.35
MAX_CELL_SIZE = 1e6  # metres; far larger cells overflow distances to inf
# Draws a rejection loop makes before giving up: obstacle sets per world,
# goals per episode, and seeds in a row per suite.
MAX_TRIES = 200


def generate_world(
    seed: int,
    width: int,
    height: int,
    density: float,
    cell_size: float = 1.0,
) -> GridWorld:
    """Sample a connected world with roughly `density` blocked cells.

    Candidate obstacle sets are drawn from the seed's stream and
    resampled until oracle.bfs_steps (the BFS over transitions) from the
    first free cell reaches every free cell; it counts steps, not meters.
    Raises GenerationFailed after MAX_TRIES disconnected candidates.
    """
    if not (0.0 <= density <= MAX_DENSITY):
        raise ValueError(f"density out of range [0, {MAX_DENSITY}]: {density}")
    rng = stream("world", seed, width, height)
    n_cells = width * height
    n_blocked = int(round(density * n_cells))  # < n_cells, so a free cell exists
    for _ in range(MAX_TRIES):
        picks = rng.choice(n_cells, size=n_blocked, replace=False)
        blocked = frozenset((int(i) % width, int(i) // width) for i in picks)
        world = GridWorld(width, height, blocked, cell_size, seed)
        x, y = world.free_cells()[0]
        if oracle.bfs_steps(world, y * width + x).count(math.inf) == n_blocked:
            return world
    raise GenerationFailed(
        f"no connected world after {MAX_TRIES} tries (seed={seed}, density={density})"
    )


def generate_episode(
    world: GridWorld,
    seed: int,
    goal_radius: float = 3.0,
    min_length: float = 6.0,
    max_run: int = DEFAULT_MAX_RUN,
) -> Episode:
    """Sample an episode whose start-goal geodesic is at least min_length.

    Draws goal and start from the (world.seed, seed) stream, plans with
    the oracle, and compiles the instruction from the plan.  Raises
    GenerationFailed when none of MAX_TRIES goals drawn has a free cell
    that far from it.
    """
    rng = stream("episode", world.seed, seed)
    free = world.free_cells()
    for _ in range(MAX_TRIES):
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
            instruction=compile_instruction(plan.actions, max_run),
            goal_radius=goal_radius,
            max_run=max_run,
        )
    raise GenerationFailed(
        f"no start/goal pair with geodesic >= {min_length} after {MAX_TRIES} tries"
    )


@dataclass(frozen=True)
class Suite:
    """A suite's generation parameters and its seeds.  SuiteError unless
    worlds and episodes can be drawn with the parameters, no train-world
    seed or held pair appears twice, and no held world is a train world."""

    name: str
    width: int
    height: int
    density: float
    cell_size: float
    goal_radius: float
    min_episode_length: float
    max_run: int
    train_world_seeds: tuple
    held_pairs: tuple  # of (world_seed, episode_seed)

    def __post_init__(self):
        if not (0 < self.width <= MAX_SIDE and 0 < self.height <= MAX_SIDE):
            raise SuiteError(f"world extent out of range: {self.width}x{self.height}")
        if not 0.0 <= self.density <= MAX_DENSITY:
            raise SuiteError(f"density out of range [0, {MAX_DENSITY}]: {self.density}")
        cell, max_run = self.cell_size, self.max_run
        if not (0.0 < cell < math.inf and max_run >= 1):  # nDTW's costs need a finite cell
            raise SuiteError(f"need a finite cell_size > 0 and max_run >= 1: {cell}, {max_run}")
        if cell > MAX_CELL_SIZE:
            raise SuiteError(f"cell_size out of range (0, {MAX_CELL_SIZE:g}]: {cell}")
        if not self.goal_radius > 0.0:  # nDTW divides by it
            raise SuiteError(f"goal_radius must be > 0, got {self.goal_radius}")
        seeds, pairs = self.train_world_seeds, self.held_pairs
        for what, records in (("train-world seed", seeds), ("held pair", pairs)):
            repeated = [record for record, n in Counter(records).items() if n > 1]
            if repeated:
                raise SuiteError(f"{what} appears twice: {repeated[0]}")
        overlap = set(seeds) & {ws for ws, _ in pairs}
        if overlap:
            raise SuiteError(f"train/held world seeds overlap: {sorted(overlap)[:5]}")


_WORLD_CACHE: dict = {}


def _world_key(suite: Suite, world_seed: int) -> tuple:
    return (world_seed, suite.width, suite.height, suite.density, suite.cell_size)


def suite_world(suite: Suite, world_seed: int) -> GridWorld:
    key = _world_key(suite, world_seed)
    if key not in _WORLD_CACHE:
        _WORLD_CACHE[key] = generate_world(
            world_seed, suite.width, suite.height, suite.density, suite.cell_size
        )
    return _WORLD_CACHE[key]


def suite_episode(suite: Suite, world_seed: int, episode_seed: int) -> Episode:
    return generate_episode(
        suite_world(suite, world_seed),
        episode_seed,
        goal_radius=suite.goal_radius,
        min_length=suite.min_episode_length,
        max_run=suite.max_run,
    )


def build_held_episodes(suite: Suite, limit: int = 0) -> list:
    """The first `limit` held-out episodes (0 = all) in suite order.

    SuiteError names a pair that fails, or rejects a negative limit.
    """
    if limit < 0:
        raise SuiteError(f"held episode limit must be >= 0 (0 = all), got {limit}")
    pairs = suite.held_pairs[:limit] if limit else suite.held_pairs
    episodes = []
    for ws, es in pairs:
        try:
            episodes.append(suite_episode(suite, ws, es))
        except GenerationFailed as e:
            raise SuiteError(f"held pair ({ws}, {es}) does not generate an episode: {e}") from e
    return episodes


def generate_suite(
    name: str = "suite",
    seed: int = 0,
    n_train_worlds: int = 8,
    n_held: int = 50,
    width: int = 10,
    height: int = 10,
    density: float = 0.15,
    cell_size: float = 1.0,
    goal_radius: float = 3.0,
    min_episode_length: float = 6.0,
    max_run: int = DEFAULT_MAX_RUN,
    held_per_world: int = 10,
) -> Suite:
    """Draw validated, disjoint train/held splits from the suite seed.

    Every world and held episode seed comes from one rejection loop,
    draw.  A world is built once, and only the worlds the suite keeps
    stay cached for training.  Raises SuiteError on parameters
    or counts it cannot meet, before any draw, and after MAX_TRIES
    rejected world or episode draws in a row.
    """
    spec = Suite(
        name, width, height, density, cell_size, goal_radius, min_episode_length, max_run, (), (),
    )
    if not (n_train_worlds >= 0 and n_held >= 0 and held_per_world >= 1):
        raise SuiteError(
            "need n_train_worlds >= 0, n_held >= 0 and held_per_world >= 1:"
            f" {n_train_worlds}, {n_held}, {held_per_world}"
        )

    def draw(rng, accepts, what) -> int:
        """The first seed drawn from rng that accepts(seed) takes; it
        rejects one by returning False or raising GenerationFailed."""
        for _ in range(MAX_TRIES):
            candidate = int(rng.integers(1, 2**31))
            try:
                if accepts(candidate):
                    return candidate
            except GenerationFailed:
                pass  # a world too small or choppy, or an episode seed that fails
        raise SuiteError(
            f"no {what} with an episode of geodesic >= {min_episode_length} after"
            f" {MAX_TRIES} draws in a row ({width}x{height}, density={density})"
        )

    def new_world(world_seed) -> bool:
        """Whether the seed is unused and its world holds an episode; a
        world joins the cache only once it is accepted."""
        if world_seed in taken:
            return False
        key = _world_key(spec, world_seed)
        world = _WORLD_CACHE.get(key)
        if world is None:
            world = generate_world(world_seed, width, height, density, cell_size)
        generate_episode(
            world, 0, goal_radius=goal_radius, min_length=min_episode_length, max_run=max_run,
        )
        _WORLD_CACHE[key] = world
        taken.add(world_seed)
        return True

    def new_episode(world_seed, episode_seed) -> bool:
        """Whether the seed is not yet held in the world and generates."""
        if (world_seed, episode_seed) in held_pairs:
            return False
        suite_episode(spec, world_seed, episode_seed)
        return True

    taken: set = set()
    train_rng = stream(seed, "suite-train-worlds")
    train_seeds = tuple(draw(train_rng, new_world, "world") for _ in range(n_train_worlds))

    held_rng = stream(seed, "suite-held")
    held_pairs = []
    while len(held_pairs) < n_held:
        world_seed = draw(held_rng, new_world, "world")
        for _ in range(min(held_per_world, n_held - len(held_pairs))):
            episode_seed = draw(
                held_rng, lambda es: new_episode(world_seed, es),
                f"held episode in world {world_seed}",
            )
            held_pairs.append((world_seed, episode_seed))
    return dataclasses.replace(spec, train_world_seeds=train_seeds, held_pairs=tuple(held_pairs))


def serialize_suite(suite: Suite) -> str:
    lines = [SUITE_MAGIC]
    lines.append(f"name {suite.name}")
    lines.append(f"world {suite.width} {suite.height} {suite.density!r} {suite.cell_size!r}")
    lines.append(
        f"episode {suite.goal_radius!r} {suite.min_episode_length!r} {suite.max_run}"
    )
    for ws in suite.train_world_seeds:
        lines.append(f"train-world {ws}")
    for ws, es in suite.held_pairs:
        lines.append(f"held {ws} {es}")
    return "\n".join(lines) + "\n"


def parse_suite(text: str) -> Suite:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != SUITE_MAGIC:
        raise SuiteError(f"bad suite magic: {lines[:1]}")
    header = {}  # name, world and episode: one record each
    train_seeds = []
    held_pairs = []
    try:
        for line in lines[1:]:
            key, _, rest = line.partition(" ")
            if key in header:
                raise SuiteError(f"repeated suite record: {line!r}")
            if key == "name":
                header[key] = rest
            elif key == "world":
                w, h, d, c = rest.split()
                header[key] = (int(w), int(h), float(d), float(c))
            elif key == "episode":
                r, m, mr = rest.split()
                header[key] = (float(r), float(m), int(mr))
            elif key == "train-world":
                train_seeds.append(int(rest))
            elif key == "held":
                ws, es = rest.split()
                held_pairs.append((int(ws), int(es)))
            else:
                raise SuiteError(f"unknown suite record: {line!r}")
        if len(header) < 3:
            raise SuiteError("suite header incomplete")
    except ValueError as e:
        raise SuiteError(f"malformed suite line: {e}") from e
    return Suite(
        header["name"], *header["world"], *header["episode"], tuple(train_seeds), tuple(held_pairs),
    )
