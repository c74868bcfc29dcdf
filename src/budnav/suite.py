"""Benchmark suites: named, reproducible train/held-out episode splits.

A suite pins the world-generation parameters, a pool of training world
seeds, and an explicit list of (world_seed, episode_seed) pairs for the
held-out set.  Train and held-out world seeds are disjoint, so
evaluation always happens on unseen layouts.  Every pair in a generated
suite is validated (the episode actually generates), which keeps
downstream consumers free of generation failures.

File format "budnav-suite v1" is a plain text document:

    budnav-suite v1
    name <name>
    world <width> <height> <density> <cell_size>
    episode <goal_radius> <min_length> <max_run>
    train-world <seed>          (one line per training world)
    held <world_seed> <ep_seed> (one line per held-out episode)
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GenerationFailed, SuiteError
from .rng import stream
from .world import (
    DEFAULT_MAX_RUN, MAX_CELL_SIZE, MAX_DENSITY, MAX_SIDE, Episode, GridWorld,
    generate_episode, generate_world,
)

SUITE_MAGIC = "budnav-suite v1"

# Rejected draws in a row after which generate_suite gives up, like
# world.MAX_TRIES: no world may hold an episode that long.
MAX_REJECTED_DRAWS = 200


def check_generation_params(width, height, density, cell_size, goal_radius, max_run) -> None:
    """Raise SuiteError unless worlds and episodes can be drawn with these."""
    if not (0 < width <= MAX_SIDE and 0 < height <= MAX_SIDE):
        raise SuiteError(f"world extent out of range: {width}x{height}")
    if not 0.0 <= density <= MAX_DENSITY:
        raise SuiteError(f"density out of range [0, {MAX_DENSITY}]: {density}")
    if not (0.0 < cell_size < math.inf and max_run >= 1):  # nDTW's costs need a finite cell
        raise SuiteError(f"need a finite cell_size > 0 and max_run >= 1: {cell_size}, {max_run}")
    if cell_size > MAX_CELL_SIZE:
        raise SuiteError(f"cell_size out of range (0, {MAX_CELL_SIZE:g}]: {cell_size}")
    if not goal_radius > 0.0:  # nDTW divides by it
        raise SuiteError(f"goal_radius must be > 0, got {goal_radius}")


@dataclass(frozen=True)
class Suite:
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
        check_generation_params(
            self.width, self.height, self.density, self.cell_size, self.goal_radius, self.max_run
        )
        train = set(self.train_world_seeds)
        held = {ws for ws, _ in self.held_pairs}
        overlap = train & held
        if overlap:
            raise SuiteError(f"train/held world seeds overlap: {sorted(overlap)[:5]}")


_WORLD_CACHE: dict = {}


def suite_world(suite: Suite, world_seed: int) -> GridWorld:
    key = (world_seed, suite.width, suite.height, suite.density, suite.cell_size)
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
    draw.  Raises SuiteError on counts it cannot meet, before any draw,
    and after MAX_REJECTED_DRAWS rejected world or episode draws in a row.
    """
    check_generation_params(width, height, density, cell_size, goal_radius, max_run)
    if not (n_train_worlds >= 0 and n_held >= 0 and held_per_world >= 1):
        raise SuiteError(
            "need n_train_worlds >= 0, n_held >= 0 and held_per_world >= 1:"
            f" {n_train_worlds}, {n_held}, {held_per_world}"
        )

    def draw(rng, build, what):
        """(seed, build(seed)) for the first seed drawn from rng that
        build accepts; build rejects a seed by raising GenerationFailed
        or by returning None."""
        for _ in range(MAX_REJECTED_DRAWS):
            candidate = int(rng.integers(1, 2**31))
            try:
                value = build(candidate)
            except GenerationFailed:
                continue  # a world too small or choppy, or an episode seed that fails
            if value is not None:
                return candidate, value
        raise SuiteError(
            f"no {what} with an episode of geodesic >= {min_episode_length} after"
            f" {MAX_REJECTED_DRAWS} draws in a row ({width}x{height}, density={density})"
        )

    episode_params = dict(goal_radius=goal_radius, min_length=min_episode_length, max_run=max_run)

    def new_world(world_seed):
        """The world of an unused seed that holds an episode, else None."""
        if world_seed in taken:
            return None
        world = generate_world(world_seed, width, height, density, cell_size)
        generate_episode(world, 0, **episode_params)
        taken.add(world_seed)
        return world

    taken: set = set()
    train_rng = stream(seed, "suite-train-worlds")
    train_seeds = [draw(train_rng, new_world, "world")[0] for _ in range(n_train_worlds)]

    held_rng = stream(seed, "suite-held")
    held_pairs = []
    while len(held_pairs) < n_held:
        world_seed, world = draw(held_rng, new_world, "world")
        for _ in range(min(held_per_world, n_held - len(held_pairs))):
            episode_seed = draw(
                held_rng, lambda es: generate_episode(world, es, **episode_params),
                f"held episode in world {world_seed}",
            )[0]
            held_pairs.append((world_seed, episode_seed))
    return Suite(
        name=name,
        width=width,
        height=height,
        density=density,
        cell_size=cell_size,
        goal_radius=goal_radius,
        min_episode_length=min_episode_length,
        max_run=max_run,
        train_world_seeds=tuple(train_seeds),
        held_pairs=tuple(held_pairs),
    )


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
    name = None
    world = None
    episode = None
    train_seeds = []
    held_pairs = []
    try:
        for line in lines[1:]:
            key, _, rest = line.partition(" ")
            if key == "name":
                name = rest
            elif key == "world":
                w, h, d, c = rest.split()
                world = (int(w), int(h), float(d), float(c))
            elif key == "episode":
                r, m, mr = rest.split()
                episode = (float(r), float(m), int(mr))
            elif key == "train-world":
                train_seeds.append(int(rest))
            elif key == "held":
                ws, es = rest.split()
                held_pairs.append((int(ws), int(es)))
            else:
                raise SuiteError(f"unknown suite record: {line!r}")
        if name is None or world is None or episode is None:
            raise SuiteError("suite header incomplete")
    except ValueError as e:
        raise SuiteError(f"malformed suite line: {e}") from e
    return Suite(
        name=name,
        width=world[0], height=world[1], density=world[2], cell_size=world[3],
        goal_radius=episode[0], min_episode_length=episode[1], max_run=episode[2],
        train_world_seeds=tuple(train_seeds),
        held_pairs=tuple(held_pairs),
    )
