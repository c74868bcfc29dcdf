"""Shared fixtures: small deterministic worlds, episodes, and policies."""
from typing import NamedTuple

import numpy as np
import pytest

from budnav.oracle import advance_progress
from budnav.policy import PolicyConfig, init_params, snapshot
from budnav.world import HEADING_VECS, Action, GridWorld, Pose, generate_episode, generate_world


def open_world(width=8, height=8, cell_size=1.0):
    """Obstacle-free world, handy for closed-form path checks."""
    return GridWorld(width, height, frozenset(), cell_size)


def corridor_world(length=10):
    """A 1-cell-tall corridor of the given length."""
    return GridWorld(length, 1, frozenset(), 1.0)


def walled_world():
    """5x5 with a wall through the middle column except one gap:

        .....
        ..#..
        ..#..
        ..#..
        .....
    """
    blocked = frozenset({(2, 1), (2, 2), (2, 3)})
    return GridWorld(5, 5, blocked, 1.0)


def reference_step(world, pose, action):
    """One action applied by branching on the Pose, written independently
    of world.transitions: the move rule the table must reproduce."""
    if not world.is_free(pose.x, pose.y):
        raise ValueError(f"pose on blocked or out-of-bounds cell: {pose}")
    if action == Action.FORWARD:
        dx, dy = HEADING_VECS[pose.heading]
        nx, ny = pose.x + dx, pose.y + dy
        if world.is_free(nx, ny):
            return Pose(nx, ny, pose.heading)
        return pose
    if action == Action.TURN_LEFT:
        return Pose(pose.x, pose.y, (pose.heading - 1) % 4)
    if action == Action.TURN_RIGHT:
        return Pose(pose.x, pose.y, (pose.heading + 1) % 4)
    if action == Action.STOP:
        return pose
    raise ValueError(f"unknown action: {action}")


def prefix_progress(positions, waypoints, visit_radius=0.5, cell_size=1.0):
    """Waypoint progress after each prefix of positions (-1 before waypoint 0)."""
    j, out = -1, []
    for pos in positions:
        j = advance_progress(j, pos, waypoints, visit_radius, cell_size)
        out.append(j)
    return out


@pytest.fixture(scope="session")
def small_worlds():
    """A deterministic batch of connected random worlds."""
    return [generate_world(seed=s, width=8, height=8, density=0.15) for s in range(10)]


@pytest.fixture(scope="session")
def sample_episode():
    world = generate_world(seed=3, width=10, height=10, density=0.15)
    return generate_episode(world, seed=7)


@pytest.fixture(scope="session")
def tiny_policy():
    """Small but full-featured policy for gradient tests."""
    cfg = PolicyConfig(d_e=4, d_o=4, d_a=3, d_h=8, history_k=3)
    return init_params(cfg, 0)


@pytest.fixture(scope="session")
def default_policy():
    return init_params(PolicyConfig(), 0)


class Window(NamedTuple):
    """One step's conditioning context spelled out: the instruction and
    history_k (patch, previous action) slots, oldest first."""

    instruction: tuple
    patches: tuple
    prev_actions: tuple


def rand_window(params, rng, n_tokens=3, n_hist=None):
    """Random but well-formed history window for the given policy."""
    cfg = params.cfg
    k = cfg.history_k if n_hist is None else n_hist
    instruction = tuple(int(t) for t in rng.integers(0, cfg.vocab, size=n_tokens))
    patches = tuple(rng.uniform(0, 1, size=cfg.obs_k * cfg.obs_k) for _ in range(k))
    actions = tuple(
        int(a) for a in rng.integers(0, 5, size=k)
    )  # 4 = NO_ACTION padding value
    return Window(instruction=instruction, patches=patches, prev_actions=actions)


def window_steps(params, window, n_pad=0):
    """One-row StepRows whose step has window's slots.  The first n_pad
    slots are left to the featurizer's own padding; the rest are the
    sequence's steps, and the row is its last step's."""
    from budnav.policy import featurize

    patches = np.array(window.patches[n_pad:]).reshape(-1, params.cfg.patch_cells)
    n = len(patches)
    return featurize(params, window.instruction, patches, window.prev_actions[n_pad:], n - 1)


def replay(params, instruction, world, steps):
    """Yield (action, one-row StepRows) for each step of a trajectory's
    Steps on world, featurized on its own from the steps up to it."""
    from budnav.policy import NO_ACTION, featurize
    from budnav.world import observe_states

    patches = observe_states(world, steps.states, params.cfg.obs_k)
    actions = steps.actions.tolist()
    prev_actions = [NO_ACTION] + actions[:-1]
    for t, action in enumerate(actions):
        yield action, featurize(params, instruction, patches[: t + 1], prev_actions[: t + 1], t)
