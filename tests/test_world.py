"""Grid dynamics, egocentric observation, instructions, episode format."""
import numpy as np
import pytest

from budnav.errors import GenerationFailed, MalformedPlan, UnknownToken
from budnav.rng import stream
from budnav.world import (
    Action,
    GridWorld,
    HEADING_VECS,
    Pose,
    compile_instruction,
    dedup_positions,
    euclid_m,
    expand_instruction,
    fwd_token,
    generate_episode,
    generate_world,
    left_token,
    observe,
    observe_states,
    parse_episode,
    pose_state,
    right_token,
    serialize_episode,
    step,
    stop_token,
    token_name,
    vocab_size,
)

from conftest import corridor_world, open_world, walled_world


# ---------------------------------------------------------------- dynamics

def test_forward_moves_by_heading():
    w = open_world()
    # N decreases y, E increases x, S increases y, W decreases x.
    assert step(w, Pose(3, 3, 0), Action.FORWARD) == Pose(3, 2, 0)
    assert step(w, Pose(3, 3, 1), Action.FORWARD) == Pose(4, 3, 1)
    assert step(w, Pose(3, 3, 2), Action.FORWARD) == Pose(3, 4, 2)
    assert step(w, Pose(3, 3, 3), Action.FORWARD) == Pose(2, 3, 3)


def test_turns_rotate_in_place():
    w = open_world()
    for h in range(4):
        assert step(w, Pose(2, 2, h), Action.TURN_RIGHT) == Pose(2, 2, (h + 1) % 4)
        assert step(w, Pose(2, 2, h), Action.TURN_LEFT) == Pose(2, 2, (h - 1) % 4)


def test_four_rights_is_identity():
    w = open_world()
    pose = Pose(1, 1, 0)
    for _ in range(4):
        pose = step(w, pose, Action.TURN_RIGHT)
    assert pose == Pose(1, 1, 0)


def test_stop_is_a_no_op():
    w = open_world()
    assert step(w, Pose(5, 5, 2), Action.STOP) == Pose(5, 5, 2)


def test_forward_into_wall_is_no_op():
    w = walled_world()
    pose = Pose(1, 2, 1)  # facing E into the wall at (2, 2)
    assert step(w, pose, Action.FORWARD) == pose


def test_forward_off_grid_is_no_op():
    w = open_world(4, 4)
    assert step(w, Pose(0, 0, 0), Action.FORWARD) == Pose(0, 0, 0)  # N off top
    assert step(w, Pose(3, 3, 1), Action.FORWARD) == Pose(3, 3, 1)  # E off right


def test_step_rejects_blocked_pose():
    w = walled_world()
    with pytest.raises(ValueError):
        step(w, Pose(2, 2, 0), Action.FORWARD)


def test_step_rejects_an_action_or_heading_outside_the_four():
    # Either would index another state's transitions entries.
    w = open_world(4, 4)
    for pose, action in ((Pose(1, 1, 0), 4), (Pose(1, 1, 0), -1), (Pose(1, 1, 4), 0),
                         (Pose(1, 1, -1), 0)):
        with pytest.raises(ValueError):
            step(w, pose, action)


def test_world_validation():
    with pytest.raises(ValueError):
        GridWorld(0, 5, frozenset())
    with pytest.raises(ValueError):
        GridWorld(5, 5, frozenset({(5, 0)}))


# ------------------------------------------------------------- observation

def observe_oracle(world, pose, k):
    """Independent construction: enumerate world-frame cells and place
    them by explicit per-heading rotation formulas."""
    half = k // 2
    patch = np.ones((k, k))
    for r in range(k):
        for c in range(k):
            a, s = half - r, c - half  # cells ahead, cells to the right
            if pose.heading == 0:  # N: ahead = -y, right = +x
                x, y = pose.x + s, pose.y - a
            elif pose.heading == 1:  # E: ahead = +x, right = +y
                x, y = pose.x + a, pose.y + s
            elif pose.heading == 2:  # S: ahead = +y, right = -x
                x, y = pose.x - s, pose.y + a
            else:  # W: ahead = -x, right = -y
                x, y = pose.x - a, pose.y - s
            patch[r, c] = 0.0 if world.is_free(x, y) else 1.0
    return patch


def test_observe_matches_rotation_oracle():
    w = generate_world(seed=5, width=9, height=9, density=0.2)
    for pose_xy in [(0, 0), (4, 4), (8, 8), (1, 6)]:
        if not w.is_free(*pose_xy):
            continue
        for h in range(4):
            pose = Pose(pose_xy[0], pose_xy[1], h)
            got = observe(w, pose, 5)
            want = observe_oracle(w, pose, 5)
            assert np.array_equal(got, want), (pose_xy, h)


def observe_per_cell(world, pose, k):
    """observe() as a per-cell loop over is_free, the construction it
    replaced; kept as the byte-level reference for the array version."""
    half = k // 2
    fx, fy = HEADING_VECS[pose.heading]
    rx, ry = HEADING_VECS[(pose.heading + 1) % 4]  # agent's right-hand side
    patch = np.empty((k, k), dtype=np.float64)
    for r in range(k):
        ahead = half - r
        for c in range(k):
            side = c - half
            x = pose.x + ahead * fx + side * rx
            y = pose.y + ahead * fy + side * ry
            patch[r, c] = 0.0 if world.is_free(x, y) else 1.0
    return patch


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_observe_matches_per_cell_loop_byte_for_byte(k):
    # Small worlds, so patches near every edge hang off the grid.
    worlds = [
        walled_world(),
        open_world(3, 2),
        corridor_world(6),
        GridWorld(4, 6, frozenset({(0, 0), (3, 5), (1, 2), (2, 3)})),
        generate_world(seed=5, width=9, height=7, density=0.3),
    ]
    crossed_edge = False
    for w in worlds:
        for x, y in w.free_cells():
            crossed_edge |= not (
                k // 2 <= x < w.width - k // 2 and k // 2 <= y < w.height - k // 2
            )
            for h in range(4):
                pose = Pose(x, y, h)
                got = observe(w, pose, k)
                want = observe_per_cell(w, pose, k)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.flags.c_contiguous
                assert got.tobytes() == want.tobytes(), (w.width, w.height, pose)
    assert crossed_edge == (k > 1)


@pytest.mark.parametrize("k", [1, 3, 5, 7])
def test_observe_states_equals_per_pose_observe_byte_for_byte(k):
    # Every free cell and heading of small edge-heavy worlds and of 20
    # generated ones, gathered in one call per world (poses in a shuffled
    # order) against observe, one pose at a time.
    rng = np.random.default_rng(k)
    worlds = [walled_world(), open_world(3, 2), corridor_world(6)] + [
        generate_world(seed=s, width=int(rng.integers(5, 13)), height=int(rng.integers(5, 13)),
                       density=0.3)
        for s in range(20)
    ]
    for w in worlds:
        poses = [Pose(x, y, h) for x, y in w.free_cells() for h in range(4)]
        poses = [poses[i] for i in rng.permutation(len(poses))]
        states = [pose_state(pose, w.width) for pose in poses]
        got = observe_states(w, states, k)
        want = np.array([observe(w, pose, k).ravel() for pose in poses])
        assert got.shape == (len(poses), k * k) and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (w.width, w.height)
        one = observe_states(w, states[:1], k)
        assert one.tobytes() == observe(w, poses[0], k).tobytes()
    with pytest.raises(ValueError, match="odd and positive"):
        observe_states(walled_world(), [0], k + 1)


def test_observe_returns_a_private_writable_patch():
    w = walled_world()
    first = observe(w, Pose(1, 1, 1), 3)
    first[:] = 7.0
    assert np.array_equal(observe(w, Pose(1, 1, 1), 3), observe_per_cell(w, Pose(1, 1, 1), 3))


def test_observe_rejects_off_grid_pose():
    with pytest.raises(ValueError):
        observe(open_world(3, 3), Pose(3, 0, 0), 3)


def test_observe_center_is_own_cell():
    w = walled_world()
    for h in range(4):
        patch = observe(w, Pose(0, 0, h), 5)
        assert patch[2, 2] == 0.0


def test_observe_out_of_bounds_reads_blocked():
    w = open_world(3, 3)
    patch = observe(w, Pose(0, 0, 0), 5)  # top-left corner facing N
    # Row 0 is two cells ahead: entirely off-grid.
    assert np.all(patch[0] == 1.0)


def test_observe_rotates_with_agent():
    w = walled_world()
    # Wall cell (2,1) is north of (2,0)? No: (2,1) is south of (2,0).
    # Standing at (1,1) facing E, the wall at (2,1) is directly ahead.
    east = observe(w, Pose(1, 1, 1), 3)
    assert east[0, 1] == 1.0  # straight ahead, one cell
    # Facing S from (1,1), the wall at (2,1) is directly to the left.
    south = observe(w, Pose(1, 1, 2), 3)
    assert south[1, 0] == 1.0


def test_observe_requires_odd_k():
    w = open_world()
    with pytest.raises(ValueError):
        observe(w, Pose(1, 1, 0), 4)


# ------------------------------------------------------------- generation

def test_generate_world_is_deterministic():
    a = generate_world(seed=11, width=10, height=8, density=0.2)
    b = generate_world(seed=11, width=10, height=8, density=0.2)
    assert a == b
    c = generate_world(seed=12, width=10, height=8, density=0.2)
    assert a != c


def test_generate_world_density_and_connectivity():
    w = generate_world(seed=2, width=12, height=12, density=0.2)
    assert len(w.blocked) == round(0.2 * 144)
    # Flood fill oracle over the free cells.
    free = set(w.free_cells())
    start = next(iter(free))
    seen, frontier = {start}, [start]
    while frontier:
        x, y = frontier.pop()
        for dx, dy in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            n = (x + dx, y + dy)
            if n in free and n not in seen:
                seen.add(n)
                frontier.append(n)
    assert seen == free


def test_free_cells_are_memoized_in_row_major_order():
    w = generate_world(seed=2, width=12, height=12, density=0.2)
    cells = w.free_cells()
    assert cells is w.free_cells()
    assert cells == tuple(
        (x, y) for y in range(12) for x in range(12) if (x, y) not in w.blocked
    )


def test_generate_world_rejects_bad_density():
    with pytest.raises(ValueError):
        generate_world(seed=0, width=5, height=5, density=0.9)


def flood_fill_connected(width: int, height: int, blocked) -> bool:
    """True when the free cells form a single 4-connected component: a
    flood fill that does not read the move table."""
    free = [(x, y) for y in range(height) for x in range(width) if (x, y) not in blocked]
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


def reference_world(seed, width, height, density, max_tries=200):
    """(blocked, rejected): the first candidate drawn from the seed's
    stream that the flood fill calls connected, and how many came before
    it; blocked is None when none of max_tries is."""
    rng = stream("world", seed, width, height)
    n_cells = width * height
    for rejected in range(max_tries):
        picks = rng.choice(n_cells, size=int(round(density * n_cells)), replace=False)
        blocked = frozenset((int(i) % width, int(i) // width) for i in picks)
        if flood_fill_connected(width, height, blocked):
            return blocked, rejected
    return None, max_tries


def test_generate_world_matches_the_flood_fill_reference():
    shapes = [
        (10, 10, 0.15), (10, 10, 0.35), (8, 8, 0.12), (12, 12, 0.2), (5, 1, 0.2), (3, 7, 0.35),
    ]
    rejected_first, failed = {}, 0
    for width, height, density in shapes:
        rejected_first[width, height, density] = 0
        for seed in range(150):
            blocked, rejected = reference_world(seed, width, height, density)
            if blocked is None:
                failed += 1
                with pytest.raises(GenerationFailed):
                    generate_world(seed, width, height, density)
                continue
            shape = (seed, width, height, density)
            assert generate_world(*shape).blocked == blocked, shape
            rejected_first[width, height, density] += rejected > 0
            if seed < 5:  # connectivity counts steps: distances in metres overflow here
                for cell_size in (1e308, float("inf")):
                    world = generate_world(*shape, cell_size=cell_size)
                    assert world.blocked == blocked and world.cell_size == cell_size, shape
    # The corpus exercises rejection and failure, not only first draws.
    assert all(rejected_first.values()), rejected_first
    assert rejected_first[10, 10, 0.35] > 100 and failed > 0



# ------------------------------------------------------------ instructions

def test_token_ids_partition_vocabulary():
    m = 8
    assert [fwd_token(n, m) for n in (1, m)] == [0, m - 1]
    assert left_token(m) == m
    assert right_token(m) == m + 1
    assert stop_token(m) == m + 2
    assert vocab_size(m) == m + 3
    names = [token_name(t, m) for t in range(vocab_size(m))]
    assert names[0] == "FWD(1)"
    assert names[-1] == "STOP_AT_GOAL"
    with pytest.raises(UnknownToken):
        token_name(vocab_size(m), m)


def test_compile_rle_and_split_runs():
    F, L, R, S = Action.FORWARD, Action.TURN_LEFT, Action.TURN_RIGHT, Action.STOP
    tokens = compile_instruction([F, F, F, L, F, S], max_run=8)
    assert tokens == (fwd_token(3, 8), left_token(8), fwd_token(1, 8), stop_token(8))
    # Runs longer than max_run split greedily.
    tokens = compile_instruction([F] * 11 + [S], max_run=4)
    assert tokens == (fwd_token(4, 4), fwd_token(4, 4), fwd_token(3, 4), stop_token(4))


def test_compile_round_trips_through_expand():
    F, L, R, S = Action.FORWARD, Action.TURN_LEFT, Action.TURN_RIGHT, Action.STOP
    for plan in [
        [S],
        [F, S],
        [R, R, F, F, F, F, F, F, F, F, F, L, F, S],
        [L, F, R, F, F, S],
    ]:
        tokens = compile_instruction(plan, max_run=3)
        assert expand_instruction(tokens, max_run=3) == plan


def test_compile_rejects_malformed_plans():
    F, S = Action.FORWARD, Action.STOP
    with pytest.raises(MalformedPlan):
        compile_instruction([], max_run=8)
    with pytest.raises(MalformedPlan):
        compile_instruction([F, F], max_run=8)
    with pytest.raises(MalformedPlan):
        compile_instruction([F, S, F, S], max_run=8)


def test_expand_rejects_unknown_token():
    with pytest.raises(UnknownToken):
        expand_instruction((99,), max_run=8)


# ---------------------------------------------------------------- episodes

def test_generate_episode_deterministic_and_long_enough(small_worlds):
    for w in small_worlds[:4]:
        a = generate_episode(w, seed=1, min_length=5.0)
        b = generate_episode(w, seed=1, min_length=5.0)
        assert a == b
        from budnav.oracle import geodesic_field

        field = geodesic_field(w, a.goal)
        assert field.at(a.start.x, a.start.y) >= 5.0


def test_episode_reference_replays_from_instruction(sample_episode):
    ep = sample_episode
    pose = ep.start
    poses = [pose]
    for action in expand_instruction(ep.instruction, ep.max_run):
        pose = step(ep.world, pose, action)
        poses.append(pose)
    assert tuple(poses) == ep.reference_path


def test_generate_episode_impossible_length_raises():
    w = open_world(3, 3)
    with pytest.raises(GenerationFailed):
        generate_episode(w, seed=0, min_length=50.0)


def test_episode_round_trip_is_byte_exact(sample_episode):
    text = serialize_episode(sample_episode)
    ep = parse_episode(text)
    assert ep == sample_episode
    assert serialize_episode(ep) == text


def test_parse_rejects_bad_magic():
    with pytest.raises(ValueError):
        parse_episode("nonsense\n")


# ------------------------------------------------------------------- misc

def test_euclid_scales_with_cell_size():
    assert euclid_m((0, 0), (3, 4), 1.0) == 5.0
    assert euclid_m((0, 0), (3, 4), 0.5) == 2.5


def test_dedup_positions_collapses_turns():
    poses = [Pose(0, 0, 0), Pose(0, 0, 1), Pose(1, 0, 1), Pose(1, 0, 2), Pose(1, 1, 2)]
    assert dedup_positions(poses) == ((0, 0), (1, 0), (1, 1))


def test_dedup_positions_collapses_repeats_only():
    # Only consecutive repeats collapse; a cell revisited later stays.
    poses = [Pose(0, 0, 0), Pose(0, 0, 0), Pose(1, 0, 0), Pose(1, 0, 2), Pose(0, 0, 2)]
    assert dedup_positions(poses) == ((0, 0), (1, 0), (0, 0))
