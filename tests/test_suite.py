"""Suite generation, the train/held split, and the text format."""
import pytest

import budnav.suite

from budnav.errors import GenerationFailed, SuiteError
from budnav.oracle import geodesic_field
from budnav.suite import (
    SUITE_MAGIC,
    Suite,
    build_held_episodes,
    generate_suite,
    parse_suite,
    serialize_suite,
    suite_episode,
    suite_world,
)


@pytest.fixture(scope="module")
def suite():
    return generate_suite(
        "unit", seed=9, n_train_worlds=4, n_held=8,
        width=8, height=8, density=0.12, min_episode_length=5.0,
        held_per_world=3,
    )


def test_generation_is_deterministic(suite):
    again = generate_suite(
        "unit", seed=9, n_train_worlds=4, n_held=8,
        width=8, height=8, density=0.12, min_episode_length=5.0,
        held_per_world=3,
    )
    assert again == suite


def test_split_sizes_and_disjointness(suite):
    assert len(suite.train_world_seeds) == 4
    assert len(suite.held_pairs) == 8
    held_worlds = {ws for ws, _ in suite.held_pairs}
    assert not held_worlds & set(suite.train_world_seeds)


def test_held_per_world_caps_episodes_per_layout(suite):
    from collections import Counter

    counts = Counter(ws for ws, _ in suite.held_pairs)
    assert all(c <= 3 for c in counts.values())


def test_overlapping_split_is_rejected():
    with pytest.raises(SuiteError):
        Suite(
            name="bad", width=8, height=8, density=0.1, cell_size=1.0,
            goal_radius=3.0, min_episode_length=5.0, max_run=8,
            train_world_seeds=(1, 2, 3), held_pairs=((2, 77),),
        )


def test_every_held_pair_generates_and_meets_min_length(suite):
    episodes = build_held_episodes(suite)
    assert len(episodes) == len(suite.held_pairs)
    for ep in episodes:
        field = geodesic_field(ep.world, ep.goal)
        assert field.at(*ep.start.position) >= suite.min_episode_length
        assert ep.goal_radius == suite.goal_radius
        assert ep.max_run == suite.max_run


def test_build_held_episodes_limit(suite):
    assert len(build_held_episodes(suite, 3)) == 3
    assert len(build_held_episodes(suite, 0)) == len(suite.held_pairs)


@pytest.mark.parametrize("limit", [-1, -7])
def test_build_held_episodes_rejects_negative_limit(suite, limit):
    # A negative slice would silently drop episodes from the end.
    with pytest.raises(SuiteError, match="limit must be >= 0"):
        build_held_episodes(suite, limit)


def test_generate_suite_gives_up_when_no_world_holds_the_length():
    with pytest.raises(SuiteError, match="no world with an episode"):
        generate_suite("long", seed=0, n_train_worlds=1, n_held=1, min_episode_length=600.0)


def test_generate_suite_gives_up_on_a_world_without_held_episodes(monkeypatch):
    # Only episode seed 0, which validates a world, ever generates.
    real = budnav.suite.generate_episode
    calls = []

    def only_seed_zero(world, seed, **kwargs):
        calls.append(seed)
        if seed != 0:
            raise GenerationFailed("no pair")
        return real(world, seed, **kwargs)

    monkeypatch.setattr(budnav.suite, "generate_episode", only_seed_zero)
    with pytest.raises(SuiteError, match="no held episode in world"):
        generate_suite("choppy", seed=0, n_train_worlds=1, n_held=1)
    assert len(calls) == 2 + budnav.suite.MAX_REJECTED_DRAWS


def test_build_held_episodes_names_a_pair_that_cannot_generate(suite):
    text = serialize_suite(suite)
    episode_line = f"episode {suite.goal_radius!r} {suite.min_episode_length!r} {suite.max_run}"
    impossible = parse_suite(text.replace(episode_line, f"episode {suite.goal_radius!r} 600.0 {suite.max_run}"))
    ws, es = impossible.held_pairs[0]
    with pytest.raises(SuiteError, match=f"held pair \\({ws}, {es}\\)"):
        build_held_episodes(impossible, 1)


@pytest.mark.parametrize("bad", [
    {"width": 100}, {"height": 0}, {"density": 0.9}, {"cell_size": 0.0}, {"max_run": 0},
    {"held_per_world": 0}, {"n_held": -1}, {"n_train_worlds": -1}, {"goal_radius": -1.0},
])
def test_generate_suite_checks_ranges_before_drawing(bad, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a world was drawn before the range check")

    monkeypatch.setattr(budnav.suite, "generate_world", no_draw)
    with pytest.raises(SuiteError):
        generate_suite(**{"name": "bad", "seed": 0, "n_train_worlds": 1, "n_held": 1, **bad})


def test_generate_suite_builds_each_world_once(monkeypatch):
    real = budnav.suite.generate_world
    built = []

    def counted(seed, *args, **kwargs):
        built.append(seed)
        return real(seed, *args, **kwargs)

    monkeypatch.setattr(budnav.suite, "generate_world", counted)
    suite = generate_suite("once", seed=0, n_train_worlds=2, n_held=2, held_per_world=1)
    held_worlds = tuple(ws for ws, _ in suite.held_pairs)
    assert sorted(built) == sorted(suite.train_world_seeds + held_worlds)
    assert len(built) == 4


def test_suite_episode_is_reproducible(suite):
    ws, es = suite.held_pairs[0]
    a = suite_episode(suite, ws, es)
    b = suite_episode(suite, ws, es)
    assert a.id == b.id and a.start == b.start and a.goal == b.goal
    assert a.instruction == b.instruction
    assert suite_world(suite, ws) is suite_world(suite, ws)  # cached


def test_serialize_parse_round_trip(suite):
    text = serialize_suite(suite)
    assert text.startswith(SUITE_MAGIC + "\n")
    assert parse_suite(text) == suite
    assert serialize_suite(parse_suite(text)) == text


def test_parse_rejects_malformed_documents():
    good = serialize_suite(
        generate_suite("t", seed=2, n_train_worlds=1, n_held=1, width=8, height=8,
                       density=0.1, min_episode_length=4.0)
    )
    with pytest.raises(SuiteError):
        parse_suite("budnav-suite v0\nname x\n")
    with pytest.raises(SuiteError):
        parse_suite(good + "mystery 1 2\n")
    with pytest.raises(SuiteError):
        parse_suite(good.replace("world 8 8", "world eight 8"))
    with pytest.raises(SuiteError):
        parse_suite(SUITE_MAGIC + "\nname only\n")
    for radius in ("-1.0", "0.0"):  # nDTW divides by the radius
        with pytest.raises(SuiteError, match="goal_radius must be > 0"):
            parse_suite(good.replace("episode 3.0", f"episode {radius}"))
    for cell in ("0.0", "inf", "nan"):  # nDTW's costs are offsets times the cell size
        with pytest.raises(SuiteError, match="need a finite cell_size > 0"):
            parse_suite(good.replace("world 8 8 0.1 1.0", f"world 8 8 0.1 {cell}"))
