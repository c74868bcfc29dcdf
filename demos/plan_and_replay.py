"""Generate a world, read off the oracle's route, and walk it.

Shows the raw building blocks under the trainer: seeded world and
episode generation, the compiled instruction, and the guarantee that
expanding the instruction back into actions lands inside the goal zone.

    python3 demos/plan_and_replay.py
"""
from budnav.oracle import geodesic_field
from budnav.suite import generate_episode, generate_world
from budnav.world import (
    dedup_positions,
    euclid_m,
    expand_instruction,
    step,
    token_name,
)


def ascii_map(world, reference, walked, start, goal):
    grid = [
        ["#" if (x, y) in world.blocked else "." for x in range(world.width)]
        for y in range(world.height)
    ]
    for x, y in reference:
        grid[y][x] = "o"
    for x, y in walked:
        grid[y][x] = "@" if grid[y][x] == "o" else "*"
    grid[start[1]][start[0]] = "S"
    grid[goal[1]][goal[0]] = "G"
    return "\n".join("".join(row) for row in grid)


def main():
    world = generate_world(seed=11, width=12, height=10, density=0.18)
    episode = generate_episode(world, seed=4, min_length=8.0)
    field = geodesic_field(world, episode.goal)

    print(f"world seed {world.seed}: {world.width}x{world.height}, "
          f"{len(world.blocked)} blocked cells")
    print(f"episode {episode.id}: start {episode.start.position} "
          f"heading {episode.start.heading}, goal {episode.goal}, "
          f"geodesic {field.at(*episode.start.position):.1f} m")

    tokens = " ".join(token_name(t, episode.max_run) for t in episode.instruction)
    print(f"instruction: {tokens}")

    pose = episode.start
    walked = [pose.position]
    for action in expand_instruction(episode.instruction, episode.max_run):
        pose = step(world, pose, action)
        walked.append(pose.position)
    remaining = euclid_m(pose.position, episode.goal, world.cell_size)

    print(ascii_map(world, dedup_positions(episode.reference_path), walked,
                    episode.start.position, episode.goal))
    print(f"replay ends at {pose.position}, {remaining:.1f} m from the goal "
          f"(radius {episode.goal_radius:.1f} m)")


if __name__ == "__main__":
    main()
