"""Probe a held-out episode, watch it fail, and rectify the failure.

A quick training run produces a policy that walks but still fails some
episodes.  The greedy probe's failure is rolled back to its anchor (the
furthest reference waypoint visited in order), the erroneous suffix is
discarded, and the oracle completes the route from there.  The rendered
map marks the trigger site X and the anchor A.

    python3 demos/failure_to_demo.py
"""
from budnav.cli import render_map
from budnav.config import build_train_config, resolved_values
from budnav.policy import snapshot
from budnav.rectify import synthesize_demo
from budnav.rollout import TriggerKind, run_greedy
from budnav.suite import build_held_episodes
from budnav.trainer import train

OVERRIDES = {
    "suite.name": "demo",
    "suite.seed": 5,
    "suite.n_train_worlds": 3,
    "suite.n_held": 12,
    "suite.width": 9,
    "suite.height": 9,
    "suite.min_episode_length": 5.0,
    "suite.held_per_world": 4,
    "trainer.pretrain_episodes": 300,
    "trainer.train_episodes": 300,
    "trainer.eval_every": 150,
}


def interesting_failure(snap, episodes, cfg):
    """First failure that made progress before going wrong."""
    fallback = None
    for episode in episodes:
        probe = run_greedy(snap, episode, cfg.rollout)
        if probe.success:
            continue
        demo = synthesize_demo(probe, episode)
        picturesque = (
            demo.anchor_step >= 2
            and len(demo.oracle_actions) >= 3
            and probe.trigger[0] is not TriggerKind.FORCED_STOP
        )
        if picturesque:
            return episode, probe, demo
        fallback = fallback or (episode, probe, demo)
    if fallback:
        return fallback
    raise SystemExit("every probe succeeded; enlarge the suite")


def main():
    cfg = build_train_config(resolved_values(OVERRIDES))
    print(f"training {cfg.train_episodes} episodes on suite {cfg.suite.name!r} ...")
    result = train(cfg)
    snap = snapshot(result.params, "old")

    episode, probe, demo = interesting_failure(snap, build_held_episodes(cfg.suite, 12), cfg)
    kind, at = probe.trigger
    print(f"episode {episode.id}: probe walked {len(probe.steps)} steps, "
          f"then {kind.value} at step {at}")
    print(f"anchor: step {demo.anchor_step} at {demo.anchor_pose.position} "
          f"(kept {len(demo.retained_prefix)} probe steps, "
          f"discarded {len(probe.steps) - demo.anchor_step})")
    actions = " ".join(a.name for a in demo.oracle_actions)
    print(f"completion: {actions}")
    weights = " ".join(f"{w:.2f}" for w in demo.weights[:6])
    print(f"decay weights: {weights}{' ...' if len(demo.weights) > 6 else ''}")

    print(render_map(episode, probe, demo.anchor_pose))


if __name__ == "__main__":
    main()
