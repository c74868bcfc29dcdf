"""Cross-version pins: digests of evaluation, training and episode outputs.

The initial-policy evaluation digest was recorded before the per-step
rollout path was optimised (array-backed observations, memoized features
and geodesic fields, serial evaluation), and the episode digest before
the planner moved from a heap over poses to a layered BFS over the pose
graph.  The smoke and desk training digests, and the smoke-trained
policy's evaluation digest, were recorded when the losses began to
backpropagate each demo and trajectory with matrix products, which sum
a gradient's per-step terms in another order and so move the trained
parameters in their last bits.  The desk digests of the four ablation
variants were recorded before the variants' routing became a table.
Speedups must keep every output byte
identical, so a change that moves any of these digests changes results,
not just speed.  They pin float64
results as numpy computes them with one OpenBLAS kernel (SkylakeX, which
numpy's DYNAMIC_ARCH OpenBLAS picks on an AVX-512 Xeon).  Another BLAS
build differs in the last bits, and so does another kernel of the same
build (OPENBLAS_CORETYPE=Haswell, or a CPU without AVX-512): each kernel
sums its products in its own order.
"""
import hashlib
from dataclasses import astuple, replace
from pathlib import Path

import pytest

from budnav.config import load_config
from budnav.metrics import evaluate
from budnav.policy import PolicyConfig, init_params, snapshot
from budnav.suite import build_held_episodes, parse_suite
from budnav.trainer import train, training_episode
from budnav.world import observe_states, serialize_episode

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

INIT_EVAL_DIGEST = "4148ebc6a19d471c45840c3a1cb5f251"
SMOKE_TRAIN_DIGEST = "d2811b46702777870421292259d4e2db"
SMOKE_EVAL_DIGEST = "02c4fe95558c6b8efc6c5f2dba2f80a3"
EPISODES_DIGEST = "fe40fb4b830fd23be71c13eef569232f"
DESK_TRAIN_DIGEST = "c1c2ce2e16eb589a9953fabc6c56e88b"
# The same short desk run under each ablation variant.
DESK_VARIANT_DIGESTS = {
    "rect_only": "54bd20bee818df32987b00577b62c8c6",
    "grpo_only": "93c58072a6c67903afe9ee387f67a6a2",
    "dagger": "e5be8d4d740863b01bb775dfaacb3a4c",
    "bc": "84489ca5d2132447183633912e83fd2a",
}


def eval_digest(params) -> str:
    """Results, step logits and observations on 20 desk held episodes;
    the observations are gathered from the recorded states."""
    suite = parse_suite((CONFIGS / "desk.suite").read_text())
    held = build_held_episodes(suite, 20)
    outcome = evaluate(snapshot(params, "eval"), held)
    h = hashlib.blake2b(digest_size=16)
    for result, traj, episode in zip(outcome.results, outcome.trajectories, held):
        h.update(repr(astuple(result)).encode())
        observations = observe_states(episode.world, traj.steps.states, params.cfg.obs_k)
        for logits, observation in zip(traj.steps.logits, observations):
            h.update(logits.tobytes())
            h.update(observation.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def smoke_run():
    cfg = load_config(CONFIGS / "smoke.cfg")[0]
    return train(cfg)


def test_initial_policy_evaluation_is_pinned():
    assert eval_digest(init_params(PolicyConfig(), 0)) == INIT_EVAL_DIGEST


def test_smoke_training_is_pinned(smoke_run):
    h = hashlib.blake2b(digest_size=16)
    h.update(smoke_run.params.flatten().tobytes())
    h.update("\n".join(smoke_run.csv_rows).encode())
    assert h.hexdigest() == SMOKE_TRAIN_DIGEST


def desk_train_digest(variant: str) -> str:
    """600 desk pretraining demos, then 60 routed episodes under variant,
    evaluated on 20 held episodes."""
    cfg = load_config(CONFIGS / "desk_full.cfg")[0]
    result = train(replace(cfg, variant=variant, train_episodes=60, eval_episodes=20))
    h = hashlib.blake2b(digest_size=16)
    h.update(result.params.flatten().tobytes())
    h.update("\n".join(result.csv_rows).encode())
    return h.hexdigest()


def test_desk_training_is_pinned():
    # The 60 routed episodes split 49 rect, 11 GRPO.
    assert desk_train_digest("full") == DESK_TRAIN_DIGEST


@pytest.mark.parametrize("variant", sorted(DESK_VARIANT_DIGESTS))
def test_desk_variant_training_is_pinned(variant):
    # rect_only skips the 11 proficient episodes and grpo_only the 55
    # failed ones; dagger teacher-forces 10 and corrects 50 from the
    # error state; bc teacher-forces all 60.
    assert desk_train_digest(variant) == DESK_VARIANT_DIGESTS[variant]


def test_smoke_trained_policy_evaluation_is_pinned(smoke_run):
    # The trained policy walks ~1000 steps here, against ~30 for the
    # initial one, which mostly stops at once.
    assert eval_digest(smoke_run.params) == SMOKE_EVAL_DIGEST


def test_episodes_are_pinned():
    # Every desk held episode, then a fixed sample of the desk_full
    # training stream (seed 0): reference paths and instructions come
    # from the oracle, so a planner change that moves a tie shows here.
    suite = parse_suite((CONFIGS / "desk.suite").read_text())
    h = hashlib.blake2b(digest_size=16)
    held = build_held_episodes(suite)
    assert len(held) == 200
    for episode in held:
        h.update(serialize_episode(episode).encode())
    cfg = load_config(CONFIGS / "desk_full.cfg")[0]
    assert cfg.run_seed == 0
    for phase, indices in (("pretrain", range(0, 600, 3)), ("train", range(0, 6000, 30))):
        for i in indices:
            h.update(serialize_episode(training_episode(cfg, phase, i)).encode())
    assert h.hexdigest() == EPISODES_DIGEST
