"""Policy network: features, forward pass, analytic gradients, checkpoints."""
import itertools

import numpy as np
import pytest

from budnav.errors import CheckpointError, DimensionMismatch, UnknownToken
from budnav.policy import (
    NO_ACTION,
    FeatureRows,
    GradAccumulator,
    PolicyConfig,
    PolicyParams,
    featurize,
    forward,
    forward_cached,
    greedy_action,
    init_params,
    initial_features,
    kl_and_log_ratio,
    load_checkpoint,
    save_checkpoint,
    snapshot,
    softmax,
)

from conftest import Window, rand_window, window_steps


# ----------------------------------------------------------------- init

def test_init_is_deterministic_and_bounded():
    cfg = PolicyConfig()
    a = init_params(cfg, 5)
    b = init_params(cfg, 5)
    assert np.array_equal(a.flatten(), b.flatten())
    c = init_params(cfg, 6)
    assert not np.array_equal(a.flatten(), c.flatten())
    # Uniform(-1/sqrt(fan_in), +) per block; biases exactly zero.
    assert np.all(np.abs(a.W1) <= 1.0 / np.sqrt(cfg.feature_dim))
    assert np.all(np.abs(a.W2) <= 1.0 / np.sqrt(cfg.d_h))
    assert np.all(a.b1 == 0.0)
    assert np.all(a.b2 == 0.0)


def test_param_count_and_flatten_round_trip(tiny_policy):
    flat = tiny_policy.flatten()
    assert flat.shape == (tiny_policy.count,)
    rebuilt = PolicyParams(tiny_policy.cfg, flat)
    assert np.array_equal(rebuilt.flatten(), flat)
    for (n1, a1), (n2, a2) in zip(tiny_policy.blocks(), rebuilt.blocks()):
        assert n1 == n2
        assert np.array_equal(a1, a2)


def test_flatten_order_is_declaration_order(tiny_policy):
    # instr_embed comes first, b2 last.
    flat = tiny_policy.flatten()
    assert flat[0] == tiny_policy.instr_embed.ravel()[0]
    assert flat[-1] == tiny_policy.b2[-1]


def test_every_block_is_a_view_of_theta(tmp_path, tiny_policy):
    from budnav.trainer import OptHyper, OptimizerState, adamw_update

    path = tmp_path / "p.ckpt"
    save_checkpoint(path, tiny_policy)
    stepped, _ = adamw_update(
        tiny_policy, np.ones(tiny_policy.count), OptimizerState.zeros(tiny_policy.count), OptHyper()
    )
    for params in (tiny_policy, stepped, load_checkpoint(path), snapshot(tiny_policy).params):
        names = [name for name, _ in params.blocks()]
        assert names == [name for name, _ in params.cfg.layout]
        assert params.theta.shape == (params.count,) == (params.cfg.param_count,)
        for name, block in params.blocks():
            assert block.shape == dict(params.cfg.layout)[name]
            assert np.shares_memory(block, params.theta), name
        assert params.flatten().tobytes() == params.theta.tobytes()
        assert not np.shares_memory(params.flatten(), params.theta)


def test_params_reject_wrong_size(tiny_policy):
    with pytest.raises(DimensionMismatch):
        PolicyParams(tiny_policy.cfg, np.zeros(3))


# ------------------------------------------------------------- featurize

def featurize_uncached(params, window):
    """The reference construction: concatenate the instruction mean and
    each slot's projected patch and action row, oldest slot first."""
    parts = [params.instr_embed[list(window.instruction)].mean(axis=0)]
    for patch, act in zip(window.patches, window.prev_actions):
        parts.append(patch @ params.obs_proj)
        parts.append(params.act_embed[act])
    return np.concatenate(parts)


def reference_windows(instruction, pairs, cfg):
    """The window of each step when pairs[t] = (observation, previous
    action) is pushed after history_k - 1 padding slots."""
    k = cfg.history_k
    history = [(np.zeros(cfg.patch_cells), NO_ACTION)] * (k - 1)
    for pair in pairs:
        history.append(pair)
        slots = history[-k:]
        yield Window(
            tuple(instruction), tuple(p for p, _ in slots), tuple(a for _, a in slots)
        )


def test_featurize_layout_by_hand(tiny_policy):
    cfg = tiny_policy.cfg
    rng = np.random.default_rng(0)
    window = rand_window(tiny_policy, rng, n_tokens=2)
    steps = window_steps(tiny_policy, window)
    assert steps.rows.shape == (1, cfg.feature_dim)
    feats = steps.rows[0]
    # Leading d_e entries: mean of the two token embeddings.
    t0, t1 = window.instruction
    want = (tiny_policy.instr_embed[t0] + tiny_policy.instr_embed[t1]) / 2.0
    assert np.allclose(feats[: cfg.d_e], want, atol=0, rtol=0)
    # Each slot: patch @ obs_proj then the action embedding row.
    off = cfg.d_e
    for patch, act in zip(window.patches, window.prev_actions):
        assert np.array_equal(feats[off : off + cfg.d_o], patch @ tiny_policy.obs_proj)
        off += cfg.d_o
        assert np.array_equal(feats[off : off + cfg.d_a], tiny_policy.act_embed[act])
        off += cfg.d_a
    assert off == cfg.feature_dim


def test_featurize_validates_inputs(tiny_policy):
    cfg = tiny_policy.cfg
    rng = np.random.default_rng(1)
    good = rand_window(tiny_policy, rng)
    patches = np.array(good.patches)
    for instruction in ((999,), (0, -1), (cfg.vocab,)):
        with pytest.raises(UnknownToken, match="outside vocabulary"):
            featurize(tiny_policy, instruction, patches, good.prev_actions)
    for bad in (patches[:, :-1], patches[:-1], patches[0], patches[:, :, None]):
        with pytest.raises(DimensionMismatch, match="patch shape"):
            featurize(tiny_policy, good.instruction, bad, good.prev_actions)
    for bad in (NO_ACTION + 1, -1):
        with pytest.raises(DimensionMismatch, match=f"previous-action index out of range: {bad}"):
            featurize(tiny_policy, good.instruction, patches[:1], [bad])


def test_featurize_validates_inputs_mid_episode(tiny_policy):
    # A bad entry anywhere in the sequence is rejected and named, even
    # when only later rows are asked for.
    rng = np.random.default_rng(3)
    good = rand_window(tiny_policy, rng)
    patches = np.array(good.patches)
    actions = list(good.prev_actions)
    for bad in (-1, NO_ACTION + 1):
        with pytest.raises(DimensionMismatch, match=f"out of range: {bad}"):
            featurize(tiny_policy, good.instruction, patches, actions[:1] + [bad] + actions[2:], 2)
    with pytest.raises(DimensionMismatch, match="patch shape"):
        featurize(tiny_policy, good.instruction, patches, actions + [0], 3)
    got = featurize(tiny_policy, good.instruction, patches, actions, 2)
    assert got.rows.tobytes() == featurize_uncached(tiny_policy, good).tobytes()


def test_track_left_pads_and_shifts():
    # Step t's row holds history_k - 1 - t padding slots (the initial
    # vector's zero-patch projection and NO_ACTION row), then the steps
    # so far, oldest first.
    params = init_params(PolicyConfig(obs_k=3, d_e=2, d_o=2, d_a=2, d_h=4, history_k=3), 0)
    cfg = params.cfg
    o0, o1 = np.ones(9), np.full(9, 2.0)
    pad = np.concatenate([np.zeros(9) @ params.obs_proj, params.act_embed[NO_ACTION]])
    assert initial_features(params, (1, 2))[cfg.d_e :].tobytes() == np.tile(pad, 3).tobytes()
    steps = featurize(params, (1, 2), np.array([o0, o1]), [NO_ACTION, 2])
    slots = steps.rows[0, cfg.d_e :].reshape(3, 4)
    assert slots[0].tobytes() == slots[1].tobytes() == pad.tobytes()
    assert np.array_equal(slots[2, :2], o0 @ params.obs_proj)
    assert np.array_equal(slots[2, 2:], params.act_embed[NO_ACTION])
    slots = steps.rows[1, cfg.d_e :].reshape(3, 4)
    assert slots[0].tobytes() == pad.tobytes()
    assert np.array_equal(slots[1, :2], o0 @ params.obs_proj)
    assert np.array_equal(slots[2], np.concatenate([o1 @ params.obs_proj, params.act_embed[2]]))
    # The padded history: two padding entries, then one per step.
    assert steps.prev_actions.tolist() == [NO_ACTION, NO_ACTION, NO_ACTION, 2]
    assert steps.patches.tolist() == [[0.0] * 9] * 2 + [o0.tolist(), o1.tolist()]
    # Asking for the rows from step 1 on reads the same history.
    late = featurize(params, (1, 2), np.array([o0, o1]), [NO_ACTION, 2], 1)
    assert late.start == 1
    assert late.rows.tobytes() == steps.rows[1:].tobytes()
    assert late.patches.tobytes() == steps.patches.tobytes()


def test_track_history_is_bounded():
    params = init_params(PolicyConfig(obs_k=1, d_e=2, d_o=2, d_a=2, d_h=4, history_k=2), 0)
    cfg = params.cfg
    patches = np.array([[float(i)] for i in range(10)] + [[99.0]])
    rows = featurize(params, (0,), patches, [i % 4 for i in range(10)] + [1]).rows
    assert rows.shape == (11, cfg.feature_dim)
    slots = rows[-1, cfg.d_e :].reshape(2, 4)
    # Only the newest survives.
    assert np.array_equal(slots[0], np.concatenate([np.array([9.0]) @ params.obs_proj, params.act_embed[1]]))
    assert np.array_equal(slots[1, :2], np.array([99.0]) @ params.obs_proj)


@pytest.fixture(scope="module")
def desk_cfg():
    from pathlib import Path

    from budnav.config import load_config

    return load_config(Path(__file__).resolve().parent.parent / "configs" / "desk_full.cfg")[0]


@pytest.fixture(scope="module")
def walk(desk_cfg):
    """(params, episode, trajectory): an untrained desk policy that rarely
    stops, and one long sampled rollout of it on a desk episode."""
    from budnav.rollout import rollout_stream, run_sampled
    from budnav.trainer import training_episode

    params = init_params(desk_cfg.policy, 0)
    params.b2[3] = -10.0  # STOP
    episode = training_episode(desk_cfg, "train", 0)
    traj = run_sampled(
        snapshot(params), episode, 1.0, rollout_stream(0, episode.id, 1), triggers=False,
    )
    assert len(traj.steps) > 2 * params.cfg.history_k  # the slots shift
    return params, episode, traj


def step_pairs(steps):
    """(observation, previous action) of each trajectory step."""
    prev = [NO_ACTION] + [s.action for s in steps[:-1]]
    return [(s.observation, a) for s, a in zip(steps, prev)]


def test_featurizer_is_bit_exact_along_a_sampled_rollout(walk):
    # Each row equals the reference concatenation and the rolling vector
    # the rollout scored, and scores to the logits the rollout recorded.
    params, episode, traj = walk
    pairs = step_pairs(traj.steps)
    steps = featurize(
        params, episode.instruction, np.array([o for o, _ in pairs]), [a for _, a in pairs]
    )
    logits, cache = forward_cached(params, steps)
    assert cache.steps is steps
    assert len(steps.rows) == len(logits) == len(traj.steps)
    rolling = FeatureRows(params, initial_features(params, episode.instruction))
    windows = reference_windows(episode.instruction, pairs, params.cfg)
    for s, (obs, prev), window, row, row_logits in zip(traj.steps, pairs, windows, steps.rows, logits):
        want = featurize_uncached(params, window)
        assert row.tobytes() == want.tobytes()
        assert rolling.push(obs, prev).tobytes() == want.tobytes()
        assert s.logits.tobytes() == forward(params, want).tobytes()
        assert row_logits.tobytes() == s.logits.tobytes()


def test_featurizer_is_bit_exact_along_a_rect_demo_replay(walk, monkeypatch):
    from budnav import rectify
    from budnav.oracle import plan
    from budnav.rectify import RectConfig, RectificationDemo, decay_weights
    from budnav.world import Action, observe, step

    # Roll back to step 12 and replay an oracle completion from there
    # through rect_loss_and_grad, recording what it scores.
    params, ep, traj = walk
    anchor = 12
    assert anchor > params.cfg.history_k
    pose = traj.steps[anchor].pose_before
    oracle = plan(ep.world, pose, ep.goal, ep.goal_radius)
    completion = oracle.actions
    assert len(completion) > 1
    demo = RectificationDemo(
        episode_id=ep.id, anchor_step=anchor, anchor_pose=pose,
        retained_prefix=traj.steps[:anchor], oracle_actions=tuple(completion),
        weights=decay_weights(len(completion), RectConfig(decay_gamma=0.95)),
        poses=oracle.poses[:-1],
    )
    seen = []

    def recording(p, steps):
        logits, cache = forward_cached(p, steps)
        seen.append((steps, logits))
        return logits, cache

    monkeypatch.setattr(rectify, "forward_cached", recording)
    rectify.rect_loss_and_grad(params, demo, ep)

    cfg = params.cfg
    pairs = step_pairs(traj.steps[:anchor])
    prev = traj.steps[anchor - 1].action
    for action in completion:
        pairs.append((observe(ep.world, pose, cfg.obs_k).ravel(), prev))
        prev = int(action)
        pose = step(ep.world, pose, Action(action))
    windows = list(reference_windows(ep.instruction, pairs, cfg))[anchor:]
    (steps, logits), = seen
    assert steps.start == anchor
    assert len(steps.rows) == len(logits) == len(windows) == len(completion)
    for row, row_logits, window in zip(steps.rows, logits, windows):
        want = featurize_uncached(params, window)
        assert row.tobytes() == want.tobytes()
        assert row_logits.tobytes() == forward(params, want).tobytes()


def test_featurizer_is_bit_exact_along_a_grpo_group(desk_batches, monkeypatch):
    from budnav import grpo

    _, live, ref, _, groups = desk_batches
    seen = []

    def recording_featurize(p, *args):
        steps = featurize(p, *args)
        seen.append((p, steps.rows))
        return steps

    def recording_forward(p, feats):
        logits = forward(p, feats)
        seen.append((p, logits))
        return logits

    def recording_forward_cached(p, steps):
        logits, cache = forward_cached(p, steps)
        seen.append((p, logits))
        return logits, cache

    monkeypatch.setattr(grpo, "featurize", recording_featurize)
    monkeypatch.setattr(grpo, "forward", recording_forward)
    monkeypatch.setattr(grpo, "forward_cached", recording_forward_cached)
    for group in groups:
        seen.clear()
        grpo.grpo_loss_and_grad(live, group, ref)
        sets = (group.snapshot_old.params, live, ref.params)
        want = []
        for traj in group.trajectories:
            windows = list(reference_windows(group.instruction, step_pairs(traj.steps), live.cfg))
            # Per trajectory: the old, live and ref rows, then each scored.
            rows = [np.array([featurize_uncached(p, w) for w in windows]) for p in sets]
            want += list(zip(sets, rows))
            want += [(p, np.array([forward(p, r) for r in prows])) for p, prows in zip(sets, rows)]
            # The old replay scores the logits the rollout recorded.
            assert want[-3][1].tobytes() == np.array([s.logits for s in traj.steps]).tobytes()
        assert len(seen) == len(want) == 6 * len(group.trajectories)
        for (got_p, got), (want_p, expect) in zip(seen, want):
            assert got_p is want_p
            assert got.tobytes() == expect.tobytes()


# --------------------------------------------------------------- forward

def test_forward_matches_manual_mlp(tiny_policy):
    rng = np.random.default_rng(2)
    steps = window_steps(tiny_policy, rand_window(tiny_policy, rng))
    feats = steps.rows[0]
    want = np.tanh(feats @ tiny_policy.W1 + tiny_policy.b1) @ tiny_policy.W2 + tiny_policy.b2
    assert np.array_equal(forward(tiny_policy, feats), want)
    logits, cache = forward_cached(tiny_policy, steps)
    assert logits.shape == (1, 4)
    assert np.array_equal(logits[0], want)
    assert cache.steps is steps


def test_softmax_is_stable_and_normalized():
    p = softmax(np.array([1000.0, 1000.0, -1000.0, 0.0]))
    assert np.isfinite(p).all()
    assert p.sum() == pytest.approx(1.0)
    assert p[0] == pytest.approx(p[1])


def test_softmax_temperature_sharpens():
    logits = np.array([2.0, 1.0, 0.0, -1.0])
    hot = softmax(logits / 1.0)
    cold = softmax(logits / 0.4)
    assert cold[0] > hot[0]
    assert np.argmax(hot) == np.argmax(cold) == 0


def test_greedy_uses_raw_logits_and_breaks_ties_low():
    assert greedy_action(np.array([1.0, 3.0, 3.0, 0.0])) == 1
    assert greedy_action(np.array([-5.0, -5.0, -5.0, -5.0])) == 0


# ------------------------------------------------------------- gradients

def logprob_and_grad(params, steps, action, temperature):
    """log pi(action | the last row of steps) and its gradient, flattened
    canonically; steps must be featurized under params."""
    logits, cache = forward_cached(params, steps)
    probs = softmax(logits[-1] / temperature)
    dlogits = np.zeros_like(logits)
    dlogits[-1] = -probs / temperature
    dlogits[-1, action] += 1.0 / temperature
    acc = GradAccumulator(params)
    acc.add_step(cache, dlogits)
    return float(np.log(probs[action])), acc.flat()


def finite_diff(f, theta, h=1e-5):
    grad = np.zeros_like(theta)
    for i in range(len(theta)):
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2 * h)
    return grad


def test_logprob_gradient_matches_finite_differences(tiny_policy):
    rng = np.random.default_rng(3)
    theta0 = tiny_policy.flatten()
    for trial in range(3):
        window = rand_window(tiny_policy, rng)
        action = int(rng.integers(4))

        def f(theta):
            p = PolicyParams(tiny_policy.cfg, theta)
            lp, _ = logprob_and_grad(p, window_steps(p, window), action, 0.4)
            return lp

        params0 = PolicyParams(tiny_policy.cfg, theta0)
        _, grad = logprob_and_grad(params0, window_steps(params0, window), action, 0.4)
        # Probe a subset of coordinates; full FD is covered in acceptance.
        idx = rng.choice(len(theta0), size=80, replace=False)
        fd = np.zeros_like(grad)
        for i in idx:
            up, down = theta0.copy(), theta0.copy()
            up[i] += 1e-5
            down[i] -= 1e-5
            fd[i] = (f(up) - f(down)) / 2e-5
        scale = np.maximum(np.abs(fd[idx]), 1e-8)
        rel = np.abs(grad[idx] - fd[idx]) / scale
        mask = np.abs(fd[idx]) > 1e-10
        assert rel[mask].max() < 1e-4


def test_logprob_consistent_with_distribution(tiny_policy):
    rng = np.random.default_rng(4)
    window = rand_window(tiny_policy, rng)
    logits = forward(tiny_policy, featurize_uncached(tiny_policy, window))
    probs = softmax(logits / 0.4)
    for a in range(4):
        lp, _ = logprob_and_grad(tiny_policy, window_steps(tiny_policy, window), a, 0.4)
        assert lp == pytest.approx(np.log(probs[a]), rel=1e-12)


# ---------------------------------------------------- batched accumulation
#
# GradAccumulator backpropagates a whole sequence with matrix products,
# which sum the rows in another order than adding one step after another.
# The per-step loop below stays as the reference; the two agree to
# AGREEMENT relative to the gradient's largest entry (float64 rounding
# over tens of rows is ~1e-15).

AGREEMENT = 1e-13


def assert_agrees(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= AGREEMENT * np.abs(want).max()


def per_step_accumulator_reference(params, steps):
    """Each step's terms added in place into parameter-shaped buffers,
    one step after another.

    steps holds (features, hidden, window, dlogits) in call order; returns
    the flat gradient in canonical block order.
    """
    cfg = params.cfg
    buf = {name: np.zeros_like(arr) for name, arr in params.blocks()}
    for features, hidden, window, dlogits in steps:
        buf["W2"] += np.outer(hidden, dlogits)
        buf["b2"] += dlogits
        dhidden = params.W2 @ dlogits
        dpre = dhidden * (1.0 - hidden ** 2)
        buf["W1"] += np.outer(features, dpre)
        buf["b1"] += dpre
        dfeat = params.W1 @ dpre
        dinstr = dfeat[: cfg.d_e] / len(window.instruction)
        for t in window.instruction:
            buf["instr_embed"][t] += dinstr
        offset = cfg.d_e
        for patch, act in zip(window.patches, window.prev_actions):
            buf["obs_proj"] += np.outer(patch, dfeat[offset : offset + cfg.d_o])
            offset += cfg.d_o
            buf["act_embed"][act] += dfeat[offset : offset + cfg.d_a]
            offset += cfg.d_a
    return np.concatenate([buf[n].ravel() for n, _ in params.blocks()])


def row_windows(params, steps):
    """The window of each row of a StepRows, read from its padded history
    and checked against the row."""
    k = params.cfg.history_k
    windows = []
    for i, row in enumerate(steps.rows):
        n = steps.start + i
        window = Window(
            steps.instruction, tuple(steps.patches[n : n + k]),
            tuple(int(a) for a in steps.prev_actions[n : n + k]),
        )
        assert row.tobytes() == featurize_uncached(params, window).tobytes()
        windows.append(window)
    return windows


class ReferenceAccumulator:
    """Drop-in for GradAccumulator that defers to the per-step reference."""

    def __init__(self, params):
        self.params = params
        self.steps = []

    def add_step(self, cache, dlogits):
        windows = row_windows(self.params, cache.steps)
        self.steps += zip(cache.steps.rows, cache.hidden, windows, dlogits.copy())

    def flat(self):
        return per_step_accumulator_reference(self.params, self.steps)


def random_sequence(params, rng, n_rows):
    """StepRows of n_rows scored steps behind a few unscored ones.  The
    instruction, the patches and the previous actions repeat entries, and
    the first rows read padding slots, as at the start of an episode."""
    cfg = params.cfg
    start = int(rng.integers(0, cfg.history_k + 2))
    n = start + n_rows
    tokens = rng.integers(0, cfg.vocab, size=int(rng.integers(1, 4)))
    instruction = tuple(int(t) for t in np.repeat(tokens, rng.integers(1, 4, size=len(tokens))))
    shared = (rng.uniform(0, 1, size=cfg.patch_cells) < 0.3).astype(float)
    patches = np.array([
        shared if rng.random() < 0.3 else (rng.uniform(0, 1, size=cfg.patch_cells) < 0.3).astype(float)
        for _ in range(n)
    ]).reshape(n, cfg.patch_cells)
    actions = [int(a) for a in rng.choice([0, 0, 1, NO_ACTION], size=n)]
    return featurize(params, instruction, patches, actions, start)


@pytest.mark.parametrize("n_steps", [0, 1, 31, 32, 33, 97])
@pytest.mark.parametrize("policy", ["tiny_policy", "default_policy"])
def test_accumulator_is_bit_exact_against_per_step_reference(request, policy, n_steps):
    # n_steps rows in sequences of 1 to 39 steps, into one accumulator;
    # the gradient agrees with the per-step reference to AGREEMENT.
    params = request.getfixturevalue(policy)
    rng = np.random.default_rng(n_steps)
    acc, ref = GradAccumulator(params), ReferenceAccumulator(params)
    left = n_steps
    for i in itertools.count():
        m = min(left, int(rng.integers(1, 40)))
        _, cache = forward_cached(params, random_sequence(params, rng, m))
        picked = np.arange(m), rng.integers(4, size=m)
        if i % 2:
            # GRPO-style: a KL-shaped term plus a signed advantage term,
            # scaled by 1 / (group size * trajectory length).
            p = softmax(rng.normal(size=(m, 4)))
            dlogits = -0.01 * p * rng.normal(size=(m, 4)) / 0.4
            dlogits[picked] += rng.normal() / 0.4
            dlogits = dlogits * (1.0 / (4 * max(m, 1)))
        else:
            w = 0.95 ** np.arange(m)
            dlogits = w[:, None] * softmax(rng.normal(size=(m, 4))) / 0.4
            dlogits[picked] -= w / 0.4
        acc.add_step(cache, dlogits)
        ref.add_step(cache, dlogits)
        left -= m
        if not left:
            break
    got = acc.flat()
    assert got.shape == (params.count,)
    assert len(ref.steps) == n_steps
    assert_agrees(got, ref.flat())


@pytest.fixture(scope="module")
def desk_batches(desk_cfg):
    """Desk demos and GRPO groups of an untrained policy that rarely stops.

    Desk plans are at most ~18 actions, so each sampled walk is also
    replayed as a demo from the episode start, and as a one-action STOP
    demo that keeps the whole walk as its prefix.
    """
    from budnav.grpo import make_group
    from budnav.rectify import RectificationDemo, bc_demo, decay_weights, synthesize_demo
    from budnav.rollout import rollout_stream, run_greedy, run_sampled
    from budnav.trainer import training_episode
    from budnav.world import Action

    cfg = desk_cfg
    params = init_params(cfg.policy, 0)
    params.b2[3] = -10.0  # STOP
    snap = snapshot(params, "old")
    demos, groups = [], []
    for i in range(3):
        episode = training_episode(cfg, "train", i)
        demos.append((bc_demo(episode), episode))
        probe = run_greedy(snap, episode, cfg.rollout)
        if not probe.success:
            demos.append((synthesize_demo(probe, episode, cfg.rect), episode))
        rollouts = [
            run_sampled(
                snap, episode, 1.0, rollout_stream(0, episode.id, j), cfg.rollout, triggers=False
            )
            for j in range(cfg.grpo.group_size)
        ]
        groups.append(make_group(rollouts, episode, snap, cfg.reward, cfg.grpo))
        walk = rollouts[-1]
        actions = tuple(s.action for s in walk.steps)
        demos.append((RectificationDemo(
            episode_id=episode.id, anchor_step=0, anchor_pose=episode.start,
            retained_prefix=(), oracle_actions=actions,
            weights=decay_weights(len(actions), cfg.rect),
            poses=tuple(s.pose_before for s in walk.steps),
        ), episode))
        demos.append((RectificationDemo(
            episode_id=episode.id, anchor_step=len(walk.steps), anchor_pose=walk.final_pose,
            retained_prefix=walk.steps, oracle_actions=(Action.STOP,), weights=np.ones(1),
            poses=(walk.final_pose,),
        ), episode))
    live = PolicyParams(params.cfg, params.theta + 0.05 * np.sin(np.arange(params.count)))
    ref = snapshot(init_params(cfg.policy, 1), "ref")
    # Sequences longer than 32 steps, the old per-step path's chunk size.
    assert max(len(d.oracle_actions) for d, _ in demos) > 32
    assert max(len(t.steps) for g in groups for t in g.trajectories) > 32
    return cfg, live, ref, demos, groups


def test_rect_gradients_are_bit_exact_against_per_step_reference(desk_batches, monkeypatch):
    from budnav import rectify

    cfg, live, _, demos, _ = desk_batches
    got = [rectify.rect_loss_and_grad(live, d, ep) for d, ep in demos]
    monkeypatch.setattr(rectify, "GradAccumulator", ReferenceAccumulator)
    want = [rectify.rect_loss_and_grad(live, d, ep) for d, ep in demos]
    for (loss, grad), (want_loss, want_grad) in zip(got, want):
        assert loss == want_loss
        assert_agrees(grad, want_grad)


def test_grpo_gradients_are_bit_exact_against_per_step_reference(desk_batches, monkeypatch):
    from budnav import grpo

    cfg, live, ref, _, groups = desk_batches
    got = [grpo.grpo_loss_and_grad(live, g, ref, cfg.grpo) for g in groups]
    monkeypatch.setattr(grpo, "GradAccumulator", ReferenceAccumulator)
    want = [grpo.grpo_loss_and_grad(live, g, ref, cfg.grpo) for g in groups]
    for (loss, grad), (want_loss, want_grad) in zip(got, want):
        assert loss == want_loss
        assert_agrees(grad, want_grad)


# -------------------------------------------------------------------- KL

def test_kl_properties():
    p = softmax(np.array([0.5, -0.2, 1.0, 0.0]) / 0.4)
    q = softmax(np.array([1.0, 0.0, -1.0, 0.3]) / 0.4)
    kl_pp, log_ratio_pp = kl_and_log_ratio(p, p)
    assert kl_pp == pytest.approx(0.0, abs=1e-15)
    assert not log_ratio_pp.any()
    kl_pq, log_ratio = kl_and_log_ratio(p, q)
    assert kl_pq > 0.0
    assert np.allclose(log_ratio, np.log(p) - np.log(q), rtol=0, atol=1e-12)
    assert kl_pq == pytest.approx(float(np.sum(p * log_ratio)), rel=1e-12)
    # Asymmetry in general.
    assert kl_pq != pytest.approx(kl_and_log_ratio(q, p)[0])


def test_kl_survives_tiny_probabilities():
    p = softmax(np.array([100.0, 0.0, 0.0, 0.0]) / 0.4)
    q = softmax(np.array([-100.0, 0.0, 0.0, 0.0]) / 0.4)
    v, log_ratio = kl_and_log_ratio(p, q)
    assert np.isfinite(v) and v > 0.0
    assert np.isfinite(log_ratio).all()
    # Actions p never takes contribute nothing, whatever q says.
    v_zero, log_ratio_zero = kl_and_log_ratio(np.array([1.0, 0.0, 0.0, 0.0]), q)
    assert log_ratio_zero[1:].tolist() == [0.0, 0.0, 0.0]
    assert v_zero == log_ratio_zero[0]


# ------------------------------------------------------------- snapshots

def test_snapshot_arrays_are_frozen(tiny_policy):
    snap = snapshot(tiny_policy, "test")
    with pytest.raises(ValueError):
        snap.params.W1[0, 0] = 1.0
    # The source params remain writable.
    PolicyParams(tiny_policy.cfg, tiny_policy.theta.copy()).W1[0, 0] = 1.0


# ----------------------------------------------------------- checkpoints

def test_checkpoint_round_trip(tmp_path, tiny_policy):
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, tiny_policy)
    loaded = load_checkpoint(path)
    assert loaded.cfg == tiny_policy.cfg
    assert np.array_equal(loaded.flatten(), tiny_policy.flatten())
    # Bytes are stable across writes.
    path2 = tmp_path / "q.ckpt"
    save_checkpoint(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_interrupted_checkpoint_save_keeps_the_previous_file(tmp_path, tiny_policy, monkeypatch):
    from budnav import policy

    path = tmp_path / "p.ckpt"
    save_checkpoint(path, tiny_policy)
    before = path.read_bytes()

    class TornFile:
        """Writes half of what it is given, then fails like a full disk."""

        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(data[: len(data) // 2])
            raise OSError("no space left on device")

    changed = PolicyParams(tiny_policy.cfg, tiny_policy.theta.copy())
    changed.b2[0] += 1.0
    monkeypatch.setattr(policy, "open", lambda p, mode: TornFile(open(p, mode)), raising=False)
    with pytest.raises(OSError):
        save_checkpoint(path, changed)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert np.array_equal(load_checkpoint(path).flatten(), tiny_policy.flatten())
    assert [p.name for p in tmp_path.iterdir()] == ["p.ckpt"]  # no temp file left


def test_checkpoint_detects_corruption(tmp_path, tiny_policy):
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, tiny_policy)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_bytes(b"garbage" + bytes(raw[7:]))
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_magic)

    flipped = tmp_path / "flip.ckpt"
    body = bytearray(raw)
    body[len(body) // 2] ^= 0xFF
    flipped.write_bytes(bytes(body))
    with pytest.raises(CheckpointError):
        load_checkpoint(flipped)

    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(bytes(raw[: len(raw) - 20]))
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)


@pytest.mark.parametrize("arch", [{"obs_k": 4}, {"history_k": 0}])
def test_checkpoint_no_config_could_build_is_a_checkpoint_error(tmp_path, arch):
    # The shapes agree with each other, but config validation rejects
    # an even patch side and an empty history.
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, init_params(PolicyConfig(**arch), 0))
    with pytest.raises(CheckpointError, match="no policy has this architecture"):
        load_checkpoint(path)


def _edit_header(raw: bytes, prefix: bytes, edit) -> bytes:
    """Apply edit to the first header line starting with prefix."""
    lines = raw.split(b"\n")
    i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    lines[i] = edit(lines[i])
    return b"\n".join(lines)


@pytest.mark.parametrize(
    "prefix, edit, message",
    [
        (b"blocks ", lambda ln: b"blocks x", "block count"),
        (b"params ", lambda ln: b"params 1e3", "parameter count"),
        (b"block W1 ", lambda ln: ln.rsplit(b" ", 1)[0] + b" many", "byte count"),
        (b"block W1 ", lambda ln: ln.replace(b"x", b"xq", 1), "shape"),
        (b"block b1 ", lambda ln: ln.replace(b"b1 8 ", b"b1 -8 ", 1), "shape"),
    ],
)
def test_checkpoint_non_numeric_fields_are_checkpoint_errors(
    tmp_path, tiny_policy, prefix, edit, message
):
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, tiny_policy)
    path.write_bytes(_edit_header(path.read_bytes(), prefix, edit))
    with pytest.raises(CheckpointError, match=f"non-numeric {message}"):
        load_checkpoint(path)


def test_checkpoint_inconsistent_shapes_are_checkpoint_errors(tmp_path, tiny_policy):
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, tiny_policy)
    raw = path.read_bytes()
    # b1 holds 8 floats; claiming shape 2x4 keeps the byte count right.
    path.write_bytes(_edit_header(raw, b"block b1 ", lambda ln: ln.replace(b" 8 ", b" 2x4 ", 1)))
    with pytest.raises(CheckpointError, match="inconsistent"):
        load_checkpoint(path)
    # A shape whose size disagrees with the byte count.
    path.write_bytes(_edit_header(raw, b"block b1 ", lambda ln: ln.replace(b" 8 ", b" 9 ", 1)))
    with pytest.raises(CheckpointError, match="block b1"):
        load_checkpoint(path)
