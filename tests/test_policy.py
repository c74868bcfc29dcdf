"""Policy network: features, forward pass, analytic gradients, checkpoints."""
import numpy as np
import pytest

from budnav.errors import CheckpointError, DimensionMismatch, UnknownToken
from budnav.policy import (
    NO_ACTION,
    FeatureTrack,
    GradAccumulator,
    PolicyConfig,
    PolicyParams,
    featurize,
    forward,
    forward_cached,
    greedy_action,
    init_params,
    kl_and_log_ratio,
    load_checkpoint,
    save_checkpoint,
    snapshot,
    softmax,
)

from conftest import Window, rand_window, window_track


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
    feats = window_track(tiny_policy, window).features
    assert feats.shape == (cfg.feature_dim,)
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
    rng = np.random.default_rng(1)
    good = rand_window(tiny_policy, rng)
    with pytest.raises(UnknownToken):
        FeatureTrack(tiny_policy, (999,))
    with pytest.raises(UnknownToken):
        FeatureTrack(tiny_policy, (0, -1))
    track = FeatureTrack(tiny_policy, good.instruction)
    with pytest.raises(DimensionMismatch):
        featurize(track, good.patches[0][:-1], 0)
    with pytest.raises(DimensionMismatch):
        featurize(track, good.patches[0], NO_ACTION + 1)


def test_featurize_validates_inputs_mid_episode(tiny_policy):
    # A rejected step leaves the track as it was.
    rng = np.random.default_rng(3)
    good = rand_window(tiny_policy, rng)
    track = window_track(tiny_policy, good)
    before = track.features.copy()
    history = (list(track.patches), list(track.prev_actions))
    with pytest.raises(DimensionMismatch):
        featurize(track, good.patches[0], -1)
    with pytest.raises(DimensionMismatch):
        featurize(track, np.zeros(3), 0)
    with pytest.raises(DimensionMismatch):
        featurize(track, good.patches[0].reshape(1, -1), 0)
    assert track.features.tobytes() == before.tobytes()
    assert (track.patches, track.prev_actions) == history
    got = featurize(track, good.patches[1], 2)
    window = Window(good.instruction, good.patches[1:] + good.patches[1:2],
                    good.prev_actions[1:] + (2,))
    assert got.tobytes() == featurize_uncached(tiny_policy, window).tobytes()


def test_track_left_pads_and_shifts():
    params = init_params(PolicyConfig(obs_k=3, d_e=2, d_o=2, d_a=2, d_h=4, history_k=3), 0)
    cfg = params.cfg
    o0, o1 = np.ones(9), np.full(9, 2.0)
    pad = np.concatenate([np.zeros(9) @ params.obs_proj, params.act_embed[NO_ACTION]])
    track = FeatureTrack(params, (1, 2))
    assert track.prev_actions == [NO_ACTION, NO_ACTION]
    slots = featurize(track, o0, NO_ACTION)[cfg.d_e :].reshape(3, 4)
    assert slots[0].tobytes() == slots[1].tobytes() == pad.tobytes()
    assert np.array_equal(slots[2, :2], o0 @ params.obs_proj)
    assert np.array_equal(slots[2, 2:], params.act_embed[NO_ACTION])
    slots = featurize(track, o1, 2)[cfg.d_e :].reshape(3, 4)
    assert slots[0].tobytes() == pad.tobytes()
    assert np.array_equal(slots[1, :2], o0 @ params.obs_proj)
    assert np.array_equal(slots[2], np.concatenate([o1 @ params.obs_proj, params.act_embed[2]]))
    # The padded history: two padding entries, then one per step.
    assert track.prev_actions == [NO_ACTION, NO_ACTION, NO_ACTION, 2]
    assert [p.tolist() for p in track.patches] == [[0.0] * 9] * 2 + [o0.tolist(), o1.tolist()]


def test_track_history_is_bounded():
    params = init_params(PolicyConfig(obs_k=1, d_e=2, d_o=2, d_a=2, d_h=4, history_k=2), 0)
    cfg = params.cfg
    track = FeatureTrack(params, (0,))
    for i in range(10):
        featurize(track, np.array([float(i)]), i % 4)
    feats = featurize(track, np.array([99.0]), 1)
    assert feats.shape == (cfg.feature_dim,)
    slots = feats[cfg.d_e :].reshape(2, 4)
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
    params, episode, traj = walk
    track = FeatureTrack(params, episode.instruction)
    pairs = step_pairs(traj.steps)
    windows = reference_windows(episode.instruction, pairs, params.cfg)
    for s, (obs, prev), window in zip(traj.steps, pairs, windows):
        want = featurize_uncached(params, window)
        assert featurize(track, obs, prev).tobytes() == want.tobytes()
        # The rollout's recorded logits came from its own track.
        assert s.logits.tobytes() == forward(params, want).tobytes()
        logits, cache = forward_cached(params, track)
        assert logits.tobytes() == s.logits.tobytes()
        assert cache.features.tobytes() == want.tobytes()


def test_featurizer_is_bit_exact_along_a_rect_demo_replay(walk, monkeypatch):
    from budnav import rectify
    from budnav.oracle import plan
    from budnav.rectify import RectificationDemo, decay_weights
    from budnav.world import Action, observe, step

    # Roll back to step 12 and replay an oracle completion from there
    # through rect_loss_and_grad, recording what it scores.
    params, ep, traj = walk
    anchor = 12
    assert anchor > params.cfg.history_k
    pose = traj.steps[anchor].pose_before
    completion = plan(ep.world, pose, ep.goal, ep.goal_radius).actions
    assert len(completion) > 1
    demo = RectificationDemo(
        episode_id=ep.id, anchor_step=anchor, anchor_pose=pose,
        retained_prefix=traj.steps[:anchor], oracle_actions=tuple(completion),
        weights=decay_weights(len(completion), 0.95),
    )
    seen = []

    def recording(p, track):
        logits, cache = forward_cached(p, track)
        seen.append((cache.features.copy(), logits))
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
    assert len(seen) == len(windows) == len(completion)
    for (feats, logits), window in zip(seen, windows):
        want = featurize_uncached(params, window)
        assert feats.tobytes() == want.tobytes()
        assert logits.tobytes() == forward(params, want).tobytes()


def test_featurizer_is_bit_exact_along_a_grpo_group(desk_batches, monkeypatch):
    from budnav import grpo

    _, live, ref, _, groups = desk_batches
    seen = []

    def recording_featurize(track, obs, prev_action):
        feats = featurize(track, obs, prev_action)
        seen.append((track.params, feats.copy()))
        return feats

    def recording_forward(p, feats):
        logits = forward(p, feats)
        seen.append((p, logits))
        return logits

    def recording_forward_cached(p, track):
        logits, cache = forward_cached(p, track)
        seen.append((p, logits))
        return logits, cache

    monkeypatch.setattr(grpo, "featurize", recording_featurize)
    monkeypatch.setattr(grpo, "forward", recording_forward)
    monkeypatch.setattr(grpo, "forward_cached", recording_forward_cached)
    for group in groups:
        seen.clear()
        grpo.grpo_loss_and_grad(live, group, ref)
        old = group.snapshot_old.params
        want = []
        for traj in group.trajectories:
            pairs = step_pairs(traj.steps)
            for s, window in zip(traj.steps, reference_windows(group.instruction, pairs, live.cfg)):
                # Per step: old, live and ref features, each then scored.
                for p in (old, live, ref.params):
                    feats = featurize_uncached(p, window)
                    want += [(p, feats), (p, forward(p, feats))]
                assert s.logits.tobytes() == want[-5][1].tobytes()
        assert len(seen) == len(want) == 6 * sum(len(t.steps) for t in group.trajectories)
        for (got_p, got), (want_p, expect) in zip(seen, want):
            assert got_p is want_p
            assert got.tobytes() == expect.tobytes()


# --------------------------------------------------------------- forward

def test_forward_matches_manual_mlp(tiny_policy):
    rng = np.random.default_rng(2)
    track = window_track(tiny_policy, rand_window(tiny_policy, rng))
    feats = track.features
    want = np.tanh(feats @ tiny_policy.W1 + tiny_policy.b1) @ tiny_policy.W2 + tiny_policy.b2
    assert np.array_equal(forward(tiny_policy, feats), want)
    logits, cache = forward_cached(tiny_policy, track)
    assert np.array_equal(logits, want)
    assert cache.features is track.features  # a view, valid until the next push
    assert (cache.track, cache.at) == (track, len(track.prev_actions) - tiny_policy.cfg.history_k)


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

def logprob_and_grad(track, action, temperature):
    """log pi(action | track's latest step) and its gradient, flattened
    canonically, under the params the track was built from."""
    params = track.params
    logits, cache = forward_cached(params, track)
    probs = softmax(logits / temperature)
    dlogits = -probs / temperature
    dlogits[action] += 1.0 / temperature
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
            lp, _ = logprob_and_grad(window_track(p, window), action, 0.4)
            return lp

        track = window_track(PolicyParams(tiny_policy.cfg, theta0), window)
        _, grad = logprob_and_grad(track, action, 0.4)
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
        lp, _ = logprob_and_grad(window_track(tiny_policy, window), a, 0.4)
        assert lp == pytest.approx(np.log(probs[a]), rel=1e-12)


# ---------------------------------------------------- batched accumulation

def per_step_accumulator_reference(params, steps):
    """The accumulator GradAccumulator replaced: each step's terms added in
    place into parameter-shaped buffers, one step after another.

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


def cached_window(params, cache):
    """The window of a cached step, read from its track's padded history
    and checked against the step's features."""
    k = params.cfg.history_k
    track, n = cache.track, cache.at
    window = Window(
        track.instruction, tuple(track.patches[n : n + k]), tuple(track.prev_actions[n : n + k])
    )
    assert cache.features.tobytes() == featurize_uncached(params, window).tobytes()
    return window


class ReferenceAccumulator:
    """Drop-in for GradAccumulator that defers to the per-step reference."""

    def __init__(self, params):
        self.params = params
        self.steps = []

    def add_step(self, cache, dlogits):
        window = cached_window(self.params, cache)
        self.steps.append((cache.features.copy(), cache.hidden, window, dlogits.copy()))

    def flat(self):
        return per_step_accumulator_reference(self.params, self.steps)


def padded_step(params, rng):
    """(track, window): a fresh track after 1 to history_k pushes, so its
    oldest slots are the track's own padding (zero patch, NO_ACTION) as at
    the start of an episode, and the window spelling out its slots.  The
    instruction, the patches and the previous actions repeat entries."""
    cfg = params.cfg
    k = cfg.history_k
    n_pad = int(rng.integers(0, k))
    zero = np.zeros(cfg.patch_cells)
    tokens = rng.integers(0, cfg.vocab, size=int(rng.integers(1, 4)))
    instruction = tuple(int(t) for t in np.repeat(tokens, rng.integers(1, 4, size=len(tokens))))
    shared = (rng.uniform(0, 1, size=cfg.patch_cells) < 0.3).astype(float)
    patches = [zero] * n_pad + [
        shared if rng.random() < 0.3 else (rng.uniform(0, 1, size=cfg.patch_cells) < 0.3).astype(float)
        for _ in range(k - n_pad)
    ]
    actions = [NO_ACTION] * n_pad + [int(a) for a in rng.choice([0, 0, 1, NO_ACTION], size=k - n_pad)]
    window = Window(instruction, tuple(patches), tuple(actions))
    return window_track(params, window, n_pad), window


def accumulate_both(params, steps):
    """steps holds (cache, window, dlogits); each cache's track is not
    pushed again, so its features are still valid."""
    acc = GradAccumulator(params)
    for cache, window, dlogits in steps:
        acc.add_step(cache, dlogits)
    want = per_step_accumulator_reference(
        params, [(c.features, c.hidden, w, d) for c, w, d in steps]
    )
    return acc.flat(), want


@pytest.mark.parametrize("n_steps", [0, 1, 31, 32, 33, 97])
@pytest.mark.parametrize("policy", ["tiny_policy", "default_policy"])
def test_accumulator_is_bit_exact_against_per_step_reference(request, policy, n_steps):
    params = request.getfixturevalue(policy)
    rng = np.random.default_rng(n_steps)
    steps = []
    for i in range(n_steps):
        track, window = padded_step(params, rng)
        _, cache = forward_cached(params, track)
        if i % 2:
            # GRPO-style: a KL-shaped term plus a signed advantage term,
            # scaled by 1 / (group size * trajectory length).
            p = softmax(rng.normal(size=4))
            dlogits = -0.01 * p * rng.normal(size=4) / 0.4
            dlogits[int(rng.integers(4))] += rng.normal() / 0.4
            dlogits = dlogits * (1.0 / (4 * (1 + i % 23)))
        else:
            dlogits = softmax(rng.normal(size=4)) / 0.4
            dlogits[int(rng.integers(4))] -= 1.0 / 0.4
        steps.append((cache, window, dlogits))
    got, want = accumulate_both(params, steps)
    assert got.shape == (params.count,)
    assert got.tobytes() == want.tobytes()


def test_accumulator_keeps_signed_zeros(default_policy):
    # A first step on a zero patch leaves every slot a zero patch, so
    # every obs_proj term is a signed zero; the running buffer (+0.0)
    # must come first, as in the per-step sum.
    params = default_policy
    cfg = params.cfg
    zero = np.zeros(cfg.patch_cells)
    window = Window((0,), (zero,) * cfg.history_k, (NO_ACTION,) * cfg.history_k)
    _, cache = forward_cached(params, window_track(params, window, cfg.history_k - 1))
    steps = [(cache, window, np.array([-1.0, 2.0, -3.0, 4.0]))] * 40
    got, want = accumulate_both(params, steps)
    assert got.tobytes() == want.tobytes()
    obs = got[cfg.vocab * cfg.d_e :][: cfg.patch_cells * cfg.d_o]
    assert np.all(obs == 0.0) and not np.any(np.signbit(obs))


@pytest.fixture(scope="module")
def desk_batches(desk_cfg):
    """Desk demos and GRPO groups of an untrained policy that rarely stops.

    Desk plans are at most ~18 actions, shorter than one flush chunk, so
    each sampled walk is also replayed as a demo from the episode start.
    """
    from budnav.grpo import make_group
    from budnav.rectify import RectificationDemo, bc_demo, decay_weights, synthesize_demo
    from budnav.rollout import rollout_stream, run_greedy, run_sampled
    from budnav.trainer import training_episode

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
        walk = tuple(s.action for s in rollouts[-1].steps)
        demos.append((RectificationDemo(
            episode_id=episode.id, anchor_step=0, anchor_pose=episode.start,
            retained_prefix=(), oracle_actions=walk,
            weights=decay_weights(len(walk), cfg.rect.decay_gamma),
        ), episode))
    live = PolicyParams(params.cfg, params.theta + 0.05 * np.sin(np.arange(params.count)))
    ref = snapshot(init_params(cfg.policy, 1), "ref")
    assert max(len(d.oracle_actions) for d, _ in demos) > GradAccumulator.FLUSH_STEPS
    assert max(len(t.steps) for g in groups for t in g.trajectories) > GradAccumulator.FLUSH_STEPS
    return cfg, live, ref, demos, groups


def test_rect_gradients_are_bit_exact_against_per_step_reference(desk_batches, monkeypatch):
    from budnav import rectify

    cfg, live, _, demos, _ = desk_batches
    got = [rectify.rect_loss_and_grad(live, d, ep, cfg.rect) for d, ep in demos]
    monkeypatch.setattr(rectify, "GradAccumulator", ReferenceAccumulator)
    want = [rectify.rect_loss_and_grad(live, d, ep, cfg.rect) for d, ep in demos]
    for (loss, grad), (want_loss, want_grad) in zip(got, want):
        assert loss == want_loss
        assert grad.tobytes() == want_grad.tobytes()


def test_grpo_gradients_are_bit_exact_against_per_step_reference(desk_batches, monkeypatch):
    from budnav import grpo

    cfg, live, ref, _, groups = desk_batches
    got = [grpo.grpo_loss_and_grad(live, g, ref, cfg.grpo) for g in groups]
    monkeypatch.setattr(grpo, "GradAccumulator", ReferenceAccumulator)
    want = [grpo.grpo_loss_and_grad(live, g, ref, cfg.grpo) for g in groups]
    for (loss, grad), (want_loss, want_grad) in zip(got, want):
        assert loss == want_loss
        assert grad.tobytes() == want_grad.tobytes()


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
