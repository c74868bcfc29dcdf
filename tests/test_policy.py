"""Policy network: features, forward pass, analytic gradients, checkpoints."""
import numpy as np
import pytest

from budnav.errors import CheckpointError, DimensionMismatch, UnknownToken
from budnav.policy import (
    Featurizer,
    HistoryWindow,
    NO_ACTION,
    PolicyConfig,
    featurize,
    forward,
    forward_cached,
    greedy_action,
    init_params,
    kl_and_log_ratio,
    load_checkpoint,
    logprob_and_grad,
    save_checkpoint,
    snapshot,
    softmax,
)

from conftest import rand_window


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
    rebuilt = tiny_policy.from_flat(flat)
    assert np.array_equal(rebuilt.flatten(), flat)
    for (n1, a1), (n2, a2) in zip(tiny_policy.blocks(), rebuilt.blocks()):
        assert n1 == n2
        assert np.array_equal(a1, a2)


def test_flatten_order_is_declaration_order(tiny_policy):
    # instr_embed comes first, b2 last.
    flat = tiny_policy.flatten()
    assert flat[0] == tiny_policy.instr_embed.ravel()[0]
    assert flat[-1] == tiny_policy.b2[-1]


def test_from_flat_rejects_wrong_size(tiny_policy):
    with pytest.raises(DimensionMismatch):
        tiny_policy.from_flat(np.zeros(3))


# ------------------------------------------------------------- featurize

def test_featurize_layout_by_hand(tiny_policy):
    cfg = tiny_policy.cfg
    rng = np.random.default_rng(0)
    window = rand_window(tiny_policy, rng, n_tokens=2)
    feats = featurize(tiny_policy, window)
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
        featurize(tiny_policy, HistoryWindow((999,), good.patches, good.prev_actions))
    with pytest.raises(DimensionMismatch):
        featurize(tiny_policy, HistoryWindow(good.instruction, good.patches[:-1], good.prev_actions[:-1]))
    bad_acts = (NO_ACTION + 1,) + good.prev_actions[1:]
    with pytest.raises(DimensionMismatch):
        featurize(tiny_policy, HistoryWindow(good.instruction, good.patches, bad_acts))


def featurize_uncached(params, window):
    """The construction Featurizer memoizes, spelled out step by step."""
    parts = [params.instr_embed[list(window.instruction)].mean(axis=0)]
    for patch, act in zip(window.patches, window.prev_actions):
        parts.append(patch @ params.obs_proj)
        parts.append(params.act_embed[act])
    return np.concatenate(parts)


def assert_shared_featurizer_is_bit_exact(params, windows):
    shared = Featurizer(params)
    for window in windows:
        got = shared(window)
        assert got.tobytes() == featurize(params, window).tobytes()
        assert got.tobytes() == featurize_uncached(params, window).tobytes()


@pytest.fixture(scope="module")
def walk(sample_episode, default_policy):
    """(params, trajectory): an untrained policy that rarely stops, and
    one long sampled rollout of it."""
    from budnav.rollout import rollout_stream, run_sampled

    params = default_policy.copy()
    params.b2[3] = -10.0  # STOP
    traj = run_sampled(
        snapshot(params), sample_episode, 1.0,
        rollout_stream(0, sample_episode.id, 1), triggers=False,
    )
    assert len(traj.steps) > 2 * params.cfg.history_k  # windows shift
    return params, traj


def test_featurizer_is_bit_exact_along_a_sampled_rollout(walk):
    params, traj = walk
    assert_shared_featurizer_is_bit_exact(params, [s.window for s in traj.steps])


def test_featurizer_is_bit_exact_along_a_rect_demo_replay(sample_episode, walk):
    from budnav.oracle import plan
    from budnav.rollout import WindowBuilder
    from budnav.world import Action, observe, step

    # Roll back to step 12 and replay an oracle completion from there,
    # exactly as rect_loss_and_grad does.
    params, traj = walk
    ep = sample_episode
    anchor = 12
    pose = traj.steps[anchor].pose_before
    completion = plan(ep.world, pose, ep.goal, ep.goal_radius).actions
    assert len(completion) > 1
    cfg = params.cfg
    builder = WindowBuilder(ep.instruction, cfg.history_k, cfg.patch_cells)
    for s in traj.steps[:anchor]:
        builder.push(s.observation, s.action)
    windows = []
    for action in completion:
        obs = observe(ep.world, pose, cfg.obs_k).ravel()
        windows.append(builder.window(obs))
        builder.push(obs, int(action))
        pose = step(ep.world, pose, Action(action))
    assert_shared_featurizer_is_bit_exact(params, windows)


def test_featurizer_validates_windows_after_memoizing(tiny_policy):
    rng = np.random.default_rng(3)
    good = rand_window(tiny_policy, rng)
    shared = Featurizer(tiny_policy)
    shared(good)  # instruction and patches are now memoized
    with pytest.raises(DimensionMismatch):
        shared(HistoryWindow(good.instruction, good.patches, (-1,) + good.prev_actions[1:]))
    with pytest.raises(DimensionMismatch):
        shared(HistoryWindow(good.instruction, good.patches[1:], good.prev_actions[1:]))
    with pytest.raises(DimensionMismatch):
        shared(HistoryWindow(good.instruction, (np.zeros(3),) + good.patches[1:], good.prev_actions))
    with pytest.raises(UnknownToken):
        shared(HistoryWindow((0, 999), good.patches, good.prev_actions))


# --------------------------------------------------------------- forward

def test_forward_matches_manual_mlp(tiny_policy):
    rng = np.random.default_rng(2)
    window = rand_window(tiny_policy, rng)
    feats = featurize(tiny_policy, window)
    want = np.tanh(feats @ tiny_policy.W1 + tiny_policy.b1) @ tiny_policy.W2 + tiny_policy.b2
    assert np.array_equal(forward(tiny_policy, feats), want)
    logits, cache = forward_cached(tiny_policy, window)
    assert np.array_equal(logits, want)
    assert np.array_equal(cache.features, feats)


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
            p = tiny_policy.from_flat(theta)
            lp, _ = logprob_and_grad(p, window, action, 0.4)
            return lp

        _, grad = logprob_and_grad(tiny_policy.from_flat(theta0), window, action, 0.4)
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
    logits = forward(tiny_policy, featurize(tiny_policy, window))
    probs = softmax(logits / 0.4)
    for a in range(4):
        lp, _ = logprob_and_grad(tiny_policy, window, a, 0.4)
        assert lp == pytest.approx(np.log(probs[a]), rel=1e-12)


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
    tiny_policy.copy().W1[0, 0] = 1.0


# ----------------------------------------------------------- checkpoints

def test_checkpoint_round_trip(tmp_path, tiny_policy):
    path = tmp_path / "p.ckpt"
    save_checkpoint(path, tiny_policy)
    loaded = load_checkpoint(path, temperature=tiny_policy.cfg.temperature)
    assert loaded.cfg == tiny_policy.cfg
    assert np.array_equal(loaded.flatten(), tiny_policy.flatten())
    # Bytes are stable across writes.
    path2 = tmp_path / "q.ckpt"
    save_checkpoint(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


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
