"""History-conditioned softmax policy with fully analytic gradients.

The policy scores the four actions from a fixed-size feature vector
built out of the episode instruction and the last K (observation,
previous-action) pairs:

    features = [ mean of instruction token embeddings        (d_e)
               | patch_0 @ obs_proj, act_embed[prev_act_0]   (d_o + d_a)
               | ...   one block per history slot, oldest first
               | patch_{K-1} @ obs_proj, act_embed[prev_act_{K-1}] ]

    logits = tanh(features @ W1 + b1) @ W2 + b2

The vector starts with every slot padded (a zero patch projected through
obs_proj and the dedicated "no previous action" embedding row), and
FeatureRows.push advances it by one step: the slots shift left by one
block and the newest pair is written into the last one.  FeatureRows
works on any [..., feature_dim] array.  A FeatureTrack is the FeatureRows
of one episode under one parameter set, plus the padded history a loss
reads for its gradient; a lockstep rollout holds one row per running
episode and no history.  Every entry is a copy of the same product or
row a fresh concatenation would hold, so the features are identical to
the bit.  Products go through row_products, one vector-matrix product
per row, so a row of a batch is scored to the bit as the same step
alone.  All math
is float64 and every gradient is hand-derived, so finite differences
must agree to near machine precision.

All parameters live in one float64 vector, PolicyParams.theta.  The
seven blocks (instr_embed, obs_proj, act_embed, W1, b1, W2, b2) are
row-major views cut from it in the order and shapes of one table,
PolicyConfig.layout; initialisation, gradients and checkpoints all read
that table.  Checkpoints store the named blocks as little-endian float64
with an integrity checksum.
"""
from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError, DimensionMismatch, UnknownToken
from .rng import stream
from .world import DEFAULT_MAX_RUN, vocab_size

# Previous-action index of padding slots and of an episode's first step.
NO_ACTION = 4
N_ACTIONS = 4


@dataclass(frozen=True)
class PolicyConfig:
    """Architecture hyperparameters; vocab follows from max_run."""

    max_run: int = DEFAULT_MAX_RUN
    obs_k: int = 5
    d_e: int = 16
    d_o: int = 16
    d_a: int = 8
    d_h: int = 64
    history_k: int = 8
    temperature: float = 0.4

    @property
    def vocab(self) -> int:
        return vocab_size(self.max_run)

    @property
    def patch_cells(self) -> int:
        return self.obs_k * self.obs_k

    @property
    def feature_dim(self) -> int:
        return self.d_e + self.history_k * (self.d_o + self.d_a)

    @property
    def layout(self) -> tuple:
        """(name, shape) of each parameter block, in flattening order."""
        return (
            ("instr_embed", (self.vocab, self.d_e)),
            ("obs_proj", (self.patch_cells, self.d_o)),
            ("act_embed", (N_ACTIONS + 1, self.d_a)),
            ("W1", (self.feature_dim, self.d_h)),
            ("b1", (self.d_h,)),
            ("W2", (self.d_h, N_ACTIONS)),
            ("b2", (N_ACTIONS,)),
        )

    @property
    def param_count(self) -> int:
        return sum(math.prod(shape) for _, shape in self.layout)

    def arch_hash(self) -> str:
        """16-hex digest of the architecture (temperature excluded)."""
        text = (
            f"vocab={self.vocab} obs_k={self.obs_k} d_e={self.d_e}"
            f" d_o={self.d_o} d_a={self.d_a} d_h={self.d_h} k={self.history_k}"
        )
        return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


class PolicyParams:
    """Trainable parameters: one flat float64 vector theta, and a view of it
    per block of cfg.layout as an attribute (params.W1, ...)."""

    def __init__(self, cfg: PolicyConfig, theta: np.ndarray):
        if theta.shape != (cfg.param_count,):
            raise DimensionMismatch(
                f"flat vector has shape {theta.shape}, want ({cfg.param_count},)"
            )
        self.cfg = cfg
        self.theta = theta
        offset = 0
        for name, shape in cfg.layout:
            size = math.prod(shape)
            setattr(self, name, theta[offset : offset + size].reshape(shape))
            offset += size

    def blocks(self):
        return [(name, getattr(self, name)) for name, _ in self.cfg.layout]

    @property
    def count(self) -> int:
        return self.theta.size

    def flatten(self) -> np.ndarray:
        return self.theta.copy()


def init_params(cfg: PolicyConfig, seed: int) -> PolicyParams:
    """Uniform(-s, s) with s = 1/sqrt(fan_in) per weight block; biases zero."""
    rng = stream(seed, "init")
    p = PolicyParams(cfg, np.zeros(cfg.param_count))
    for block, fan_in in (
        (p.instr_embed, cfg.d_e),
        (p.obs_proj, cfg.patch_cells),
        (p.act_embed, cfg.d_a),
        (p.W1, cfg.feature_dim),
        (p.W2, cfg.d_h),
    ):
        s = 1.0 / math.sqrt(fan_in)
        block[...] = rng.uniform(-s, s, size=block.shape)
    return p


@dataclass(frozen=True)
class PolicySnapshot:
    """Frozen copy of policy parameters (arrays are read-only)."""

    params: PolicyParams
    role: str = "snapshot"


def snapshot(params: PolicyParams, role: str = "snapshot") -> PolicySnapshot:
    theta = params.theta.copy()
    theta.flags.writeable = False
    return PolicySnapshot(params=PolicyParams(params.cfg, theta), role=role)


def row_products(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m for x of shape [k] or [n, k], each row as its own
    vector-matrix product.

    A 2-D x @ m runs one matrix-matrix product whose blocking moves the
    last bits of a row; np.matmul over [n, 1, k] runs one vector-matrix
    product per row and matches x[i] @ m exactly.
    """
    if x.ndim == 1:
        return x @ m
    return np.matmul(x[:, None, :], m)[:, 0]


def initial_features(params: PolicyParams, instruction) -> np.ndarray:
    """Feature vector before the first step: the instruction mean and
    history_k padded slots."""
    cfg = params.cfg
    for t in instruction:
        if not 0 <= t < cfg.vocab:
            raise UnknownToken(f"instruction token {t} outside vocabulary {cfg.vocab}")
    features = np.empty(cfg.feature_dim)
    features[: cfg.d_e] = params.instr_embed[list(instruction)].mean(axis=0)
    slots = features[cfg.d_e :].reshape(cfg.history_k, cfg.d_o + cfg.d_a)
    slots[:, : cfg.d_o] = row_products(np.zeros(cfg.patch_cells), params.obs_proj)
    slots[:, cfg.d_o :] = params.act_embed[NO_ACTION]
    return features


class FeatureRows:
    """Feature vectors ([..., feature_dim]) advanced together by push.

    features is updated in place, one step per push.  The params must
    not be mutated while the rows are in use.
    """

    def __init__(self, params: PolicyParams, features: np.ndarray):
        cfg = params.cfg
        block = cfg.d_o + cfg.d_a
        last = cfg.feature_dim - block
        self.params = params
        self.features = features
        # Views of features that each push writes.
        self._older = features[..., cfg.d_e : last]
        self._newer = features[..., cfg.d_e + block :]
        self._obs = features[..., last : last + cfg.d_o]
        self._act = features[..., last + cfg.d_o :]

    def push(self, obs: np.ndarray, prev_actions) -> np.ndarray:
        """Shift the slots left by one block and write obs @ obs_proj and
        act_embed[prev_actions] into the last; obs is [..., patch_cells]
        and prev_actions an index, or one per row.  Returns features."""
        self._older[...] = self._newer
        self._obs[...] = row_products(obs, self.params.obs_proj)
        self._act[...] = self.params.act_embed[prev_actions]
        return self.features


class FeatureTrack(FeatureRows):
    """Rolling feature vector of one episode under one parameter set.

    featurize advances it by one step.  The padded history keeps every
    (patch, previous action) pair pushed so far behind history_k - 1
    padding entries, so the slots of the n-th push (0-based) are
    patches[n : n + history_k] and the same slice of prev_actions.  The
    pushed observations must not be mutated while the track is in use.
    """

    def __init__(self, params: PolicyParams, instruction):
        cfg = params.cfg
        self.instruction = tuple(instruction)
        super().__init__(params, initial_features(params, self.instruction))
        self.patches = [np.zeros(cfg.patch_cells)] * (cfg.history_k - 1)
        self.prev_actions = [NO_ACTION] * (cfg.history_k - 1)


def featurize(track: FeatureTrack, obs: np.ndarray, prev_action: int) -> np.ndarray:
    """Advance track by one step; returns track.features, not a copy."""
    p = track.params
    if obs.shape != (p.cfg.patch_cells,):
        raise DimensionMismatch(f"patch shape {obs.shape}, want ({p.cfg.patch_cells},)")
    if not 0 <= prev_action <= NO_ACTION:
        raise DimensionMismatch(f"previous-action index out of range: {prev_action}")
    track.push(obs, prev_action)
    track.patches.append(obs)
    track.prev_actions.append(prev_action)
    return track.features


def forward(params: PolicyParams, features: np.ndarray) -> np.ndarray:
    """Two-layer tanh MLP from features ([..., feature_dim]) to the four
    action logits of each row."""
    if features.shape[-1:] != (params.cfg.feature_dim,):
        raise DimensionMismatch(
            f"features shape {features.shape}, want (..., {params.cfg.feature_dim})"
        )
    hidden = np.tanh(row_products(features, params.W1) + params.b1)
    return row_products(hidden, params.W2) + params.b2


@dataclass
class _Cache:
    """Activations of one step, for GradAccumulator.add_step.

    features is the track's own buffer, not a copy: it is valid only
    until the next featurize on that track.  track and at locate the
    step's slots in the track's padded history.
    """

    features: np.ndarray
    hidden: np.ndarray
    track: FeatureTrack
    at: int


def forward_cached(params: PolicyParams, track: FeatureTrack):
    """Logits of the track's latest step plus the activations backprop
    needs; track must be built from params."""
    features = track.features
    hidden = np.tanh(features @ params.W1 + params.b1)
    at = len(track.prev_actions) - params.cfg.history_k
    return hidden @ params.W2 + params.b2, _Cache(features, hidden, track, at)


def softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max()
    e = np.exp(shifted)
    return e / e.sum()


def greedy_action(logits: np.ndarray) -> int:
    """Argmax over raw logits; ties resolve to the lowest action index."""
    return int(logits.argmax())


def _add_rows(buf: np.ndarray, rows: np.ndarray) -> None:
    """buf += rows[0]; buf += rows[1]; ... as one reduction.

    np.add.reduce over the leading axis of a C-contiguous stack adds the
    rows one after another (no pairwise summation), and the running
    buffer comes first, so each element sees ((buf + r0) + r1) + ...
    exactly, signed zeros included.
    """
    np.add.reduce(np.concatenate([buf[None], rows]), axis=0, out=buf)


def _add_outers(buf: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """buf += np.outer(a[i], b[i]) for each row i in order, as one reduction."""
    stack = np.empty((len(a) + 1,) + buf.shape)
    stack[0] = buf
    np.multiply(a[:, :, None], b[:, None, :], out=stack[1:])
    np.add.reduce(stack, axis=0, out=buf)


class GradAccumulator:
    """Sum of per-step parameter gradients in one flat, canonically ordered vector.

    add_step backpropagates one step: the matvecs W2 @ dlogits and
    W1 @ dpre and the W1 outer product happen at once; hidden, dlogits,
    dpre, dfeat and where the step's slots sit in its track's padded
    history are recorded.  Every FLUSH_STEPS pending steps, and in
    flat(), the recorded W2, b2, b1 and obs_proj terms are added with
    one ordered reduction per block (_add_rows, _add_outers) and the
    act_embed and instr_embed rows with np.add.at, which applies
    repeated indices in order.  Steps, then history slots, then
    instruction tokens are added in the order they arrived, so every
    element of the result is bit-identical to adding each step's terms
    into the buffers in place, one step after another.

    self.buf holds the per-block buffers as a PolicyParams over self.grad;
    flat() returns self.grad itself, not a copy.
    """

    FLUSH_STEPS = 32

    def __init__(self, params: PolicyParams):
        self.params = params
        self.grad = np.zeros(params.count)
        self.buf = PolicyParams(params.cfg, self.grad)
        self._pending = []

    def add_step(self, cache: _Cache, dlogits: np.ndarray):
        """Accumulate d(objective)/d(params) given d(objective)/d(logits)."""
        p = self.params
        dhidden = p.W2 @ dlogits
        dpre = dhidden * (1.0 - cache.hidden ** 2)
        self.buf.W1 += np.outer(cache.features, dpre)
        dfeat = p.W1 @ dpre
        self._pending.append((cache.hidden, dlogits, dpre, dfeat, cache.track, cache.at))
        if len(self._pending) >= self.FLUSH_STEPS:
            self._flush()

    def _flush(self) -> None:
        if not self._pending:
            return
        cfg = self.params.cfg
        hidden, dlogits, dpre, dfeat, tracks, starts = zip(*self._pending)
        self._pending = []
        dlogits = np.array(dlogits)
        dpre = np.array(dpre)
        dfeat = np.array(dfeat)
        buf = self.buf
        _add_outers(buf.W2, np.array(hidden), dlogits)
        _add_rows(buf.b2, dlogits)
        _add_rows(buf.b1, dpre)

        lengths = np.array([len(tr.instruction) for tr in tracks])
        tokens = [t for tr in tracks for t in tr.instruction]
        dinstr = dfeat[:, : cfg.d_e] / lengths[:, None]
        np.add.at(buf.instr_embed, tokens, np.repeat(dinstr, lengths, axis=0))

        # [steps, slots, d_o + d_a] -> one row per (step, slot), oldest slot first.
        k = cfg.history_k
        slots = dfeat[:, cfg.d_e :].reshape(len(tracks) * k, cfg.d_o + cfg.d_a)
        steps = list(zip(tracks, starts))
        patches = np.array([p for tr, n in steps for p in tr.patches[n : n + k]])
        _add_outers(buf.obs_proj, patches, slots[:, : cfg.d_o])
        actions = [a for tr, n in steps for a in tr.prev_actions[n : n + k]]
        np.add.at(buf.act_embed, actions, slots[:, cfg.d_o :])

    def flat(self) -> np.ndarray:
        self._flush()
        return self.grad


PROB_FLOOR = 1e-12


def kl_and_log_ratio(p: np.ndarray, q: np.ndarray):
    """(KL(p || q), log p - log q) for two action distributions.

    q is floored at PROB_FLOOR for stability; where p is zero the log
    ratio is zero, so those actions add nothing to the sum.
    """
    q_floored = np.maximum(q, PROB_FLOOR)
    mask = p > 0.0
    log_ratio = np.zeros_like(p)
    log_ratio[mask] = np.log(p[mask]) - np.log(q_floored[mask])
    return float(np.dot(p, log_ratio)), log_ratio


# --------------------------------------------------------------------------
# Checkpoint format "budnav-ckpt v1": text header, named little-endian
# float64 blocks, trailing checksum over the raw block bytes.
# --------------------------------------------------------------------------

CKPT_MAGIC = b"budnav-ckpt v1"


def save_checkpoint(path, params: PolicyParams) -> None:
    blocks = params.blocks()
    digest = hashlib.blake2b(digest_size=16)
    chunks = [CKPT_MAGIC + b"\n"]
    chunks.append(f"config {params.cfg.arch_hash()}\n".encode())
    chunks.append(f"params {params.count}\n".encode())
    chunks.append(f"blocks {len(blocks)}\n".encode())
    for name, arr in blocks:
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        shape = "x".join(str(d) for d in arr.shape)
        chunks.append(f"block {name} {shape} {len(raw)}\n".encode())
        chunks.append(raw)
        chunks.append(b"\n")
        digest.update(raw)
    chunks.append(f"checksum {digest.hexdigest()}\n".encode())
    # Write a sibling file and rename it over path, so an interrupted save
    # leaves the previous checkpoint (or none), never a torn one.
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(b"".join(chunks))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_line(f) -> str:
    raw = f.readline()
    if not raw.endswith(b"\n"):
        raise CheckpointError("truncated checkpoint")
    return raw[:-1].decode("utf-8", errors="replace")


def _count(text: str, what: str) -> int:
    """Non-negative decimal integer from a checkpoint header field."""
    if not (text.isascii() and text.isdigit()):
        raise CheckpointError(f"non-numeric {what}: {text!r}")
    return int(text)


def load_checkpoint(path) -> PolicyParams:
    """Parse and verify a checkpoint; architecture is recovered from shapes.

    A checkpoint does not record the sampling temperature, so the loaded
    config keeps PolicyConfig's default.
    """
    with open(path, "rb") as f:
        if _read_line(f) != CKPT_MAGIC.decode():
            raise CheckpointError(f"bad checkpoint magic in {path}")
        header = {}
        for _ in range(3):
            key, _, value = _read_line(f).partition(" ")
            header[key] = value
        if set(header) != {"config", "params", "blocks"}:
            raise CheckpointError(f"malformed checkpoint header in {path}")
        arrays = {}
        digest = hashlib.blake2b(digest_size=16)
        for _ in range(_count(header["blocks"], "block count")):
            line = _read_line(f)
            try:
                _, name, shape_s, nbytes_s = line.split(" ")
            except ValueError as e:
                raise CheckpointError(f"malformed block header: {line!r}") from e
            nbytes = _count(nbytes_s, f"byte count of block {name}")
            shape = tuple(_count(d, f"shape of block {name}") for d in shape_s.split("x"))
            raw = f.read(nbytes)
            if len(raw) != nbytes or f.read(1) != b"\n":
                raise CheckpointError(f"truncated block {name}")
            digest.update(raw)
            try:
                arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape)
            except ValueError as e:
                raise CheckpointError(f"block {name}: {e}") from e
        checksum_line = _read_line(f)
    if checksum_line != f"checksum {digest.hexdigest()}":
        raise CheckpointError(f"checksum mismatch in {path}")

    try:
        vocab, d_e = arrays["instr_embed"].shape
        patch_cells, d_o = arrays["obs_proj"].shape
        _, d_a = arrays["act_embed"].shape
        feature_dim, d_h = arrays["W1"].shape
        history_k = (feature_dim - d_e) // (d_o + d_a)
    except KeyError as e:
        raise CheckpointError(f"unexpected block set: {sorted(arrays)}") from e
    except (ValueError, ZeroDivisionError) as e:
        raise CheckpointError(f"malformed block shapes in {path}") from e
    cfg = PolicyConfig(
        max_run=vocab - 3,
        obs_k=int(round(math.sqrt(patch_cells))),
        d_e=d_e,
        d_o=d_o,
        d_a=d_a,
        d_h=d_h,
        history_k=history_k,
    )
    if {name: arr.shape for name, arr in arrays.items()} != dict(cfg.layout):
        raise CheckpointError(f"block set or shapes are mutually inconsistent: {sorted(arrays)}")
    if cfg.obs_k % 2 == 0 or cfg.history_k < 1:
        raise CheckpointError(
            f"no policy has this architecture: obs_k {cfg.obs_k}, history_k {cfg.history_k}"
        )
    if cfg.arch_hash() != header["config"]:
        raise CheckpointError(f"config hash mismatch in {path}")
    if cfg.param_count != _count(header["params"], "parameter count"):
        raise CheckpointError(f"parameter count mismatch in {path}")
    theta = np.concatenate([arrays[name].ravel() for name, _ in cfg.layout], dtype=np.float64)
    return PolicyParams(cfg, theta)
