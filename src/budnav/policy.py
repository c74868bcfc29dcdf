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
works on any [..., feature_dim] array; a lockstep rollout holds one row
per running episode.  The losses score a whole step sequence at once:
featurize builds every step's row from one product of the stacked
patches and one sliding window over the slot blocks, forward_cached
scores all rows, and GradAccumulator.add_step backpropagates them with
matrix products.  Every entry is a copy of the same product or row the
rolling vector holds, so the features are identical to the bit.
Products go through row_products, one vector-matrix product per row, so
a row of a batch is scored to the bit as the same step alone, and a
loss sees the logits its rollout recorded.  All math is float64 and
every gradient is hand-derived, so finite differences must agree to
near machine precision.

All parameters live in one float64 vector, PolicyParams.theta.  The
seven blocks (instr_embed, obs_proj, act_embed, W1, b1, W2, b2) are
row-major views cut from it in the order and shapes of one table,
PolicyConfig.layout; initialisation, gradients and checkpoints all read
that table.  Checkpoints store the named blocks as little-endian float64
with an integrity checksum.
"""
from __future__ import annotations

import functools
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

    @functools.cached_property
    def block_slices(self) -> tuple:
        """(name, lo, hi, shape) of each block of layout: its view is
        theta[lo:hi].reshape(shape).  Computed once per config."""
        slices, lo = [], 0
        for name, shape in self.layout:
            hi = lo + math.prod(shape)
            slices.append((name, lo, hi, shape))
            lo = hi
        return tuple(slices)

    @property
    def param_count(self) -> int:
        return self.block_slices[-1][2]

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
        for name, lo, hi, shape in cfg.block_slices:
            setattr(self, name, theta[lo:hi].reshape(shape))

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


def instruction_mean(params: PolicyParams, instruction) -> np.ndarray:
    """The instruction block of a feature vector: the mean of the tokens'
    embeddings, as np.add.reduce / n (the bits of .mean(axis=0), without
    its dispatch overhead)."""
    cfg = params.cfg
    for t in instruction:
        if not 0 <= t < cfg.vocab:
            raise UnknownToken(f"instruction token {t} outside vocabulary {cfg.vocab}")
    return np.add.reduce(params.instr_embed[list(instruction)], axis=0) / len(instruction)


def padding_slots(params: PolicyParams) -> np.ndarray:
    """The history_k slot blocks of a feature vector before the first
    step, flat: each a zero patch projected through obs_proj followed by
    the NO_ACTION embedding."""
    cfg = params.cfg
    slots = np.empty((cfg.history_k, cfg.d_o + cfg.d_a))
    slots[:, : cfg.d_o] = row_products(np.zeros(cfg.patch_cells), params.obs_proj)
    slots[:, cfg.d_o :] = params.act_embed[NO_ACTION]
    return slots.ravel()


def initial_features(params: PolicyParams, instruction) -> np.ndarray:
    """Feature vector before the first step: the instruction mean and
    history_k padded slots."""
    return np.concatenate((instruction_mean(params, instruction), padding_slots(params)))


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


@dataclass(frozen=True)
class StepRows:
    """Feature rows of a step sequence under one parameter set.

    rows[i] is the feature vector of step start + i.  patches and
    prev_actions hold the whole sequence behind history_k - 1 padding
    entries (zero patch, NO_ACTION), so the slots of rows[i] are
    patches[start + i : start + i + history_k] and the same slice of
    prev_actions.
    """

    instruction: tuple
    rows: np.ndarray
    patches: np.ndarray
    prev_actions: np.ndarray
    start: int


def featurize(
    params: PolicyParams, instruction, patches: np.ndarray, prev_actions, start: int = 0,
    first: np.ndarray | None = None,
) -> StepRows:
    """Feature rows of steps start..n-1 of a sequence of n steps, each
    given by its [n, patch_cells] observation patch and its previous
    action; every row equals, bit for bit, the rolling vector a
    FeatureRows holds after the same pushes.  first is
    initial_features(params, instruction), for callers that featurize
    several sequences of one instruction."""
    cfg = params.cfg
    k, block = cfg.history_k, cfg.d_o + cfg.d_a
    n = len(prev_actions)
    if patches.shape != (n, cfg.patch_cells):
        raise DimensionMismatch(f"patch shape {patches.shape}, want ({n}, {cfg.patch_cells})")
    for a in prev_actions:
        if not 0 <= a <= NO_ACTION:
            raise DimensionMismatch(f"previous-action index out of range: {a}")
    if first is None:
        first = initial_features(params, instruction)
    padded = np.zeros((k - 1 + n, cfg.patch_cells))
    padded[k - 1 :] = patches
    actions = np.array([NO_ACTION] * (k - 1) + list(prev_actions))
    # slots[j] is the block of padded entry start + j; padding blocks are
    # copied from the initial vector, the rest computed once.
    pads = max(k - 1 - start, 0)
    slots = np.empty((k - 1 + n - start, block))
    slots[:pads] = first[cfg.d_e : cfg.d_e + pads * block].reshape(pads, block)
    slots[pads:, : cfg.d_o] = row_products(padded[start + pads :], params.obs_proj)
    slots[pads:, cfg.d_o :] = params.act_embed[actions[start + pads :]]
    rows = np.empty((n - start, cfg.feature_dim))
    rows[:, : cfg.d_e] = first[: cfg.d_e]
    # Row i's slots are the history_k blocks from slots[i] on: a strided
    # view of the contiguous slots, one block further per row.
    rows[:, cfg.d_e :] = np.ndarray(
        (n - start, k * block), buffer=slots, strides=(block * slots.itemsize, slots.itemsize)
    )
    return StepRows(tuple(instruction), rows, padded, actions, start)


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
    """Activations of a step sequence, for GradAccumulator.add_step."""

    steps: StepRows
    hidden: np.ndarray


def forward_cached(params: PolicyParams, steps: StepRows):
    """[m, 4] logits of steps.rows plus the activations backprop needs;
    steps must be featurized under params.  The logits equal forward's."""
    hidden = np.tanh(row_products(steps.rows, params.W1) + params.b1)
    return row_products(hidden, params.W2) + params.b2, _Cache(steps, hidden)


def softmax(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def greedy_action(logits: np.ndarray) -> int:
    """Argmax over raw logits; ties resolve to the lowest action index."""
    return int(logits.argmax())


class GradAccumulator:
    """Sum of parameter gradients in one flat vector, in cfg.layout order.

    add_step backpropagates every row of a step sequence at once: the
    weight gradients are matrix products over the rows (features.T @
    dpre, hidden.T @ dlogits, and the stacked slot patches' transpose
    times their slot gradients for obs_proj), the bias gradients row
    sums, and the act_embed and instr_embed rows are scattered with
    np.add.at.  self.buf holds the per-block buffers as a PolicyParams
    over self.grad; flat() returns self.grad itself, not a copy.
    """

    def __init__(self, params: PolicyParams):
        self.params = params
        self.grad = np.zeros(params.count)
        self.buf = PolicyParams(params.cfg, self.grad)

    def add_step(self, cache: _Cache, dlogits: np.ndarray):
        """Accumulate d(objective)/d(params) given the [m, 4]
        d(objective)/d(logits) of the cached rows."""
        p, buf, cfg = self.params, self.buf, self.params.cfg
        steps, hidden = cache.steps, cache.hidden
        dpre = (dlogits @ p.W2.T) * (1.0 - hidden ** 2)
        buf.W2 += hidden.T @ dlogits
        buf.b2 += dlogits.sum(axis=0)
        buf.W1 += steps.rows.T @ dpre
        buf.b1 += dpre.sum(axis=0)
        dfeat = dpre @ p.W1.T
        dinstr = dfeat[:, : cfg.d_e].sum(axis=0) / len(steps.instruction)
        np.add.at(buf.instr_embed, list(steps.instruction), dinstr)
        # One row per (step, slot), oldest slot first, and its padded entry.
        m, k = len(hidden), cfg.history_k
        dslots = dfeat[:, cfg.d_e :].reshape(m * k, cfg.d_o + cfg.d_a)
        at = (steps.start + np.arange(m)[:, None] + np.arange(k)).ravel()
        buf.obs_proj += steps.patches[at].T @ dslots[:, : cfg.d_o]
        np.add.at(buf.act_embed, steps.prev_actions[at], dslots[:, cfg.d_o :])

    def flat(self) -> np.ndarray:
        return self.grad


PROB_FLOOR = 1e-12


def kl_and_log_ratio(p: np.ndarray, q: np.ndarray):
    """(KL(p || q), log p - log q) for action distributions over the
    last axis, one KL per row.

    q is floored at PROB_FLOOR for stability; where p is zero the log
    ratio is zero, so those actions add nothing to the sum.
    """
    q_floored = np.maximum(q, PROB_FLOOR)
    mask = p > 0.0
    log_ratio = np.zeros_like(p)
    log_ratio[mask] = np.log(p[mask]) - np.log(q_floored[mask])
    return (p * log_ratio).sum(axis=-1), log_ratio


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
    if cfg.obs_k % 2 == 0 or min(cfg.history_k, cfg.d_e, cfg.d_o, cfg.d_a, cfg.d_h) < 1:
        raise CheckpointError(
            f"no policy has this architecture: obs_k {cfg.obs_k}, history_k {cfg.history_k},"
            f" d_e {cfg.d_e}, d_o {cfg.d_o}, d_a {cfg.d_a}, d_h {cfg.d_h}"
        )
    if cfg.arch_hash() != header["config"]:
        raise CheckpointError(f"config hash mismatch in {path}")
    if cfg.param_count != _count(header["params"], "parameter count"):
        raise CheckpointError(f"parameter count mismatch in {path}")
    theta = np.concatenate([arrays[name].ravel() for name, _ in cfg.layout], dtype=np.float64)
    return PolicyParams(cfg, theta)
