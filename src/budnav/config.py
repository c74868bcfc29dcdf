"""Flat key=value run configuration and the experiment manifest.

Config files are plain text, one dotted key per line:

    trainer.variant = full
    grpo.kl_beta = 0.01
    suite.file = desk.suite

Blank lines and '#' comments are ignored.  Every key has a default; an
unknown key, an unparseable value or a value out of its range raises
ConfigError.  Types follow the default's type.

A run's manifest records the resolved value of every key, the explicit
overrides, the content hash of the world-generation parameters, and the
tool version, so the run is reproducible from the manifest alone.  The
start timestamp is the only non-deterministic line.
"""
from __future__ import annotations

import hashlib
from datetime import datetime, timezone
from pathlib import Path

from .errors import ConfigError
from .grpo import GrpoConfig, RewardConfig
from .policy import PolicyConfig
from .rectify import RectConfig
from .rollout import RolloutConfig
from .suite import Suite, generate_suite, parse_suite, serialize_suite
from .trainer import OptHyper, TrainConfig, VARIANTS

MANIFEST_MAGIC = "budnav-manifest v1"

# Every configurable key with its default; the default's type drives
# parsing.  Order here is the canonical serialization order.
DEFAULTS: dict = {
    "trainer.run_seed": 0,
    "trainer.variant": "full",
    "trainer.pretrain_episodes": 250,
    "trainer.train_episodes": 1500,
    "trainer.eval_every": 500,
    "trainer.eval_episodes": 0,
    "opt.learning_rate": 3e-4,
    "opt.beta1": 0.9,
    "opt.beta2": 0.999,
    "opt.eps": 1e-8,
    "opt.weight_decay": 0.01,
    "policy.obs_k": 5,
    "policy.d_e": 16,
    "policy.d_o": 16,
    "policy.d_a": 8,
    "policy.d_h": 64,
    "policy.history_k": 8,
    "policy.temperature": 0.4,
    "grpo.group_size": 4,
    "grpo.kl_beta": 0.01,
    "grpo.adv_epsilon": 1e-8,
    "rect.decay_gamma": 0.95,
    "rect.alpha": 1.0,
    "reward.c_succ": 2.0,
    "reward.spl_weight": 1.0,
    "reward.c_dist": 0.1,
    "rollout.stall_limit": 60,
    "rollout.grace_period": 10,
    "rollout.max_steps_factor": 4,
    "rollout.max_steps_floor": 50,
    "rollout.offtrack_dist_m": 3.0,
    "rollout.offtrack_heading_deg": 120.0,
    "rollout.visit_radius_m": 0.5,
    "suite.file": "",
    "suite.name": "suite",
    "suite.seed": 0,
    "suite.n_train_worlds": 8,
    "suite.n_held": 50,
    "suite.width": 10,
    "suite.height": 10,
    "suite.density": 0.15,
    "suite.cell_size": 1.0,
    "suite.goal_radius": 3.0,
    "suite.min_episode_length": 6.0,
    "suite.max_run": 8,
    "suite.held_per_world": 10,
}

# (key, predicate, requirement) for values the run cannot use; the
# suite.* extents are checked by the suite itself.
_RANGES = (
    ("trainer.pretrain_episodes", lambda v: v >= 0, ">= 0"),
    ("trainer.train_episodes", lambda v: v >= 0, ">= 0"),
    ("trainer.eval_every", lambda v: v >= 1, ">= 1"),
    ("trainer.eval_episodes", lambda v: v >= 0, ">= 0 (0 = all)"),
    ("policy.obs_k", lambda v: v > 0 and v % 2 == 1, "odd and positive"),
    ("policy.history_k", lambda v: v >= 1, ">= 1"),
    ("policy.temperature", lambda v: v > 0.0, "positive"),
    ("grpo.group_size", lambda v: v >= 2, ">= 2"),
)


def _convert(key: str, raw: str):
    default = DEFAULTS[key]
    raw = raw.strip()
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    except ValueError as e:
        raise ConfigError(f"bad value for {key}: {e}") from e


def parse_config_text(text: str) -> dict:
    """Explicit overrides only; callers merge with DEFAULTS."""
    overrides = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in overrides:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        overrides[key] = _convert(key, raw)
    return overrides


def resolved_values(overrides: dict) -> dict:
    values = dict(DEFAULTS)
    values.update(overrides)
    return values


def _section(values: dict, prefix: str) -> dict:
    plen = len(prefix) + 1
    return {k[plen:]: v for k, v in values.items() if k.startswith(prefix + ".")}


def read_suite_file(path: Path) -> Suite:
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read suite file {path}: {e}") from e
    return parse_suite(text)


def build_suite(values: dict, base_dir: Path | None = None) -> Suite:
    path_s = values["suite.file"]
    if path_s:
        path = Path(path_s)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        return read_suite_file(path)
    s = _section(values, "suite")
    del s["file"]
    return generate_suite(**s)


def build_train_config(values: dict, base_dir: Path | None = None) -> TrainConfig:
    if values["trainer.variant"] not in VARIANTS:
        raise ConfigError(
            f"trainer.variant must be one of {VARIANTS}, got {values['trainer.variant']!r}"
        )
    for key, ok, requirement in _RANGES:
        if not ok(values[key]):
            raise ConfigError(f"{key} must be {requirement}, got {values[key]}")
    suite = build_suite(values, base_dir)
    policy = PolicyConfig(max_run=suite.max_run, **_section(values, "policy"))
    trainer = _section(values, "trainer")
    return TrainConfig(
        run_seed=trainer["run_seed"],
        variant=trainer["variant"],
        policy=policy,
        opt=OptHyper(**_section(values, "opt")),
        grpo=GrpoConfig(**_section(values, "grpo")),
        rect=RectConfig(**_section(values, "rect")),
        reward=RewardConfig(**_section(values, "reward")),
        rollout=RolloutConfig(**_section(values, "rollout")),
        suite=suite,
        pretrain_episodes=trainer["pretrain_episodes"],
        train_episodes=trainer["train_episodes"],
        eval_every=trainer["eval_every"],
        eval_episodes=trainer["eval_episodes"],
    )


def load_config(path) -> tuple:
    """Read a config file; returns (TrainConfig, resolved values, overrides)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    overrides = parse_config_text(text)
    values = resolved_values(overrides)
    cfg = build_train_config(values, base_dir=path.parent)
    return cfg, values, overrides


def _format_value(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def serialize_values(values: dict) -> str:
    """Canonical form: every key in DEFAULTS order."""
    lines = [f"{k}={_format_value(values[k])}" for k in DEFAULTS]
    return "\n".join(lines) + "\n"


def world_params_hash(suite: Suite) -> str:
    """Content hash of everything that determines world generation."""
    return hashlib.blake2b(serialize_suite(suite).encode(), digest_size=16).hexdigest()


def write_manifest(out_dir, values: dict, overrides: dict, suite: Suite, version: str) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [MANIFEST_MAGIC]
    lines.append(f"version={version}")
    lines.append(f"started_at={datetime.now(timezone.utc).isoformat()}")
    lines.append(f"out_dir={out}")
    lines.append(f"world_params_hash={world_params_hash(suite)}")
    for k in sorted(overrides):
        lines.append(f"override.{k}={_format_value(overrides[k])}")
    lines.extend(serialize_values(values).splitlines())
    path = out / "manifest.txt"
    path.write_text("\n".join(lines) + "\n")
    (out / "config.cfg").write_text(serialize_values(values))
    return path


def apply_cli_overrides(values: dict, seed: int | None = None, variant: str | None = None) -> dict:
    out = dict(values)
    if seed is not None:
        out["trainer.run_seed"] = seed
    if variant is not None:
        if variant not in VARIANTS:
            raise ConfigError(f"unknown variant {variant!r}")
        out["trainer.variant"] = variant
    return out
