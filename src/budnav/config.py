"""Flat key=value run configuration and the experiment manifest.

Config files are plain text, one dotted key per line:

    trainer.variant = full
    grpo.kl_beta = 0.01
    suite.file = desk.suite

Blank lines and '#' comments are ignored.  Every key has a default, and
each default lives once, on what the key builds: a field of a section
dataclass (TrainConfig, OptHyper, PolicyConfig, ...) or a parameter of
generate_suite.  DEFAULTS is derived from them through SECTIONS.  An
unknown key, an unparseable value or a value out of its range raises
ConfigError.  Types follow the default's type.  Command-line overrides
are merged into a file's keys by load_config, before its one build.

A run's manifest records the resolved value of every key, the explicit
overrides, the content hash of the world-generation parameters, the
tool version, and the OpenBLAS kernel (blas_kernel), so the run is
reproducible from the manifest alone.  The start timestamp is the only
non-deterministic line; the kernel line changes with the CPU.
"""
from __future__ import annotations

import ctypes
import hashlib
import inspect
import math
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .grpo import GrpoConfig, RewardConfig
from .policy import PolicyConfig
from .rectify import RectConfig
from .rollout import RolloutConfig
from .suite import Suite, generate_suite, parse_suite, serialize_suite
from .trainer import OptHyper, TrainConfig, VARIANTS

MANIFEST_MAGIC = "budnav-manifest v1"

# (key prefix, dataclass or function whose defaults the keys take), in
# the canonical serialization order.  Each key is a scalar field or
# parameter of its source, with the source's default; the default's type
# drives parsing.  The trainer.* keys are TrainConfig's scalar fields, and
# each other dataclass prefix names the TrainConfig field it builds.
SECTIONS = (
    ("trainer", TrainConfig),
    ("opt", OptHyper),
    ("policy", PolicyConfig),
    ("grpo", GrpoConfig),
    ("rect", RectConfig),
    ("reward", RewardConfig),
    ("rollout", RolloutConfig),
    ("suite", generate_suite),
)


def _derive_defaults() -> dict:
    defaults = {}
    for prefix, source in SECTIONS:
        if prefix == "suite":
            defaults["suite.file"] = ""  # empty: generate from the keys below
        for name, param in inspect.signature(source).parameters.items():
            key = f"{prefix}.{name}"
            # The suite fixes the instruction vocabulary, not a key of its own.
            if isinstance(param.default, (int, float, str)) and key != "policy.max_run":
                defaults[key] = param.default
    return defaults


DEFAULTS: dict = _derive_defaults()

# (key, predicate, requirement) for values the run cannot use; the
# suite.* extents are checked by the suite itself.
_RANGES = (
    ("trainer.pretrain_episodes", lambda v: v >= 0, ">= 0"),
    ("trainer.train_episodes", lambda v: v >= 0, ">= 0"),
    ("trainer.eval_every", lambda v: v >= 1, ">= 1"),
    ("trainer.eval_episodes", lambda v: v >= 0, ">= 0 (0 = all)"),
    ("policy.obs_k", lambda v: v > 0 and v % 2 == 1, "odd and positive"),
    ("policy.d_e", lambda v: v >= 1, ">= 1"),
    ("policy.d_o", lambda v: v >= 1, ">= 1"),
    ("policy.d_a", lambda v: v >= 1, ">= 1"),
    ("policy.d_h", lambda v: v >= 1, ">= 1"),
    ("policy.history_k", lambda v: v >= 1, ">= 1"),
    # The losses scale their gradients by 1 / temperature: inf trains nothing.
    ("policy.temperature", lambda v: 0.0 < v < math.inf, "positive and finite"),
    ("grpo.group_size", lambda v: v >= 2, ">= 2"),
    # AdamW's bias correction divides by 1 - beta^t.
    ("opt.beta1", lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    ("opt.beta2", lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
    # AdamW divides by sqrt(v_hat) + eps, which is 0 for a gradient never seen.
    ("opt.eps", lambda v: 0.0 < v < math.inf, "positive and finite"),
    # A floor of 0 lets the step cap end a probe before its first step.
    ("rollout.max_steps_floor", lambda v: v >= 1, ">= 1"),
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
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, or a NUL in the path
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
            f"trainer.variant must be one of {tuple(VARIANTS)}, got {values['trainer.variant']!r}"
        )
    for key, value in values.items():
        if value != value:  # NaN compares false to every bound
            raise ConfigError(f"{key} must be a number, got {value}")
    for key, ok, requirement in _RANGES:
        if not ok(values[key]):
            raise ConfigError(f"{key} must be {requirement}, got {values[key]}")
    suite = build_suite(values, base_dir)
    if not suite.train_world_seeds:
        raise ConfigError(f"suite {suite.name!r} has no training worlds to train on")
    if not suite.held_pairs:
        raise ConfigError(f"suite {suite.name!r} has no held-out episodes to evaluate on")
    values = {**values, "policy.max_run": suite.max_run}
    sections = {
        prefix: source(**_section(values, prefix))
        for prefix, source in SECTIONS
        if prefix not in ("trainer", "suite")
    }
    return TrainConfig(**_section(values, "trainer"), suite=suite, **sections)


def load_config(path, extra: dict | None = None) -> tuple:
    """Read a config file and merge `extra` (the command line's overrides)
    over its keys; returns (TrainConfig, resolved values, overrides)."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    overrides = {**parse_config_text(text), **(extra or {})}
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


def blas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS picked for this CPU, as its
    scipy_openblas_get_corename64_ reports it (for example "SkylakeX"),
    or "unknown" when that library or symbol is missing.  Each kernel sums
    float64 products in its own order, so the pinned digests hold only
    under the kernel they were recorded with."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def write_manifest(out_dir, values: dict, overrides: dict, suite: Suite, version: str) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [MANIFEST_MAGIC]
    lines.append(f"version={version}")
    lines.append(f"started_at={datetime.now(timezone.utc).isoformat()}")
    lines.append(f"out_dir={out}")
    lines.append(f"blas_kernel={blas_kernel()}")
    lines.append(f"world_params_hash={world_params_hash(suite)}")
    for k in sorted(overrides):
        lines.append(f"override.{k}={_format_value(overrides[k])}")
    lines.extend(serialize_values(values).splitlines())
    path = out / "manifest.txt"
    path.write_text("\n".join(lines) + "\n")
    (out / "config.cfg").write_text(serialize_values(values))
    return path
