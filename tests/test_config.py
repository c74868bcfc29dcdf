"""Config parsing, validation, and the run manifest."""
import hashlib
import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from budnav.config import (
    DEFAULTS,
    MANIFEST_MAGIC,
    blas_kernel,
    build_suite,
    build_train_config,
    load_config,
    parse_config_text,
    resolved_values,
    serialize_values,
    world_params_hash,
    write_manifest,
)
from budnav.errors import ConfigError, SuiteError
from budnav.suite import generate_suite, serialize_suite
from budnav.trainer import TrainConfig
from budnav.world import vocab_size

from test_cli import CKPT_EDIT, mutated

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_suite_text():
    return (
        "suite.n_train_worlds = 2\n"
        "suite.n_held = 2\n"
        "suite.width = 8\n"
        "suite.height = 8\n"
        "suite.density = 0.12\n"
        "suite.min_episode_length = 5.0\n"
    )


def small_values(overrides: dict) -> dict:
    return resolved_values({**parse_config_text(small_suite_text()), **overrides})


# ----------------------------------------------------------------- parsing

def test_parse_overrides_and_comments():
    text = (
        "# a comment\n"
        "\n"
        "trainer.variant = dagger  # trailing comment\n"
        "grpo.kl_beta=0.03\n"
        "trainer.eval_episodes = 7\n"
        "rect.alpha = 2\n"
    )
    overrides = parse_config_text(text)
    assert overrides == {
        "trainer.variant": "dagger",
        "grpo.kl_beta": 0.03,
        "trainer.eval_episodes": 7,
        "rect.alpha": 2.0,
    }
    assert isinstance(overrides["rect.alpha"], float)  # the default's type wins


def test_parse_error_messages_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("trainer.run_seed = 1\nnot a config line\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("trainer.bogus = 1\n")
    with pytest.raises(ConfigError, match="line 3.*duplicate"):
        parse_config_text("trainer.run_seed = 1\n\ntrainer.run_seed = 2\n")


def test_parse_type_errors():
    with pytest.raises(ConfigError, match="trainer.run_seed"):
        parse_config_text("trainer.run_seed = soon\n")
    with pytest.raises(ConfigError, match="grpo.kl_beta"):
        parse_config_text("grpo.kl_beta = wide\n")
    with pytest.raises(ConfigError, match="trainer.train_episodes"):
        parse_config_text("trainer.train_episodes = 1.5\n")


def test_resolved_values_cover_every_default():
    values = resolved_values({"trainer.run_seed": 7})
    assert set(values) == set(DEFAULTS)
    assert values["trainer.run_seed"] == 7
    assert values["grpo.group_size"] == 4


# Digest of the canonical text of the all-default values: the
# config.cfg of an empty config and the tail of its manifest.
DEFAULT_TEXT_DIGEST = "14ab678a2058c6b31cb62d74a1a2315b"


def test_canonical_default_text_is_pinned():
    text = serialize_values(resolved_values({}))
    assert hashlib.blake2b(text.encode(), digest_size=16).hexdigest() == DEFAULT_TEXT_DIGEST
    assert len(text.splitlines()) == len(DEFAULTS) == 46


def test_default_values_build_the_default_sections():
    cfg = build_train_config(resolved_values({}))
    assert replace(cfg, suite=None) == TrainConfig()  # every section and scalar
    assert cfg.suite == generate_suite("suite", 0, 8, 50)


def test_serialize_values_round_trips_through_parse():
    values = resolved_values({"opt.learning_rate": 0.001, "trainer.variant": "dagger"})
    text = serialize_values(values)
    assert parse_config_text(text) == values  # canonical text sets every key
    assert list(parse_config_text(text)) == list(DEFAULTS)  # in DEFAULTS order


# ------------------------------------------------------------ construction

def test_build_train_config_maps_sections():
    values = small_values(
        {
            "trainer.variant": "rect_only",
            "opt.learning_rate": 0.002,
            "grpo.group_size": 6,
            "rect.decay_gamma": 0.9,
            "rollout.stall_limit": 33,
            "policy.d_h": 32,
        }
    )
    cfg = build_train_config(values)
    assert cfg.variant == "rect_only"
    assert cfg.opt.learning_rate == 0.002
    assert cfg.grpo.group_size == 6
    assert cfg.rect.decay_gamma == 0.9
    assert cfg.rollout.stall_limit == 33
    assert cfg.policy.d_h == 32
    assert cfg.suite.width == 8


def test_build_train_config_rejects_unknown_variant():
    values = small_values({"trainer.variant": "sft"})
    with pytest.raises(ConfigError, match="variant"):
        build_train_config(values)


@pytest.mark.parametrize("temperature", [0.0, -0.4, float("nan"), float("inf")])
def test_build_train_config_rejects_nonpositive_temperature(temperature):
    values = small_values({"policy.temperature": temperature})
    with pytest.raises(ConfigError, match="policy.temperature"):
        build_train_config(values)


def test_nan_is_rejected_for_every_float_key():
    # NaN compares false to every bound, so no range check would see it.
    for key in (k for k, v in DEFAULTS.items() if isinstance(v, float)):
        with pytest.raises(ConfigError, match=re.escape(f"{key} must be a number, got nan")):
            build_train_config(small_values({key: float("nan")}))


@pytest.mark.parametrize("key", ["opt.beta1", "opt.beta2"])
def test_adamw_betas_lie_in_the_unit_interval(key):
    # At 1.0 AdamW's bias correction divides by 1 - beta^t = 0.
    for value in (1.0, 1.5, -0.1):
        with pytest.raises(ConfigError, match=re.escape(f"{key} must be in [0, 1), got {value}")):
            build_train_config(small_values({key: value}))
    assert getattr(build_train_config(small_values({key: 0.0})).opt, key[4:]) == 0.0


def test_build_train_config_rejects_negative_eval_episodes():
    values = small_values({"trainer.eval_episodes": -1})
    with pytest.raises(ConfigError, match="trainer.eval_episodes must be >= 0"):
        build_train_config(values)


# One valid value other than the small-suite base for every key.
OTHER_VALUES = {
    "trainer.run_seed": 1,
    "trainer.variant": "bc",
    "trainer.pretrain_episodes": 30,
    "trainer.train_episodes": 40,
    "trainer.eval_every": 20,
    "trainer.eval_episodes": 3,
    "opt.learning_rate": 1e-3,
    "opt.beta1": 0.8,
    "opt.beta2": 0.99,
    "opt.eps": 1e-6,
    "opt.weight_decay": 0.02,
    "policy.obs_k": 3,
    "policy.d_e": 8,
    "policy.d_o": 8,
    "policy.d_a": 4,
    "policy.d_h": 32,
    "policy.history_k": 4,
    "policy.temperature": 0.7,
    "grpo.group_size": 6,
    "grpo.kl_beta": 0.02,
    "grpo.adv_epsilon": 1e-6,
    "rect.decay_gamma": 0.9,
    "rect.alpha": 0.5,
    "reward.c_succ": 1.0,
    "reward.spl_weight": 0.5,
    "reward.c_dist": 0.2,
    "rollout.stall_limit": 40,
    "rollout.grace_period": 5,
    "rollout.max_steps_factor": 3,
    "rollout.max_steps_floor": 40,
    "rollout.offtrack_dist_m": 2.0,
    "rollout.offtrack_heading_deg": 90.0,
    "rollout.visit_radius_m": 0.8,
    "suite.name": "other",
    "suite.seed": 1,
    "suite.n_train_worlds": 3,
    "suite.n_held": 3,
    "suite.width": 9,
    "suite.height": 9,
    "suite.density": 0.1,
    "suite.cell_size": 2.0,
    "suite.goal_radius": 2.0,
    "suite.min_episode_length": 4.0,
    "suite.max_run": 6,
    "suite.held_per_world": 1,
}


def test_every_key_reaches_the_train_config():
    # A key that no code reads would leave its section unchanged.
    assert set(OTHER_VALUES) == set(DEFAULTS) - {"suite.file"}
    base_values = small_values({})
    base = build_train_config(base_values)
    for key, value in OTHER_VALUES.items():
        assert value != base_values[key], key
        cfg = build_train_config({**base_values, key: value})
        section, name = key.split(".")
        if section == "trainer":
            section = name
        assert getattr(cfg, section) != getattr(base, section), key


def test_vocabulary_follows_the_suite(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(small_suite_text() + "suite.max_run = 6\n")
    cfg, _, _ = load_config(cfg_path)
    assert cfg.policy.max_run == cfg.suite.max_run == 6
    assert cfg.policy.vocab == 9
    # A suite read from a file sets the vocabulary the same way.
    (tmp_path / "worlds.suite").write_text(serialize_suite(cfg.suite))
    cfg_path.write_text("suite.file = worlds.suite\n")
    cfg, _, _ = load_config(cfg_path)
    assert cfg.policy.vocab == 9


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_shipped_configs_load(name):
    cfg, _, _ = load_config(CONFIGS / name)
    assert cfg.policy.vocab == vocab_size(cfg.suite.max_run)


def test_suite_file_resolved_relative_to_config(tmp_path):
    suite = generate_suite("disk", seed=3, n_train_worlds=2, n_held=2,
                           width=8, height=8, density=0.12, min_episode_length=5.0)
    (tmp_path / "worlds.suite").write_text(serialize_suite(suite))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("suite.file = worlds.suite\n")
    cfg, values, overrides = load_config(cfg_path)
    assert cfg.suite == suite
    assert overrides == {"suite.file": "worlds.suite"}


def test_missing_files_raise_config_error(tmp_path):
    with pytest.raises(ConfigError, match="config file"):
        load_config(tmp_path / "absent.cfg")
    values = resolved_values({"suite.file": "nowhere.suite"})
    with pytest.raises(ConfigError, match="suite file"):
        build_suite(values, base_dir=tmp_path)


@pytest.fixture(scope="module")
def config_corpus(tmp_path_factory):
    """The bytes of configs/desk_full.cfg, where each of its lines
    starts, and a path beside a copy of desk.suite to write edited
    copies to."""
    data = (CONFIGS / "desk_full.cfg").read_bytes()
    starts = [0] + [m.end() for m in re.finditer(rb"\n(?=.)", data)]
    root = tmp_path_factory.mktemp("cfgfuzz")
    (root / "desk.suite").write_bytes((CONFIGS / "desk.suite").read_bytes())
    return data, starts, root / "mutated.cfg"


def test_config_corpus_loads(config_corpus):
    original, starts, path = config_corpus
    assert len(starts) >= 5
    path.write_bytes(original)
    assert load_config(path)[0].variant == "full"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(edits=st.lists(CKPT_EDIT, min_size=1, max_size=4))
def test_mutated_configs_load_or_raise_config_or_suite_errors(config_corpus, edits):
    # Byte edits anywhere in desk_full.cfg or near a line's start.
    original, starts, path = config_corpus
    path.write_bytes(mutated(original, starts, edits))
    try:
        load_config(path)
    except (ConfigError, SuiteError):
        pass


def test_generated_suite_honours_section(tmp_path):
    values = small_values({})
    suite = build_suite(values)
    assert suite.width == 8 and suite.density == 0.12
    assert len(suite.train_world_seeds) == 2
    assert len(suite.held_pairs) == 2


def test_load_config_merges_extra_overrides(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(small_suite_text() + "trainer.run_seed = 4\n")
    extra = {"trainer.run_seed": 11, "trainer.variant": "bc"}
    cfg, values, overrides = load_config(cfg_path, extra)
    assert (cfg.run_seed, cfg.variant) == (11, "bc")
    assert values == resolved_values(overrides)
    assert overrides == {**parse_config_text(small_suite_text()), **extra}
    assert extra == {"trainer.run_seed": 11, "trainer.variant": "bc"}  # untouched
    with pytest.raises(ConfigError, match="trainer.variant"):
        load_config(cfg_path, {"trainer.variant": "mystery"})


# ---------------------------------------------------------------- manifest

def test_world_params_hash_tracks_generation_inputs():
    a = generate_suite("h", seed=3, n_train_worlds=2, n_held=2, width=8, height=8,
                       density=0.12, min_episode_length=5.0)
    b = generate_suite("h", seed=4, n_train_worlds=2, n_held=2, width=8, height=8,
                       density=0.12, min_episode_length=5.0)
    assert world_params_hash(a) == world_params_hash(a)
    assert world_params_hash(a) != world_params_hash(b)
    assert len(world_params_hash(a)) == 32


def test_manifest_records_everything(tmp_path):
    suite = generate_suite("m", seed=3, n_train_worlds=2, n_held=2, width=8, height=8,
                           density=0.12, min_episode_length=5.0)
    overrides = {"trainer.run_seed": 5, "trainer.variant": "dagger"}
    values = resolved_values(overrides)
    path = write_manifest(tmp_path / "run", values, overrides, suite, version="0.1.0")
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == MANIFEST_MAGIC
    assert lines[1] == "version=0.1.0"
    assert lines[2].startswith("started_at=")
    assert lines[3] == f"out_dir={tmp_path / 'run'}"
    assert lines[4] == f"blas_kernel={blas_kernel()}" and blas_kernel()
    assert f"world_params_hash={world_params_hash(suite)}" in lines
    assert "override.trainer.run_seed=5" in lines
    assert "override.trainer.variant=dagger" in lines
    assert "trainer.variant=dagger" in lines
    for key in DEFAULTS:
        assert any(ln.startswith(f"{key}=") for ln in lines)
    saved = (path.parent / "config.cfg").read_text()
    assert parse_config_text(saved) == values
