"""Config parsing, validation, and the run manifest."""
import pytest

from budnav.config import (
    DEFAULTS,
    MANIFEST_MAGIC,
    apply_cli_overrides,
    build_suite,
    build_train_config,
    load_config,
    parse_config_text,
    resolved_values,
    serialize_values,
    world_params_hash,
    write_manifest,
)
from budnav.errors import ConfigError
from budnav.suite import generate_suite, serialize_suite


def small_suite_text():
    return (
        "suite.n_train_worlds = 2\n"
        "suite.n_held = 2\n"
        "suite.width = 8\n"
        "suite.height = 8\n"
        "suite.density = 0.12\n"
        "suite.min_episode_length = 5.0\n"
    )


# ----------------------------------------------------------------- parsing

def test_parse_overrides_and_comments():
    text = (
        "# a comment\n"
        "\n"
        "trainer.variant = dagger  # trailing comment\n"
        "grpo.clip_epsilon=0.3\n"
        "trainer.early_stop = true\n"
        "grpo.sample_std = 1\n"
    )
    overrides = parse_config_text(text)
    assert overrides == {
        "trainer.variant": "dagger",
        "grpo.clip_epsilon": 0.3,
        "trainer.early_stop": True,
        "grpo.sample_std": True,
    }


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
    with pytest.raises(ConfigError, match="boolean"):
        parse_config_text("trainer.early_stop = probably\n")


def test_resolved_values_cover_every_default():
    values = resolved_values({"trainer.run_seed": 7})
    assert set(values) == set(DEFAULTS)
    assert values["trainer.run_seed"] == 7
    assert values["grpo.group_size"] == 4


def test_serialize_values_round_trips_through_parse():
    values = resolved_values({"opt.learning_rate": 0.001, "trainer.early_stop": True})
    text = serialize_values(values)
    assert parse_config_text(text) == values  # canonical text sets every key
    assert list(parse_config_text(text)) == list(DEFAULTS)  # in DEFAULTS order


# ------------------------------------------------------------ construction

def test_build_train_config_maps_sections():
    values = resolved_values(
        {
            "trainer.variant": "rect_only",
            "opt.learning_rate": 0.002,
            "grpo.group_size": 6,
            "rect.decay_gamma": 0.9,
            "rollout.stall_limit": 33,
            "policy.d_h": 32,
        }
    )
    cfg = build_train_config(values, with_suite=False)
    assert cfg.variant == "rect_only"
    assert cfg.opt.learning_rate == 0.002
    assert cfg.grpo.group_size == 6
    assert cfg.rect.decay_gamma == 0.9
    assert cfg.rollout.stall_limit == 33
    assert cfg.policy.d_h == 32
    assert cfg.suite is None


def test_build_train_config_rejects_unknown_variant():
    values = resolved_values({"trainer.variant": "sft"})
    with pytest.raises(ConfigError, match="variant"):
        build_train_config(values, with_suite=False)


@pytest.mark.parametrize("temperature", [0.0, -0.4, float("nan")])
def test_build_train_config_rejects_nonpositive_temperature(temperature):
    values = resolved_values({"policy.temperature": temperature})
    with pytest.raises(ConfigError, match="policy.temperature"):
        build_train_config(values, with_suite=False)


def test_build_train_config_rejects_negative_eval_episodes():
    values = resolved_values({"trainer.eval_episodes": -1})
    with pytest.raises(ConfigError, match="trainer.eval_episodes must be >= 0"):
        build_train_config(values, with_suite=False)


def test_vocabulary_mismatch_is_rejected(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(small_suite_text() + "suite.max_run = 6\n")
    with pytest.raises(ConfigError, match="max_run"):
        load_config(cfg_path)
    # Changing both sides together resolves it.
    cfg_path.write_text(small_suite_text() + "suite.max_run = 6\npolicy.max_run = 6\n")
    cfg, _, _ = load_config(cfg_path)
    assert cfg.policy.max_run == cfg.suite.max_run == 6


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


def test_generated_suite_honours_section(tmp_path):
    values = resolved_values(parse_config_text(small_suite_text()))
    suite = build_suite(values)
    assert suite.width == 8 and suite.density == 0.12
    assert len(suite.train_world_seeds) == 2
    assert len(suite.held_pairs) == 2


def test_apply_cli_overrides():
    values = resolved_values({})
    out = apply_cli_overrides(values, seed=11, variant="bc")
    assert out["trainer.run_seed"] == 11
    assert out["trainer.variant"] == "bc"
    assert values["trainer.run_seed"] == 0  # original untouched
    with pytest.raises(ConfigError):
        apply_cli_overrides(values, variant="mystery")


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
    assert f"world_params_hash={world_params_hash(suite)}" in lines
    assert "override.trainer.run_seed=5" in lines
    assert "override.trainer.variant=dagger" in lines
    assert "trainer.variant=dagger" in lines
    for key in DEFAULTS:
        assert any(ln.startswith(f"{key}=") for ln in lines)
    saved = (path.parent / "config.cfg").read_text()
    assert parse_config_text(saved) == values
