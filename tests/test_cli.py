"""End-to-end command-line behaviour, including exit codes."""
import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import budnav
import budnav.cli
from budnav.cli import main, render_map
from budnav.errors import CheckpointError, TraceError, Unreachable
from budnav.policy import PolicyConfig, init_params, load_checkpoint, save_checkpoint, snapshot
from budnav.rectify import synthesize_demo
from budnav.rollout import parse_trace, run_sampled, serialize_trace, verify_trace
from budnav.suite import generate_suite, parse_suite, serialize_suite
from budnav.world import Action

from test_rollout import corridor_episode, run_script

F, L, R, S = Action.FORWARD, Action.TURN_LEFT, Action.TURN_RIGHT, Action.STOP

FAST_CFG = """\
suite.n_train_worlds = 2
suite.n_held = 4
suite.width = 8
suite.height = 8
suite.density = 0.12
suite.min_episode_length = 5.0
suite.held_per_world = 2
trainer.pretrain_episodes = 20
trainer.train_episodes = 10
trainer.eval_every = 5
"""


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    """One CLI training run shared by the read-only assertions."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "fast.cfg"
    cfg.write_text(FAST_CFG)
    out = root / "run"
    code = main(["train", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    return cfg, out


def test_train_writes_all_artifacts(train_run, capsys):
    _, out = train_run
    for rel in (
        "manifest.txt", "config.cfg", "suite.suite", "metrics.csv",
        "checkpoints/pretrain.ckpt", "checkpoints/final.ckpt",
    ):
        assert (out / rel).exists(), rel
    assert len(list((out / "traces").glob("*.trace"))) == 3
    csv = (out / "metrics.csv").read_text().splitlines()
    assert csv[0] == "step,n,sr,spl,osr,ne,ndtw,route_grpo_frac,env_steps_total"
    assert [int(r.split(",")[0]) for r in csv[1:]] == [0, 5, 10]


def test_train_reruns_are_byte_identical(train_run, tmp_path):
    cfg, out = train_run
    out2 = tmp_path / "again"
    assert main(["train", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out / "checkpoints" / "final.ckpt").read_bytes() == (
        out2 / "checkpoints" / "final.ckpt"
    ).read_bytes()
    assert (out / "suite.suite").read_bytes() == (out2 / "suite.suite").read_bytes()


def test_train_cli_overrides_reach_the_manifest(train_run, tmp_path):
    cfg, _ = train_run
    out = tmp_path / "bc"
    code = main(["train", "--config", str(cfg), "--out", str(out), "--algo", "bc", "--seed", "7"])
    assert code == 0
    manifest = (out / "manifest.txt").read_text()
    assert "override.trainer.variant=bc" in manifest
    assert "override.trainer.run_seed=7" in manifest
    assert "trainer.variant=bc" in manifest
    # BC never touches the environment during training.
    csv_last = (out / "metrics.csv").read_text().splitlines()[-1]
    assert csv_last.split(",")[-1] == "0"
    assert csv_last.split(",")[-2] == "0.000"


def test_train_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("trainer.mystery = 1\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["train", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path / "o")]) == 2
    train_only = tmp_path / "train_only.suite"
    desk = (Path(__file__).resolve().parent.parent / "configs" / "desk.suite").read_text()
    # A config or suite file that is not UTF-8 cannot be read: no traceback.
    cfg.write_bytes(b"trainer.run_seed = 1\n\xff\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "cannot read config file" in capsys.readouterr().err
    not_utf8 = tmp_path / "not_utf8.suite"
    not_utf8.write_bytes(desk.encode() + b"\xff\n")
    cfg.write_text(f"suite.file = {not_utf8}\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "cannot read suite file" in capsys.readouterr().err
    ckpt = tmp_path / "init.ckpt"
    save_checkpoint(ckpt, init_params(PolicyConfig(), 0))
    assert main(["eval", "--ckpt", str(ckpt), "--suite", str(not_utf8)]) == 2
    assert "cannot read suite file" in capsys.readouterr().err
    train_only.write_text("".join(ln for ln in desk.splitlines(True) if not ln.startswith("held ")))
    # Values out of range exit the same way before any training starts,
    # rather than in a traceback mid-run or an empty run that exits 0.
    for key, value, message in [
        ("policy.temperature", "0", "policy.temperature must be positive"),
        ("suite.width", "100", "world extent out of range"),
        ("trainer.eval_every", "0", "trainer.eval_every must be >= 1"),
        ("grpo.group_size", "1", "grpo.group_size must be >= 2"),
        ("policy.history_k", "0", "policy.history_k must be >= 1"),
        ("policy.obs_k", "4", "policy.obs_k must be odd and positive"),
        ("policy.obs_k", "-1", "policy.obs_k must be odd and positive"),
        ("trainer.train_episodes", "-1", "trainer.train_episodes must be >= 0"),
        ("trainer.pretrain_episodes", "-1", "trainer.pretrain_episodes must be >= 0"),
        ("trainer.early_stop", "true", "unknown key"),  # a removed key is unknown
        ("grpo.clip_epsilon", "0.2", "unknown key"),
        ("policy.max_run", "8", "unknown key"),
        ("rect.visit_radius_m", "0.5", "unknown key"),
        ("policy.d_e", "0", "policy.d_e must be >= 1"),
        ("policy.d_o", "0", "policy.d_o must be >= 1"),
        ("policy.d_a", "-1", "policy.d_a must be >= 1"),
        ("policy.d_h", "0", "policy.d_h must be >= 1"),
        ("suite.held_per_world", "0", "held_per_world >= 1"),  # hung drawing worlds
        ("suite.n_held", "-1", "n_held >= 0"),
        ("suite.n_train_worlds", "-1", "n_train_worlds >= 0"),
        ("suite.n_train_worlds", "0", "no training worlds"),
        ("suite.goal_radius", "-1.0", "goal_radius must be > 0"),
        ("suite.goal_radius", "0.0", "goal_radius must be > 0"),  # nDTW divided by zero
        ("suite.n_held", "0", "no held-out episodes"),  # trained, then reported SR 0.0
        ("suite.file", str(train_only), "no held-out episodes"),
        ("suite.file", "desk\0.suite", "cannot read suite file"),  # was a ValueError traceback
        ("rollout.visit_radius_m", "nan", "must be a number, got nan"),  # trained silently
        ("opt.beta2", "1.0", "opt.beta2 must be in [0, 1)"),  # AdamW divided by zero
    ]:
        kept = [ln for ln in FAST_CFG.splitlines() if not ln.startswith(f"{key} =")]
        cfg.write_text("\n".join(kept) + f"\n{key} = {value}\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_train_divergence_exits_3(tmp_path, capsys):
    cfg = tmp_path / "explode.cfg"
    cfg.write_text(FAST_CFG + "opt.learning_rate = 1e300\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    assert "diverged" in capsys.readouterr().err


def test_eval_text_json_and_artifacts(train_run, tmp_path, capsys):
    _, out = train_run
    ckpt = str(out / "checkpoints" / "final.ckpt")
    suite = str(out / "suite.suite")
    assert main(["eval", "--ckpt", ckpt, "--suite", suite]) == 0
    text = capsys.readouterr().out
    assert "n=4" in text and "SR=" in text

    assert main(["eval", "--ckpt", ckpt, "--suite", suite, "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["n"] == 4
    assert f"SR={blob['sr']:.1f}" in text  # same numbers both ways

    eval_out = tmp_path / "eval"
    assert main(["eval", "--ckpt", ckpt, "--suite", suite, "--limit", "2",
                 "--out", str(eval_out)]) == 0
    assert "n=2" in capsys.readouterr().out
    assert (eval_out / "metrics.csv").exists()
    assert list((eval_out / "traces").glob("*.trace"))


def test_eval_checkpoint_errors(train_run, tmp_path, capsys):
    _, out = train_run
    suite = str(out / "suite.suite")
    missing = str(tmp_path / "none.ckpt")
    assert main(["eval", "--ckpt", missing, "--suite", suite]) == 2
    corrupt = tmp_path / "bad.ckpt"
    corrupt.write_bytes(b"not a checkpoint at all\n")
    assert main(["eval", "--ckpt", str(corrupt), "--suite", suite]) == 4
    assert "error:" in capsys.readouterr().err


def test_eval_missing_suite_exits_2(train_run, tmp_path, capsys):
    _, out = train_run
    missing = tmp_path / "none.suite"
    assert main(["eval", "--ckpt", str(out / "checkpoints" / "final.ckpt"),
                 "--suite", str(missing)]) == 2
    assert f"error: cannot read suite file {missing}: " in capsys.readouterr().err


def test_eval_rejects_a_suite_with_another_vocabulary(train_run, tmp_path, capsys):
    # The checkpoint's vocabulary has max_run = 8.  Against a smaller one
    # every token id would name another action; against a larger one the
    # suite's tokens fall outside the policy's vocabulary.
    _, out = train_run
    ckpt = str(out / "checkpoints" / "final.ckpt")
    for max_run in ("6", "12"):
        suite = str(tmp_path / f"run{max_run}.suite")
        assert main([
            "gen-suite", "--name", "v", "--seed", "4", "--train-worlds", "1", "--held", "2",
            "--width", "8", "--height", "8", "--density", "0.12", "--min-length", "5.0",
            "--max-run", max_run, "--out", suite,
        ]) == 0
        capsys.readouterr()
        assert main(["eval", "--ckpt", ckpt, "--suite", suite]) == 2
        err = capsys.readouterr().err
        assert f"checkpoint max_run (8) does not match suite max_run ({max_run})" in err


def eval_outcome(ckpt, suite, *flags):
    """(exit code, stderr) of `budnav eval` on ckpt and suite with the
    extra flags; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", "--ckpt", str(ckpt), "--suite", str(suite), *flags])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def checkpoint_corpus(train_run, tmp_path_factory):
    """A real checkpoint's bytes, where each of its text records (magic,
    header lines, block headers, checksum) starts, and a path to write
    edited copies to."""
    _, out = train_run
    ckpt = out / "checkpoints" / "final.ckpt"
    data = ckpt.read_bytes()
    records = [0] + [
        m.end() for m in re.finditer(rb"\n(?=config |params |blocks |block |checksum )", data)
    ]
    assert len(records) == 5 + len(load_checkpoint(ckpt).blocks())
    return data, records, tmp_path_factory.mktemp("fuzz") / "mutated.ckpt"


CKPT_EDIT = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]),
    st.booleans(),  # anywhere in the file, or near the start of a text record
    st.integers(0, 1 << 20),
    st.integers(-4, 40),
    st.integers(0, 255),
)


def mutated(original: bytes, records: list, edits) -> bytes:
    """original with each CKPT_EDIT applied in turn: a byte replaced,
    inserted or deleted anywhere, or near where one of the records
    starts."""
    data = bytearray(original)
    for kind, anywhere, at, offset, byte in edits:
        if anywhere:
            i = at % (len(data) + 1)
        else:
            i = min(max(records[at % len(records)] + offset, 0), len(data))
        if kind == "insert":
            data.insert(i, byte)
        elif i < len(data):
            if kind == "replace":
                data[i] = byte
            else:
                del data[i]
    return bytes(data)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edits=st.lists(CKPT_EDIT, min_size=1, max_size=4))
def test_mutated_checkpoints_raise_only_checkpoint_errors(train_run, checkpoint_corpus, edits):
    # Byte edits in a real checkpoint: loading it either succeeds or
    # raises CheckpointError, and `budnav eval --ckpt` exits 0 or 4 with
    # one error line, never with a traceback.
    _, out = train_run
    original, records, path = checkpoint_corpus
    path.write_bytes(mutated(original, records, edits))
    want = 0
    try:
        load_checkpoint(path)
    except CheckpointError:
        want = 4
    code, err = eval_outcome(path, out / "suite.suite")
    assert code == want
    if code == 4:
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def suite_corpus(tmp_path_factory):
    """The bytes of configs/desk.suite, where each of its lines up to
    the third held pair starts (all that `budnav eval --limit 3` turns
    into episodes), and a path to write edited copies to."""
    data = (Path(__file__).resolve().parent.parent / "configs" / "desk.suite").read_bytes()
    starts = [0] + [m.end() for m in re.finditer(rb"\n(?=.)", data)]
    third_held = [i for i in starts if data.startswith(b"held ", i)][2]
    return data, [i for i in starts if i <= third_held], tmp_path_factory.mktemp("fuzz") / "mutated.suite"


def test_suite_corpus_evaluates(train_run, suite_corpus):
    _, out = train_run
    original, records, path = suite_corpus
    assert len(records) >= 15
    path.write_bytes(original)
    assert eval_outcome(out / "checkpoints" / "final.ckpt", path, "--limit", "3") == (0, "")


@pytest.mark.filterwarnings("error")
def test_eval_rejects_a_cell_size_that_overflows_distances(train_run, suite_corpus):
    # At 1e308 m per cell the distances overflowed to inf: NE=inf, exit 0.
    _, out = train_run
    original, _, path = suite_corpus
    ckpt = out / "checkpoints" / "final.ckpt"
    world = b"world 10 10 0.15 1.0\n"
    assert world in original
    path.write_bytes(original.replace(world, b"world 10 10 0.15 1e308\n"))
    code, err = eval_outcome(ckpt, path, "--limit", "3")
    assert code == 2 and "cell_size out of range (0, 1e+06]: 1e+308" in err
    # The largest cell allowed evaluates without an overflow warning.
    path.write_bytes(original.replace(world, b"world 10 10 0.15 1e6\n"))
    assert eval_outcome(ckpt, path, "--limit", "3") == (0, "")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(edits=st.lists(CKPT_EDIT, min_size=1, max_size=4))
def test_mutated_suites_exit_0_or_2(train_run, suite_corpus, edits):
    # Byte edits in desk.suite, whose vocabulary (max_run 8) is the
    # checkpoint's: `budnav eval --limit 3` on it exits 0, or 2 with one
    # error line, never with a traceback.
    _, out = train_run
    original, records, path = suite_corpus
    path.write_bytes(mutated(original, records, edits))
    code, err = eval_outcome(out / "checkpoints" / "final.ckpt", path, "--limit", "3")
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("arch", [{"obs_k": 4}, {"history_k": 0}])
def test_eval_checkpoint_no_config_could_build_exits_4(train_run, tmp_path, capsys, arch):
    from budnav.policy import PolicyConfig, init_params, save_checkpoint

    _, out = train_run
    ckpt = tmp_path / "arch.ckpt"
    save_checkpoint(ckpt, init_params(PolicyConfig(**arch), 0))
    suite = str(out / "suite.suite")
    assert main(["eval", "--ckpt", str(ckpt), "--suite", suite, "--limit", "3"]) == 4
    assert "no policy has this architecture" in capsys.readouterr().err


def test_eval_non_numeric_checkpoint_field_exits_4(train_run, tmp_path, capsys):
    _, out = train_run
    raw = (out / "checkpoints" / "final.ckpt").read_bytes()
    bad = tmp_path / "blocks.ckpt"
    bad.write_bytes(raw.replace(b"\nblocks 7\n", b"\nblocks x\n", 1))
    assert main(["eval", "--ckpt", str(bad), "--suite", str(out / "suite.suite")]) == 4
    assert "non-numeric block count" in capsys.readouterr().err


MALFORMED_SUITE = "budnav-suite v1\nname bad\nworld 8 8 0.12 1.0\nheld 5\n"


def test_malformed_suite_exits_2(train_run, tmp_path, capsys):
    _, out = train_run
    ckpt = str(out / "checkpoints" / "final.ckpt")
    bad = tmp_path / "bad.suite"
    bad.write_text(MALFORMED_SUITE)
    assert main(["eval", "--ckpt", ckpt, "--suite", str(bad)]) == 2
    assert "malformed suite line" in capsys.readouterr().err
    # Extents a grid cannot have are rejected the same way.
    wide = tmp_path / "wide.suite"
    wide.write_text((out / "suite.suite").read_text().replace("world 8 8", "world 80 8"))
    assert main(["eval", "--ckpt", ckpt, "--suite", str(wide)]) == 2
    assert "world extent out of range" in capsys.readouterr().err
    # The same suite reached through a config's suite.file.
    cfg = tmp_path / "uses_bad_suite.cfg"
    cfg.write_text("suite.file = bad.suite\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "malformed suite line" in capsys.readouterr().err
    # A held pair whose episode cannot be generated is named.
    long = tmp_path / "long.suite"
    long.write_text(re.sub(r"(?m)^episode .*$", "episode 3.0 600.0 8", (out / "suite.suite").read_text()))
    assert main(["eval", "--ckpt", ckpt, "--suite", str(long), "--limit", "1"]) == 2
    assert "held pair" in capsys.readouterr().err


def test_replay_verifies_and_draws(train_run, capsys):
    _, out = train_run
    trace = sorted((out / "traces").glob("*.trace"))[0]
    assert main(["replay", "--trace", str(trace)]) == 0
    printed = capsys.readouterr().out
    assert "trace verified:" in printed
    assert "S start" in printed and "G goal" in printed
    map_rows = printed.splitlines()[1:-1]
    assert any("S" in row for row in map_rows)
    assert any("G" in row for row in map_rows)


def test_replay_tampered_trace_exits_5(tmp_path, capsys):
    ep = corridor_episode()
    traj = run_script(ep, [F, F, L, F, S], triggers=False)
    text = serialize_trace(traj, ep)
    tampered = text.replace("step 2 2 0 E", "step 2 3 0 E")
    assert tampered != text
    path = tmp_path / "bad.trace"
    path.write_text(tampered)
    assert main(["replay", "--trace", str(path)]) == 5
    assert "divergence" in capsys.readouterr().err
    assert main(["replay", "--trace", str(tmp_path / "none.trace")]) == 5
    garbage = tmp_path / "garbage.trace"
    garbage.write_text("hello\n")
    assert main(["replay", "--trace", str(garbage)]) == 5


def test_replay_greedy_trace_with_edited_logits_exits_5(train_run, tmp_path, capsys):
    # Step 0's logits now argmax to another action than the recorded one;
    # the poses still replay.
    _, out = train_run
    lines = sorted((out / "traces").glob("*.trace"))[0].read_text().splitlines()
    assert lines[1].startswith("mode greedy ")
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("step 0 "))
    parts = lines[idx].split()
    edited = (int(parts[5]) + 2) % 4
    parts[6 + edited] = repr(max(float(v) for v in parts[6:10]) + 1.0)
    lines[idx] = " ".join(parts)
    path = tmp_path / "logits.trace"
    path.write_text("\n".join(lines) + "\n")
    assert main(["replay", "--trace", str(path)]) == 5
    assert f"divergence at step 0: action {int(parts[5])}, logits argmax {edited}" in (
        capsys.readouterr().err
    )


def test_replay_trace_without_episode_width_exits_5(tmp_path, capsys):
    ep = corridor_episode()
    text = serialize_trace(run_script(ep, [F, F, S], triggers=False), ep)
    assert " width=12 " in text
    path = tmp_path / "no_width.trace"
    path.write_text(text.replace(" width=12", "", 1))
    assert main(["replay", "--trace", str(path)]) == 5
    assert "episode header lacks 'width'" in capsys.readouterr().err


def replay_outcome(path):
    """(exit code, stderr) of `budnav replay` on path; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["replay", "--trace", str(path)])
    return code, err.getvalue()


def sampled_trace_lines():
    ep = corridor_episode()
    snap = snapshot(init_params(PolicyConfig(), 0))
    traj = run_sampled(snap, ep, 1.0, 7, triggers=False)
    assert len(traj.steps) >= 2
    return serialize_trace(traj, ep).splitlines()


@pytest.mark.parametrize("case", ["stream", "final", "action"])
def test_replay_malformed_field_exits_5_with_one_error_line(tmp_path, case):
    # A non-numeric stream id, a non-numeric final field, and a sampled
    # trace's step taking an action that does not exist.
    lines = sampled_trace_lines()
    if case == "stream":
        lines[1] = "mode greedy stream abc"
    elif case == "final":
        i = next(i for i, ln in enumerate(lines) if ln.startswith("final "))
        parts = lines[i].split()
        parts[4] = "yes"  # stopped
        lines[i] = " ".join(parts)
    else:
        assert lines[1].startswith("mode sampled ")
        i = next(i for i, ln in enumerate(lines) if ln.startswith("step 1 "))
        parts = lines[i].split()
        parts[5] = "33"
        lines[i] = " ".join(parts)
    path = tmp_path / "bad.trace"
    path.write_text("\n".join(lines) + "\n")
    code, err = replay_outcome(path)
    assert code == 5
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def trace_corpus(train_run):
    """Bytes of real traces: the training run's evaluation traces, a
    failed probe's trace with its rect record, and a sampled trace."""
    _, out = train_run
    corpus = [path.read_bytes() for path in sorted((out / "traces").glob("*.trace"))]
    ep = corridor_episode()
    probe = run_script(ep, [F, F, S])
    corpus.append(serialize_trace(probe, ep, synthesize_demo(probe, ep)).encode())
    corpus.append(("\n".join(sampled_trace_lines()) + "\n").encode())
    return corpus


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.trace"


def test_trace_corpus_replays(trace_corpus, fuzz_path):
    assert len(trace_corpus) == 5
    for data in trace_corpus:
        fuzz_path.write_bytes(data)
        assert replay_outcome(fuzz_path) == (0, "")


EDIT = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 1 << 20), st.integers(0, 255)
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(which=st.integers(0, 4), edits=st.lists(EDIT, min_size=1, max_size=6))
def test_mutated_traces_raise_only_trace_errors(trace_corpus, fuzz_path, which, edits):
    # Byte edits anywhere in a real trace: parsing, verifying and drawing
    # it either succeed or raise TraceError, and `budnav replay` exits 0
    # or 5 with one error line, never with a traceback.
    data = bytearray(trace_corpus[which])
    for kind, at, byte in edits:
        i = at % (len(data) + 1)
        if kind == "insert":
            data.insert(i, byte)
        elif i < len(data):
            if kind == "replace":
                data[i] = byte
            else:
                del data[i]
    fuzz_path.write_bytes(bytes(data))
    want = 0
    try:
        doc = parse_trace(bytes(data).decode())
        verify_trace(doc)
        render_map(doc)
    except (TraceError, UnicodeDecodeError):
        want = 5
    code, err = replay_outcome(fuzz_path)
    assert code == want
    if code == 5:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_render_map_marks_anchor_and_trigger():
    ep = corridor_episode()
    probe = run_script(ep, [F, F, S])
    demo = synthesize_demo(probe, ep)
    doc = parse_trace(serialize_trace(probe, ep, demo))
    art = render_map(doc)
    assert "A" in art and "X" in art and "S" in art and "G" in art
    assert "A anchor" in art


def test_gen_suite_round_trip(tmp_path, capsys):
    out = tmp_path / "w.suite"
    code = main([
        "gen-suite", "--name", "mini", "--seed", "4",
        "--train-worlds", "2", "--held", "3",
        "--width", "8", "--height", "8", "--density", "0.12",
        "--min-length", "5.0", "--out", str(out),
    ])
    assert code == 0
    assert "wrote suite 'mini'" in capsys.readouterr().out
    suite = parse_suite(out.read_text())
    assert suite.name == "mini"
    assert len(suite.train_world_seeds) == 2
    assert len(suite.held_pairs) == 3


def test_gen_suite_defaults_are_generate_suites(tmp_path):
    out = tmp_path / "d.suite"
    assert main(["gen-suite", "--name", "d", "--seed", "5", "--train-worlds", "2",
                 "--held", "3", "--out", str(out)]) == 0
    assert out.read_text() == serialize_suite(generate_suite("d", 5, 2, 3))


def test_train_on_a_suite_without_training_worlds_exits_2(train_run, tmp_path, capsys):
    held_only = tmp_path / "held.suite"
    assert main(["gen-suite", "--name", "h", "--seed", "1", "--train-worlds", "0",
                 "--held", "2", "--width", "8", "--height", "8", "--min-length", "5.0",
                 "--out", str(held_only)]) == 0
    capsys.readouterr()
    no_line = tmp_path / "noline.suite"
    desk = (Path(__file__).resolve().parent.parent / "configs" / "desk.suite").read_text()
    no_line.write_text("".join(ln for ln in desk.splitlines(True) if not ln.startswith("train-world")))
    for suite_file in (held_only, no_line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"suite.file = {suite_file.name}\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert "no training worlds" in capsys.readouterr().err
        assert not out.exists()
    # A held-only suite still evaluates.
    ckpt = train_run[1] / "checkpoints" / "final.ckpt"
    assert main(["eval", "--ckpt", str(ckpt), "--suite", str(held_only)]) == 0


def test_any_package_error_exits_1_without_a_traceback(tmp_path, capsys, monkeypatch):
    def fail(suite):
        raise Unreachable("no path")

    monkeypatch.setattr(budnav.cli, "serialize_suite", fail)
    assert main(["gen-suite", "--name", "x", "--seed", "0", "--train-worlds", "1",
                 "--held", "1", "--out", str(tmp_path / "x.suite")]) == 1
    assert capsys.readouterr().err == "error: no path\n"


def run_cli(*argv, cwd):
    """budnav in a child process, killed if it runs past a minute."""
    env = dict(os.environ, PYTHONPATH=str(Path(budnav.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "budnav.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )


def test_unreachable_min_length_exits_2_instead_of_hanging(tmp_path):
    got = run_cli(
        "gen-suite", "--name", "x", "--seed", "0", "--train-worlds", "1", "--held", "1",
        "--min-length", "600", "--out", "x.suite", cwd=tmp_path,
    )
    assert got.returncode == 2
    assert "no world with an episode of geodesic >= 600.0" in got.stderr
    assert not (tmp_path / "x.suite").exists()
    (tmp_path / "long.cfg").write_text("suite.min_episode_length = 600\n")
    got = run_cli("train", "--config", "long.cfg", "--out", "run", cwd=tmp_path)
    assert got.returncode == 2
    assert "no world with an episode" in got.stderr


@pytest.mark.parametrize("command", ["replay", "eval"])
def test_closed_stdout_exits_141_without_a_traceback(train_run, tmp_path, command):
    # The reader end of stdout is closed before the child writes a byte,
    # as `budnav ... | true` can leave it.
    _, out = train_run
    if command == "replay":
        argv = ["replay", "--trace", str(sorted((out / "traces").glob("*.trace"))[0])]
    else:
        argv = ["eval", "--ckpt", str(out / "checkpoints" / "final.ckpt"),
                "--suite", str(out / "suite.suite")]
    env = dict(os.environ, PYTHONPATH=str(Path(budnav.__file__).resolve().parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        got = subprocess.run(
            [sys.executable, "-m", "budnav.cli", *argv], cwd=tmp_path, env=env,
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert got.returncode == 141
    assert got.stderr == ""


def test_eval_out_that_is_a_file_exits_2_before_evaluating(train_run, tmp_path, capsys, monkeypatch):
    _, out = train_run
    import budnav.cli

    monkeypatch.setattr(budnav.cli, "evaluate", lambda *a, **k: pytest.fail("evaluated"))
    target = tmp_path / "a_file"
    target.write_text("keep me\n")
    code = main(["eval", "--ckpt", str(out / "checkpoints" / "final.ckpt"),
                 "--suite", str(out / "suite.suite"), "--out", str(target)])
    assert code == 2
    assert "--out" in capsys.readouterr().err
    assert target.read_text() == "keep me\n"


def test_train_out_under_a_file_exits_2_before_training(train_run, tmp_path, capsys, monkeypatch):
    cfg, _ = train_run
    import budnav.cli

    monkeypatch.setattr(budnav.cli, "train", lambda *a, **k: pytest.fail("trained"))
    parent = tmp_path / "a_file"
    parent.write_text("")
    assert main(["train", "--config", str(cfg), "--out", str(parent / "run")]) == 2
    assert "--out" in capsys.readouterr().err


def test_negative_eval_limits_exit_2(train_run, tmp_path, capsys):
    cfg, out = train_run
    ckpt = str(out / "checkpoints" / "final.ckpt")
    suite = str(out / "suite.suite")
    for limit in ("-1", "-3"):
        assert main(["eval", "--ckpt", ckpt, "--suite", suite, "--limit", limit]) == 2
        assert "limit must be >= 0" in capsys.readouterr().err
    bad = tmp_path / "neg.cfg"
    bad.write_text(cfg.read_text() + "trainer.eval_episodes = -1\n")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "trainer.eval_episodes must be >= 0" in capsys.readouterr().err


def test_compare_tabulates_and_flags_failures(train_run, tmp_path, capsys):
    cfg, _ = train_run
    bc_cfg = tmp_path / "fast_bc.cfg"
    bc_cfg.write_text(FAST_CFG + "trainer.variant = bc\n")
    out = tmp_path / "cmp"
    code = main(["compare", "--configs", str(cfg), str(bc_cfg),
                 "--seeds", "0", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "single seed: 0" in printed
    assert "fast" in printed and "fast_bc" in printed
    table = (out / "compare.txt").read_text().splitlines()
    assert table[0].split() == ["config", "seeds", "SR", "SPL", "OSR", "NE", "nDTW", "env-steps"]
    bc_row = next(ln for ln in table if ln.startswith("fast_bc"))
    assert bc_row.split()[-1] == "0"  # imitation uses no environment steps
    assert (out / "fast_seed0" / "metrics.csv").exists()
    assert (out / "fast_bc_seed0" / "metrics.csv").exists()


def test_compare_run_directory_matches_a_train_run_directory(train_run, tmp_path):
    # compare writes each run directory the way train does: the same
    # files, the same suite bytes and, for the same config and seed, the
    # same metrics.
    cfg, out = train_run
    cmp_out = tmp_path / "cmp"
    assert main(["compare", "--configs", str(cfg), "--seeds", "0", "--out", str(cmp_out)]) == 0
    run_dir = cmp_out / "fast_seed0"

    def files(root):
        return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())

    assert files(run_dir) == files(out)
    for rel in ("suite.suite", "metrics.csv"):
        assert (run_dir / rel).read_bytes() == (out / rel).read_bytes(), rel


def test_eval_looks_up_build_held_episodes_at_call_time(train_run, monkeypatch, capsys):
    # perfbench's tracer wraps suite.build_held_episodes; cmd_eval must
    # call whatever that name holds when it runs.
    import budnav.suite

    _, out = train_run
    calls = []
    real = budnav.suite.build_held_episodes
    monkeypatch.setattr(
        budnav.suite, "build_held_episodes", lambda *args: calls.append(args) or real(*args)
    )
    assert main(["eval", "--ckpt", str(out / "checkpoints" / "final.ckpt"),
                 "--suite", str(out / "suite.suite"), "--limit", "1"]) == 0
    assert len(calls) == 1


def test_compare_reports_partial_failure(train_run, tmp_path, capsys):
    # A valid config whose training diverges fails per run: the other
    # config is still tabulated and the exit code is 1.
    cfg, _ = train_run
    broken = tmp_path / "broken.cfg"
    broken.write_text(FAST_CFG + "opt.learning_rate = 1e300\n")
    out = tmp_path / "cmp2"
    with np.errstate(all="ignore"):
        code = main(["compare", "--configs", str(cfg), str(broken),
                     "--seeds", "0", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "warning: broken seed 0 failed: loss diverged" in captured.err
    assert "(all runs failed)" in captured.out
    assert (out / "fast_seed0" / "metrics.csv").exists()


def test_compare_builds_each_generated_suite_once(tmp_path, monkeypatch):
    import budnav.config

    calls = []
    real = budnav.config.generate_suite
    monkeypatch.setattr(
        budnav.config, "generate_suite", lambda **kw: calls.append(kw) or real(**kw)
    )
    cfg = tmp_path / "tiny.cfg"
    suite_lines = [ln for ln in FAST_CFG.splitlines() if ln.startswith("suite.")]
    cfg.write_text("\n".join(suite_lines + [
        "trainer.pretrain_episodes = 0", "trainer.train_episodes = 0", "trainer.eval_episodes = 1",
    ]) + "\n")
    code = main(["compare", "--configs", str(cfg), "--seeds", "0", "1", "2",
                 "--out", str(tmp_path / "cmp")])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("bad_line", ["suite.file = missing.suite", "policy.obs_k = 4"])
def test_compare_config_error_exits_2_before_training(train_run, tmp_path, capsys, bad_line):
    cfg, _ = train_run
    broken = tmp_path / "broken.cfg"
    broken.write_text(FAST_CFG + bad_line + "\n")
    out = tmp_path / "cmp3"
    code = main(["compare", "--configs", str(cfg), str(broken),
                 "--seeds", "0", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()  # the valid config was not trained either


def test_compare_without_a_seed_is_an_argument_error(train_run, tmp_path, capsys):
    # With no seed nothing would be trained, yet the table would be written.
    cfg, _ = train_run
    out = tmp_path / "cmp"
    with pytest.raises(SystemExit) as e:
        main(["compare", "--configs", str(cfg), "--seeds", "--out", str(out)])
    assert e.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


def test_console_script_is_installed():
    exe = shutil.which("budnav")
    if exe is None:
        pytest.skip("entry point not on PATH")
    got = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert got.returncode == 0
    assert got.stdout.strip().startswith("budnav ")
