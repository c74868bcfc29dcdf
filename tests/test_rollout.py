"""Rollout loop, failure triggers at exact thresholds, traces, sampling."""
from dataclasses import replace

import numpy as np
import pytest

from budnav.errors import TraceError
from budnav.oracle import plan
from budnav import rollout
from budnav.policy import PolicyConfig, init_params, snapshot
from budnav.rollout import (
    RolloutConfig,
    RolloutJob,
    TriggerKind,
    check_triggers,
    offtrack_exceeded,
    parse_trace,
    rollout_stream,
    run_greedy,
    run_lockstep,
    run_sampled,
    sample_action,
    serialize_trace,
    verify_trace,
)
from budnav.world import (
    Action,
    Episode,
    Pose,
    compile_instruction,
    pose_state,
)

from conftest import corridor_world


SCRIPT_SNAP = snapshot(init_params(PolicyConfig(), 0))


def corridor_episode(length=12, goal=(8, 0), radius=3.0, start=Pose(0, 0, 1)):
    w = corridor_world(length)
    p = plan(w, start, goal, radius)
    return Episode(
        id=1,
        world=w,
        start=start,
        goal=goal,
        reference_path=tuple(p.poses),
        instruction=compile_instruction(p.actions),
        goal_radius=radius,
    )


def run_script(episode, actions, cfg=RolloutConfig(), triggers=True):
    """Greedy rollout that plays a fixed action sequence (then STOPs):
    run_lockstep's scorer is swapped for one that puts all weight on the
    next scripted action."""
    seq = list(actions) + [Action.STOP] * 500

    def scripted(snap):
        def logits_fn(rows, obs, prev_action):
            logits = np.full(4, -100.0)
            logits[int(seq.pop(0))] = 100.0
            return logits

        return logits_fn

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rollout, "snapshot_logits_fn", scripted)
        return run_lockstep(SCRIPT_SNAP, [RolloutJob(episode, triggers=triggers)], cfg)[0]


F, L, R, S = Action.FORWARD, Action.TURN_LEFT, Action.TURN_RIGHT, Action.STOP


# ------------------------------------------------------ threshold boundaries

def test_offtrack_thresholds_are_strict():
    cfg = RolloutConfig()
    assert not offtrack_exceeded(3.0, 0.0, cfg)
    assert not offtrack_exceeded(0.0, 120.0, cfg)
    assert not offtrack_exceeded(3.0, 120.0, cfg)
    assert offtrack_exceeded(3.0 + 1e-9, 0.0, cfg)
    assert offtrack_exceeded(0.0, 120.0 + 1e-9, cfg)


def test_premature_stop_threshold_is_strict():
    # STOP at exactly 3.0 m is a success, just past it a trigger.
    ep = corridor_episode(goal=(3, 0))  # start 3.0 m from the goal
    traj = run_script(ep, [S])
    assert traj.success and traj.trigger is None

    ep = corridor_episode(goal=(8, 0))
    traj = run_script(ep, [F, S])  # stop at (1,0), 7 m out
    assert traj.trigger == (TriggerKind.PREMATURE_STOP, 1)
    assert not traj.success


def test_offtrack_fires_past_3m_deviation():
    ep = corridor_episode(length=12, goal=(8, 0))
    # Reference stops at (5,0); deviation first exceeds 3.0 at (9,0).
    traj = run_script(ep, [F] * 10)
    assert traj.trigger == (TriggerKind.OFF_TRACK, 8)
    assert traj.final_pose.position == (9, 0)


def test_offtrack_fires_past_120_deg():
    ep = corridor_episode()
    # One left turn: 90 degrees off target, allowed.  A second: 180.
    traj = run_script(ep, [L, L, F, F])
    assert traj.trigger == (TriggerKind.OFF_TRACK, 1)


def test_progress_stall_fires_at_limit():
    ep = corridor_episode(length=45, goal=(40, 0))
    spin = [L, R] * 40  # heading error oscillates 90/0, no progress
    traj = run_script(ep, spin)
    assert traj.trigger == (TriggerKind.PROGRESS_STALL, 59)
    assert len(traj.steps) == 60


def test_stall_counter_resets_on_progress():
    ep = corridor_episode(length=45, goal=(40, 0))
    # 30 idle steps, one forward (progress), then idle again: the stall
    # clock restarts, firing 60 steps after the progress step.
    actions = [L, R] * 15 + [F] + [L, R] * 40
    traj = run_script(ep, actions)
    assert traj.trigger == (TriggerKind.PROGRESS_STALL, 30 + 60)


def test_forced_stop_after_loitering_in_zone():
    ep = corridor_episode()
    actions = [F] * 5 + [L, R] * 20  # enter the zone, then dither
    traj = run_script(ep, actions)
    assert traj.trigger == (TriggerKind.FORCED_STOP, 14)
    # Grace ran out on the 11th consecutive in-zone step.
    assert len(traj.steps) == 15


def test_success_short_circuits_all_triggers():
    ep = corridor_episode()
    s = pose_state(Pose(5, 0, 1), ep.world.width)
    assert check_triggers(s, progress=0, stall=999, grace=999, stopped=True, episode=ep,
                          cfg=RolloutConfig()) is None


def test_trigger_order_offtrack_before_premature_stop():
    ep = corridor_episode(length=20, goal=(8, 0))
    # Stopped far from the goal AND far off the reference (which ends at
    # (5,0)): both OffTrack and PrematureStop hold; OffTrack wins.
    s = pose_state(Pose(15, 0, 1), ep.world.width)
    assert check_triggers(s, progress=0, stall=0, grace=0, stopped=True, episode=ep,
                          cfg=RolloutConfig()) == TriggerKind.OFF_TRACK


def test_trigger_order_stall_before_premature_stop():
    ep = corridor_episode(length=12, goal=(8, 0))
    s = pose_state(Pose(1, 0, 1), ep.world.width)
    assert check_triggers(s, progress=1, stall=60, grace=0, stopped=True, episode=ep,
                          cfg=RolloutConfig()) == TriggerKind.PROGRESS_STALL


def test_step_cap_forced_stop_with_triggers():
    ep = corridor_episode()
    cap = RolloutConfig().max_steps(ep)
    # In-zone loitering is impossible here: hug the start instead.
    traj = run_script(ep, [L, R] * cap)
    # Whatever fires first, the trajectory must be finite and failed.
    assert traj.trigger is not None
    assert not traj.success


def test_step_cap_without_triggers_is_plain_failure():
    ep = corridor_episode()
    cap = RolloutConfig().max_steps(ep)
    traj = run_script(ep, [L, R] * cap, triggers=False)
    assert len(traj.steps) == cap
    assert traj.trigger is None
    assert traj.stopped and not traj.success


def test_step_cap_is_at_least_one_step():
    # A cap of 0 would end a rollout before its first step, with its
    # trigger at none of its steps.
    with pytest.raises(ValueError, match="max_steps_floor must be >= 1"):
        RolloutConfig(max_steps_floor=0, max_steps_factor=0)
    ep = corridor_episode()
    traj = run_script(ep, [L], RolloutConfig(max_steps_floor=1, max_steps_factor=0))
    assert len(traj.steps) == 1
    assert traj.trigger == (TriggerKind.FORCED_STOP, 0)
    _, parsed, _ = parse_trace(serialize_trace(traj, ep))
    assert parsed.trigger == traj.trigger


def test_eval_mode_ignores_offtrack():
    ep = corridor_episode(length=12, goal=(8, 0))
    # Wander past the reference end, then return and stop in the zone.
    actions = [F] * 10 + [L, L] + [F] * 3 + [S]
    traj = run_script(ep, actions, triggers=False)
    assert traj.trigger is None
    assert traj.success  # stopped at (7,0), 1 m from the goal


def test_path_length_counts_executed_moves_only():
    ep = corridor_episode()
    traj = run_script(ep, [F, F, L, R, F, S])
    assert traj.path_length == 3.0


# --------------------------------------------------------------- sampling

def test_sample_action_inverse_cdf_edges():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    assert sample_action(probs, 0.0) == 0
    assert sample_action(probs, 0.05) == 0
    assert sample_action(probs, 0.1) == 1  # boundary belongs to the right
    assert sample_action(probs, 0.599) == 2
    assert sample_action(probs, 0.999) == 3
    assert sample_action(probs, 1.0 - 1e-16) == 3


def test_sample_action_is_exactly_unbiased_on_a_grid():
    # Feeding u from a uniform grid removes all sampling noise: counts
    # must match the probabilities to within one grid cell per boundary.
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    n = 20000
    counts = np.zeros(4, dtype=int)
    for i in range(n):
        counts[sample_action(probs, (i + 0.5) / n)] += 1
    assert np.array_equal(counts, (probs * n).astype(int))


def test_sample_action_frequencies_match_probs():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    rng = np.random.default_rng(6)
    n = 5000
    counts = np.zeros(4, dtype=int)
    for _ in range(n):
        counts[sample_action(probs, rng.random())] += 1
    expected = probs * n
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 16.27  # 99.9% quantile of chi-square with 3 dof


# ----------------------------------------------- snapshot-driven rollouts

def traj_fingerprint(traj):
    return (
        tuple(traj.steps.actions.tolist()),
        traj.final_pose,
        traj.success,
        traj.trigger,
        traj.path_length,
    )


def test_greedy_rollout_deterministic(sample_episode, default_policy):
    snap = snapshot(default_policy, "t")
    a = run_greedy(snap, sample_episode)
    b = run_greedy(snap, sample_episode)
    assert traj_fingerprint(a) == traj_fingerprint(b)
    assert a.steps.logits.tobytes() == b.steps.logits.tobytes()


def test_sampled_rollout_streams(sample_episode, default_policy):
    snap = snapshot(default_policy, "t")
    s1 = rollout_stream(0, sample_episode.id, 1)
    a = run_sampled(snap, sample_episode, 0.4, s1)
    b = run_sampled(snap, sample_episode, 0.4, s1)
    assert traj_fingerprint(a) == traj_fingerprint(b)
    # Across a handful of stream indices the draws must not all agree.
    seqs = {
        tuple(
            run_sampled(
                snap, sample_episode, 0.4, rollout_stream(0, sample_episode.id, i)
            ).steps.actions.tolist()
        )
        for i in range(1, 9)
    }
    assert len(seqs) > 1


def test_rollout_records_prestep_pose_chain(sample_episode, default_policy):
    snap = snapshot(default_policy, "t")
    traj = run_greedy(snap, sample_episode)
    from budnav.world import step as world_step

    pose = sample_episode.start
    for pose_before, action in zip(traj.steps.poses(), traj.steps.actions.tolist()):
        assert pose_before == pose
        pose = world_step(sample_episode.world, pose, Action(action))
    assert pose == traj.final_pose


def test_is_success_requires_agent_stop():
    ep = corridor_episode()
    good = run_script(ep, [F] * 5 + [S])
    assert good.success
    # The step cap stops the agent without a STOP of its own.
    capped = run_script(ep, [L, R] * 500, triggers=False)
    assert capped.stopped and not capped.success
    # A STOP outside the goal radius is not a success either.
    short = run_script(ep, [F, S], triggers=False)
    assert short.stopped and not short.success


# ------------------------------------------------------------------ traces

def test_trace_round_trip_bytes(sample_episode, default_policy):
    snap = snapshot(default_policy, "t")
    traj = run_greedy(snap, sample_episode)
    text = serialize_trace(traj, sample_episode)
    episode, parsed, rect = parse_trace(text)
    assert episode == sample_episode and rect is None
    assert verify_trace(episode, parsed) == len(traj.steps)
    # The trace parses back into the Trajectory that wrote it, all but
    # the anchor step, which a trace does not record.
    for name in ("states", "actions", "logits"):
        got, want = getattr(parsed.steps, name), getattr(traj.steps, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert parsed.steps.width == traj.steps.width
    assert replace(parsed, steps=traj.steps, anchor_step=traj.anchor_step) == traj
    assert parsed.anchor_step == 0
    assert serialize_trace(parsed, episode) == text


def test_trace_detects_edited_action():
    ep = corridor_episode()
    traj = run_script(ep, [F, F, L, F, S])
    text = serialize_trace(traj, ep)
    lines = text.splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("step 1 "))
    parts = lines[idx].split()
    parts[5] = str(Action.TURN_RIGHT.value)  # was FORWARD
    lines[idx] = " ".join(parts)
    episode, traj, _ = parse_trace("\n".join(lines) + "\n")
    # The greedy check sees the edit at once; the poses would diverge at step 2.
    with pytest.raises(TraceError, match="step 1"):
        verify_trace(episode, traj)


def test_trace_checks_logits_of_greedy_traces_only():
    ep = corridor_episode()
    text = serialize_trace(run_script(ep, [F, F, S]), ep)
    lines = text.splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("step 1 "))
    parts = lines[idx].split()
    parts[6 + Action.TURN_LEFT.value] = "1000.0"  # argmax now TURN_LEFT, action FORWARD
    lines[idx] = " ".join(parts)
    edited = "\n".join(lines) + "\n"
    with pytest.raises(TraceError, match="step 1: action 0, logits argmax 1"):
        verify_trace(*parse_trace(edited)[:2])
    # A sampled trace stores no temperature: its poses are all replay checks.
    assert lines[1].startswith("mode greedy ")
    sampled = edited.replace("mode greedy ", "mode sampled ", 1)
    assert verify_trace(*parse_trace(sampled)[:2]) == 3


def edit_record(lines, prefix, field, value):
    """lines with field `field` of the first record starting with prefix
    set to value."""
    i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    parts = lines[i].split()
    parts[field] = value
    return [*lines[:i], " ".join(parts), *lines[i + 1 :]]


# Edits of a three-step trace (FORWARD, FORWARD, then PrematureStop at
# step 2 in a 12 x 1 corridor) that leave every record well formed but
# the records disagreeing.
TRACE_EDITS = {
    "garbage": lambda lines: ["not a trace"],
    "step numbered out of place": lambda lines: edit_record(lines, "step 1 ", 1, "2"),
    # (13, -1) numbers the same pose-graph state as (1, 0) on a grid 12 wide.
    "pose off the grid": lambda lines: edit_record(
        edit_record(lines, "step 1 ", 2, "13"), "step 1 ", 3, "-1"
    ),
    "trigger at no step": lambda lines: edit_record(lines, "final ", 6, "PrematureStop@9"),
    "trigger at a negative step": lambda lines: edit_record(lines, "final ", 6, "PrematureStop@-1"),
    "trigger column off its step": lambda lines: edit_record(lines, "step 0 ", 10, "OffTrack"),
    "trigger column of another kind": lambda lines: edit_record(lines, "step 2 ", 10, "OffTrack"),
    "trigger column without a trigger": lambda lines: edit_record(lines, "final ", 6, "-"),
}


def test_trace_rejects_garbage():
    ep = corridor_episode()
    lines = serialize_trace(run_script(ep, [F, F, S]), ep).splitlines()
    assert lines[-1] == "final 2 0 E 1 0 PrematureStop@2 2.0"
    verify_trace(*parse_trace("\n".join(lines) + "\n")[:2])
    for name, edit in TRACE_EDITS.items():
        with pytest.raises(TraceError):
            parse_trace("\n".join(edit(lines)) + "\n")
            pytest.fail(f"parsed a trace with edit {name!r}")


@pytest.mark.parametrize("field", ["id", "width", "height", "world_seed", "cell_size"])
def test_trace_missing_episode_header_field_is_a_trace_error(field):
    ep = corridor_episode()
    text = serialize_trace(run_script(ep, [F, F, S]), ep)
    lines = text.splitlines()
    header = next(i for i, ln in enumerate(lines) if ln.startswith("header "))
    lines[header] = " ".join(
        kv for kv in lines[header].split() if not kv.startswith(field + "=")
    )
    with pytest.raises(TraceError, match=f"lacks '{field}'"):
        parse_trace("\n".join(lines) + "\n")
