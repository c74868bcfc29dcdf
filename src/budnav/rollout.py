"""Policy rollouts, failure triggers, and the trace format.

A rollout executes the policy step by step: observe, have the step
scored, pick an action (greedy argmax or inverse-CDF sampling on a named
stream), apply it to the world, then run the failure checks.  One
driver, run_lockstep, steps a list of RolloutJobs together.  Each job
keeps its state as plain numbers: its pose-graph state s = (y * width +
x) * 4 + heading (world.pose_state, the numbering oracle plans over),
its progress and anchor step, its stall and grace counters and its path
length.  Each tick gathers every running job's observation with one
index into the jobs' padded occupancy grids (world.patch_layout), pushes
the observations and previous actions onto the jobs' rows of a feature
array, scores all rows with one forward, and takes the greedy actions
with one argmax.  Every job then moves through world.transitions, the
table the planner searches, and reads the goal zone and its waypoint
progress from tables (oracle.goal_zone, oracle.offsets_within); the
trigger checks read the state and counters as plain numbers, and a Pose
is built only for the final pose.  A row leaves the array when its
episode ends.  run_greedy and run_sampled are the driver with
one job; evaluation is the driver with all of them.  Products are
computed row by row (policy.row_products), so an episode's logits do
not depend on which others share its ticks.

A greedy, trigger-free row (evaluation) also leaves the array at its
fixed point: once its last history_k + 1 steps took one action from one
state and left it there (FORWARD into a wall), its next feature row
holds the same history_k (observation, previous action) slots and no
step index, so it is the same bits, and so are its logits and action,
until the step cap.  The row records the remaining steps as copies of
that step, sharing its logits row, and ends as the cap would end it;
without a move its progress, anchor step and path length stay put, and
without triggers only the cap can end it.  The premise is that the
scorer is a function of the feature row.  A scorer swapped in for one
that replays a script breaks it: a trigger-free script that bumps a
wall more than history_k + 1 times in a row would be cut short there.
Sampled rows and rows with triggers are scored, and replayed rows
stepped, on every step.

Four triggers are evaluated in a fixed order after every executed
action:

    OffTrack       deviation from the reference path above 3 m, or
                   heading more than 120 degrees off the bearing to the
                   next unvisited waypoint
    ProgressStall  no new reference waypoint visited for stall_limit
                   consecutive steps
    PrematureStop  STOP issued further than the goal radius from the goal
    ForcedStop     lingering inside the goal zone beyond the grace
                   period without issuing STOP (also recorded when the
                   step cap forces termination, inside the zone or not)

A STOP issued inside the goal zone (oracle.goal_zone, the table the
planner stops on) ends the episode successfully and is exempt from the
checks, so a successful trajectory never carries a trigger.
Evaluation-style rollouts disable the triggers entirely and terminate
only on STOP or the step cap.  Tracking progress, the driver also records
the rectification anchor: anchor_step, the steps taken before the first
visit of the furthest reference waypoint reached in order (0 if none).

A trajectory records its steps as three arrays (Steps): the pose-graph
state before each step, the chosen action and the raw logits.  The
driver appends two integers per step and, when the call ends, cuts each
job's [T, 4] logits out of the ticks' logits with one index.
Observations are not stored: world.observe_states gathers them from the
states, the same floats the rollout saw.  Each step feeds its
observation and the previous step's action (NO_ACTION at t = 0) to the
policy's history, so a loss can rebuild every step's context from the
steps alone and is recomputable after the fact.

A trace ("budnav-trace v2", serialize_trace) is a trajectory as text:
its mode, a rollout record (triggers=0|1, then each RolloutConfig field
as key=value in field order), the episode, one record per step (its
number, pose, action, logits and a trigger column: the trigger's kind at
its step, '-' at every other), the final record and, for a failed probe,
the rect record of its demo.  parse_trace reads a trace back into the
Trajectory that wrote it, which serializes to the same bytes, and the
config and flag it ran under; anchor_step is not recorded and reads 0.
Another magic line (v1 among them), a mode record other than "mode
<greedy|sampled> stream <int>", a rollout record with other keys or
values, an episode record other than "episode <n>", steps numbered out
of place, a step pose off the grid (its state would name another cell),
an action outside Action, a trigger at none of the steps or a trigger
column that does not name it is a TraceError.  verify_trace re-plans the
episode and steps a row (_Row.act) through the recorded actions, so each
recorded field is checked by the code that derived it.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields
from enum import Enum

import numpy as np

from . import oracle
from .oracle import advance_progress, goal_zone, path_deviation
from .policy import (
    NO_ACTION,
    FeatureRows,
    PolicySnapshot,
    forward,
    greedy_action,
    instruction_mean,
    padding_slots,
    softmax,
)
from .rng import stream_id
from .world import (
    Action, HEADINGS, Episode, Pose, compile_instruction, parse_episode, parse_pose, patch_layout,
    pose_state, serialize_episode, state_pose, transitions,
)
# Unused here: perfbench's tracer patches rollout.observe when it installs.
from .world import observe  # noqa: F401
from .errors import BudnavError, TraceError


class TriggerKind(str, Enum):
    OFF_TRACK = "OffTrack"
    PROGRESS_STALL = "ProgressStall"
    PREMATURE_STOP = "PrematureStop"
    FORCED_STOP = "ForcedStop"


@dataclass(frozen=True)
class RolloutConfig:
    stall_limit: int = 60
    grace_period: int = 10
    max_steps_factor: int = 4
    max_steps_floor: int = 50
    offtrack_dist_m: float = 3.0
    offtrack_heading_deg: float = 120.0
    visit_radius_m: float = 0.5

    def __post_init__(self):
        if self.max_steps_floor < 1:  # every rollout takes a step
            raise ValueError(f"max_steps_floor must be >= 1, got {self.max_steps_floor}")

    def max_steps(self, episode: Episode) -> int:
        return max(self.max_steps_floor, self.max_steps_factor * episode.reference_action_count)


@dataclass(frozen=True, eq=False)
class Steps:
    """A rollout's T steps as arrays: states[t] is the pose-graph state
    before step t on a grid width cells wide (world.pose_state),
    actions[t] the action taken and logits[t] the raw logits it was
    chosen from.  Steps(width) holds no step."""

    width: int
    states: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))  # [T]
    actions: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))  # [T]
    logits: np.ndarray = field(default_factory=lambda: np.zeros((0, 4)))  # float64 [T, 4]

    def __len__(self) -> int:
        return len(self.states)

    def prefix(self, n: int) -> Steps:
        """The first n steps."""
        return Steps(self.width, self.states[:n], self.actions[:n], self.logits[:n])

    def poses(self) -> list:
        """The pose before every step."""
        return [state_pose(s, self.width) for s in self.states.tolist()]


@dataclass(frozen=True)
class Trajectory:
    episode_id: int
    mode: str  # "greedy" or "sampled"
    rng_stream_id: int  # 0 for greedy rollouts
    steps: Steps
    final_pose: Pose
    stopped: bool
    success: bool  # agent-issued STOP within the goal radius; forced stops fail
    trigger: tuple | None  # (TriggerKind, step index)
    path_length: float
    anchor_step: int = 0  # the rectification anchor (see the module docstring)

    def poses(self) -> list:
        """Visited pose sequence: start plus the pose after every step."""
        return self.steps.poses() + [self.final_pose]


def offtrack_exceeded(deviation_m: float, heading_err_deg: float, cfg: RolloutConfig) -> bool:
    """Strict thresholds: exactly 3.0 m / 120 degrees do not trigger."""
    return deviation_m > cfg.offtrack_dist_m or heading_err_deg > cfg.offtrack_heading_deg


def check_triggers(
    s: int, progress: int, stall: int, grace: int, stopped: bool, episode: Episode,
    cfg: RolloutConfig,
):
    """First matching trigger in the fixed order, or None, after a step
    that left the agent in pose-graph state s (world.pose_state) with
    waypoint progress, stall steps since progress, grace steps inside the
    goal zone, and stopped when the step was STOP.

    A STOP inside the goal zone is a successful termination and never
    triggers.
    """
    world = episode.world
    if stopped and goal_zone(world, episode.goal, episode.goal_radius)[s >> 2]:
        return None
    y, x = divmod(s >> 2, world.width)
    deviation, heading_err = path_deviation(
        (x, y), s & 3, episode.reference_waypoints, progress, episode.goal, world.cell_size,
    )
    if offtrack_exceeded(deviation, heading_err, cfg):
        return TriggerKind.OFF_TRACK
    if stall >= cfg.stall_limit:
        return TriggerKind.PROGRESS_STALL
    if stopped:
        return TriggerKind.PREMATURE_STOP
    if grace > cfg.grace_period:
        return TriggerKind.FORCED_STOP
    return None


def sample_action(probs: np.ndarray, u: float) -> int:
    """Inverse-CDF draw: smallest index whose cumulative mass exceeds u."""
    cum = np.cumsum(probs)
    return min(int(np.searchsorted(cum, u, side="right")), len(probs) - 1)


@dataclass(frozen=True)
class RolloutJob:
    """One episode for run_lockstep to roll out: sampled at temperature
    from the named stream when it has one, else greedy; without triggers
    it ends only on STOP or the step cap."""

    episode: Episode
    temperature: float | None = None
    rng_stream: int = 0
    triggers: bool = True


class _Row:
    """A running job: its pose-graph state s (world.pose_state), its
    counters and its recorded steps.

    corner is where the window around the agent's cell starts in the
    batch's flat occupancy array (world.patch_layout).  at[t] is where
    step t's logits row lies in the call's stacked tick logits.  loop
    counts the trailing steps that took one action from one state and
    stayed there; a row ends when loop reaches hold, which run_lockstep
    sets to history_k + 1 (the fixed point) for a greedy, trigger-free
    job and to None for every other job, as replay does.  end is (final
    state, stopped, success, trigger) once the episode has ended.
    """

    __slots__ = (
        "job", "cfg", "rng", "table", "width", "zone", "max_steps", "base", "stride", "hold",
        "s", "corner", "prev_action", "progress", "anchor_step", "stall", "grace", "loop",
        "path_length", "states", "actions", "at", "end",
    )

    def __init__(
        self, job: RolloutJob, cfg: RolloutConfig, stride: int, base: int, hold: int | None,
    ):
        episode = job.episode
        world, start = episode.world, episode.start
        if not (world.is_free(start.x, start.y) and 0 <= start.heading < 4):
            raise ValueError(f"start pose on a blocked cell or off the grid: {start}")
        self.job, self.cfg = job, cfg
        self.rng = None if job.temperature is None else np.random.Generator(np.random.PCG64(job.rng_stream))
        self.table = transitions(world)
        self.width = world.width
        self.zone = goal_zone(world, episode.goal, episode.goal_radius)
        self.max_steps = cfg.max_steps(episode)
        self.base, self.stride, self.hold = base, stride, hold
        self.s = pose_state(start, world.width)
        self.corner = base + start.y * stride + start.x
        self.prev_action = NO_ACTION
        self.progress = advance_progress(
            -1, start.position, episode.reference_waypoints, cfg.visit_radius_m, world.cell_size
        )
        self.anchor_step = self.stall = self.grace = self.loop = 0
        self.path_length = 0.0
        self.states, self.actions, self.at = [], [], []
        self.end = None

    def act(self, t: int, at: int, action: int) -> None:
        """Record step t, whose logits lie at row at of the stacked tick
        logits, apply its action and run the failure checks."""
        s = self.s
        self.states.append(s)
        self.actions.append(action)
        self.at.append(at)
        moved = self.table[4 * s + action]
        if moved != s:
            self.loop = 0
        else:
            self.loop = self.loop + 1 if action == self.prev_action else 1
        progressed = False
        if moved >> 2 != s >> 2:  # the agent changed cell, and so may its progress
            episode = self.job.episode
            y, x = divmod(moved >> 2, self.width)
            self.corner = self.base + y * self.stride + x
            self.path_length += episode.world.cell_size
            reached = advance_progress(
                self.progress, (x, y), episode.reference_waypoints,
                self.cfg.visit_radius_m, episode.world.cell_size,
            )
            if reached != self.progress:
                self.progress, self.anchor_step, progressed = reached, t + 1, True
        s = moved
        self.stall = 0 if progressed else self.stall + 1
        in_zone = self.zone[s >> 2]
        self.grace = self.grace + 1 if in_zone else 0
        stopped = action == Action.STOP
        trig = None
        if self.job.triggers:
            trig = check_triggers(
                s, self.progress, self.stall, self.grace, stopped, self.job.episode, self.cfg
            )
        if trig is not None or stopped:
            trigger = None if trig is None else (trig, t)
            self.end = (s, stopped, trig is None and bool(in_zone), trigger)
        elif t + 1 == self.max_steps:
            self._cap(s)
        elif self.loop == self.hold:  # every later step repeats this one
            rest = self.max_steps - t - 1
            self.states += [s] * rest
            self.actions += [action] * rest
            self.at += [at] * rest
            self._cap(s)
        else:
            self.s, self.prev_action = s, action

    def _cap(self, s: int) -> None:
        """Step cap reached: forced termination, counted as a failure."""
        trigger = (TriggerKind.FORCED_STOP, self.max_steps - 1) if self.job.triggers else None
        self.end = (s, True, False, trigger)

    def trajectory(self, logits: np.ndarray) -> Trajectory:
        """The ended episode's trajectory, given its [T, 4] logits."""
        job = self.job
        final_s, stopped, success, trigger = self.end
        steps = Steps(
            self.width, np.array(self.states, dtype=np.int64),
            np.array(self.actions, dtype=np.int64), logits,
        )
        mode = "greedy" if self.rng is None else "sampled"
        return Trajectory(
            job.episode.id, mode, job.rng_stream, steps, state_pose(final_s, self.width),
            stopped=stopped, success=success, trigger=trigger,
            path_length=self.path_length, anchor_step=self.anchor_step,
        )


def snapshot_logits_fn(snapshot: PolicySnapshot):
    """(rows, obs, prev_actions) -> logits under the snapshot: push each
    row's observation and previous action onto rows, a FeatureRows over
    snapshot.params, then score every row."""
    params = snapshot.params

    def logits_fn(rows: FeatureRows, obs: np.ndarray, prev_actions) -> np.ndarray:
        return forward(params, rows.push(obs, prev_actions))

    return logits_fn


def run_lockstep(snapshot: PolicySnapshot, jobs, cfg: RolloutConfig = RolloutConfig()) -> list:
    """Roll out every RolloutJob in lockstep; returns their trajectories
    in job order.

    Each tick gathers every running job's observation with one index
    into the jobs' occupancy grids and scores them with one call of the
    snapshot's logits function over a [running, feature_dim] feature
    array, one row per job.  Greedy rows take the row's argmax, sampled
    rows draw from their own stream; each row then moves through the
    pose graph and updates its counters (_Row.act).  A job's row is
    dropped, and the array compacted, when its episode ends; a lone row
    is kept 1-D, which takes the plain vector-matrix path (same bits,
    fewer calls).  The rows record where their logits lie in the ticks'
    logits; once every job has ended the ticks are stacked and each
    trajectory's [T, 4] logits taken with one index (a lone job's steps
    are the ticks themselves unless it ended at a fixed point).

    A greedy, trigger-free row also leaves at its fixed point, the step
    that completes history_k + 1 steps of one action leaving one state
    where it was: every later step would be scored from the same feature
    row, so the row fills its steps up to the cap with copies of that
    step and its logits row and ends as the cap ends it.  This assumes
    the scorer is a function of the feature row; a scripted scorer that
    ignores it would be cut short there (see the module docstring).
    """
    if not jobs:
        return []
    params = snapshot.params
    score = snapshot_logits_fn(snapshot)
    worlds = list({id(job.episode.world): job.episode.world for job in jobs}.values())
    flat, stride, offsets, bases = patch_layout(worlds, params.cfg.obs_k)
    base_of = {id(world): base for world, base in zip(worlds, bases)}
    every = [
        _Row(job, cfg, stride, base_of[id(job.episode.world)],
             params.cfg.history_k + 1 if job.temperature is None and not job.triggers else None)
        for job in jobs
    ]
    running = list(every)

    def bind(features):
        return FeatureRows(params, features[0] if len(features) == 1 else features)

    d_e = params.cfg.d_e
    features = np.empty((len(running), params.cfg.feature_dim))
    features[:, d_e:] = padding_slots(params)
    for i, row in enumerate(running):
        features[i, :d_e] = instruction_mean(params, row.job.episode.instruction)
    rows = bind(features)
    ticks = []  # each tick's logits, flat: [4 * running]
    t = at = 0
    while running:
        lone = len(running) == 1
        if lone:
            (row,) = running
            obs = flat[row.corner + offsets[row.s & 3]]
            logits = score(rows, obs, row.prev_action)
            greedy = (greedy_action(logits) if row.rng is None else None,)
        else:
            corners = np.array([row.corner for row in running])
            obs = flat[corners[:, None] + offsets[[row.s & 3 for row in running]]]
            logits = score(rows, obs, [row.prev_action for row in running])
            greedy = logits.argmax(axis=1).tolist()
        ticks.append(logits.ravel())
        for i, row in enumerate(running):
            action = greedy[i]
            if row.rng is not None:
                lg = logits if lone else logits[i]
                action = sample_action(softmax(lg / row.job.temperature), row.rng.random())
            row.act(t, at + i, action)
        at += len(running)
        keep = [i for i, row in enumerate(running) if row.end is None]
        if len(keep) < len(running):
            running = [running[i] for i in keep]
            if running:
                features = features[keep]
                rows = bind(features)
        t += 1
    stacked = np.concatenate(ticks).reshape(-1, 4) if ticks else np.zeros((0, 4))
    del ticks  # freed first, so that the trajectories cut below can reuse its memory
    if len(every) == 1 and len(every[0].at) == len(stacked):  # its steps are the ticks
        return [every[0].trajectory(stacked)]
    return [row.trajectory(stacked[row.at]) for row in every]


def run_greedy(
    snapshot: PolicySnapshot,
    episode: Episode,
    cfg: RolloutConfig = RolloutConfig(),
) -> Trajectory:
    """Deterministic argmax rollout with triggers (the probe)."""
    return run_lockstep(snapshot, [RolloutJob(episode)], cfg)[0]


def run_sampled(
    snapshot: PolicySnapshot,
    episode: Episode,
    temperature: float,
    rng_stream: int,
    cfg: RolloutConfig = RolloutConfig(),
) -> Trajectory:
    """Stochastic rollout with triggers, sampling from the named stream (a group member)."""
    job = RolloutJob(episode, temperature, rng_stream)
    return run_lockstep(snapshot, [job], cfg)[0]


def rollout_stream(run_seed: int, episode_id: int, rollout_index: int) -> int:
    """Stream id contract for sampled rollouts: schedule-independent."""
    return stream_id(run_seed, episode_id, rollout_index)


# --------------------------------------------------------------------------
# Trace format "budnav-trace v2": a Trajectory and its rollout settings as
# line-delimited records with the episode document embedded, plus an
# optional rectification record (see the module docstring).
# --------------------------------------------------------------------------

TRACE_MAGIC = "budnav-trace v2"
ROLLOUT_KEYS = ("triggers", *(f.name for f in fields(RolloutConfig)))


def trigger_mark(trigger) -> str:
    """A trajectory's trigger as the final record writes it: <kind>@<step>, or '-'."""
    return f"{trigger[0].value}@{trigger[1]}" if trigger else "-"


def serialize_trace(
    traj: Trajectory, episode: Episode, cfg: RolloutConfig, triggers: bool, demo=None,
) -> str:
    ep_lines = serialize_episode(episode).splitlines()
    lines = [TRACE_MAGIC]
    lines.append(f"mode {traj.mode} stream {traj.rng_stream_id}")
    settings = zip(ROLLOUT_KEYS, (int(triggers), *astuple(cfg)))
    lines.append("rollout " + " ".join(f"{k}={v!r}" for k, v in settings))
    lines.append(f"episode {len(ep_lines)}")
    lines.extend(ep_lines)
    trig_at = {traj.trigger[1]: traj.trigger[0].value} if traj.trigger else {}
    steps = traj.steps
    for t, (pose, action, logits) in enumerate(
        zip(steps.poses(), steps.actions.tolist(), steps.logits.tolist())
    ):
        logit_s = " ".join(map(repr, logits))
        trig = trig_at.get(t, "-")
        lines.append(
            f"step {t} {pose.x} {pose.y} {HEADINGS[pose.heading]} {action} {logit_s} {trig}"
        )
    lines.append(
        f"final {traj.final_pose.x} {traj.final_pose.y} {HEADINGS[traj.final_pose.heading]}"
        f" {int(traj.stopped)} {int(traj.success)} {trigger_mark(traj.trigger)}"
        f" {traj.path_length!r}"
    )
    if demo is not None:
        acts = " ".join(str(int(a)) for a in demo.oracle_actions)
        weights = " ".join(repr(float(w)) for w in demo.weights)
        lines.append(
            f"rect {demo.anchor_step} {demo.anchor_pose.x} {demo.anchor_pose.y}"
            f" {HEADINGS[demo.anchor_pose.heading]} {len(demo.oracle_actions)} {acts} {weights}"
        )
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> tuple:
    """(episode, trajectory, cfg, triggers, rect): the Trajectory that
    wrote the trace (see the module docstring), the RolloutConfig and
    triggers flag it ran under, and its rect record as a dict, or None.
    TraceError unless every record is well formed and the records agree:
    the start on a free cell, every pose, the goal and the anchor on the
    grid, and the steps, actions and triggers as the docstring lists them."""
    lines = text.splitlines()
    if not lines or lines[0] != TRACE_MAGIC:
        raise TraceError(f"bad trace magic {lines[:1]}: replay reads {TRACE_MAGIC!r}")
    try:
        head, mode, stream_key, stream_s = lines[1].split()
        if head != "mode" or mode not in ("greedy", "sampled") or stream_key != "stream":
            raise ValueError(f"not 'mode <greedy|sampled> stream <int>': {lines[1]!r}")
        head, *pairs = lines[2].split()
        if head != "rollout" or [kv.partition("=")[0] for kv in pairs] != list(ROLLOUT_KEYS):
            raise ValueError(f"not 'rollout' with the keys {' '.join(ROLLOUT_KEYS)}: {lines[2]!r}")
        flag, *values = (kv.partition("=")[2] for kv in pairs)
        if flag not in ("0", "1"):
            raise ValueError(f"triggers={flag}, not 0 or 1")
        cfg = RolloutConfig(*(type(f.default)(v) for f, v in zip(fields(RolloutConfig), values)))
        ep_key, n_ep = lines[3].split()
        if ep_key != "episode":
            raise ValueError(f"not 'episode <n>': {lines[3]!r}")
        n_ep = int(n_ep)
        episode = parse_episode("\n".join(lines[4 : 4 + n_ep]) + "\n")
        world = episode.world
        states, actions, logits, marks = [], [], [], []
        final = rect = None
        for line in lines[4 + n_ep :]:
            parts = line.split()
            if parts[0] == "step":
                t, pose, action = int(parts[1]), parse_pose(parts[2:5]), int(parts[5])
                if t != len(states):
                    raise ValueError(f"step {t} recorded as step {len(states)}")
                if not world.in_bounds(pose.x, pose.y):  # its state would name another cell
                    raise ValueError(f"step {t}: pose {pose} off the grid")
                if not 0 <= action < len(Action):
                    raise ValueError(f"step {t}: no action {action}")
                states.append(pose_state(pose, world.width))
                actions.append(action)
                logits.append([float(v) for v in parts[6:10]])
                marks.append(parts[10])
            elif parts[0] == "final":
                final = parts
            elif parts[0] == "rect":
                n = int(parts[5])
                rect = {
                    "anchor_step": int(parts[1]),
                    "anchor_pose": parse_pose(parts[2:5]),
                    "actions": [int(a) for a in parts[6 : 6 + n]],
                    "weights": [float(w) for w in parts[6 + n : 6 + 2 * n]],
                }
            else:
                raise TraceError(f"unknown record: {line!r}")
        if final is None:
            raise TraceError("trace has no final record")
        column, trigger = ["-"] * len(states), None
        if final[6] != "-":
            kind, _, at = final[6].partition("@")
            trigger = (TriggerKind(kind), int(at))  # ValueError unless "<TriggerKind>@<step>"
            if not 0 <= trigger[1] < len(states):
                raise ValueError(f"trigger {final[6]} at none of the {len(states)} steps")
            column[trigger[1]] = kind
        if marks != column:
            raise ValueError(f"the steps' trigger column does not match final trigger {final[6]}")
        steps = Steps(
            world.width, np.array(states, dtype=np.int64), np.array(actions, dtype=np.int64),
            np.array(logits).reshape(-1, 4),
        )
        traj = Trajectory(
            episode.id, mode, int(stream_s), steps, parse_pose(final[1:4]),
            stopped=bool(int(final[4])), success=bool(int(final[5])), trigger=trigger,
            path_length=float(final[7]),
        )
    except (IndexError, ValueError) as e:
        raise TraceError(f"malformed trace: {e}") from e
    start = episode.start
    cells = [episode.goal, traj.final_pose.position, *(p.position for p in episode.reference_path)]
    if rect is not None:
        cells.append(rect["anchor_pose"].position)
    if not (world.is_free(start.x, start.y) and all(world.in_bounds(x, y) for x, y in cells)):
        raise TraceError("malformed trace: start, goal, path, final pose or anchor off the grid")
    return episode, traj, cfg, flag == "1", rect


def verify_trace(episode: Episode, traj: Trajectory, cfg: RolloutConfig, triggers: bool) -> int:
    """Replay the trajectory through the rollout's own step, _Row.act,
    under cfg and the triggers flag; return its step count or raise
    TraceError naming the first divergence.

    The episode must re-plan (oracle.plan) to its reference path and
    instruction.  The row never takes the fixed-point shortcut (hold
    None), so recorded copies replay as real steps.  Before each step it
    must still run and stand at the recorded pose, and a greedy step's
    action must be the argmax of its logits (a sampled trace stores no
    temperature).  After the last step it must have ended as the final
    record says."""
    width = episode.world.width
    try:
        plan = oracle.plan(episode.world, episode.start, episode.goal, episode.goal_radius)
        instr = compile_instruction(plan.actions, episode.max_run)
    except (BudnavError, ValueError) as e:
        raise TraceError(f"episode does not re-plan: {e}") from e
    if episode.reference_path != plan.poses:
        raise TraceError("divergence at reference path: the episode's is not its plan's")
    if episode.instruction != instr:
        raise TraceError(f"divergence at instruction: trace {episode.instruction}, plan {instr}")
    row = _Row(RolloutJob(episode, triggers=triggers), cfg, 0, 0, None)
    steps = traj.steps
    for t, (state, action) in enumerate(zip(steps.states.tolist(), steps.actions.tolist())):
        if row.end is not None or state != row.s:
            replay = "ended" if row.end else f"pose {state_pose(row.s, width)}"
            raise TraceError(
                f"divergence at step {t}: trace pose {state_pose(state, width)}, replay {replay}"
            )
        best = greedy_action(steps.logits[t])
        if traj.mode == "greedy" and best != action:
            raise TraceError(f"divergence at step {t}: action {action}, logits argmax {best}")
        row.act(t, t, action)
    if row.end is None:
        raise TraceError(f"divergence at final record: the replay runs on after {len(steps)} steps")
    final_s, stopped, success, trigger = row.end
    for name, recorded, replayed in (
        ("final pose", traj.final_pose, state_pose(final_s, width)),
        ("stopped", traj.stopped, stopped),
        ("success", traj.success, success),
        ("trigger", trigger_mark(traj.trigger), trigger_mark(trigger)),
        ("path_length", traj.path_length, row.path_length),
    ):
        if recorded != replayed:
            raise TraceError(f"divergence at {name}: trace {recorded!r}, replay {replayed!r}")
    return len(steps)
