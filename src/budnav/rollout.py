"""Policy rollouts, failure triggers, and the trace format.

A rollout executes the policy step by step: observe, have the step
scored, pick an action (greedy argmax or inverse-CDF sampling on a named
stream), apply it to the world, then run the failure checks.  The step
loop of one episode is one generator, _episode_steps: it yields the
step's observation and previous action, receives the four logits, and
returns the Trajectory.  One driver, run_lockstep, advances a list of
these generators together.  Each tick it pushes every running
episode's observation and previous action onto that episode's row of a
feature array and scores all rows with one forward; a row leaves the
array when its generator returns.  run_greedy and run_sampled are the
driver with one episode; evaluation is the driver with all of them.
Products are computed row by row (policy.row_products), so an episode's
logits do not depend on which others share its ticks.

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
only on STOP or the step cap.  Tracking progress, the loop also records
the rectification anchor: anchor_step, the steps taken before the first
visit of the furthest reference waypoint reached in order (0 if none).

Trajectories record, per step, the pose before the action, the
observation, the chosen action and the raw logits.  Each step feeds
its observation and the previous step's action (NO_ACTION at t = 0)
to the policy's history, so a loss can rebuild every step's context
from the steps alone and is recomputable after the fact.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .oracle import advance_progress, goal_zone, path_deviation, progress_index
from .policy import (
    NO_ACTION,
    FeatureRows,
    PolicySnapshot,
    forward,
    greedy_action,
    initial_features,
    softmax,
)
from .rng import stream_id
from .world import Action, HEADINGS, Episode, Pose, observe, serialize_episode, step
from .errors import TraceError


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

    def max_steps(self, episode: Episode) -> int:
        return max(self.max_steps_floor, self.max_steps_factor * episode.reference_action_count)


@dataclass(frozen=True)
class TrajectoryStep:
    t: int
    pose_before: Pose
    observation: np.ndarray  # flattened egocentric patch
    action: int
    logits: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    episode_id: int
    mode: str  # "greedy" or "sampled"
    rng_stream_id: int  # 0 for greedy rollouts
    steps: tuple
    final_pose: Pose
    stopped: bool
    success: bool  # agent-issued STOP within the goal radius; forced stops fail
    trigger: tuple | None  # (TriggerKind, step index)
    path_length: float
    anchor_step: int = 0  # the rectification anchor (see the module docstring)

    def poses(self) -> list:
        """Visited pose sequence: start plus the pose after every step."""
        return [s.pose_before for s in self.steps] + [self.final_pose]

    def positions(self) -> list:
        """Visited cell sequence: start plus the cell after every step."""
        return [p.position for p in self.poses()]


@dataclass(frozen=True)
class RolloutState:
    """Post-action state fed to the trigger checks."""

    pose: Pose
    t: int
    steps_since_progress: int
    stopped: bool
    grace_used: int
    progress: int


def offtrack_exceeded(deviation_m: float, heading_err_deg: float, cfg: RolloutConfig) -> bool:
    """Strict thresholds: exactly 3.0 m / 120 degrees do not trigger."""
    return deviation_m > cfg.offtrack_dist_m or heading_err_deg > cfg.offtrack_heading_deg


def check_triggers(state: RolloutState, episode: Episode, cfg: RolloutConfig):
    """First matching trigger in the fixed order, or None.

    A STOP inside the goal zone is a successful termination and never
    triggers.
    """
    world, (x, y) = episode.world, state.pose.position
    if state.stopped and goal_zone(world, episode.goal, episode.goal_radius)[y * world.width + x]:
        return None
    deviation, heading_err = path_deviation(
        (x, y), state.pose.heading, episode.reference_waypoints, state.progress, episode.goal,
        world.cell_size,
    )
    if offtrack_exceeded(deviation, heading_err, cfg):
        return TriggerKind.OFF_TRACK
    if state.steps_since_progress >= cfg.stall_limit:
        return TriggerKind.PROGRESS_STALL
    if state.stopped:
        return TriggerKind.PREMATURE_STOP
    if state.grace_used > cfg.grace_period:
        return TriggerKind.FORCED_STOP
    return None


def sample_action(probs: np.ndarray, u: float) -> int:
    """Inverse-CDF draw: smallest index whose cumulative mass exceeds u."""
    cum = np.cumsum(probs)
    return min(int(np.searchsorted(cum, u, side="right")), len(probs) - 1)


def _episode_steps(
    episode: Episode,
    cfg: RolloutConfig,
    obs_k: int,
    mode: str,
    rng_stream: int = 0,
    temperature: float | None = None,
    triggers: bool = True,
):
    """Step loop of one episode, as a generator driven by run_lockstep.

    Each step yields (observation, previous action), receives the step's
    logits and acts on them; the generator returns the Trajectory.
    """
    world = episode.world
    waypoints = episode.reference_waypoints
    cell = world.cell_size
    zone = goal_zone(world, episode.goal, episode.goal_radius)
    max_steps = cfg.max_steps(episode)
    rng = np.random.Generator(np.random.PCG64(rng_stream)) if mode == "sampled" else None
    prev_action = NO_ACTION

    pose = episode.start
    progress = progress_index([pose.position], waypoints, cfg.visit_radius_m, cell)
    anchor_step = 0
    steps_since_progress = 0
    grace_used = 0
    path_length = 0.0
    steps = []

    for t in range(max_steps):
        obs = observe(world, pose, obs_k).ravel()
        logits = yield obs, prev_action
        if mode == "greedy":
            action = greedy_action(logits)
        else:
            probs = softmax(logits / temperature)
            action = sample_action(probs, rng.random())
        new_pose = step(world, pose, Action(action))
        steps.append(TrajectoryStep(t, pose, obs, action, logits))
        if action == Action.FORWARD and new_pose.position != pose.position:
            path_length += cell

        reached = advance_progress(progress, new_pose.position, waypoints, cfg.visit_radius_m, cell)
        if reached != progress:
            progress, anchor_step, steps_since_progress = reached, t + 1, 0
        else:
            steps_since_progress += 1
        in_zone = zone[new_pose.y * world.width + new_pose.x]
        grace_used = grace_used + 1 if in_zone else 0
        stopped_now = action == Action.STOP

        trig = None
        if triggers:
            state = RolloutState(
                new_pose, t, steps_since_progress, stopped_now, grace_used, progress
            )
            trig = check_triggers(state, episode, cfg)
        if trig is not None or stopped_now:
            return Trajectory(
                episode.id, mode, rng_stream, tuple(steps), new_pose,
                stopped=stopped_now, success=trig is None and bool(in_zone),
                trigger=None if trig is None else (trig, t),
                path_length=path_length, anchor_step=anchor_step,
            )
        prev_action = action
        pose = new_pose

    # Step cap reached: forced termination, counted as a failure.
    trigger = (TriggerKind.FORCED_STOP, max_steps - 1) if triggers else None
    return Trajectory(
        episode.id, mode, rng_stream, tuple(steps), pose,
        stopped=True, success=False, trigger=trigger, path_length=path_length,
        anchor_step=anchor_step,
    )


def snapshot_logits_fn(snapshot: PolicySnapshot):
    """(rows, obs, prev_actions) -> logits under the snapshot: push each
    row's observation and previous action onto rows, a FeatureRows over
    snapshot.params, then score every row."""
    params = snapshot.params

    def logits_fn(rows: FeatureRows, obs: np.ndarray, prev_actions) -> np.ndarray:
        return forward(params, rows.push(obs, prev_actions))

    return logits_fn


def run_lockstep(snapshot: PolicySnapshot, jobs) -> list:
    """Drive (episode, _episode_steps generator) jobs in lockstep; returns
    their trajectories in job order.

    Each tick scores every running job with one call of the snapshot's
    logits function over a [running, feature_dim] feature array, one
    row per job.  A job's row is dropped, and the array compacted, when
    its generator returns; a lone row is kept 1-D, which takes the plain
    vector-matrix path (same bits, fewer calls).  Each step receives its
    own copy of its logits row, so no step keeps a tick's batch alive.
    """
    params = snapshot.params
    score = snapshot_logits_fn(snapshot)

    def bind(features):
        return FeatureRows(params, features[0] if len(features) == 1 else features)

    features = np.array([initial_features(params, ep.instruction) for ep, _ in jobs])
    rows = bind(features)
    running = list(enumerate(gen for _, gen in jobs))  # (job index, generator)
    out = [None] * len(running)
    replies = [None] * len(running)  # what each generator receives next
    while running:
        requests, keep = [], []
        for i, (job, gen) in enumerate(running):
            try:
                requests.append(gen.send(replies[i]))
                keep.append(i)
            except StopIteration as done:
                out[job] = done.value
        if len(keep) < len(running):
            running = [running[i] for i in keep]
            features = features[keep]
            rows = bind(features)
        if len(running) == 1:
            (obs, prev_action), = requests
            replies = [score(rows, obs, prev_action)]
        elif running:
            logits = score(rows, np.array([o for o, _ in requests]), [a for _, a in requests])
            replies = [row.copy() for row in logits]
    return out


def run_greedy(
    snapshot: PolicySnapshot,
    episode: Episode,
    cfg: RolloutConfig = RolloutConfig(),
    triggers: bool = True,
) -> Trajectory:
    """Deterministic argmax rollout (the probe / evaluation policy)."""
    steps = _episode_steps(episode, cfg, snapshot.params.cfg.obs_k, "greedy", triggers=triggers)
    return run_lockstep(snapshot, [(episode, steps)])[0]


def run_sampled(
    snapshot: PolicySnapshot,
    episode: Episode,
    temperature: float,
    rng_stream: int,
    cfg: RolloutConfig = RolloutConfig(),
    triggers: bool = True,
) -> Trajectory:
    """Stochastic rollout drawing actions from the named stream."""
    steps = _episode_steps(
        episode, cfg, snapshot.params.cfg.obs_k, "sampled",
        rng_stream=rng_stream, temperature=temperature, triggers=triggers,
    )
    return run_lockstep(snapshot, [(episode, steps)])[0]


def rollout_stream(run_seed: int, episode_id: int, rollout_index: int) -> int:
    """Stream id contract for sampled rollouts: schedule-independent."""
    return stream_id(run_seed, episode_id, rollout_index)


# --------------------------------------------------------------------------
# Trace format "budnav-trace v1": line-delimited step records with the
# episode document embedded, plus an optional rectification record.
# --------------------------------------------------------------------------

TRACE_MAGIC = "budnav-trace v1"


def serialize_trace(traj: Trajectory, episode: Episode, demo=None) -> str:
    ep_lines = serialize_episode(episode).splitlines()
    lines = [TRACE_MAGIC]
    lines.append(f"mode {traj.mode} stream {traj.rng_stream_id}")
    lines.append(f"episode {len(ep_lines)}")
    lines.extend(ep_lines)
    trig_at = {traj.trigger[1]: traj.trigger[0].value} if traj.trigger else {}
    for s in traj.steps:
        logit_s = " ".join(repr(float(v)) for v in s.logits)
        trig = trig_at.get(s.t, "-")
        lines.append(
            f"step {s.t} {s.pose_before.x} {s.pose_before.y}"
            f" {HEADINGS[s.pose_before.heading]} {int(s.action)} {logit_s} {trig}"
        )
    trig = f"{traj.trigger[0].value}@{traj.trigger[1]}" if traj.trigger else "-"
    lines.append(
        f"final {traj.final_pose.x} {traj.final_pose.y} {HEADINGS[traj.final_pose.heading]}"
        f" {int(traj.stopped)} {int(traj.success)} {trig} {traj.path_length!r}"
    )
    if demo is not None:
        acts = " ".join(str(int(a)) for a in demo.oracle_actions)
        weights = " ".join(repr(float(w)) for w in demo.weights)
        lines.append(
            f"rect {demo.anchor_step} {demo.anchor_pose.x} {demo.anchor_pose.y}"
            f" {HEADINGS[demo.anchor_pose.heading]} {len(demo.oracle_actions)} {acts} {weights}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TraceStep:
    t: int
    pose_before: Pose
    action: int
    logits: np.ndarray
    trigger: str  # "-" or a TriggerKind value


@dataclass(frozen=True)
class TraceDoc:
    episode: Episode
    mode: str
    rng_stream_id: int
    steps: tuple
    final_pose: Pose
    stopped: bool
    success: bool
    trigger: str
    path_length: float
    rect: dict | None


def parse_trace(text: str) -> TraceDoc:
    from .world import parse_episode

    lines = text.splitlines()
    if not lines or lines[0] != TRACE_MAGIC:
        raise TraceError(f"bad trace magic: {lines[:1]}")
    try:
        _, mode, _, stream_s = lines[1].split()
        n_ep = int(lines[2].split()[1])
        episode = parse_episode("\n".join(lines[3 : 3 + n_ep]) + "\n")
        steps = []
        final = None
        rect = None
        for line in lines[3 + n_ep :]:
            parts = line.split()
            if parts[0] == "step":
                steps.append(
                    TraceStep(
                        t=int(parts[1]),
                        pose_before=Pose(int(parts[2]), int(parts[3]), HEADINGS.index(parts[4])),
                        action=int(parts[5]),
                        logits=np.array([float(v) for v in parts[6:10]]),
                        trigger=parts[10],
                    )
                )
            elif parts[0] == "final":
                final = parts
            elif parts[0] == "rect":
                n = int(parts[5])
                rect = {
                    "anchor_step": int(parts[1]),
                    "anchor_pose": Pose(int(parts[2]), int(parts[3]), HEADINGS.index(parts[4])),
                    "actions": [int(a) for a in parts[6 : 6 + n]],
                    "weights": [float(w) for w in parts[6 + n : 6 + 2 * n]],
                }
            else:
                raise TraceError(f"unknown record: {line!r}")
        if final is None:
            raise TraceError("trace has no final record")
    except KeyError as e:
        raise TraceError(f"malformed trace: episode header lacks {e}") from e
    except (IndexError, ValueError) as e:
        raise TraceError(f"malformed trace: {e}") from e
    return TraceDoc(
        episode=episode,
        mode=mode,
        rng_stream_id=int(stream_s),
        steps=tuple(steps),
        final_pose=Pose(int(final[1]), int(final[2]), HEADINGS.index(final[3])),
        stopped=bool(int(final[4])),
        success=bool(int(final[5])),
        trigger=final[6],
        path_length=float(final[7]),
        rect=rect,
    )


def verify_trace(doc: TraceDoc) -> int:
    """Re-execute the trace; return step count or raise TraceError naming
    the first divergent step.  Poses are checked in every trace, and in a
    greedy one each action against the argmax of its stored logits (a
    sampled trace stores no temperature)."""
    pose = doc.episode.start
    for s in doc.steps:
        if s.pose_before != pose:
            raise TraceError(
                f"divergence at step {s.t}: trace pose {s.pose_before}, replay pose {pose}"
            )
        if doc.mode == "greedy" and greedy_action(s.logits) != s.action:
            best = greedy_action(s.logits)
            raise TraceError(f"divergence at step {s.t}: action {s.action}, logits argmax {best}")
        pose = step(doc.episode.world, pose, Action(s.action))
    if pose != doc.final_pose:
        raise TraceError(
            f"divergence at final pose: trace {doc.final_pose}, replay {pose}"
        )
    return len(doc.steps)
