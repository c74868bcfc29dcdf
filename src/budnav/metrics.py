"""Navigation metrics and intervention-free evaluation.

Success (SR) is an agent-issued STOP within the goal radius.  SPL
weights success by best-path efficiency; OSR credits passing within the
radius anywhere along the trajectory (by geodesic distance); NE is the
geodesic distance from the final position to the goal; nDTW scores
path-shape fidelity as exp(-DTW / (|R| * threshold)) over Euclidean
dynamic time warping between the visited cells and the reference cells.

Evaluation rolls the greedy policy with all failure triggers disabled;
episodes end only on STOP or the step cap.  It steps every episode in
lockstep (rollout.run_lockstep): each tick scores all episodes still
running with one row-batched featurize+forward, bit-identical to
rolling each episode alone.  An episode stuck at a fixed point (the
same action from the same state, leaving it there, for history_k + 1
steps: FORWARD into a wall) is not scored again: its feature row, and
so its logits and action, would repeat until the step cap, so the
driver copies that step up to the cap (rollout.run_lockstep).  This
rests on the scorer being a function of the feature row.  Parallelism
across runs belongs at run level (separate processes).  Reported
SR/SPL/OSR/nDTW are percentages, NE is in meters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .oracle import GeodesicField, geodesic_field
from .policy import PolicySnapshot
from .rollout import RolloutConfig, RolloutJob, Trajectory, run_lockstep, serialize_trace
# Unused here: perfbench's tracer patches metrics.run_greedy when it installs.
from .rollout import run_greedy  # noqa: F401
from .world import Episode, euclid_m

METRICS_HEADER = "step,n,sr,spl,osr,ne,ndtw,route_grpo_frac,env_steps_total"


@dataclass(frozen=True)
class EpisodeResult:
    episode_id: int
    success: bool
    spl: float  # fractions here; the report scales to percentages
    osr: float
    ne: float
    ndtw: float
    path_length: float
    steps: int


@dataclass(frozen=True)
class MetricsReport:
    n: int
    sr: float
    spl: float
    osr: float
    ne: float
    ndtw: float


@dataclass(frozen=True)
class EvalOutcome:
    report: MetricsReport
    results: tuple
    trajectories: tuple


def spl(traj: Trajectory, episode: Episode, field: GeodesicField | None = None) -> float:
    """Success weighted by best-path efficiency: L_geo / max(L_geo, L_traj)."""
    if not traj.success:
        return 0.0
    if field is None:
        field = geodesic_field(episode.world, episode.goal)
    l_geo = field.at(*episode.start.position)
    denom = max(l_geo, traj.path_length)
    if denom <= 0.0:
        return 1.0  # stopped immediately inside the zone
    return l_geo / denom


def navigation_error(traj: Trajectory, episode: Episode, field: GeodesicField | None = None) -> float:
    """Geodesic final-to-goal distance; straight line if cut off."""
    if field is None:
        field = geodesic_field(episode.world, episode.goal)
    d = field.at(*traj.final_pose.position)
    if math.isinf(d):
        return euclid_m(traj.final_pose.position, episode.goal, episode.world.cell_size)
    return d


def _visited_cells(traj: Trajectory) -> list:
    """Flat index y * width + x of the cell before every step, then of
    the final cell: the cells of traj.positions(), read from the states."""
    final, width = traj.final_pose, traj.steps.width
    cells = (traj.steps.states >> 2).tolist()
    cells.append(final.y * width + final.x)
    return cells


def _path_positions(traj: Trajectory) -> list:
    """Distinct positions along the trajectory, consecutive repeats
    collapsed: dedup_positions(traj.poses()), read from the states."""
    width, out, last = traj.steps.width, [], -1
    for cell in _visited_cells(traj):
        if cell != last:
            y, x = divmod(cell, width)
            out.append((x, y))
            last = cell
    return out


def oracle_success(traj: Trajectory, episode: Episode, field: GeodesicField | None = None) -> bool:
    """Did the agent ever pass within the goal radius (geodesic)?

    A successful stop counts unconditionally: the goal zone is Euclidean,
    so an agent stopping just across a wall from the goal can succeed
    while its geodesic detour exceeds the radius, and OSR must still
    dominate SR.
    """
    if traj.success:
        return True
    if field is None:
        field = geodesic_field(episode.world, episode.goal)
    return bool((field.dist.ravel()[_visited_cells(traj)] <= episode.goal_radius).any())


def dtw_distance(path, reference, cell_size: float = 1.0) -> float:
    """Classic O(n*m) dynamic time warping with Euclidean point costs.

    The accumulated-cost table is kept as two rows of Python floats:
    prev is row i - 1 and row is row i, each with the inf border cell.
    """
    m = len(reference)
    prev = [0.0] + [math.inf] * m
    for point in path:
        row = [math.inf] * (m + 1)
        for j in range(1, m + 1):
            cost = euclid_m(point, reference[j - 1], cell_size)
            row[j] = cost + min(prev[j], row[j - 1], prev[j - 1])
        prev = row
    return prev[m]


def ndtw(path, reference, threshold: float = 3.0, cell_size: float = 1.0) -> float:
    """exp(-DTW / (|R| * threshold)); 1.0 iff the paths coincide."""
    return math.exp(-dtw_distance(path, reference, cell_size) / (len(reference) * threshold))


def episode_result(traj: Trajectory, episode: Episode, field: GeodesicField | None = None) -> EpisodeResult:
    if field is None:
        field = geodesic_field(episode.world, episode.goal)
    return EpisodeResult(
        episode_id=episode.id,
        success=traj.success,
        spl=spl(traj, episode, field),
        osr=float(oracle_success(traj, episode, field)),
        ne=navigation_error(traj, episode, field),
        ndtw=ndtw(
            _path_positions(traj),
            list(episode.reference_waypoints),
            episode.goal_radius,
            episode.world.cell_size,
        ),
        path_length=traj.path_length,
        steps=len(traj.steps),
    )


def aggregate(results) -> MetricsReport:
    n = len(results)
    if n == 0:
        return MetricsReport(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return MetricsReport(
        n=n,
        sr=100.0 * sum(r.success for r in results) / n,
        spl=100.0 * sum(r.spl for r in results) / n,
        osr=100.0 * sum(r.osr for r in results) / n,
        ne=sum(r.ne for r in results) / n,
        ndtw=100.0 * sum(r.ndtw for r in results) / n,
    )


def evaluate(
    snapshot: PolicySnapshot,
    episodes,
    cfg: RolloutConfig = RolloutConfig(),
) -> EvalOutcome:
    """Greedy, trigger-free rollouts over the episode list, stepped in
    lockstep; results and trajectories are in episode order."""
    episodes = list(episodes)
    jobs = [RolloutJob(episode, triggers=False) for episode in episodes]
    trajectories = run_lockstep(snapshot, jobs, cfg)
    results = tuple(episode_result(traj, episode) for traj, episode in zip(trajectories, episodes))
    return EvalOutcome(report=aggregate(results), results=results, trajectories=tuple(trajectories))


def format_metrics_row(step: int, report: MetricsReport, route_grpo_frac: float, env_steps_total: int) -> str:
    """Fixed formatting so identical runs produce identical CSV bytes."""
    return (
        f"{step},{report.n},{report.sr:.1f},{report.spl:.1f},{report.osr:.1f},"
        f"{report.ne:.2f},{report.ndtw:.1f},{route_grpo_frac:.3f},{env_steps_total}"
    )


def write_eval_artifacts(out, rows, episodes, outcome: EvalOutcome) -> None:
    """Into the Path out: metrics.csv (rows) and the first three traces."""
    (out / "traces").mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text("\n".join(rows) + "\n")
    for episode, traj in list(zip(episodes, outcome.trajectories))[:3]:
        (out / "traces" / f"episode_{episode.id}.trace").write_text(serialize_trace(traj, episode))
