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
rests on the scorer being a function of the feature row.

An evaluation then scores all of its episodes in one batched pass
(episode_results): the paths' distinct positions come from one pass
over every trajectory's visited cells, concatenated, and every
episode's nDTW from one run of the DTW program behind dtw_distances,
which sweeps all pairs' DTW tables by anti-diagonals, keeping the last
two, with costs read from a table of the floats euclid_m gives; every
value is bit-identical to a per-episode loop.  OSR, NE and SPL stay per
episode (GRPO's reward reads SPL and NE).  Parallelism across runs
belongs at run level (separate processes).  Reported SR/SPL/OSR/nDTW
are percentages, NE is in meters.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .oracle import geodesic_field
from .policy import PolicySnapshot
from .rollout import RolloutConfig, RolloutJob, Trajectory, run_lockstep, serialize_trace
# Unused here: perfbench's tracer patches metrics.run_greedy when it installs.
from .rollout import run_greedy  # noqa: F401
from .world import MAX_SIDE, Episode, euclid_m, pose_state

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


def spl(traj: Trajectory, episode: Episode) -> float:
    """Success weighted by best-path efficiency: L_geo / max(L_geo, L_traj)."""
    if not traj.success:
        return 0.0
    l_geo = geodesic_field(episode.world, episode.goal).at(*episode.start.position)
    denom = max(l_geo, traj.path_length)
    if denom <= 0.0:
        return 1.0  # stopped immediately inside the zone
    return l_geo / denom


def navigation_error(traj: Trajectory, episode: Episode) -> float:
    """Geodesic final-to-goal distance; straight line if cut off."""
    d = geodesic_field(episode.world, episode.goal).at(*traj.final_pose.position)
    if math.isinf(d):
        return euclid_m(traj.final_pose.position, episode.goal, episode.world.cell_size)
    return d


def _visited_cells(traj: Trajectory) -> list:
    """Flat index y * width + x of the cell before every step, then of
    the final cell: the cells of traj.poses(), read from the states."""
    final, width = traj.final_pose, traj.steps.width
    cells = (traj.steps.states >> 2).tolist()
    cells.append(final.y * width + final.x)
    return cells


def oracle_success(traj: Trajectory, episode: Episode) -> bool:
    """Did the agent ever pass within the goal radius (geodesic)?

    A successful stop counts unconditionally: the goal zone is Euclidean,
    so an agent stopping just across a wall from the goal can succeed
    while its geodesic detour exceeds the radius, and OSR must still
    dominate SR.
    """
    if traj.success:
        return True
    field = geodesic_field(episode.world, episode.goal)
    return bool((field.dist.ravel()[_visited_cells(traj)] <= episode.goal_radius).any())


@functools.lru_cache(maxsize=MAX_SIDE)
def _hypot_table(side: int) -> np.ndarray:
    """math.hypot(dx, dy) for every integer offset between two cells of a
    side x side grid, at index (dx + side - 1) * (2 * side - 1) + dy +
    side - 1, then one inf, which every index past the end clips to.
    Read-only, memoized per side."""
    span = range(1 - side, side)
    table = np.fromiter(
        itertools.chain((math.hypot(dx, dy) for dx in span for dy in span), (math.inf,)),
        dtype=np.float64, count=len(span) ** 2 + 1,
    )
    table.flags.writeable = False
    return table


def _points(sequences):
    """The (x, y) points of the sequences laid end to end, int64 [count,
    2], and each sequence's length.  Points must be integer cells; a
    float coordinate counts if it is integral (2.0 is cell 2)."""
    lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
    points = np.array([c for seq in sequences for point in seq for c in point])
    kind = points.dtype.kind
    if kind not in "iuf" or (kind == "f" and not all(c.is_integer() for c in points.tolist())):
        raise TypeError(f"DTW points must be integer cells, got {points.dtype} coordinates")
    return points.astype(np.int64).reshape(-1, 2), lengths


def dtw_distances(paths, references, cell_sizes) -> list:
    """Dynamic time warping distance of each (path, reference) pair, in
    meters.  Paths and references are sequences of integer (x, y) cells
    of one grid (a coordinate that is not integral raises TypeError),
    and a pair's point cost is euclid_m at its cell size.  Two empty
    sequences are 0.0 apart, an empty and a nonempty one inf.

    One dynamic program runs every pair.  A pair's accumulated cost is
    acc[i, j] = cost(path[i - 1], reference[j - 1]) + min(acc[i - 1, j],
    acc[i, j - 1], acc[i - 1, j - 1]), with acc[0, 0] = 0 and the rest of
    row and column 0 inf, and its distance is acc[n, m].  The sweep runs
    over the anti-diagonals d = i + j, computing each for all pairs at
    once from the two before it, which are all it keeps: [pairs, M + 1]
    floats each (M the longest reference), column k holding j = M - k,
    so that the path points along a diagonal are consecutive.  A pair's
    distance is read off its diagonal n + m; pairs are swept longest
    first, so the pairs still running are the first rows.

    Each value is one float addition of a cost and the exact minimum of
    three values, so it has the bits a row-by-row loop computes.  Costs
    are math.hypot of the integer offsets, read from a memoized table,
    times the cell size: the bits of euclid_m.  Padding past either end
    reads the table's inf, which is what keeps row 0 inf, so the cell
    sizes must be positive and finite (suites check that they are).
    """
    if not len(paths) == len(references) == len(cell_sizes):
        raise ValueError(
            f"{len(paths)} paths, {len(references)} references and {len(cell_sizes)} cell sizes"
        )
    return _dtw(*_points(paths), *_points(references), cell_sizes)


def _dtw(path_xy, n_len, ref_xy, m_len, cell_sizes) -> list:
    """dtw_distances of pairs given as their points laid end to end:
    int64 path_xy [sum(n_len), 2] and ref_xy [sum(m_len), 2]."""
    if not all(0.0 < size < math.inf for size in cell_sizes):
        raise ValueError(f"cell sizes must be positive and finite: {list(cell_sizes)}")
    ends = (n_len + m_len).tolist()
    distances = [0.0 if end == 0 else math.inf for end in ends]  # right unless n, m > 0
    if not len(path_xy) or not len(ref_xy):
        return distances
    low = np.minimum(path_xy.min(axis=0), ref_xy.min(axis=0))
    side = int((np.maximum(path_xy.max(axis=0), ref_xy.max(axis=0)) - low).max()) + 1
    if side > MAX_SIDE:
        raise ValueError(f"DTW points span {side} cells, more than a grid holds ({MAX_SIDE})")
    table = _hypot_table(side)
    # A path cell's key minus a reference cell's key is their offset's
    # index in the table; the padding keys put every difference past its
    # end.  The paths' keys lie end to end in flat with m padding keys
    # before, between and after them, point i - 1 of pair p's path at
    # base[p] + i - 1, so that the path points along a diagonal are m
    # consecutive keys of flat.  ref_keys[r, m - j] holds point j - 1 of
    # the reference of the pair swept in row r.
    wide, pad, pairs, m = 2 * side - 1, 2 * len(table), len(ends), int(m_len.max())
    shift = int(low[0]) * wide + int(low[1])
    blocks = np.arange(1, pairs + 1)  # the padding blocks before each path
    base = np.cumsum(n_len) - n_len + m * blocks
    flat = np.full(len(path_xy) + m * (pairs + 1), pad, dtype=np.int64)
    flat[np.arange(len(path_xy)) + m * np.repeat(blocks, n_len)] = (
        path_xy[:, 0] * wide + path_xy[:, 1] + ((side - 1) * (wide + 1) - shift)
    )
    order = sorted(range(pairs), key=ends.__getitem__, reverse=True)  # longest first
    row = np.empty(pairs, dtype=np.int64)  # each pair's row in the sweep
    row[order] = np.arange(pairs)
    owner = np.repeat(np.arange(pairs), m_len)
    ref_keys = np.full((pairs, m), -pad, dtype=np.int64)
    ref_keys[row[owner], (np.cumsum(m_len) - m_len + m - 1)[owner] - np.arange(len(ref_xy))] = (
        ref_xy[:, 0] * wide + ref_xy[:, 1] - shift
    )
    base, columns = base[order, None] - m - 1, np.arange(m)  # + d: the flat indices of diagonal d
    cell = np.array(cell_sizes, dtype=np.float64)[order, None]
    finish = [m - int(m_len[p]) for p in order]  # the column of acc[n, m] on diagonal n + m
    ends = [ends[p] for p in order]

    keys = np.empty((pairs, m), dtype=np.int64)
    cost = np.empty((pairs, m))
    before = np.full((pairs, m + 1), np.inf)  # diagonal d - 2
    last = before.copy()  # diagonal d - 1
    spare = before.copy()
    before[:, m] = 0.0  # acc[0, 0]
    active = pairs
    for d in range(2, ends[0] + 1):
        while ends[active - 1] < d:
            active -= 1
        key, price = keys[:active], cost[:active]
        # (The indices into flat are in range; mode="clip" lets take write to out unbuffered.)
        np.take(flat, base[:active] + (columns + d), out=key, mode="clip")
        key -= ref_keys[:active]
        np.take(table, key, out=price, mode="clip")
        price *= cell[:active]
        # min(acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1]): with no nan
        # or -0.0 about, where() over < picks np.minimum's values, and an
        # evaluation already runs its loops (np.minimum's would add 64 KB
        # of numpy's code to the process's resident memory).
        up, left, corner = last[:active, :m], last[:active, 1:], before[:active, 1:]
        best = np.where(left < up, left, up)
        best = np.where(corner < best, corner, best)
        now = spare
        np.add(price, best, out=now[:active, :m])
        r = active
        while r and ends[r - 1] == d:
            r -= 1
            distances[order[r]] = float(now[r, finish[r]])
        spare, before, last = before, last, now
        if d == 2:
            spare[:, m] = np.inf  # the acc[0, 0] buffer: from here on column m is inf
    return distances


def dtw_distance(path, reference, cell_size: float = 1.0) -> float:
    """Dynamic time warping distance of one path and reference
    (dtw_distances of one pair): sequences of integer (x, y) cells, a
    coordinate that is not integral raises TypeError."""
    return dtw_distances([path], [reference], [cell_size])[0]


def _ndtw(distance: float, reference_len: int, threshold: float) -> float:
    return math.exp(-distance / (reference_len * threshold))


def ndtw(path, reference, threshold: float = 3.0, cell_size: float = 1.0) -> float:
    """exp(-DTW / (|R| * threshold)); 1.0 iff the paths coincide.  The
    paths are integer (x, y) cells, as for dtw_distance."""
    return _ndtw(dtw_distance(path, reference, cell_size), len(reference), threshold)


def _path_points(trajectories):
    """The paths' distinct positions (consecutive repeats collapsed, like
    world.dedup_positions over traj.poses()), from one pass over all the
    trajectories' visited cells laid end to end: int64 [count, 2] (x, y)
    points and each path's length."""
    # Every trajectory's state before each step, then its final state; a
    # path point wherever the cell changes or a trajectory begins.
    cells = np.concatenate([
        part for traj in trajectories
        for part in (traj.steps.states, [pose_state(traj.final_pose, traj.steps.width)])
    ])
    cells >>= 2
    lengths = [len(traj.steps) + 1 for traj in trajectories]
    keep = np.empty(len(cells), dtype=bool)
    keep[1:] = np.diff(cells)  # nonzero where the cell changes
    keep[np.cumsum(lengths) - lengths] = True
    n_len = np.bincount(np.repeat(np.arange(len(lengths)), lengths)[keep], minlength=len(lengths))
    widths = np.repeat([traj.steps.width for traj in trajectories], n_len)
    xy = np.empty((len(widths), 2), dtype=np.int64)
    np.divmod(cells[keep], widths, out=(xy[:, 1], xy[:, 0]))
    return xy, n_len


def episode_results(trajectories, episodes) -> list:
    """The EpisodeResult of each (trajectory, episode) pair, in order.

    The paths' distinct positions come from one pass over all the
    trajectories' visited cells (_path_points), and their nDTW from one
    DTW program over every pair.  SPL, OSR and NE are computed per
    episode.
    """
    trajectories, episodes = list(trajectories), list(episodes)
    if not trajectories:
        return []
    distances = _dtw(
        *_path_points(trajectories), *_points([episode.reference_waypoints for episode in episodes]),
        [episode.world.cell_size for episode in episodes],
    )
    results = []
    for traj, episode, distance in zip(trajectories, episodes, distances):
        results.append(EpisodeResult(
            episode_id=episode.id,
            success=traj.success,
            spl=spl(traj, episode),
            osr=float(oracle_success(traj, episode)),
            ne=navigation_error(traj, episode),
            ndtw=_ndtw(distance, len(episode.reference_waypoints), episode.goal_radius),
            path_length=traj.path_length,
            steps=len(traj.steps),
        ))
    return results


def episode_result(traj: Trajectory, episode: Episode) -> EpisodeResult:
    """The EpisodeResult of one trajectory (episode_results of one pair)."""
    return episode_results([traj], [episode])[0]


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
    results = tuple(episode_results(trajectories, episodes))
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
