"""Command-line entry point.

Subcommands:

    train      run one training configuration, writing run artifacts
    eval       evaluate a checkpoint on a benchmark suite
    compare    train several configs over seeds, print a summary table
    replay     parse a trace back into its trajectory, re-execute it
               and render an ASCII map
    gen-suite  generate and write a benchmark suite file

Exit codes: 0 success, 1 generic/partial failure, 2 unreadable or
invalid config/suite/arguments, 3 divergence (non-finite gradient), 4
checkpoint corruption, 5 malformed or inconsistent trace or replay
divergence, 141 stdout closed before the output was written (128 +
SIGPIPE, as `budnav ... | head`).
"""
from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import load_config, read_suite_file, write_manifest
from .errors import (
    BudnavError,
    CheckpointError,
    ConfigError,
    NonFiniteGradient,
    SuiteError,
    TraceError,
)
from .metrics import METRICS_HEADER, evaluate, format_metrics_row, write_eval_artifacts
from .policy import load_checkpoint, snapshot
from .rollout import RolloutConfig, parse_trace, trigger_mark, verify_trace
from .suite import generate_suite, serialize_suite
from .trainer import VARIANTS, train


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        return _stdout_closed()
    except (ConfigError, SuiteError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NonFiniteGradient as e:
        print(f"error: training diverged: {e}", file=sys.stderr)
        return 3
    except CheckpointError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except TraceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 5
    except BudnavError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


EXIT_STDOUT_CLOSED = 141


def _stdout_closed() -> int:
    """The reader of stdout went away: point stdout at devnull, so the
    interpreter's last flush of what is still buffered cannot fail
    again, and exit quietly."""
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (OSError, ValueError):  # a stdout without a file descriptor
        pass
    return EXIT_STDOUT_CLOSED


@contextmanager
def _run_files(out: Path):
    """An OSError while making or writing the files of the run directory
    out is a ConfigError (exit 2)."""
    try:
        yield
    except OSError as e:
        raise ConfigError(f"--out {out} cannot hold the run's files: {e}") from e


def _out_dir(path, *subdirs) -> Path:
    """Create an --out directory, and the subdirectories its files go
    into, before any work, so a path that cannot hold them exits 2
    instead of failing after the work is done."""
    out = Path(path)
    with _run_files(out):
        out.mkdir(parents=True, exist_ok=True)
        for name in subdirs:
            (out / name).mkdir(exist_ok=True)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="budnav", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"budnav {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one training configuration")
    p.add_argument("--config", required=True, help="config file (key=value lines)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--algo", choices=("gro", *VARIANTS), default=None,
                   help="override the configured variant (gro is full)")
    p.add_argument("--seed", type=int, default=None, help="override trainer.run_seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a suite")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--suite", required=True)
    p.add_argument("--out", default=None, help="directory for CSV and traces")
    p.add_argument("--limit", type=int, default=0, help="cap held-out episodes (0 = all)")
    p.add_argument("--json", action="store_true", help="print a JSON report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="train configs across seeds, tabulate")
    p.add_argument("--configs", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, default=[0])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("replay", help="verify a trace and draw the map")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("gen-suite", help="generate a benchmark suite file")
    p.add_argument("--name", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--train-worlds", dest="n_train_worlds", type=int, required=True)
    p.add_argument("--held", dest="n_held", type=int, required=True)
    # Flags left out keep generate_suite's defaults.
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--density", type=float)
    p.add_argument("--goal-radius", type=float)
    p.add_argument("--min-length", dest="min_episode_length", type=float)
    p.add_argument("--max-run", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_suite)
    return parser


def cmd_train(args) -> int:
    extra = {}
    if args.algo is not None:
        extra["trainer.variant"] = "full" if args.algo == "gro" else args.algo
    if args.seed is not None:
        extra["trainer.run_seed"] = args.seed
    cfg, values, overrides = load_config(args.config, extra)
    out = Path(args.out)
    result = _train_run(cfg, values, overrides, out)
    last = result.evals[-1][1]
    print(f"run complete: {len(result.reports)} episodes, "
          f"final SR {last.sr:.1f} SPL {last.spl:.1f} NE {last.ne:.2f}")
    print(f"artifacts in {out}")
    return 0


def _train_run(cfg, values, overrides, out: Path):
    """One run directory: the manifest, the suite file, then the training
    artifacts; returns the TrainResult.  The directories come first, so a
    file in their place stops the run before it trains."""
    _out_dir(out, "checkpoints", "traces")
    with _run_files(out):
        write_manifest(out, values, overrides, cfg.suite, __version__)
        (out / "suite.suite").write_text(serialize_suite(cfg.suite))
        return train(cfg, out_dir=out)


def cmd_eval(args) -> int:
    try:
        params = load_checkpoint(args.ckpt)
    except OSError as e:
        raise ConfigError(f"cannot read checkpoint {args.ckpt}: {e}") from e
    suite = read_suite_file(Path(args.suite))
    if params.cfg.max_run != suite.max_run:
        raise ConfigError(
            f"checkpoint max_run ({params.cfg.max_run}) does not match suite max_run"
            f" ({suite.max_run}): the instruction vocabularies differ"
        )
    # Imported at call time, so that perfbench's tracer, which patches
    # suite.build_held_episodes, wraps this call.
    from .suite import build_held_episodes

    episodes = build_held_episodes(suite, args.limit)
    out = _out_dir(args.out, "traces") if args.out else None
    cfg = RolloutConfig()
    outcome = evaluate(snapshot(params, "eval"), episodes, cfg)
    r = outcome.report
    if args.json:
        print(json.dumps({
            "n": r.n, "sr": r.sr, "spl": r.spl, "osr": r.osr,
            "ne": r.ne, "ndtw": r.ndtw,
        }))
    else:
        print(f"n={r.n} SR={r.sr:.1f} SPL={r.spl:.1f} OSR={r.osr:.1f} "
              f"NE={r.ne:.2f} nDTW={r.ndtw:.1f}")
    if out is not None:
        rows = [METRICS_HEADER, format_metrics_row(0, r, 0.0, 0)]
        with _run_files(out):
            write_eval_artifacts(out, rows, episodes, outcome, cfg)
    return 0


def cmd_compare(args) -> int:
    # Build every run's config before training any, so a bad config, or
    # two runs that would share a directory, exits 2 without leaving
    # partial results behind.
    for i, seed in enumerate(args.seeds):
        if seed in args.seeds[:i]:
            raise ConfigError(f"seed {seed} repeats in --seeds")
    labels, plans = {}, []
    for cfg_path in args.configs:
        label = Path(cfg_path).stem
        if label in labels:
            raise ConfigError(f"configs {labels[label]} and {cfg_path} share the run label {label!r}")
        labels[label] = cfg_path
        cfg, values, overrides = load_config(cfg_path)
        runs = [
            (seed, replace(cfg, run_seed=seed), {**values, "trainer.run_seed": seed},
             {**overrides, "trainer.run_seed": seed})
            for seed in args.seeds
        ]
        plans.append((label, runs))
    out_root = _out_dir(args.out)
    rows = []
    failures = 0
    for label, runs in plans:
        per_seed = []
        env_totals = []
        for seed, cfg, values, overrides in runs:
            run_dir = out_root / f"{label}_seed{seed}"
            try:
                result = _train_run(cfg, values, overrides, run_dir)
            except BudnavError as e:  # partial results are still reported
                print(f"warning: {label} seed {seed} failed: {e}", file=sys.stderr)
                failures += 1
                continue
            per_seed.append(result.evals[-1][1])
            env_totals.append(sum(r.env_steps_used for r in result.reports))
        if per_seed:
            n = len(per_seed)
            rows.append((
                label, n,
                sum(r.sr for r in per_seed) / n,
                sum(r.spl for r in per_seed) / n,
                sum(r.osr for r in per_seed) / n,
                sum(r.ne for r in per_seed) / n,
                sum(r.ndtw for r in per_seed) / n,
                sum(env_totals) / n,
            ))
        else:
            rows.append((label, 0, None, None, None, None, None, None))
    if len(args.seeds) == 1:
        print(f"single seed: {args.seeds[0]}")
    header = f"{'config':<20} {'seeds':>5} {'SR':>6} {'SPL':>6} {'OSR':>6} {'NE':>6} {'nDTW':>6} {'env-steps':>10}"
    print(header)
    print("-" * len(header))
    table_lines = [header]
    for label, n, sr, spl, osr, ne, ndtw, env in rows:
        if n == 0:
            line = f"{label:<20} {'0':>5} {'(all runs failed)':>6}"
        else:
            line = (f"{label:<20} {n:>5} {sr:>6.1f} {spl:>6.1f} {osr:>6.1f} "
                    f"{ne:>6.2f} {ndtw:>6.1f} {env:>10.0f}")
        print(line)
        table_lines.append(line)
    (out_root / "compare.txt").write_text("\n".join(table_lines) + "\n")
    return 1 if failures else 0


def cmd_replay(args) -> int:
    try:
        text = Path(args.trace).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise TraceError(f"cannot read trace {args.trace}: {e}") from e
    episode, traj, cfg, triggers, rect = parse_trace(text)
    n = verify_trace(episode, traj, cfg, triggers)
    print(f"trace verified: {n} steps, success={traj.success}, trigger={trigger_mark(traj.trigger)}")
    print(render_map(episode, traj, None if rect is None else rect["anchor_pose"]))
    return 0


def render_map(episode, traj, anchor_pose=None) -> str:
    """ASCII map of a trajectory on its episode: walls '#', reference path
    'o', executed path '*', both '@', start 'S', goal 'G', the pose after
    the trigger's step 'X', rect anchor 'A'."""
    world = episode.world
    grid = [
        ["#" if (x, y) in world.blocked else "." for x in range(world.width)]
        for y in range(world.height)
    ]

    def put(x, y, ch):
        grid[y][x] = ch

    poses = traj.poses()
    for x, y in episode.reference_waypoints:
        put(x, y, "o")
    for pose in poses:
        put(pose.x, pose.y, "@" if grid[pose.y][pose.x] == "o" else "*")
    if traj.trigger is not None:
        pose = poses[traj.trigger[1] + 1]
        put(pose.x, pose.y, "X")
    if anchor_pose is not None:
        put(anchor_pose.x, anchor_pose.y, "A")
    put(episode.start.x, episode.start.y, "S")
    put(*episode.goal, "G")
    legend = "S start  G goal  o reference  * executed  @ both  X trigger  A anchor"
    return "\n".join("".join(row) for row in grid) + "\n" + legend


def cmd_gen_suite(args) -> int:
    params = inspect.signature(generate_suite).parameters
    suite = generate_suite(
        **{k: v for k, v in vars(args).items() if k in params and v is not None}
    )
    try:
        Path(args.out).write_text(serialize_suite(suite))
    except OSError as e:
        raise ConfigError(f"cannot write suite file {args.out}: {e}") from e
    print(f"wrote suite {suite.name!r}: {len(suite.train_world_seeds)} train worlds, "
          f"{len(suite.held_pairs)} held episodes -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
