"""Write a BENCH_<n>.json: budnav's end-to-end and per-layer timings,
for this checkout and, optionally, the checkout of its parent commit.

    python3 tools/bench.py --out BENCH_1.json --parent DIR [--seed 1000]

BLAS is pinned to one thread here, before numpy can load, and in every
child.  The environment block records the OpenBLAS kernel numpy runs,
since each kernel rounds its products differently.  The script measures,
on each side:

  * desk_full seed 0: `budnav train --config configs/desk_full.cfg --seed 0`,
    run DESK_RUNS times per side in alternating parent/change pairs; wall
    and CPU seconds (median) with the final SR/SPL the run prints, and
    the pairs the change wins;
  * per workload: `perfbench/run.py --workload W --seconds SECONDS --trace 0`
    in PAIRS alternating pairs of parent and change (seed S + i for pair i,
    the side that runs first alternating), recording each run's end-to-end
    medians, then per metric the median and quartiles of each side, the
    pairs the change wins and whether the medians differ by more than the
    parent's quartile spread;
  * per workload: `perfbench/run.py --workload W --seconds SECONDS
    --trace 1` in TRACE_PAIRS alternating pairs (seed S + i for pair i,
    the side that runs first alternating, so no one phase of a shared
    machine decides a layer's comparison), recording each run's per-layer
    metrics, then per layer each side's median and the pairs the change
    wins (in the direction BENCHMARK.json gives), with the layers the
    tracer does not see listed by name.

perfbench/run.py is run as a black box: its last stdout line is the JSON
result.  DIR is a checkout of the parent commit (for example unpacked
from `git archive`); without it only this checkout is measured.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from budnav.config import blas_kernel  # noqa: E402

WORKLOADS = ("train_full", "train_bc", "eval_desk")
DESK_RUNS = 3  # desk_full seed 0 runs per side
SECONDS = 20  # perfbench/run.py --seconds
PAIRS = 10  # alternating parent/change pairs per workload
TRACE_PAIRS = 3  # alternating parent/change pairs of traced runs per workload
LOWER_IS_BETTER = ("setup_s", "run_s", "peak_rss_mb")

# Work the tracer in perfbench/tracer.py does not wrap where it runs today;
# its time lands in the self time of the span that calls it.
UNTRACED = {
    "evaluation rollouts": "metrics.evaluate calls rollout.run_lockstep, which is not "
    "wrapped: its steps count toward no rollout.* metric and its time is "
    "metrics.evaluate self time",
    "rollout observation gather": "rollout.run_lockstep gathers every running job's "
    "observation with one index into the occupancy grids and calls no observe: "
    "world.observe counts no rollout step, and the gather's time is rollout.* or "
    "metrics.evaluate self time",
    "rect loss observation gather": "rectify.rect_loss_and_grad gathers with "
    "world.observe_states, which is not wrapped: its time is rectify.loss self time",
    "grpo loss observation gather": "grpo.grpo_loss_and_grad gathers each trajectory's "
    "observations from its states with world.observe_states, which is not wrapped: its "
    "time is grpo.loss self time",
    "rect loss featurization": "rectify.featurize is not wrapped: its time is "
    "rectify.loss self time, not policy.forward",
    "evaluation metrics": "metrics.evaluate scores its episodes with "
    "metrics.episode_results, which calls neither metrics.episode_result nor "
    "metrics.dtw_distance: metrics.episode_result.self_s, metrics.dtw.self_s, "
    "metrics.evaluate.episodes and metrics.episode_ms_* read 0, and the scoring time "
    "is metrics.evaluate self time",
}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def desk_run(root: Path) -> dict:
    """One `budnav train` of desk_full.cfg, seed 0: wall, CPU, SR, SPL."""
    with tempfile.TemporaryDirectory() as out:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "budnav.cli", "train", "--config", "configs/desk_full.cfg",
             "--seed", "0", "--out", out],
            cwd=root, env=child_env(root), capture_output=True, text=True, check=True,
        )
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
    m = re.search(r"final SR (\S+) SPL (\S+)", proc.stdout)
    if m is None:
        raise RuntimeError(f"unexpected `budnav train` output: {proc.stdout!r}")
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"wall_s": wall, "cpu_s": cpu, "sr": float(m.group(1)), "spl": float(m.group(2))}


def perfbench(root: Path, workload: str, seed: int, trace: int) -> dict:
    """The JSON result of one perfbench/run.py invocation in root."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=root, env=child_env(root), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench/run.py in {root} exited {proc.returncode}: {proc.stderr[-400:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(root.name, workload, seed, f"trace={trace}", json.dumps(
        {k: v["value"] for k, v in result["metrics"].items()} if not trace else result["failed"]
    ), flush=True)
    return result


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(pairs: list) -> dict:
    """Per end-to-end metric: each side's quartiles, the pairs the change
    wins (ties count for neither side) and whether the gap between the
    medians exceeds the parent's quartile spread."""
    out = {side: {"failed": sum(p[side]["failed"] for p in pairs)} for side in ("parent", "change")}
    for name in pairs[0]["change"]["metrics"]:
        sign = 1 if name in LOWER_IS_BETTER else -1  # sr and spl: higher is better
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        pq, cq = quartiles(parent), quartiles(change)
        out[name] = {
            "parent": pq, "change": cq,
            "change_wins": sum(sign * (a - b) > 0 for a, b in zip(parent, change)),
            "pairs": len(pairs),
            "gap_exceeds_parent_iqr": sign * (pq["median"] - cq["median"]) > pq["q3"] - pq["q1"],
        }
    return out


def compare_layers(pairs: list) -> dict:
    """Per traced metric: each side's median over the pairs and, with a
    parent, the pairs the change wins in the metric's better direction
    (BENCHMARK.json; ties count for neither side)."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    better = {m["name"]: m["better"] for m in declared}
    sides = list(pairs[0])
    out = {}
    for name in pairs[0][sides[0]]["metrics"]:
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in sides}
        out[name] = {side: statistics.median(v) for side, v in values.items()}
        if "parent" in values:
            sign = 1 if better.get(name, "lower") == "lower" else -1
            out[name]["change_wins"] = sum(
                sign * (a - b) > 0 for a, b in zip(values["parent"], values["change"])
            )
    return out


def alternating(sides: dict, i: int) -> list:
    """The (side, root) pairs of pair i, parent first in even pairs."""
    order = list(sides.items())
    return order[::-1] if i % 2 else order


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent", type=Path, default=None, help="checkout of the parent commit")
    parser.add_argument("--seed", type=int, default=1000, help="perfbench seed of the first pair")
    args = parser.parse_args(argv)
    sides = {"change": ROOT}
    if args.parent is not None:
        sides = {"parent": args.parent.resolve(), "change": ROOT}
    import numpy

    bench = {
        "environment": {
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "processor": platform.processor() or "unknown",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "blas_kernel": blas_kernel(),
        },
        "desk_full_seed0": {},
        "workloads": {},
        "per_layer": {},
        "untraced_layers": UNTRACED,  # as of this checkout
    }
    desk = {side: [] for side in sides}
    for i in range(DESK_RUNS):
        for side, root in alternating(sides, i):
            desk[side].append(desk_run(root))
            print(side, "desk_full seed 0", json.dumps(desk[side][-1]), flush=True)
    for side, runs in desk.items():
        bench["desk_full_seed0"][side] = {
            "runs": runs,
            "median_wall_s": statistics.median(r["wall_s"] for r in runs),
            "median_cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "sr": runs[0]["sr"], "spl": runs[0]["spl"],
        }
    if "parent" in sides:
        bench["desk_full_seed0"]["change_wins"] = {
            key: sum(c[key] < p[key] for p, c in zip(desk["parent"], desk["change"]))
            for key in ("wall_s", "cpu_s")
        }
    for workload in WORKLOADS:
        runs = []
        for i in range(PAIRS):
            runs.append({side: perfbench(root, workload, args.seed + i, 0)
                         for side, root in alternating(sides, i)})
        entry = {"seeds": [args.seed + i for i in range(len(runs))], "runs": runs}
        if "parent" in sides:
            entry["end_to_end"] = compare(runs)
        bench["workloads"][workload] = entry
        traced = [
            {side: perfbench(root, workload, args.seed + i, 1)
             for side, root in alternating(sides, i)}
            for i in range(TRACE_PAIRS)
        ]
        bench["per_layer"][workload] = {
            "seeds": [args.seed + i for i in range(TRACE_PAIRS)], "runs": traced,
            "layers": compare_layers(traced),
        }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
