"""budnav benchmark: desk training and evaluation, timed from outside.

    python3 perfbench/run.py --workload {train_full,train_bc,eval_desk} \
        --seed N --seconds S --trace {0,1} [--size {desk,smoke}]

Each repetition runs in a fresh child process (perfbench/child.py), so module
caches start cold as they do for a CLI user.  Repetitions continue while the
next one fits in --seconds, with at least MIN_REPS of them.  Before measuring,
untimed preparation writes each case's config and runs the budnav CLI on it
(`budnav train`, and `budnav eval` on the checkpoint for eval_desk); the CLI's
SR/SPL are the reference every repetition must reproduce.  Preparation is
cached per source digest under .bench_build/.

With --trace 0 the result holds the end-to-end metrics (medians over
repetitions; times are CPU seconds of the child process); with --trace 1 untraced and traced repetitions alternate and the
result holds the per-layer metrics plus the tracing overhead.  The last stdout
line is the JSON result; earlier lines describe the environment and each
repetition.  The rationale and layer predictions are in perfbench/README.md.
"""
import os

# Before numpy is imported here or in any child: BLAS pools would compete with
# the eval thread pool and with each other.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = ROOT / ".bench_build" / "perfbench"

MIN_REPS = 2
PREP_WORKERS = 2
CHILD_TIMEOUT_S = 150

# (base config, overrides, cases, pool).  A case is one run seed.  How much
# work one seed's policy makes varies widely (how often it stops early or
# wanders to the step cap), so a repetition runs several cases.  With a pool,
# the seed picks its cases from run seeds 0..pool-1, whose checkpoints are
# prepared once per source digest.
SIZES = {
    "desk": {
        "train_full": ("desk_full.cfg", {"trainer.train_episodes": 300, "trainer.eval_every": 300}, 2, 0),
        "train_bc": ("desk_bc.cfg", {"trainer.train_episodes": 600, "trainer.eval_every": 600}, 1, 0),
        "eval_desk": ("desk_bc.cfg", {"trainer.train_episodes": 0}, 12, 24),
    },
    "smoke": {
        "train_full": ("smoke.cfg", {"trainer.variant": "full"}, 2, 0),
        "train_bc": ("smoke.cfg", {"trainer.variant": "bc"}, 1, 0),
        "eval_desk": ("smoke.cfg", {"trainer.variant": "bc", "trainer.train_episodes": 0}, 2, 4),
    },
}
KIND = {"train_full": "train", "train_bc": "train", "eval_desk": "eval"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def source_digest() -> str:
    h = hashlib.blake2b(digest_size=8)
    files = sorted(SRC.rglob("*.py")) + sorted(CONFIGS.glob("*.*")) + sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cli(args, cwd: Path) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "budnav.cli", *args], cwd=cwd, env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"budnav {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return proc.stdout


def write_config(base: str, overrides: dict, run_seed: int, dest: Path) -> None:
    from budnav.config import parse_config_text, resolved_values, serialize_values

    base_path = CONFIGS / base
    values = resolved_values(parse_config_text(base_path.read_text()))
    values.update(overrides)
    values["trainer.run_seed"] = run_seed
    if values["suite.file"]:
        # Relative to the new config, as budnav resolves it; an absolute path
        # could hold a '#', which starts a comment in a config file.
        suite = (base_path.parent / values["suite.file"]).resolve()
        values["suite.file"] = os.path.relpath(suite, dest.parent)
    dest.write_text(serialize_values(values))


def prepare_case(workload: str, base: str, overrides: dict, run_seed: int, case_dir: Path) -> dict:
    case_dir.mkdir(parents=True, exist_ok=True)
    cfg = case_dir / "run.cfg"
    write_config(base, overrides, run_seed, cfg)
    text = cli(["train", "--config", str(cfg), "--out", str(case_dir / "cli")], case_dir)
    m = re.search(r"final SR (\S+) SPL (\S+)", text)
    if m is None:
        raise BenchError(f"unexpected `budnav train` output: {text!r}")
    case = {"run_seed": run_seed, "config": str(cfg), "sr": m.group(1), "spl": m.group(2)}
    if KIND[workload] == "eval":
        ckpt = case_dir / "cli" / "checkpoints" / "final.ckpt"
        suite = case_dir / "cli" / "suite.suite"
        report = json.loads(cli(["eval", "--ckpt", str(ckpt), "--suite", str(suite), "--json"], case_dir))
        case.update(ckpt=str(ckpt), suite=str(suite), sr=report["sr"], spl=report["spl"])
    return case


def case_seeds(seed: int, cases: int, pool: int) -> list:
    if not pool:
        return [seed * cases + k for k in range(cases)]

    def rank(i):
        return hashlib.blake2b(f"{seed} {i}".encode(), digest_size=8).digest()

    return sorted(sorted(range(pool), key=rank)[:cases])


def cached_case(workload: str, base: str, overrides: dict, run_seed: int, case_dir: Path) -> dict:
    done = case_dir / "case.json"
    if not done.exists():
        tmp = done.with_suffix(".tmp")
        tmp.write_text(json.dumps(prepare_case(workload, base, overrides, run_seed, case_dir)))
        tmp.replace(done)
    return json.loads(done.read_text())


def prepare(workload: str, size: str, seed: int) -> dict:
    """Each case's inputs and the CLI's reference SR/SPL, cached per case.

    Cases are independent CLI runs, so two run at a time; nothing is timed.
    """
    base, overrides, cases, pool = SIZES[size][workload]
    out = WORK / source_digest() / f"{workload}-{size}"
    with ThreadPoolExecutor(max_workers=PREP_WORKERS) as workers:
        futures = [
            workers.submit(cached_case, workload, base, overrides, s, out / f"seed{s}")
            for s in case_seeds(seed, cases, pool)
        ]
        return {"cases": [f.result() for f in futures]}


def child_spec(workload: str, prepared: dict, traced: bool) -> dict:
    cases = prepared["cases"]
    if KIND[workload] == "train":
        return {"kind": "train", "configs": [c["config"] for c in cases], "trace": traced}
    return {
        "kind": "eval", "suite": cases[0]["suite"],
        "ckpts": [c["ckpt"] for c in cases], "trace": traced,
    }


def run_rep(spec: dict) -> dict:
    """One repetition in a fresh process; a crash is a failed record."""
    spec = dict(spec, t_spawn=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)], cwd=ROOT,
            env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": spec["trace"], "error": "timeout"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "traced": spec["trace"], "error": proc.stderr.strip()[-400:]}
    return dict(json.loads(lines[-1]), ok=True, traced=spec["trace"])


def matches_cli(workload: str, rep: dict, prepared: dict) -> bool:
    """SR/SPL as `budnav train` prints them (one decimal) or `budnav eval --json` (exact)."""
    for got, ref in zip(rep["cases"], prepared["cases"]):
        for key in ("sr", "spl"):
            value = f"{got[key]:.1f}" if KIND[workload] == "train" else got[key]
            if value != ref[key]:
                return False
    return len(rep["cases"]) == len(prepared["cases"])


def score(workload: str, reps: list, prepared: dict) -> int:
    """Mark each repetition failed or not; return the failed count.

    A repetition fails if it crashed, if its digest differs from the one most
    untraced repetitions agree on, or if its SR/SPL differ from the CLI's.
    """
    agreed = Counter(r["digest"] for r in reps if r["ok"] and not r["traced"]).most_common(1)
    reference = agreed[0][0] if agreed else None
    for r in reps:
        r["failed"] = not (
            r["ok"] and r["digest"] == reference and matches_cli(workload, r, prepared)
        )
    return sum(r["failed"] for r in reps)


def measure(workload: str, prepared: dict, seconds: float, trace: bool) -> list:
    reps = []
    start = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = run_rep(child_spec(workload, prepared, traced))
        reps.append(rep)
        print("rep", json.dumps({k: v for k, v in rep.items() if k != "layers"}), flush=True)
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def declared(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[section]}


def end_to_end(reps: list) -> dict:
    good = [r for r in reps if not r["failed"] and not r["traced"]]
    value = {k: statistics.median(r[k] for r in good) for k in ("setup_s", "run_s", "peak_rss_mb")}
    for k in ("sr", "spl"):
        value[k] = statistics.fmean(c[k] for c in good[0]["cases"])
    return {name: {"value": value[name], "unit": unit} for name, unit in declared("end_to_end").items()}


def per_layer(reps: list) -> dict:
    traced = [r for r in reps if not r["failed"] and r["traced"]]
    plain = [r for r in reps if not r["failed"] and not r["traced"]]
    out = {}
    for name, unit in declared("per_layer").items():
        if name == "tracing.overhead_s":
            value = statistics.median(r["wall_run_s"] for r in traced) - statistics.median(
                r["wall_run_s"] for r in plain
            )
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        out[name] = {"value": value, "unit": unit}
    return out


def environment(workload: str, seed: int, size: str) -> dict:
    import numpy

    return {
        "workload": workload, "seed": seed, "size": size,
        "BUDNAV_THREADS": os.environ.get("BUDNAV_THREADS", "unset (default: nproc)"),
        "nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "desk"):
    """Prepare, measure and score one run; returns (result, reps, prepared)."""
    prepared = prepare(workload, size, seed)
    reps = measure(workload, prepared, seconds, trace)
    failed = score(workload, reps, prepared)
    for traced in {False, trace}:
        if all(r["failed"] for r in reps if r["traced"] == traced):
            raise BenchError(f"every repetition failed: {reps[-1].get('error', 'wrong output')}")
    metrics = per_layer(reps) if trace else end_to_end(reps)
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}
    return result, reps, prepared


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(KIND))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="desk")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "budnav" / "__init__.py").is_file() or not CONFIGS.is_dir():
        print(f"error: no budnav source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("env", json.dumps(environment(args.workload, args.seed, args.size)), flush=True)
    try:
        result, _, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    except (BenchError, subprocess.TimeoutExpired, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
