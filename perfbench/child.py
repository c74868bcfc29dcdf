"""One benchmark repetition, run in a fresh interpreter by run.py.

    python3 perfbench/child.py '<json spec>'

The spec names the workload kind ("train" or "eval"), its cases (config
files, or a suite file and checkpoints), whether to trace, and the monotonic
time at which the parent started this process.  All cases run in this one
process, one after another.  The parent pins BLAS to one thread in the
environment this process inherits.  The last stdout line is a JSON
record: setup_s, run_s, peak_rss_mb, the output digest, SR/SPL per case and,
when traced, the per-layer metrics.
"""
import hashlib
import json
import resource
import sys
import time
from dataclasses import astuple
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.argv[1])
    import budnav.metrics
    import budnav.suite
    import budnav.trainer
    from budnav.config import load_config
    from budnav.policy import load_checkpoint, snapshot
    from budnav.rollout import RolloutConfig

    # Functions a traced run wraps are looked up on their module at call time.
    tracer = None
    if spec["trace"]:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    digest = hashlib.blake2b(digest_size=16)
    if spec["kind"] == "train":
        cfgs = [load_config(path)[0] for path in spec["configs"]]
        budnav.suite.build_held_episodes(cfgs[0].suite, cfgs[0].eval_episodes)

        def timed():
            return [budnav.trainer.train(cfg) for cfg in cfgs]

        def finish(results):
            cases = []
            for result in results:
                digest.update(result.params.flatten().tobytes())
                digest.update("\n".join(result.csv_rows).encode())
                last = result.evals[-1][1]
                cases.append({"sr": last.sr, "spl": last.spl})
            return cases

    else:
        suite = budnav.suite.parse_suite(Path(spec["suite"]).read_text())
        held = budnav.suite.build_held_episodes(suite)
        snaps = [snapshot(load_checkpoint(p), "eval") for p in spec["ckpts"]]

        def timed():
            # Keep results, drop trajectories: memory is that of one evaluate.
            kept = []
            for snap in snaps:
                outcome = budnav.metrics.evaluate(snap, held, RolloutConfig())
                kept.append((outcome.report, outcome.results))
            return kept

        def finish(outcomes):
            for _, results in outcomes:
                for r in results:
                    digest.update(repr(astuple(r)).encode())
            return [{"sr": report.sr, "spl": report.spl} for report, _ in outcomes]

    if tracer is not None:
        timed = tracer.span("bench.run", timed)
    # Times are CPU seconds of this process (all threads): on a shared
    # virtual machine, wall time also counts the time the host ran others.
    c0, t0 = time.process_time(), time.perf_counter()
    wall_setup_s = time.monotonic() - spec["t_spawn"]
    results = timed()
    c1, t1 = time.process_time(), time.perf_counter()
    cases = finish(results)
    record = {
        "setup_s": c0,
        "run_s": c1 - c0,
        "wall_setup_s": wall_setup_s,
        "wall_run_s": t1 - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": digest.hexdigest(),
        "cases": cases,
    }
    if tracer is not None:
        record["layers"] = tracer.report("bench.run")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
