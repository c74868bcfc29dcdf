"""perfbench's tracer wraps package functions by module attribute name.

Installing it must succeed: a refactor that unbinds a name the tracer
patches (say trainer.gro_step or grpo.featurize) fails here rather than
in a traced benchmark run.  A refactor that moves a traced call off its
cadence (per rollout step, evaluation tick, demo or trajectory) breaks
the per-layer accounting and fails here too.
The benchmark's child process, untraced, must run both workload kinds.
"""
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_every_traced_name():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "from tracer import Tracer, install\n"
        "install(Tracer())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_traced_layer_counts_add_up(tmp_path):
    # A loss scores a whole sequence per call: every featurize+forward
    # belongs to one step of a training rollout, one tick of an
    # evaluation, one rect loss call (its demo) or one of the three
    # parameter sets (old, live, ref) of a trajectory in a GRPO loss;
    # every backward call to one rect loss call or one GRPO trajectory.
    # An evaluation steps its episodes in lockstep and scores all running
    # ones in one call per tick, so it takes as many ticks as its longest
    # trajectory has steps; a wrapper around trainer.evaluate counts them
    # from the outcomes (the traced rollout counters see training
    # rollouts only), and one around trainer.grpo_loss_and_grad counts
    # the trajectories its groups hold.  A short desk run with a high
    # learning rate takes both routes.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"suite.file = {ROOT / 'configs' / 'desk.suite'}\n"
        "trainer.pretrain_episodes = 100\n"
        "trainer.train_episodes = 30\n"
        "trainer.eval_every = 30\n"
        "trainer.eval_episodes = 5\n"
        "opt.learning_rate = 1e-2\n"
    )
    code = (
        "import json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "from tracer import Tracer, install\n"
        "tracer = Tracer(); install(tracer)\n"
        "import budnav.trainer\n"
        "ticks = []\n"
        "def counted(evaluate):\n"
        "    def wrapper(*args, **kwargs):\n"
        "        outcome = evaluate(*args, **kwargs)\n"
        "        ticks.append(max(len(t.steps) for t in outcome.trajectories))\n"
        "        return outcome\n"
        "    return wrapper\n"
        "budnav.trainer.evaluate = counted(budnav.trainer.evaluate)\n"
        "grpo_trajectories = []\n"
        "def grpo_counted(loss):\n"
        "    def wrapper(params, group, *args, **kwargs):\n"
        "        grpo_trajectories.append(len(group.trajectories))\n"
        "        return loss(params, group, *args, **kwargs)\n"
        "    return wrapper\n"
        "budnav.trainer.grpo_loss_and_grad = grpo_counted(budnav.trainer.grpo_loss_and_grad)\n"
        "from budnav.config import load_config\n"
        "cfg = load_config(sys.argv[3])[0]\n"
        "tracer.span('run', lambda: budnav.trainer.train(cfg))()\n"
        "print(json.dumps(dict(\n"
        "    tracer.report('run'), eval_ticks=sum(ticks), grpo_trajectories=sum(grpo_trajectories),\n"
        ")))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench"), str(cfg)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    m = json.loads(proc.stdout.splitlines()[-1])
    assert m["trainer.route.grpo"] >= 1 and m["trainer.route.rect"] >= 1
    assert m["grpo.loss.steps"] > 0 and m["rectify.loss.steps"] > 0
    assert m["eval_ticks"] > 0
    assert m["grpo_trajectories"] == 4 * m["grpo.loss.calls"] > 0
    assert m["policy.forward.calls"] == (
        m["rollout.steps"] + m["eval_ticks"] + m["rectify.loss.calls"] + 3 * m["grpo_trajectories"]
    )
    assert m["policy.backward.calls"] == m["rectify.loss.calls"] + m["grpo_trajectories"]
    # trainer._held_episodes looks suite.build_held_episodes up at call
    # time, so the tracer's wrapper times it.
    assert m["suite.build_held.self_s"] > 0


def test_benchmark_child_runs_a_train_and_an_eval_spec(tmp_path):
    # child.py calls PolicyParams.flatten, snapshot(params, "eval"),
    # load_checkpoint, trainer.train and metrics.evaluate.
    from budnav.cli import main

    smoke = ROOT / "configs" / "smoke.cfg"
    run = tmp_path / "smoke"
    assert main(["train", "--config", str(smoke), "--out", str(run)]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    specs = [
        {"kind": "train", "configs": [str(smoke)]},
        {
            "kind": "eval", "suite": str(run / "suite.suite"),
            "ckpts": [str(run / "checkpoints" / "final.ckpt")],
        },
    ]
    for spec in specs:
        spec = dict(spec, trace=0, t_spawn=time.monotonic())
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout.splitlines()[-1])
        assert len(record["digest"]) == 32
        assert len(record["cases"]) == 1
        assert set(record["cases"][0]) == {"sr", "spl"}
