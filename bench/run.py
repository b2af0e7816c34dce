"""anchorlap benchmark: every CLI subcommand on seeded synthetic corpora.

Usage (from the repository root)::

    python3 bench/run.py --workload sparse-mixed --seed 1 --seconds 32 --trace 0

One run generates the workload's inputs from ``--seed`` and times a fresh
interpreter importing ``anchorlap.cli`` (set-up).  It then starts one
worker process that runs the operations

    stats, stats --jitter, match --hc 5, optimize, emo --mc,
    replay of the jitter and emo manifests at the other worker count

by calling ``anchorlap.cli.main(argv)``, in rounds (see ``ROUND``) for at
most ``--seconds``, and checks every artifact (see ``checks.py``).  Each
end-to-end time is the median of an operation's times over the run, each
rescaled to the machine's reference speed (see ``reference.py``).  With
``--trace 1`` the worker instead runs each operation once to warm up, once
untraced and once traced, and the run reports per-layer metrics (see
``tracing.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation fails when it exits
non-zero, raises, writes different bytes than in the last round, or fails
its check; ``failed / attempted`` is the ``ops_failed`` share.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH_DIR), str(SRC)]  # checks import anchorlap

from checks import run_checks  # noqa: E402
from reference import REFERENCE_S, kernel_seconds  # noqa: E402
from workloads import EMO_SCALES, EMO_STRIDES, WORKLOADS, generate  # noqa: E402

SETUP_REPEATS = 3  # before the worker and again after it
RUN_LIMIT_S = 170.0  # a run must end within 180 s

OPS = ("stats", "jitter", "match", "optimize", "emo_mc", "replay_jitter", "replay_emo")
# One untraced round.  The short operations run more than once, spread
# through the round (`stats` takes tens of milliseconds, `stats --jitter` a
# few tenths of a second on two workloads), so that their medians rest on
# as many samples across the run as the longer operations' do.
ROUND = ("stats", "jitter", "stats", "match", "stats", "jitter", "optimize", "stats",
         "emo_mc", "replay_jitter", "replay_emo")

# End-to-end metrics, reported by an untraced run: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "stats_s": "s",
    "jitter_s": "s",
    "match_s": "s",
    "optimize_s": "s",
    "emo_mc_s": "s",
    "replay_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, reported by a traced run: name -> unit.
PER_LAYER = {
    "cli.main.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "specfile.load.self_s": "s",
    "dataset.parse_annotations.self_s": "s",
    "dataset.faces_parsed": "count",
    "dataset.faces_skipped": "count",
    "dataset.bucket_stats.self_s": "s",
    "dataset.bucket_stats.calls": "count",
    "dataset.jitter_experiment.self_s": "s",
    "dataset.bounding_plane.self_s": "s",
    "layout.build_layout.self_s": "s",
    "layout.build_layout.calls": "count",
    "layout.anchors_built": "count",
    "matching.max_overlap_values.self_s": "s",
    "matching.max_overlap_values.calls": "count",
    "matching.kernel_pairs": "count",
    "matching.match_faces.self_s": "s",
    "matching.overlapping_anchors.self_s": "s",
    "matching.overlapping_anchors.calls": "count",
    "matching.window_pairs": "count",
    "matching.window_hits": "count",
    "matching.window_hit_ratio": "ratio",
    "matching.compensate_hard_faces.self_s": "s",
    "matching.hard_faces": "count",
    "matching.compensated_anchors": "count",
    "matching.apply_jitter.self_s": "s",
    "matching.apply_jitter.calls": "count",
    "geometry.iou_xywh.self_s": "s",
    "geometry.iou_xywh.calls": "count",
    "geometry.iou_xywh.pairs": "count",
    "geometry.iou_xywh.pairs_per_call": "pairs/call",
    "optimizer.enumerate_configs.self_s": "s",
    "optimizer.configs": "count",
    "optimizer.evaluate_config.self_s": "s",
    "optimizer.evaluate_config.calls": "count",
    "optimizer.group_kernels": "count",
    "optimizer.distinct_groups": "count",
    "optimizer.group_reuse_ratio": "ratio",
    "emo.emo_monte_carlo.self_s": "s",
    "emo.mc_samples": "count",
    "emo.mc_worker_utilization": "ratio",
    "rng.stream.self_s": "s",
    "rng.stream.calls": "count",
    "trace.overhead_s": "s",
}


def plan_ops(inputs, work: Path) -> list[dict]:
    """The operation sequence as ``anchorlap`` argument lists."""
    w = inputs.workload
    other = "1" if w.workers > 1 else "2"
    common = ["--annotations", str(inputs.annotations), "--spec", str(inputs.spec)]

    def out(op, name):
        return ["--out", str(work / op / name)]

    argvs = {
        "stats": ["stats", *common, *out("stats", "stats.csv")],
        "jitter": ["stats", *common, "--jitter", "--trials", str(w.jitter_trials),
                   "--seed", str(inputs.jitter_seed), *out("jitter", "jitter.csv")],
        "match": ["match", *common, "--hc", "5", *out("match", "match.csv")],
        "optimize": ["optimize", "--annotations", str(inputs.annotations),
                     "--space", str(inputs.space), *out("optimize", "optimize.csv")],
        "emo_mc": ["emo", "--mc", "--scales", ",".join(map(str, EMO_SCALES)),
                   "--strides", ",".join(map(str, EMO_STRIDES)),
                   "--samples", str(inputs.emo_samples), "--workers", str(w.workers),
                   "--seed", str(inputs.emo_seed), *out("emo_mc", "emo.csv")],
        "replay_jitter": ["replay", "--manifest", str(work / "jitter" / "jitter.csv.manifest.json"),
                          "--workers", other, *out("replay_jitter", "jitter.csv")],
        "replay_emo": ["replay", "--manifest", str(work / "emo_mc" / "emo.csv.manifest.json"),
                       "--workers", other, *out("replay_emo", "emo.csv")],
    }
    return [{"name": op, "argv": argvs[op], "dir": str(work / op)} for op in OPS]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_setup(work: Path, deadline: float) -> list[float]:
    """Times of fresh interpreters importing ``anchorlap.cli``, each rescaled
    by the reference kernel timed around it (see ``reference.py``)."""
    times = []
    before = kernel_seconds(work)
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import anchorlap.cli"], env=_env(), cwd=ROOT,
                       check=True, timeout=max(1.0, deadline - time.monotonic()))
        wall = time.perf_counter() - start
        after = kernel_seconds(work)
        times.append(wall * REFERENCE_S / ((before + after) / 2.0))
        before = after
    return times


def run_worker(ops: list[dict], work: Path, seconds: float, trace: bool, deadline: float) -> dict:
    plan = {"src": str(SRC), "ops": ops, "round": ROUND, "seconds": seconds, "trace": trace,
            "result": str(work / "worker_result.json")}
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(plan_path)],
                   env=_env(), cwd=ROOT, stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(Path(plan["result"]).read_text(encoding="utf-8"))


def tally(rounds: list[list[dict]], checks: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every operation of every round."""
    final = {rec["op"]: rec["digest"] for rec in rounds[-1]}
    attempted = failed = 0
    reasons = []
    for number, records in enumerate(rounds, start=1):
        for rec in records:
            attempted += 1
            op = rec["op"]
            why = None
            if rec["error"] is not None:
                why = "raised " + rec["error"].strip().splitlines()[-1]
            elif rec["code"] != 0:
                why = f"exited {rec['code']}"
            elif checks.get(op) is not None:
                why = "check failed: " + checks[op]
            elif rec["digest"] != final[op]:
                why = "wrote different bytes than the checked round"
            if why is not None:
                failed += 1
                reasons.append(f"round {number} {op}: {why}")
    return attempted, failed, reasons


def end_to_end(rounds: list[list[dict]], setup_s: float, peak_rss_mb: float) -> dict:
    """Median of each operation's rescaled times over the whole run."""
    times: dict[str, list[float]] = {op: [] for op in OPS}
    replay = []
    for records in rounds:
        for rec in records:
            times[rec["op"]].append(rec["seconds"] * REFERENCE_S / rec["reference"])
        replay.append(sum(times[op][-1] for op in ("replay_jitter", "replay_emo")))
    values = {
        "setup_s": setup_s,
        "stats_s": statistics.median(times["stats"]),
        "jitter_s": statistics.median(times["jitter"]),
        "match_s": statistics.median(times["match"]),
        "optimize_s": statistics.median(times["optimize"]),
        "emo_mc_s": statistics.median(times["emo_mc"]),
        "replay_s": statistics.median(replay),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def execute(workload: str, seed: int, seconds: float, trace: bool, work: Path,
            scale: float = 1.0):
    """Generate the inputs in ``work`` and run the operations on them.

    Returns (inputs, set-up seconds or None when traced, worker result).
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    inputs = generate(workload, seed, work / "inputs", scale)
    ops = plan_ops(inputs, work)
    if trace:
        return inputs, None, run_worker(ops, work, seconds, trace, deadline)
    # Set-up is sampled on both sides of the worker so that its median
    # spans the run, like the operation times do.
    setup = time_setup(work, deadline)
    out = run_worker(ops, work, seconds, trace, deadline)
    setup += time_setup(work, deadline)
    return inputs, statistics.median(setup), out


def score(inputs, seed: int, trace: bool, setup_s, out: dict, work: Path) -> dict:
    """Check the artifacts in ``work`` and build the result object."""
    checks = run_checks(inputs, work, EMO_SCALES, EMO_STRIDES, seed)
    attempted, failed, reasons = tally(out["rounds"], checks)
    if trace:
        layers = out["layers"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = end_to_end(out["rounds"], setup_s, out["peak_rss_mb"])
    kernel = [rec["reference"] for records in out["rounds"] for rec in records if "reference" in rec]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "reasons": reasons, "rounds": len(out["rounds"]),
            "kernel_s": statistics.median(kernel) if kernel else None}


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path,
        scale: float = 1.0) -> dict:
    """One benchmark run in ``work``; returns the result object."""
    inputs, setup_s, out = execute(workload, seed, seconds, trace, work, scale)
    return score(inputs, seed, trace, setup_s, out, work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat rounds of the operations for at most this long (at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from one traced pass")
    args = parser.parse_args(argv)
    if not (SRC / "anchorlap" / "cli.py").is_file():
        print(f"error: {SRC / 'anchorlap'} not found; run from a full checkout", file=sys.stderr)
        return 2

    scratch = BENCH_DIR / "_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, rounds {result.pop('rounds')}")
    kernel_s = result.pop("kernel_s")
    if kernel_s is not None:
        print(f"  times rescaled by {REFERENCE_S / kernel_s:.3f}: the reference kernel took "
              f"{kernel_s:.4f} s against {REFERENCE_S} s")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'ops_failed':40s} {result['failed']}/{result['attempted']}")
    for reason in result.pop("reasons"):
        print(f"  FAILED {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
