"""Runs the planned CLI operations in this one process and reports timings.

Usage: ``python3 worker.py PLAN.json``.  The plan (written by ``run.py``)
names the ``src`` directory, the operations as ``anchorlap`` argument
lists, the order of one round, how long to keep repeating rounds and
whether to trace.  Each operation is a call to
``anchorlap.cli.main(argv)``; the console script is not used, so no
process start is timed here.

Untraced: rounds repeat for at most ``seconds`` (at least one round), with
the reference kernel of ``reference.py`` timed between operations.
Traced: each operation once to warm up, once untraced, then once under
the :class:`tracing.Tracer`, so the counts are those of exactly one pass
and the difference in wall time between the last two passes is the
tracing overhead.

The result JSON lists, per round and operation, the wall time, exit code,
any exception, a digest of the files the operation wrote and, untraced,
the reference kernel's time around it.  It adds the process's peak
resident memory and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from reference import kernel_seconds
from tracing import Tracer


def _dir_digest(path: Path) -> tuple[str, int]:
    digest = hashlib.sha256()
    size = 0
    for file in sorted(path.iterdir()):
        data = file.read_bytes()
        digest.update(file.name.encode() + b"\0" + hashlib.sha256(data).digest())
        size += len(data)
    return digest.hexdigest(), size


def run_op(cli, op) -> dict:
    out_dir = Path(op["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    error = None
    start = time.perf_counter()
    try:
        code = cli.main(op["argv"])
    except SystemExit as exc:  # argparse rejects arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = None
        error = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    digest, size = _dir_digest(out_dir)
    return {"op": op["name"], "seconds": elapsed, "code": code,
            "error": error, "digest": digest, "bytes": size}


def run_round(cli, ops, tracer=None) -> list[dict]:
    records = []
    for op in ops:
        if tracer is not None:
            tracer.op = op["name"]
        records.append(run_op(cli, op))
    return records


def run_timed_round(cli, ops, scratch: Path) -> list[dict]:
    """Like :func:`run_round`, with the reference kernel timed between
    operations; each record gets the mean of the kernel times around it."""
    records = []
    before = kernel_seconds(scratch)
    for op in ops:
        rec = run_op(cli, op)
        after = kernel_seconds(scratch)
        rec["reference"] = (before + after) / 2.0
        records.append(rec)
        before = after
    return records


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    from anchorlap import cli

    result: dict = {"rounds": []}
    if plan["trace"]:
        warm = run_round(cli, plan["ops"])  # first calls pay one-off costs
        untraced = run_round(cli, plan["ops"])
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_round(cli, plan["ops"], tracer)
        finally:
            tracer.uninstall()
        result["rounds"] = [warm, untraced, traced]
        layers = tracer.metrics()
        layers["cli.artifact_bytes"] = sum(r["bytes"] for r in traced)
        layers["trace.overhead_s"] = (
            sum(r["seconds"] for r in traced) - sum(r["seconds"] for r in untraced)
        )
        result["layers"] = layers
    else:
        # Stop before a round that would likely end past the time limit.
        scratch = Path(plan["result"]).parent
        by_name = {op["name"]: op for op in plan["ops"]}
        schedule = [by_name[name] for name in plan["round"]]
        start = time.perf_counter()
        while True:
            result["rounds"].append(run_timed_round(cli, schedule, scratch))
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 1 / len(result["rounds"])) > plan["seconds"]:
                break
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: worker.py PLAN.json", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
