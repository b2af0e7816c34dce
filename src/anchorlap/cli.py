"""Command-line front end: reproducible CSV/JSON reports for anchor analysis.

Subcommands::

    emo       expected-max-overlap table (closed form or Monte Carlo)
    grid      dump every anchor of a layout
    stats     scale-bucketed coverage stats for an annotation listing
    match     per-face / per-anchor assignment dump
    optimize  ranked anchor-design search
    replay    re-run a recorded manifest and verify byte-exact outputs

Every file artifact gets a ``<out>.manifest.json`` sidecar recording the
resolved parameters, seed, and sha256 digests of inputs and outputs; the
``replay`` subcommand re-executes a manifest and fails unless the result
is byte-identical.  Exit codes: 0 success, 1 I/O or input-data error,
2 invalid parameters.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .dataset import (
    DEFAULT_BUCKET_EDGES,
    AnnotationError,
    bounding_plane,
    bucket_stats,
    jitter_experiment,
    parse_annotations,
)
from .emo import emo_monte_carlo, emo_table
from .layout import AnchorSpec, build_layout
from .matching import LABEL_IGNORE, LABEL_NEGATIVE, LABEL_POSITIVE, MatchConfig, compensate_hard_faces, match_faces
from .optimizer import optimize
from .specfile import load_space, load_spec, spec_json

__all__ = ["main", "build_parser"]

_LABEL_NAMES = {LABEL_POSITIVE: "positive", LABEL_NEGATIVE: "negative", LABEL_IGNORE: "ignore"}

_EMO_COLS = ("scale", "stride", "emo", "std_error", "method")
_GRID_COLS = ("id", "scale", "ratio", "sublattice", "cx", "cy", "w", "h")
_STATS_COLS = ("bucket_lo", "bucket_hi", "count", "mean_max_iou", "recall_at_tau")
_JITTER_COLS = ("bucket_lo", "bucket_hi", "count", "mean_max_iou", "min_mean_max_iou", "max_mean_max_iou")
_FACE_COLS = ("face", "image_id", "scale", "max_iou", "argmax_anchor", "assigned_count")
_ANCHOR_COLS = ("anchor", "label", "source_face")
_OPT_COLS = ("rank", "objective", "recall", "anchors_per_location", "spec_json")


# ---------------------------------------------------------------------------
# formatting


def _fmt_float(v: float) -> str:
    return f"{v:.9g}"


def _cell_text(v) -> str:
    if isinstance(v, float):
        return _fmt_float(v)
    return str(v)


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell_text(row[c]) for c in columns])
    return buf.getvalue()


def _json_value(v):
    if isinstance(v, float):
        if not math.isfinite(v):
            return None
        return float(_fmt_float(v))
    return v


def _json_text(rows) -> str:
    data = [{k: _json_value(v) for k, v in row.items()} for row in rows]
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _render(columns, rows, fmt: str) -> str:
    return _csv_text(columns, rows) if fmt == "csv" else _json_text(rows)


# ---------------------------------------------------------------------------
# digests and manifests


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _input_meta(**paths) -> dict:
    return {name: {"path": path, "sha256": _sha256_file(path)} for name, path in paths.items()}


def _write_manifest(out: str, subcommand: str, parameters: dict, inputs: dict, outputs: list) -> str:
    manifest = {
        "tool": "anchorlap",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": parameters,
        "seed": parameters.get("seed"),
        "inputs": inputs,
        "outputs": outputs,
    }
    path = out + ".manifest.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _finish(args, subcommand: str, parameters: dict, inputs: dict, artifacts) -> int:
    """Write artifacts beside --out with a manifest, or stream to stdout."""
    if args.out is None:
        for _, text in artifacts:
            sys.stdout.write(text)
        return 0
    outputs = []
    for suffix, text in artifacts:
        path = args.out + suffix
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        outputs.append({"path": path, "sha256": _sha256_text(text)})
    _write_manifest(args.out, subcommand, parameters, inputs, outputs)
    return 0


# ---------------------------------------------------------------------------
# runners (shared by the subcommands and replay; pure in params + input files)


def _load_annotation_records(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_annotations(fh).records


def _run_emo(params: dict, inputs: dict, workers: int):
    scales = sorted(params["scales"])
    strides = sorted(params["strides"])
    rows = []
    if params["mode"] == "monte_carlo":
        for scale in scales:
            for stride in strides:
                spec = AnchorSpec(scales=(scale,), base_stride=stride, stride_divisor=1)
                plane = 8.0 * stride
                layout = build_layout(spec, plane, plane)
                est = emo_monte_carlo(
                    layout, scale, scale, params["samples"], params["seed"], workers
                )
                rows.append(
                    {"scale": float(scale), "stride": float(stride), "emo": est.value,
                     "std_error": est.std_error, "method": est.method}
                )
    else:
        for cell in emo_table(scales, strides, params["cells"]):
            if cell.estimate is None:
                raise ValueError(f"scale {cell.scale:g} with stride {cell.stride:g}: {cell.reason}")
            rows.append(
                {"scale": cell.scale, "stride": cell.stride, "emo": cell.estimate.value,
                 "std_error": cell.estimate.std_error, "method": cell.estimate.method}
            )
    return [("", _render(_EMO_COLS, rows, params["format"]))]


def _run_grid(params: dict, inputs: dict, workers: int):
    spec = load_spec(inputs["spec"])
    layout = build_layout(spec, params["plane_w"], params["plane_h"])
    rows = []
    for g in layout.groups:
        idx = np.arange(g.count)
        cx = (g.origin_x + (idx % g.cols) * g.stride).tolist()
        cy = (g.origin_y + (idx // g.cols) * g.stride).tolist()
        for k in range(g.count):
            rows.append(
                {"id": int(g.id_start + k), "scale": g.scale, "ratio": g.ratio,
                 "sublattice": g.sublattice, "cx": cx[k], "cy": cy[k],
                 "w": g.box_w, "h": g.box_h}
            )
    return [("", _render(_GRID_COLS, rows, params["format"]))]


def _run_stats(params: dict, inputs: dict, workers: int):
    records = _load_annotation_records(inputs["annotations"])
    spec = load_spec(inputs["spec"])
    if not records:
        raise ValueError("annotation listing contains no usable faces")
    plane_w, plane_h = bounding_plane(records)
    layout = build_layout(spec, plane_w, plane_h)
    edges = params["buckets"]
    if params["jitter"]:
        rep = jitter_experiment(
            records, layout, params["trials"], params["seed"], edges, params["tau"]
        )
        columns = _JITTER_COLS
    else:
        rep = bucket_stats(records, layout, edges, params["tau"])
        columns = _STATS_COLS
    rows = [dict(zip(columns, row)) for row in rep.rows()]
    return [("", _render(columns, rows, params["format"]))]


def _run_match(params: dict, inputs: dict, workers: int):
    faces = _load_annotation_records(inputs["annotations"])
    spec = load_spec(inputs["spec"])
    if not faces:
        raise ValueError("annotation listing contains no usable faces")
    plane_w, plane_h = bounding_plane(faces)
    layout = build_layout(spec, plane_w, plane_h)
    cfg = MatchConfig(
        t_high=params["t_high"],
        t_low=params["t_low"],
        hc_n=params["hc_n"],
        jitter=params["jitter"],
        jitter_seed=params.get("seed") or 0,
    )
    result = match_faces(faces, layout, cfg)
    if cfg.hc_n > 0:
        result = compensate_hard_faces(result, faces, layout, cfg)

    per_face = zip(faces.image.tolist(), faces.scale.tolist(), result.face_max_iou.tolist(),
                   result.face_argmax.tolist(), result.face_assigned)
    face_rows = [
        {"face": i, "image_id": faces.image_ids[image], "scale": scale, "max_iou": best,
         "argmax_anchor": argmax, "assigned_count": len(assigned)}
        for i, (image, scale, best, argmax, assigned) in enumerate(per_face)
    ]
    per_anchor = zip(result.anchor_labels.tolist(), result.anchor_source.tolist())
    anchor_rows = [
        {"anchor": a, "label": _LABEL_NAMES[label], "source_face": source}
        for a, (label, source) in enumerate(per_anchor)
    ]
    fmt = params["format"]
    return [
        ("", _render(_FACE_COLS, face_rows, fmt)),
        (f".anchors.{fmt}", _render(_ANCHOR_COLS, anchor_rows, fmt)),
    ]


def _run_optimize(params: dict, inputs: dict, workers: int):
    records = _load_annotation_records(inputs["annotations"])
    space = load_space(inputs["space"])
    if not records:
        raise ValueError("annotation listing contains no usable faces")
    scores = optimize(space, records, params["tau"])
    rows = []
    for rank, sc in enumerate(scores, start=1):
        rows.append(
            {"rank": rank, "objective": sc.objective, "recall": sc.recall,
             "anchors_per_location": sc.anchors_per_location, "spec_json": spec_json(sc.spec)}
        )
    return [("", _render(_OPT_COLS, rows, params["format"]))]


_RUNNERS = {
    "emo": _run_emo,
    "grid": _run_grid,
    "stats": _run_stats,
    "match": _run_match,
    "optimize": _run_optimize,
}


# ---------------------------------------------------------------------------
# subcommand entry points


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("ANCHORLAP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"ANCHORLAP_SEED must be an integer, got {env!r}") from None
    return 0


def cmd_emo(args) -> int:
    params = {
        "mode": "monte_carlo" if args.mc else "closed_form",
        "scales": sorted(args.scales),
        "strides": sorted(args.strides),
        "cells": args.cells,
        "samples": args.samples,
        "format": args.format,
    }
    if args.mc:
        params["seed"] = _resolve_seed(args)
    artifacts = _run_emo(params, {}, args.workers)
    return _finish(args, "emo", params, {}, artifacts)


def cmd_grid(args) -> int:
    params = {"plane_w": args.plane[0], "plane_h": args.plane[1], "format": args.format}
    inputs = _input_meta(spec=args.spec)
    artifacts = _run_grid(params, {"spec": args.spec}, 1)
    return _finish(args, "grid", params, inputs, artifacts)


def cmd_stats(args) -> int:
    params = {
        "buckets": args.buckets,
        "tau": args.tau,
        "jitter": args.jitter,
        "trials": args.trials,
        "format": args.format,
    }
    if args.jitter:
        params["seed"] = _resolve_seed(args)
    inputs = _input_meta(annotations=args.annotations, spec=args.spec)
    artifacts = _run_stats(params, {"annotations": args.annotations, "spec": args.spec}, 1)
    return _finish(args, "stats", params, inputs, artifacts)


def cmd_match(args) -> int:
    params = {
        "t_high": args.th,
        "t_low": args.tl,
        "hc_n": args.hc,
        "jitter": args.jitter,
        "format": args.format,
    }
    if args.jitter:
        params["seed"] = _resolve_seed(args)
    inputs = _input_meta(annotations=args.annotations, spec=args.spec)
    artifacts = _run_match(params, {"annotations": args.annotations, "spec": args.spec}, 1)
    return _finish(args, "match", params, inputs, artifacts)


def cmd_optimize(args) -> int:
    params = {"tau": args.tau, "format": args.format}
    inputs = _input_meta(annotations=args.annotations, space=args.space)
    artifacts = _run_optimize(params, {"annotations": args.annotations, "space": args.space}, 1)
    return _finish(args, "optimize", params, inputs, artifacts)


def _manifest_problem(manifest) -> str | None:
    """Why ``manifest`` cannot be replayed, or None when its shape is sound."""
    if not isinstance(manifest, dict):
        return f"manifest must be a JSON object, got {type(manifest).__name__}"
    for key, kind in (("subcommand", str), ("parameters", dict), ("inputs", dict), ("outputs", list)):
        if not isinstance(manifest.get(key), kind):
            return f"manifest needs a {key!r} entry of type {kind.__name__}"
    if manifest["subcommand"] not in _RUNNERS:
        return f"manifest names unknown subcommand {manifest['subcommand']!r}"
    for entry in [*manifest["inputs"].values(), *manifest["outputs"]]:
        if not (isinstance(entry, dict) and isinstance(entry.get("path"), str)
                and isinstance(entry.get("sha256"), str)):
            return f"manifest entry {entry!r} needs a 'path' and a 'sha256' string"
    return None


def cmd_replay(args) -> int:
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        print(f"error: manifest is not valid JSON: {exc}", file=sys.stderr)
        return 1
    problem = _manifest_problem(manifest)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 1
    inputs = manifest["inputs"]
    for name, entry in sorted(inputs.items()):
        digest = _sha256_file(entry["path"])
        if digest != entry["sha256"]:
            print(
                f"error: input '{name}' at {entry['path']} changed since the manifest was written",
                file=sys.stderr,
            )
            return 1
    runner = _RUNNERS[manifest["subcommand"]]
    try:
        artifacts = runner(manifest["parameters"], {k: v["path"] for k, v in inputs.items()}, args.workers)
    except KeyError as exc:
        print(f"error: manifest lacks parameter or input {exc}", file=sys.stderr)
        return 1
    recorded = manifest["outputs"]
    if len(recorded) != len(artifacts):
        print(
            f"error: manifest records {len(recorded)} outputs but the run produced {len(artifacts)}",
            file=sys.stderr,
        )
        return 1
    outputs = []
    diverged = False
    for (suffix, text), rec in zip(artifacts, recorded):
        path = args.out + suffix
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        digest = _sha256_text(text)
        outputs.append({"path": path, "sha256": digest})
        if digest != rec["sha256"]:
            print(f"error: replay diverged: {path} does not match recorded {rec['path']}", file=sys.stderr)
            diverged = True
    if diverged:
        return 1
    _write_manifest(args.out, manifest["subcommand"], manifest["parameters"], inputs, outputs)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _float_list(text: str) -> list:
    if not text.strip():
        return []
    return [float(tok) for tok in text.split(",")]


def _plane(text: str) -> tuple:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"plane must look like 640x480, got {text!r}")
    return float(parts[0]), float(parts[1])


def _add_common(p, seeded: bool) -> None:
    p.add_argument("--out", help="write the artifact here plus a .manifest.json sidecar (default: stdout, no manifest)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    if seeded:
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed; defaults to $ANCHORLAP_SEED, then 0")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorlap",
        description="Anchor-overlap analysis: EMO tables, lattice dumps, matching and coverage reports.",
    )
    parser.add_argument("--version", action="version", version=f"anchorlap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("emo", help="expected max overlap for (scale, stride) pairs")
    p.add_argument("--scales", "--scale", dest="scales", type=_float_list, required=True,
                   metavar="LIST", help="comma-separated face side lengths")
    p.add_argument("--strides", "--stride", dest="strides", type=_float_list, required=True,
                   metavar="LIST", help="comma-separated anchor strides")
    p.add_argument("--cells", type=int, default=512, help="quadrature cells per axis")
    p.add_argument("--mc", action="store_true",
                   help="estimate by Monte Carlo against a single-scale layout")
    p.add_argument("--samples", type=int, default=100_000, help="Monte Carlo samples")
    p.add_argument("--workers", type=int, default=1,
                   help="Monte Carlo worker threads (result is identical for any count)")
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_emo)

    p = sub.add_parser("grid", help="dump every anchor of a layout")
    p.add_argument("--spec", required=True, help="anchor spec JSON file")
    p.add_argument("--plane", type=_plane, required=True, metavar="WxH", help="plane size, e.g. 640x480")
    _add_common(p, seeded=False)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("stats", help="scale-bucketed mean max IoU and recall")
    p.add_argument("--annotations", required=True, help="face annotation listing")
    p.add_argument("--spec", required=True, help="anchor spec JSON file")
    p.add_argument("--buckets", type=_float_list, default=list(DEFAULT_BUCKET_EDGES),
                   metavar="LIST", help="bucket edges (empty string for a single bucket)")
    p.add_argument("--tau", type=float, default=0.5, help="recall IoU threshold")
    p.add_argument("--jitter", action="store_true", help="average over random face shifts")
    p.add_argument("--trials", type=int, default=16, help="jitter trials")
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("match", help="per-face and per-anchor assignment dump")
    p.add_argument("--annotations", required=True, help="face annotation listing")
    p.add_argument("--spec", required=True, help="anchor spec JSON file")
    p.add_argument("--th", type=float, default=0.5, help="positive IoU threshold")
    p.add_argument("--tl", type=float, default=0.3, help="background IoU threshold")
    p.add_argument("--hc", type=int, default=5, help="hard-face compensation count (0 disables)")
    p.add_argument("--jitter", action="store_true", help="apply a random face shift before matching")
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("optimize", help="rank anchor designs from a search space")
    p.add_argument("--annotations", required=True, help="face annotation listing")
    p.add_argument("--space", required=True, help="search space JSON file")
    p.add_argument("--tau", type=float, default=0.5, help="recall IoU threshold")
    _add_common(p, seeded=False)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("replay", help="re-run a manifest and verify byte-exact outputs")
    p.add_argument("--manifest", required=True, help="manifest JSON written by a previous run")
    p.add_argument("--out", required=True, help="where to write the replayed artifact(s)")
    p.add_argument("--workers", type=int, default=1, help="worker threads for randomized paths")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AnnotationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
