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
import hashlib
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
    bucket_bounds,
    bucket_stats,
    jitter_experiment,
    parse_annotations,
)
from .emo import EmoQuery, emo_closed_form, emo_monte_carlo
from .layout import AnchorSpec, build_layout
from .matching import (LABEL_IGNORE, LABEL_NEGATIVE, LABEL_POSITIVE, MatchConfig, apply_jitter,
                       compensate_hard_faces, jitter_offset_bound, match_faces)
from .optimizer import optimize
from .specfile import load_space, load_spec, spec_json

__all__ = ["main", "build_parser"]

_LABEL_NAMES = {LABEL_POSITIVE: "positive", LABEL_NEGATIVE: "negative", LABEL_IGNORE: "ignore"}


# ---------------------------------------------------------------------------
# formatting


# Rows per rendered chunk, which bounds the cells and text alive at once.
_RENDER_ROWS = 1 << 16


def _csv_text(v) -> str:
    """A CSV cell as ``csv.writer`` writes its text with a ``\\n`` line end:
    quoted, with ``"`` doubled, only when it holds ``,``, ``"`` or ``\\n``."""
    text = f"{v:.9g}" if isinstance(v, float) else str(v)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_text(v) -> str:
    """A JSON value as ``json.dumps`` writes it, a float first rounded to 9
    significant digits and ``null`` when not finite."""
    if isinstance(v, float):
        return repr(float(f"{v:.9g}")) if math.isfinite(v) else "null"
    return str(v) if type(v) is int else json.dumps(v)


def _cells(column, lo: int, fmt: str):
    """The cell texts of one chunk of a column, from row ``lo``."""
    part = column[lo : lo + _RENDER_ROWS]
    if isinstance(part, np.ndarray):
        kind, part = part.dtype.kind, part.tolist()
        if kind in "iu":
            return list(map(str, part))
        if kind == "f" and fmt == "csv":
            return list(map("{:.9g}".format, part))
    return list(map(_csv_text if fmt == "csv" else _json_text, part))


def _render(columns: dict, fmt: str):
    """Yield the CSV or JSON text of a table given as ``{name: values}`` in
    column order: the header, one text per ``_RENDER_ROWS`` rows, the close.

    Values are numpy arrays or Python sequences of equal length.  A CSV row
    is its cells joined by ``,`` and ended by ``\\n``, quoted as
    ``csv.writer`` quotes rows of two or more cells.  JSON is the text of
    ``json.dumps(rows, indent=2, sort_keys=True)`` plus ``\\n`` for a list
    of one object per row, each row filled into one template.
    """
    names = list(columns)
    n_rows = len(columns[names[0]])
    if fmt == "csv":
        yield ",".join(map(_csv_text, names)) + "\n"
        row, sep, last, close = ",".join, "\n", "\n", ""
    else:
        yield "[\n" if n_rows else "["
        keys = sorted(range(len(names)), key=names.__getitem__)
        template = "  {{\n" + ",\n".join(f"    {json.dumps(names[i])}: {{{i}}}" for i in keys) + "\n  }}"
        row, sep, last, close = (lambda cells: template.format(*cells)), ",\n", "\n", "]\n"
    for lo in range(0, n_rows, _RENDER_ROWS):
        rows = zip(*(_cells(col, lo, fmt) for col in columns.values()))
        yield sep.join(map(row, rows)) + (sep if lo + _RENDER_ROWS < n_rows else last)
    yield close


# ---------------------------------------------------------------------------
# digests and manifests


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _input_meta(**paths) -> dict:
    return {name: {"path": path, "sha256": _sha256_file(path)} for name, path in paths.items()}


def _write_manifest(out: str, subcommand: str, parameters: dict, inputs: dict, outputs: list) -> None:
    manifest = {
        "tool": "anchorlap",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": parameters,
        "seed": parameters.get("seed"),
        "inputs": inputs,
        "outputs": outputs,
    }
    with open(out + ".manifest.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_artifacts(out: str, artifacts) -> list:
    """Write each ``(suffix, chunks)`` artifact to ``out + suffix`` as UTF-8,
    hashing each chunk as it is written; the manifest ``outputs`` entries,
    path and sha256, in artifact order."""
    outputs = []
    for suffix, chunks in artifacts:
        path = out + suffix
        digest = hashlib.sha256()
        with open(path, "wb") as fh:
            for chunk in chunks:
                data = chunk.encode("utf-8")
                fh.write(data)
                digest.update(data)
        outputs.append({"path": path, "sha256": digest.hexdigest()})
    return outputs


# ---------------------------------------------------------------------------
# runners (shared by the subcommands and replay; pure in params + input files)


def _load_faces(inputs: dict):
    """The faces of the annotation listing; a listing without any is a data error (exit 1)."""
    try:
        with open(inputs["annotations"], "r", encoding="utf-8") as fh:
            faces = parse_annotations(fh).records
    except UnicodeDecodeError as exc:
        raise OSError(f"annotation listing {inputs['annotations']} is not UTF-8 text: {exc}") from None
    if not faces:
        raise OSError("annotation listing contains no usable faces")
    return faces


def _faces_and_layout(inputs: dict):
    """The listing's faces and the spec's layout on their bounding plane."""
    faces = _load_faces(inputs)
    spec = load_spec(inputs["spec"])
    return faces, build_layout(spec, *bounding_plane(faces))


def _run_emo(params: dict, inputs: dict, workers: int):
    pairs = [(scale, stride) for scale in sorted(params["scales"]) for stride in sorted(params["strides"])]
    if params["mode"] == "monte_carlo":
        cells = []
        for scale, stride in pairs:
            spec = AnchorSpec(scales=(scale,), base_stride=stride, stride_divisor=1)
            cells.append((build_layout(spec, 8.0 * stride, 8.0 * stride), scale, scale))
        estimates = emo_monte_carlo(cells, params["samples"], params["seed"], workers)
    else:
        estimates = [emo_closed_form(EmoQuery(scale, stride, params["cells"])) for scale, stride in pairs]
    columns = {"scale": [float(scale) for scale, _ in pairs],
               "stride": [float(stride) for _, stride in pairs],
               "emo": [est.value for est in estimates],
               "std_error": [est.std_error for est in estimates],
               "method": [est.method for est in estimates]}
    return [("", _render(columns, params["format"]))]


def _run_grid(params: dict, inputs: dict, workers: int):
    spec = load_spec(inputs["spec"])
    layout = build_layout(spec, params["plane_w"], params["plane_h"])
    ids = np.arange(layout.anchor_count)
    group, cx, cy = layout.locate(ids)
    scale, ratio, sublattice, w, h = (np.array([getattr(g, name) for g in layout.groups])[group]
                                      for name in ("scale", "ratio", "sublattice", "box_w", "box_h"))
    columns = {"id": ids, "scale": scale, "ratio": ratio, "sublattice": sublattice,
               "cx": cx, "cy": cy, "w": w, "h": h}
    return [("", _render(columns, params["format"]))]


def _run_stats(params: dict, inputs: dict, workers: int):
    faces, layout = _faces_and_layout(inputs)
    edges, tau = params["buckets"], params["tau"]
    if params["jitter"]:
        rep = jitter_experiment(faces, layout, params["trials"], params["seed"], edges, tau)
        stats = {"mean_max_iou": rep.mean_of_means, "min_mean_max_iou": rep.min_mean,
                 "max_mean_max_iou": rep.max_mean}
    else:
        rep = bucket_stats(faces, layout, edges, tau)
        stats = {"mean_max_iou": rep.mean_max_iou, "recall_at_tau": rep.recall}
    lo, hi = bucket_bounds(rep.edges)
    columns = {"bucket_lo": lo, "bucket_hi": hi, "count": rep.counts, **stats}
    return [("", _render(columns, params["format"]))]


def _run_match(params: dict, inputs: dict, workers: int):
    faces, layout = _faces_and_layout(inputs)
    cfg = MatchConfig(t_high=params["t_high"], t_low=params["t_low"], hc_n=params["hc_n"])
    if params["jitter"]:
        faces, _ = apply_jitter(faces, jitter_offset_bound(layout), params["seed"])
    result = match_faces(faces, layout, cfg)
    if cfg.hc_n > 0:
        result = compensate_hard_faces(result, faces, layout, cfg)

    face_cols = {
        "face": np.arange(len(faces)),
        "image_id": [faces.image_ids[i] for i in faces.image.tolist()],
        "scale": faces.scale,
        "max_iou": result.face_max_iou,
        "argmax_anchor": result.face_argmax,
        "assigned_count": np.diff(result.assigned_start),
    }
    anchor_cols = {
        "anchor": np.arange(layout.anchor_count),
        "label": [_LABEL_NAMES[label] for label in result.anchor_labels.tolist()],
        "source_face": result.anchor_source,
    }
    fmt = params["format"]
    return [
        ("", _render(face_cols, fmt)),
        (f".anchors.{fmt}", _render(anchor_cols, fmt)),
    ]


def _run_optimize(params: dict, inputs: dict, workers: int):
    faces = _load_faces(inputs)
    scores = optimize(load_space(inputs["space"]), faces, params["tau"])
    columns = {"rank": np.arange(1, len(scores) + 1),
               "objective": [sc.objective for sc in scores],
               "recall": [sc.recall for sc in scores],
               "anchors_per_location": [sc.anchors_per_location for sc in scores],
               "spec_json": [spec_json(sc.spec) for sc in scores]}
    return [("", _render(columns, params["format"]))]


# Each subcommand's runner, the parameters it reads off the parsed arguments
# (manifests record them, with ``format`` and any ``seed``) and its input files.
_COMMANDS = {
    "emo": (_run_emo, ("mode", "scales", "strides", "cells", "samples"), ()),
    "grid": (_run_grid, ("plane_w", "plane_h"), ("spec",)),
    "stats": (_run_stats, ("buckets", "tau", "jitter", "trials"), ("annotations", "spec")),
    "match": (_run_match, ("t_high", "t_low", "hc_n", "jitter"), ("annotations", "spec")),
    "optimize": (_run_optimize, ("tau",), ("annotations", "space")),
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


def cmd_run(args) -> int:
    """Run one subcommand of ``_COMMANDS``: stream its artifacts to stdout,
    or write them beside --out with a manifest."""
    runner, names, input_names = _COMMANDS[args.command]
    params = {name: getattr(args, name) for name in names}
    params["format"] = args.format
    if params.get("mode") == "monte_carlo" or params.get("jitter"):
        params["seed"] = _resolve_seed(args)
    paths = {name: getattr(args, name) for name in input_names}
    inputs = _input_meta(**paths)
    artifacts = runner(params, paths, getattr(args, "workers", 1))
    if args.out is None:
        for _, chunks in artifacts:
            sys.stdout.writelines(chunks)
        return 0
    _write_manifest(args.out, args.command, params, inputs, _write_artifacts(args.out, artifacts))
    return 0


def _manifest_problem(manifest) -> str | None:
    """Why ``manifest`` cannot be replayed, or None when its shape is sound."""
    if not isinstance(manifest, dict):
        return f"manifest must be a JSON object, got {type(manifest).__name__}"
    for key, kind in (("subcommand", str), ("parameters", dict), ("inputs", dict), ("outputs", list)):
        if not isinstance(manifest.get(key), kind):
            return f"manifest needs a {key!r} entry of type {kind.__name__}"
    if manifest["subcommand"] not in _COMMANDS:
        return f"manifest names unknown subcommand {manifest['subcommand']!r}"
    fmt = manifest["parameters"].get("format")
    if fmt not in ("csv", "json"):
        return f"manifest parameter 'format' must be 'csv' or 'json', got {fmt!r}"
    for entry in [*manifest["inputs"].values(), *manifest["outputs"]]:
        if not (isinstance(entry, dict) and isinstance(entry.get("path"), str)
                and isinstance(entry.get("sha256"), str)):
            return f"manifest entry {entry!r} needs a 'path' and a 'sha256' string"
    return None


def cmd_replay(args) -> int:
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    runner = _COMMANDS[manifest["subcommand"]][0]
    try:
        artifacts = runner(manifest["parameters"], {k: v["path"] for k, v in inputs.items()}, args.workers)
    except KeyError as exc:
        print(f"error: manifest lacks parameter or input {exc}", file=sys.stderr)
        return 1
    except TypeError as exc:
        print(f"error: manifest parameter has the wrong type: {exc}", file=sys.stderr)
        return 1
    recorded = manifest["outputs"]
    if len(recorded) != len(artifacts):
        print(
            f"error: manifest records {len(recorded)} outputs but the run produced {len(artifacts)}",
            file=sys.stderr,
        )
        return 1
    outputs = _write_artifacts(args.out, artifacts)
    diverged = [(out, rec) for out, rec in zip(outputs, recorded) if out["sha256"] != rec["sha256"]]
    for out, rec in diverged:
        print(f"error: replay diverged: {out['path']} does not match recorded {rec['path']}", file=sys.stderr)
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


def _sorted_float_list(text: str) -> list:
    return sorted(_float_list(text))


def _plane(text: str) -> tuple:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"plane must look like 640x480, got {text!r}")
    return float(parts[0]), float(parts[1])


class _PlaneAction(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        namespace.plane_w, namespace.plane_h = values


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
    p.add_argument("--scales", "--scale", dest="scales", type=_sorted_float_list, required=True,
                   metavar="LIST", help="comma-separated face side lengths")
    p.add_argument("--strides", "--stride", dest="strides", type=_sorted_float_list, required=True,
                   metavar="LIST", help="comma-separated anchor strides")
    p.add_argument("--cells", type=int, default=EmoQuery.quadrature_cells, help="quadrature cells per axis")
    p.add_argument("--mc", dest="mode", action="store_const", const="monte_carlo",
                   default="closed_form", help="estimate by Monte Carlo against a single-scale layout")
    p.add_argument("--samples", type=int, default=100_000, help="Monte Carlo samples")
    p.add_argument("--workers", type=int, default=1,
                   help="Monte Carlo worker threads (result is identical for any count)")
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("grid", help="dump every anchor of a layout")
    p.add_argument("--spec", required=True, help="anchor spec JSON file")
    p.add_argument("--plane", type=_plane, action=_PlaneAction, required=True, metavar="WxH", help="plane size, e.g. 640x480")
    _add_common(p, seeded=False)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("stats", help="scale-bucketed mean max IoU and recall")
    p.add_argument("--annotations", required=True, help="face annotation listing")
    p.add_argument("--spec", required=True, help="anchor spec JSON file")
    p.add_argument("--buckets", type=_float_list, default=list(DEFAULT_BUCKET_EDGES),
                   metavar="LIST", help="bucket edges (empty string for a single bucket)")
    p.add_argument("--tau", type=float, default=0.5, help="recall IoU threshold")
    p.add_argument("--jitter", action="store_true", help="average over random face shifts")
    p.add_argument("--trials", type=int, default=16, help="jitter trials")
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("match", help="per-face and per-anchor assignment dump")
    p.add_argument("--annotations", required=True, help="face annotation listing")
    p.add_argument("--spec", required=True, help="anchor spec JSON file")
    p.add_argument("--th", dest="t_high", metavar="TH", type=float, default=MatchConfig.t_high,
                   help="positive IoU threshold")
    p.add_argument("--tl", dest="t_low", metavar="TL", type=float, default=MatchConfig.t_low,
                   help="background IoU threshold")
    p.add_argument("--hc", dest="hc_n", metavar="HC", type=int, default=MatchConfig.hc_n,
                   help="hard-face compensation count (0 disables)")
    p.add_argument("--jitter", action="store_true", help="apply a random face shift before matching")
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("optimize", help="rank anchor designs from a search space")
    p.add_argument("--annotations", required=True, help="face annotation listing")
    p.add_argument("--space", required=True, help="search space JSON file")
    p.add_argument("--tau", type=float, default=0.5, help="recall IoU threshold")
    _add_common(p, seeded=False)
    p.set_defaults(func=cmd_run)

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
    except (AnnotationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
