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
import functools
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from .dataset import (
    DEFAULT_BUCKET_EDGES,
    AnnotationError,
    ListingPlaneError,
    _check_plane,
    bounding_plane,
    bucket_bounds,
    bucket_stats,
    jitter_experiment,
    parse_annotations,
)
from .emo import EmoQuery, emo_closed_form, emo_monte_carlo
from .layout import AnchorSpec, _real, build_layout
from .matching import (LABEL_IGNORE, LABEL_NEGATIVE, LABEL_POSITIVE, MatchConfig, apply_jitter,
                       compensate_hard_faces, match_faces)
from .optimizer import optimize
from .specfile import load_space, load_spec, spec_json

__all__ = ["main", "build_parser"]

_LABEL_NAMES = np.empty(3, dtype=object)  # indexed by label code; LABEL_IGNORE (-1) is the last
_LABEL_NAMES[[LABEL_POSITIVE, LABEL_NEGATIVE, LABEL_IGNORE]] = "positive", "negative", "ignore"


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


# A chunk is one uint8 matrix, a row per table row, whose cells are padded
# with 0xFF, a byte UTF-8 never writes; deleting it leaves the text.
_PAD = b"\xff"
# Decimal texts four digits to a uint32 word: _QUADS[q] is q in 4 digits,
# _QUADS[10_000 + q] the same with its leading zeros padded (0 all padding).
_QUADS = np.arange(10_000, dtype=np.uint16)[:, None] // np.array([1000, 100, 10, 1], np.uint16)
_QUADS = np.concatenate([_QUADS % 10 + ord("0"), np.where(_QUADS, _QUADS % 10 + ord("0"), _PAD[0])])
_QUADS = _QUADS.astype(np.uint8).view(np.uint32).ravel()
_ZERO, _MINUS, _BLANK = np.frombuffer(b"\xff\xff\xff0\xff\xff\xff-\xff\xff\xff\xff", np.uint32)
_POW10000 = 10_000 ** np.arange(1, 5, dtype=np.uint64)


def _text_rows(texts) -> np.ndarray:
    """The UTF-8 bytes of each text as one padded matrix row."""
    data = [t.encode() for t in texts]
    lengths = np.fromiter(map(len, data), np.intp, len(data))
    rows = np.full((len(data), lengths.max(initial=0)), _PAD[0], np.uint8)
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = np.frombuffer(b"".join(data), np.uint8)
    return rows


def _int_cells(part: np.ndarray) -> np.ndarray:
    """Decimal texts of an int column, four digits to a ``_QUADS`` word,
    behind a ``-`` word when any cell is negative."""
    negative = part < 0
    rest = part.astype(np.uint64)
    np.negative(rest, out=rest, where=negative)  # modulo 2**64, so -2**63 too
    n_quads = 1 + int(np.searchsorted(_POW10000, rest.max(), side="right"))
    words = np.empty((len(part), n_quads + bool(negative.any())), np.uint32)
    for j in range(1, n_quads + 1):
        rest, low = np.divmod(rest, 10_000)
        np.add(low, 10_000, out=low, where=rest == 0)  # no digit above: pad zeros
        words[:, -j] = _QUADS.take(low)
    words[part == 0, -1] = _ZERO
    if words.shape[1] > n_quads:
        words[:, 0] = np.where(negative, _MINUS, _BLANK)
    return words.view(np.uint8)


class _Coded:
    """A column whose row ``i`` is ``names[codes[i]]``, such as ``match``'s
    labels: its chunks format each name once and index the texts by code."""

    def __init__(self, codes: np.ndarray, names):
        self.codes, self.names = codes, names

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows: slice) -> "_Coded":
        return _Coded(self.codes[rows], self.names)


def _cells(part, text) -> np.ndarray:
    """The cells of one chunk of a column as padded rows of UTF-8 bytes.

    Ints are written four digits at a time, never through ``str``; a
    :class:`_Coded` column formats each of its names once.  Every other
    column passes each distinct value through ``text`` once and indexes the
    texts: floats and bools keyed by bit pattern, so ``-0.0``, ``0.0`` and
    nan payloads keep their texts; Python objects, from object or string
    arrays or sequences, by identity, since equal objects may print
    differently (``1``, ``True`` and ``1.0``; ``-0.0`` and ``0.0``).  That
    still finds the repeats of a column like ``match``'s ``image_id``,
    whose cells of one image are one ``str``.
    """
    if isinstance(part, _Coded):
        return _text_rows(map(text, part.names))[part.codes]
    kind = part.dtype.kind if isinstance(part, np.ndarray) else "O"
    if kind in "iu":
        return _int_cells(part)
    if kind in "fb" and part.itemsize <= 8:
        keys = part.view(f"u{part.itemsize}")
    else:
        values = part.tolist() if isinstance(part, np.ndarray) else list(part)  # alive while keyed
        ids = list(map(id, values))
        reps = dict(zip(ids, values))
        slots = dict(zip(reps, range(len(reps))))
        return _text_rows(map(text, reps.values()))[list(map(slots.__getitem__, ids))]
    distinct, index = np.unique(keys, return_inverse=True)
    first = np.empty(len(distinct), np.intp)
    first[index] = np.arange(len(part))
    return _text_rows(map(text, part[first].tolist()))[index]


def _render(columns: dict, fmt: str):
    """Yield the CSV or JSON text of a table given as ``{name: values}`` in
    column order: the header, one text per ``_RENDER_ROWS`` rows, the close.

    Values are numpy arrays or Python sequences of equal length.  A CSV row
    is its cells joined by ``,`` and ended by ``\\n``, quoted as
    ``csv.writer`` quotes rows of two or more cells.  JSON is the text of
    ``json.dumps(rows, indent=2, sort_keys=True)`` plus ``\\n`` for a list
    of one object per row, each row one template filled with its cells.
    """
    names = list(columns)
    n_rows = len(columns[names[0]])
    if fmt == "csv":
        yield ",".join(map(_csv_text, names)) + "\n"
        order, glue, last, close = names, ["", *[","] * (len(names) - 1), "\n"], "\n", ""
    else:
        yield "[\n" if n_rows else "["
        order = sorted(names)
        keys = [f"\n    {json.dumps(name)}: " for name in order]
        glue, last, close = ["  {" + keys[0], *["," + key for key in keys[1:]], "\n  },\n"], "\n  }\n", "]\n"
    text = _csv_text if fmt == "csv" else _json_text
    for lo in range(0, n_rows, _RENDER_ROWS):
        parts = [columns[name][lo : lo + _RENDER_ROWS] for name in order]
        yield _chunk_text(parts, text, glue, last if lo + _RENDER_ROWS >= n_rows else glue[-1])
    yield close


def _chunk_text(parts: list, text, glue: list, end: str) -> str:
    """One chunk's rows as one byte matrix: ``glue[0]``, the first part's
    cells (see ``_cells``), ``glue[1]``, ..., ``glue[-1]`` as constant
    columns between them, except that the chunk's last row ends in ``end``
    (no longer than ``glue[-1]``).  Deleting the padding leaves the text."""
    pieces = [np.frombuffer(g.encode(), np.uint8) for g in glue]
    pieces = [*(x for g, part in zip(pieces, parts) for x in (g, _cells(part, text))), pieces[-1]]
    edges = np.cumsum([0, *(piece.shape[-1] for piece in pieces)]).tolist()
    matrix = np.empty((len(parts[0]), edges[-1]), np.uint8)
    for piece, lo, hi in zip(pieces, edges, edges[1:]):
        matrix[:, lo:hi] = piece
    matrix[-1, lo:] = np.frombuffer(end.encode().ljust(hi - lo, _PAD), np.uint8)
    del pieces  # the cells, before the text's copies
    return matrix.tobytes().translate(None, _PAD).decode()


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
    plane = bounding_plane(faces)
    _check_plane([spec], plane)
    return faces, build_layout(spec, *plane)


def _run_emo(params: dict, inputs: dict, workers: int):
    for name in ("scales", "strides"):
        if not params[name]:
            raise ValueError(f"--{name} lists no values; the table would have no rows")
    pairs = [(scale, stride) for scale in sorted(params["scales"]) for stride in sorted(params["strides"])]
    if params["mode"] == "monte_carlo":
        cells = []
        for scale, stride in pairs:
            # 2**500 keeps the 8-stride plane finite, as for face sizes.
            spec = AnchorSpec(scales=(scale,), base_stride=_real(stride, "strides", 2.0**500), stride_divisor=1)
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
        faces, _ = apply_jitter(faces, layout, params["seed"])
    result = compensate_hard_faces(match_faces(faces, layout, cfg), faces, layout, cfg)

    face_cols = {
        "face": np.arange(len(faces)),
        "image_id": np.array(faces.image_ids, dtype=object)[faces.image],
        "scale": faces.scale,
        "max_iou": result.face_max_iou,
        "argmax_anchor": result.face_argmax,
        "assigned_count": result.assigned_count,
    }
    anchor_cols = {
        "anchor": np.arange(layout.anchor_count),
        "label": _Coded(result.anchor_labels, _LABEL_NAMES),
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
               "anchors_per_location": [sc.spec.anchors_per_location for sc in scores],
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


def cmd_run(args) -> int:
    """Run one subcommand of ``_COMMANDS``: stream its artifacts to stdout,
    or write them beside --out with a manifest."""
    runner, names, input_names = _COMMANDS[args.command]
    params = {name: getattr(args, name) for name in names}
    params["format"] = args.format
    if params.get("mode") == "monte_carlo" or params.get("jitter"):
        params["seed"] = args.seed
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
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")


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
    p.add_argument("--buckets", type=_float_list, default=DEFAULT_BUCKET_EDGES,
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


# One parser per process, built by the first ``main``; every default is immutable.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (AnnotationError, ListingPlaneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
