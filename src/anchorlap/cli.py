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
is byte-identical.  Each table is rendered as UTF-8 bytes, one chunk of
``_RENDER_ROWS`` rows at a time, and each chunk is written and hashed (or
decoded to stdout) before the next is built.  ``_COMMANDS`` declares each
run subcommand, and the parser builds the flags they share from it.  Every
failure is raised to ``main``, which reports it as one ``error:`` line on
stderr.
Exit codes: 0 success, 1 I/O or input-data error, 2 invalid parameters.
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
from .geometry import _SIDE_MAX
from .layout import AnchorSpec, _integer, _real, build_layout
from .matching import (LABEL_IGNORE, LABEL_NEGATIVE, LABEL_POSITIVE, MatchConfig, apply_jitter,
                       compensate_hard_faces, match_faces)
from .optimizer import optimize
from .specfile import load_space, load_spec, spec_json

__all__ = ["main", "build_parser"]

_LABEL_NAMES = np.empty(3, dtype=object)  # indexed by label code; LABEL_IGNORE (-1) is the last
_LABEL_NAMES[[LABEL_POSITIVE, LABEL_NEGATIVE, LABEL_IGNORE]] = "positive", "negative", "ignore"


# ---------------------------------------------------------------------------
# formatting


# Rows per rendered chunk, which bounds the cells and bytes alive at once:
# an ``.anchors`` chunk's byte matrix, about 440 KB, fits a 2 MB L2 cache.
_RENDER_ROWS = 1 << 14


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
    """A column whose row ``i`` is ``names[codes[i]]``: every text column,
    such as ``match``'s labels and image IDs, and every per-group value,
    such as ``grid``'s scales.  Its chunks format each name once and index
    the texts by code.  A name keeps its type and characters, where a float
    array would print an int as a float and a ``<U`` array drop trailing NULs."""

    def __init__(self, codes: np.ndarray, names):
        self.codes, self.names = codes, names

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows: slice) -> "_Coded":
        return _Coded(self.codes[rows], self.names)


class _Lazy:
    """A column of ``n_rows`` rows built a chunk at a time: its slice
    ``[lo:hi]`` is ``part(lo, hi)``.  ``grid``'s columns and ``match``'s
    anchor IDs are lazy, so no column spans the whole plane."""

    def __init__(self, n_rows: int, part):
        self.n_rows, self.part = n_rows, part

    def __len__(self) -> int:
        return self.n_rows

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.part(*rows.indices(self.n_rows)[:2])


def _cells(part, text) -> np.ndarray:
    """The cells of one chunk of a column as padded rows of UTF-8 bytes.

    A :class:`_Coded` column formats each of its names once, and only the
    names its rows use when it has more names than rows.  Ints are written
    four digits at a time, never through ``str``.  Floats and bools pass
    each distinct bit pattern through ``text`` once and index the texts, so
    ``-0.0``, ``0.0`` and nan payloads keep their own.
    """
    if isinstance(part, _Coded):
        codes, names = part.codes, part.names
        if len(names) > len(codes):
            used, codes = np.unique(codes, return_inverse=True)
            names = [names[i] for i in used.tolist()]
        return _text_rows(map(text, names))[codes]
    if part.dtype.kind in "iu":
        return _int_cells(part)
    distinct, index = np.unique(part.view(f"u{part.itemsize}"), return_inverse=True)
    first = np.empty(len(distinct), np.intp)
    first[index] = np.arange(len(part))
    return _text_rows(map(text, part[first].tolist()))[index]


def _render(columns: dict, fmt: str):
    """Yield the CSV or JSON bytes of a table given as ``{name: values}`` in
    column order: the header, one chunk per ``_RENDER_ROWS`` rows, the close.

    Columns have one length; each is a :class:`_Coded`, a :class:`_Lazy`
    or numbers, as a numeric or bool array or a sequence ``np.asarray``
    makes one.  A chunk reads only its own rows of each column.  A CSV row
    is its cells joined by ``,`` and ended by ``\\n``, quoted as
    ``csv.writer`` quotes rows of two or more cells.  JSON is the UTF-8 of
    ``json.dumps(rows, indent=2, sort_keys=True)`` plus ``\\n`` for a list
    of one object per row, each row one template filled with its cells.
    """
    columns = {name: col if isinstance(col, (_Coded, _Lazy)) else np.asarray(col) for name, col in columns.items()}
    names = list(columns)
    n_rows = len(columns[names[0]])
    if fmt == "csv":
        yield (",".join(map(_csv_text, names)) + "\n").encode()
        order, glue, last, close = names, ["", *[","] * (len(names) - 1), "\n"], "\n", b""
    else:
        yield b"[\n" if n_rows else b"["
        order = sorted(names)
        keys = [f"\n    {json.dumps(name)}: " for name in order]
        glue, last, close = ["  {" + keys[0], *["," + key for key in keys[1:]], "\n  },\n"], "\n  }\n", b"]\n"
    text = _csv_text if fmt == "csv" else _json_text
    for lo in range(0, n_rows, _RENDER_ROWS):
        parts = [columns[name][lo : lo + _RENDER_ROWS] for name in order]
        yield _chunk_bytes(parts, text, glue, last if lo + _RENDER_ROWS >= n_rows else glue[-1])
    yield close


def _chunk_bytes(parts: list, text, glue: list, end: str) -> bytes:
    """One chunk's rows as one byte matrix: ``glue[0]``, the first part's
    cells (see ``_cells``), ``glue[1]``, ..., ``glue[-1]`` as constant
    columns between them, except that the chunk's last row ends in ``end``
    (no longer than ``glue[-1]``).  Deleting the padding leaves the UTF-8."""
    pieces = [np.frombuffer(g.encode(), np.uint8) for g in glue]
    pieces = [*(x for g, part in zip(pieces, parts) for x in (g, _cells(part, text))), pieces[-1]]
    edges = np.cumsum([0, *(piece.shape[-1] for piece in pieces)]).tolist()
    matrix = np.empty((len(parts[0]), edges[-1]), np.uint8)
    for piece, lo, hi in zip(pieces, edges, edges[1:]):
        matrix[:, lo:hi] = piece
    matrix[-1, lo:] = np.frombuffer(end.encode().ljust(hi - lo, _PAD), np.uint8)
    del pieces  # the cells, before the bytes' copies
    return matrix.tobytes().translate(None, _PAD)


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
    """Write each ``(suffix, chunks)`` artifact's bytes to ``out + suffix``,
    hashing each chunk as it is written; the manifest ``outputs`` entries,
    path and sha256, in artifact order."""
    outputs = []
    for suffix, chunks in artifacts:
        path = out + suffix
        digest = hashlib.sha256()
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                digest.update(chunk)
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
    if params["mode"] not in ("closed_form", "monte_carlo"):
        raise ValueError(f"mode must be 'closed_form' or 'monte_carlo', got {params['mode']!r}")
    for name in ("scales", "strides"):
        if not params[name]:
            raise ValueError(f"--{name} lists no values; the table would have no rows")
    pairs = [(scale, stride) for scale in sorted(params["scales"]) for stride in sorted(params["strides"])]
    if params["mode"] == "monte_carlo":
        cells = []
        for scale, stride in pairs:
            spec = AnchorSpec(scales=(scale,), base_stride=_real(stride, "strides", _SIDE_MAX), stride_divisor=1)
            cells.append((build_layout(spec, 8.0 * stride, 8.0 * stride), scale, scale))
        estimates = emo_monte_carlo(cells, params["samples"], params["seed"], workers)
    else:
        estimates = [emo_closed_form(EmoQuery(scale, stride, params["cells"])) for scale, stride in pairs]
    columns = {"scale": [float(scale) for scale, _ in pairs],
               "stride": [float(stride) for _, stride in pairs],
               "emo": [est.value for est in estimates],
               "std_error": [est.std_error for est in estimates],
               "method": _Coded(np.arange(len(pairs)), [est.method for est in estimates])}
    return [("", _render(columns, params["format"]))]


def _run_grid(params: dict, inputs: dict, workers: int):
    spec = load_spec(inputs["spec"])
    layout = build_layout(spec, params["plane_w"], params["plane_h"])
    n_rows = layout.anchor_count
    # Each chunk locates its own IDs once, for the eight columns.
    located = functools.lru_cache(1)(lambda lo, hi: layout.locate(np.arange(lo, hi)))
    group, cx, cy = (_Lazy(n_rows, lambda lo, hi, i=i: located(lo, hi)[i]) for i in range(3))
    scale, ratio, sublattice, w, h = (_Coded(group, [getattr(g, name) for g in layout.groups])
                                      for name in ("scale", "ratio", "sublattice", "box_w", "box_h"))
    columns = {"id": _Lazy(n_rows, np.arange), "scale": scale, "ratio": ratio, "sublattice": sublattice,
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
        "image_id": _Coded(faces.image, faces.image_ids),
        "scale": faces.scale,
        "max_iou": result.face_max_iou,
        "argmax_anchor": result.face_argmax,
        "assigned_count": result.assigned_count,
    }
    anchor_cols = {
        "anchor": _Lazy(layout.anchor_count, np.arange),
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
               "spec_json": _Coded(np.arange(len(scores)), [spec_json(sc.spec) for sc in scores])}
    return [("", _render(columns, params["format"]))]


# Each subcommand's runner, the parameters it reads off the parsed arguments
# (manifests record them, with ``format`` and any ``seed``) and its input files;
# ``_add_common`` builds each one's shared flags from it.
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
    workers = _integer(getattr(args, "workers", 1), "--workers", 1)
    seed = _integer(getattr(args, "seed", 0), "--seed", 0)
    params = {name: getattr(args, name) for name in names}
    params["format"] = args.format
    if params.get("mode") == "monte_carlo" or params.get("jitter"):
        params["seed"] = seed
    paths = {name: getattr(args, name) for name in input_names}
    artifacts = runner(params, paths, workers)
    if args.out is None:
        for _, chunks in artifacts:
            sys.stdout.writelines(chunk.decode() for chunk in chunks)
        return 0
    # The runner has read the inputs; they are hashed before any output is written.
    _write_manifest(args.out, args.command, params, _input_meta(**paths), _write_artifacts(args.out, artifacts))
    return 0


def _check_manifest(manifest) -> None:
    """Raise ``OSError`` (exit 1) unless ``manifest`` has a shape replay can run."""
    if not isinstance(manifest, dict):
        raise OSError(f"manifest must be a JSON object, got {type(manifest).__name__}")
    for key, kind in (("subcommand", str), ("parameters", dict), ("inputs", dict), ("outputs", list)):
        if not isinstance(manifest.get(key), kind):
            raise OSError(f"manifest needs a {key!r} entry of type {kind.__name__}")
    if manifest["subcommand"] not in _COMMANDS:
        raise OSError(f"manifest names unknown subcommand {manifest['subcommand']!r}")
    fmt = manifest["parameters"].get("format")
    if fmt not in ("csv", "json"):
        raise OSError(f"manifest parameter 'format' must be 'csv' or 'json', got {fmt!r}")
    for entry in [*manifest["inputs"].values(), *manifest["outputs"]]:
        if not (isinstance(entry, dict) and isinstance(entry.get("path"), str)
                and isinstance(entry.get("sha256"), str)):
            raise OSError(f"manifest entry {entry!r} needs a 'path' and a 'sha256' string")


def cmd_replay(args) -> int:
    """Re-run a manifest; each failure raises the ``OSError`` that ``main`` reports (exit 1)."""
    workers = _integer(args.workers, "--workers", 1)
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise OSError(f"manifest is not valid JSON: {exc}") from None
    _check_manifest(manifest)
    inputs = manifest["inputs"]
    for name, entry in sorted(inputs.items()):
        if _sha256_file(entry["path"]) != entry["sha256"]:
            raise OSError(f"input '{name}' at {entry['path']} changed since the manifest was written")
    runner = _COMMANDS[manifest["subcommand"]][0]
    try:
        artifacts = runner(manifest["parameters"], {k: v["path"] for k, v in inputs.items()}, workers)
    except KeyError as exc:
        raise OSError(f"manifest lacks parameter or input {exc}") from None
    except TypeError as exc:
        raise OSError(f"manifest parameter has the wrong type: {exc}") from None
    recorded = manifest["outputs"]
    if len(recorded) != len(artifacts):
        raise OSError(f"manifest records {len(recorded)} outputs but the run produced {len(artifacts)}")
    outputs = _write_artifacts(args.out, artifacts)
    diverged = [f"{out['path']} does not match recorded {rec['path']}"
                for out, rec in zip(outputs, recorded) if out["sha256"] != rec["sha256"]]
    if diverged:
        raise OSError("replay diverged: " + "; ".join(diverged))
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


_INPUT_HELP = {"annotations": "face annotation listing", "spec": "anchor spec JSON file",
               "space": "search space JSON file"}


def _add_common(p, command: str) -> None:
    """The flags of run subcommand ``command`` that its ``_COMMANDS`` entry
    declares: its input files, --out, --format and, for a random mode or
    jitter, --seed."""
    names, input_names = _COMMANDS[command][1:]
    for name in input_names:
        p.add_argument(f"--{name}", required=True, help=_INPUT_HELP[name])
    p.add_argument("--out", help="write the artifact here plus a .manifest.json sidecar (default: stdout, no manifest)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    if "mode" in names or "jitter" in names:
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    p.set_defaults(func=cmd_run)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchorlap",
        description="Anchor-overlap analysis: EMO tables, lattice dumps, matching and coverage reports.",
    )
    parser.add_argument("--version", action="version", version=f"anchorlap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("emo", help="expected max overlap for (scale, stride) pairs")
    _add_common(p, "emo")
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

    p = sub.add_parser("grid", help="dump every anchor of a layout")
    _add_common(p, "grid")
    p.add_argument("--plane", type=_plane, action=_PlaneAction, required=True, metavar="WxH", help="plane size, e.g. 640x480")

    p = sub.add_parser("stats", help="scale-bucketed mean max IoU and recall")
    _add_common(p, "stats")
    p.add_argument("--buckets", type=_float_list, default=DEFAULT_BUCKET_EDGES,
                   metavar="LIST", help="bucket edges (empty string for a single bucket)")
    p.add_argument("--tau", type=float, default=0.5, help="recall IoU threshold")
    p.add_argument("--jitter", action="store_true", help="average over random face shifts")
    p.add_argument("--trials", type=int, default=16, help="jitter trials")

    p = sub.add_parser("match", help="per-face and per-anchor assignment dump")
    _add_common(p, "match")
    p.add_argument("--th", dest="t_high", metavar="TH", type=float, default=MatchConfig.t_high,
                   help="positive IoU threshold")
    p.add_argument("--tl", dest="t_low", metavar="TL", type=float, default=MatchConfig.t_low,
                   help="background IoU threshold")
    p.add_argument("--hc", dest="hc_n", metavar="HC", type=int, default=MatchConfig.hc_n,
                   help="hard-face compensation count (0 disables)")
    p.add_argument("--jitter", action="store_true", help="apply a random face shift before matching")

    p = sub.add_parser("optimize", help="rank anchor designs from a search space")
    _add_common(p, "optimize")
    p.add_argument("--tau", type=float, default=0.5, help="recall IoU threshold")

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
    except (OSError, ValueError) as exc:  # the one place a failure is reported
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (AnnotationError, ListingPlaneError, OSError)) else 2


if __name__ == "__main__":
    sys.exit(main())
