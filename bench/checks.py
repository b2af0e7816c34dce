"""Output checks, one per operation, computed by the benchmark itself.

Each check reads the artifact an operation wrote and returns ``None`` when
it is right or a one-line reason when it is not.  A check that cannot even
read its artifact fails with that error as the reason.

* ``stats``, ``jitter``: bucket counts sum to the parsed face count.
* ``match``: every ``max_iou`` lies in [0, 1], and for a seeded sample of
  faces it equals, digit for digit as written, the maximum of an
  exhaustive scan over ``layout.all_boxes()``.  The check compares per-face
  maxima only; which face an anchor records as its source is not checked.
* ``optimize``: objectives never increase down the ranking, and the top
  row equals ``stats --buckets ''`` run on the top row's spec.
* ``emo_mc``: every estimate lies within 4 standard errors of
  ``emo_closed_form`` wherever the closed form applies (stride/2 < scale).
* ``replay_jitter``, ``replay_emo``: the replayed artifact is byte-identical
  to the original, at the other worker count.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path

import numpy as np

MATCH_SAMPLE = 256  # faces compared against the exhaustive scan
MC_TOLERANCE_SE = 4.0
_SCAN_CHUNK = 8  # faces per exhaustive block: 8 x ~110k anchors per array


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _fmt(v: float) -> str:
    # The CLI writes every float as "{:.9g}".
    return f"{v:.9g}"


def _iou(ax, ay, aw, ah, bx, by, bw, bh):
    """Elementwise IoU by the reference expression (intersection over union)."""
    iw = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
    ih = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    union = aw * ah + bw * bh - inter
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(inter > 0.0, inter / union, 0.0)


def exhaustive_max_iou(anchors: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Per-face max IoU over every anchor row of ``anchors`` (x, y, w, h)."""
    out = np.empty(len(faces))
    ax, ay, aw, ah = (anchors[None, :, k] for k in range(4))
    for lo in range(0, len(faces), _SCAN_CHUNK):
        f = faces[lo:lo + _SCAN_CHUNK]
        fx, fy, fw, fh = (f[:, k, None] for k in range(4))
        out[lo:lo + len(f)] = _iou(ax, ay, aw, ah, fx, fy, fw, fh).max(axis=1)
    return out


def bounding_plane(faces: np.ndarray, min_side: float = 64.0) -> tuple[float, float]:
    """The plane every face fits in, at least ``min_side`` a side."""
    w = max(min_side, math.ceil(float(np.max(faces[:, 0] + faces[:, 2]))))
    h = max(min_side, math.ceil(float(np.max(faces[:, 1] + faces[:, 3]))))
    return float(w), float(h)


def check_bucket_counts(path: Path, faces: int) -> str | None:
    total = sum(int(r["count"]) for r in _rows(path))
    if total != faces:
        return f"bucket counts sum to {total}, expected {faces} parsed faces"
    return None


def check_match(path: Path, spec_path: Path, faces: np.ndarray, seed: int) -> str | None:
    from anchorlap.layout import build_layout
    from anchorlap.specfile import load_spec

    rows = _rows(path)
    if len(rows) != len(faces):
        return f"{len(rows)} face rows, expected {len(faces)}"
    values = np.array([float(r["max_iou"]) for r in rows])
    if not np.all((values >= 0.0) & (values <= 1.0)):
        bad = int(np.flatnonzero((values < 0.0) | (values > 1.0))[0])
        return f"face {bad} has max_iou {rows[bad]['max_iou']} outside [0, 1]"
    layout = build_layout(load_spec(str(spec_path)), *bounding_plane(faces))
    rng = np.random.default_rng(seed)
    sample = np.sort(rng.choice(len(faces), size=min(MATCH_SAMPLE, len(faces)), replace=False))
    expected = exhaustive_max_iou(layout.all_boxes(), faces[sample])
    for i, want in zip(sample, expected):
        if rows[i]["max_iou"] != _fmt(want):
            return f"face {i}: max_iou {rows[i]['max_iou']}, exhaustive scan gives {_fmt(want)}"
    return None


def check_optimize(path: Path, annotations: Path, work: Path) -> str | None:
    from anchorlap import cli

    rows = _rows(path)
    if not rows:
        return "no ranked configs"
    objectives = [float(r["objective"]) for r in rows]
    for rank in range(1, len(objectives)):
        if objectives[rank] > objectives[rank - 1]:
            return f"objective rises from rank {rank} to rank {rank + 1}"
    work.mkdir(parents=True, exist_ok=True)
    top_spec = work / "top_spec.json"
    top_spec.write_text(rows[0]["spec_json"] + "\n", encoding="utf-8")
    out = work / "top_stats.csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(["stats", "--annotations", str(annotations), "--spec", str(top_spec),
                         "--buckets", "", "--out", str(out)])
    if code != 0:
        return f"stats on the top spec exited {code}: {err.getvalue().strip()}"
    (single,) = _rows(out)
    if (single["mean_max_iou"], single["recall_at_tau"]) != (rows[0]["objective"], rows[0]["recall"]):
        return (f"top row objective/recall {rows[0]['objective']}/{rows[0]['recall']} but stats "
                f"gives {single['mean_max_iou']}/{single['recall_at_tau']}")
    return None


def check_emo(path: Path, scales, strides) -> str | None:
    from anchorlap.emo import EmoQuery, emo_closed_form

    rows = _rows(path)
    cells = {(float(r["scale"]), float(r["stride"])): r for r in rows}
    expected = {(float(s), float(t)) for s in scales for t in strides}
    if set(cells) != expected or len(rows) != len(expected):
        return f"cells {sorted(cells)}, expected {sorted(expected)}"
    for (scale, stride), r in sorted(cells.items()):
        value, se = float(r["emo"]), float(r["std_error"])
        if not 0.0 <= value <= 1.0:
            return f"scale {scale:g} stride {stride:g}: emo {value} outside [0, 1]"
        if stride / 2.0 >= scale:
            continue
        closed = emo_closed_form(EmoQuery(face_side=scale, anchor_stride=stride)).value
        if abs(value - closed) > MC_TOLERANCE_SE * se:
            return (f"scale {scale:g} stride {stride:g}: Monte Carlo {value} is "
                    f"{abs(value - closed) / se:.1f} standard errors from closed form {closed:.9g}")
    return None


def check_replay(replayed: Path, original: Path) -> str | None:
    if replayed.read_bytes() != original.read_bytes():
        return f"{replayed.name} differs from the original artifact"
    return None


def run_checks(inputs, work: Path, emo_scales, emo_strides, seed: int) -> dict[str, str | None]:
    """Check every operation's artifact under ``work``; op name -> reason or None."""
    n_faces = len(inputs.faces)
    checks = {
        "stats": lambda: check_bucket_counts(work / "stats" / "stats.csv", n_faces),
        "jitter": lambda: check_bucket_counts(work / "jitter" / "jitter.csv", n_faces),
        "match": lambda: check_match(work / "match" / "match.csv", inputs.spec, inputs.faces, seed),
        "optimize": lambda: check_optimize(work / "optimize" / "optimize.csv", inputs.annotations,
                                           work / "check"),
        "emo_mc": lambda: check_emo(work / "emo_mc" / "emo.csv", emo_scales, emo_strides),
        "replay_jitter": lambda: check_replay(work / "replay_jitter" / "jitter.csv",
                                              work / "jitter" / "jitter.csv"),
        "replay_emo": lambda: check_replay(work / "replay_emo" / "emo.csv", work / "emo_mc" / "emo.csv"),
    }
    results = {}
    for op, check in checks.items():
        try:
            results[op] = check()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            results[op] = f"artifact unreadable: {type(exc).__name__}: {exc}"
    return results
