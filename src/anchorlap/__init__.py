"""anchorlap: anchor-lattice overlap analysis for box detection.

Exact IoU geometry, expected-max-overlap (EMO) estimation, anchor lattice
construction with stride reduction and shifted sub-lattices, max-IoU
matching with jittering and hard-face compensation, annotation coverage
analytics, and an exact anchor-design optimizer.
"""

from .geometry import FaceTable, RectBox, intersect_area, iou, iou_offset_square, iou_xywh
from .layout import (
    AnchorLayout,
    AnchorSpec,
    LatticeGroup,
    build_layout,
    covering_radius,
    effective_anchor_stride,
)
from .emo import EmoEstimate, EmoQuery, emo_closed_form, emo_monte_carlo
from .matching import (
    LABEL_IGNORE,
    LABEL_NEGATIVE,
    LABEL_POSITIVE,
    MatchConfig,
    MatchResult,
    apply_jitter,
    compensate_hard_faces,
    match_faces,
    max_overlap_values,
    overlapping_anchors,
)
from .dataset import (
    DEFAULT_BUCKET_EDGES,
    AnnotationError,
    JitterReport,
    ParsedAnnotations,
    ScaleBucketReport,
    bounding_plane,
    bucket_stats,
    jitter_experiment,
    parse_annotations,
)
from .optimizer import ConfigScore, SearchSpace, enumerate_configs, evaluate_config, optimize
from .specfile import load_space, load_spec, spec_from_dict, spec_json, spec_to_dict
from .rng import stream

__version__ = "0.1.0"

__all__ = [
    "FaceTable",
    "RectBox",
    "intersect_area",
    "iou",
    "iou_offset_square",
    "iou_xywh",
    "AnchorSpec",
    "AnchorLayout",
    "LatticeGroup",
    "build_layout",
    "effective_anchor_stride",
    "covering_radius",
    "EmoQuery",
    "EmoEstimate",
    "emo_closed_form",
    "emo_monte_carlo",
    "MatchConfig",
    "MatchResult",
    "LABEL_POSITIVE",
    "LABEL_NEGATIVE",
    "LABEL_IGNORE",
    "match_faces",
    "compensate_hard_faces",
    "apply_jitter",
    "max_overlap_values",
    "overlapping_anchors",
    "AnnotationError",
    "ParsedAnnotations",
    "parse_annotations",
    "DEFAULT_BUCKET_EDGES",
    "ScaleBucketReport",
    "JitterReport",
    "bucket_stats",
    "jitter_experiment",
    "bounding_plane",
    "SearchSpace",
    "ConfigScore",
    "enumerate_configs",
    "evaluate_config",
    "optimize",
    "spec_from_dict",
    "spec_to_dict",
    "spec_json",
    "load_spec",
    "load_space",
    "stream",
    "__version__",
]
