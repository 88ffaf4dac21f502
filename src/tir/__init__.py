"""Shape-based trademark image retrieval.

Two-stage pipeline: corner counts on neighbourhood-difference edge maps
prefilter candidates through an adaptive window, then Hu invariant moments
rank the survivors. Includes an offline indexer, an online query path and a
precision/recall evaluation harness.
"""

from .corners import CornerConfig, CornerSet, corner_count, corner_metric, corner_peaks
from .edge import BinaryImage, EdgeConfig, prompt_edge
from .evaluation import (
    EvalMode,
    EvalReport,
    MetricUndefinedError,
    PRPoint,
    emit_pr_csv,
    evaluate,
    generate_rotated_dataset,
    precision,
    recall,
)
from .imaging import GrayImage, PnmError, RgbImage, load_image, rgb_to_gray, rotate, save_pgm
from .index import (
    ExtractionConfig,
    FeatureDatabase,
    FeatureRecord,
    IndexBuildError,
    IndexFormatError,
    Manifest,
    build_index,
    extract_features,
    load_index,
    query,
    read_manifest,
    save_index,
    write_manifest,
)
from .matching import (
    RankedMatch,
    ThresholdConfig,
    ThresholdWindow,
    adaptive_threshold,
    corner_filter,
    euclidean_distance,
    rank_by_moments,
)
from .moments import (
    DegenerateImageError,
    HuVector,
    central_moment,
    hu_moments,
    normalized_central_moment,
    raw_moment,
)

__version__ = "0.1.0"
