"""repopipe: deterministic curation of repository-level pretraining data.

Stages: rule-based quality filtering, dependency-ordered repo
concatenation, repo-level MinHash/LSH near-deduplication, n-gram
benchmark decontamination, and FIM + fixed-length packing.
"""

from .config import (
    BuildConfig,
    ConfigError,
    DecontamConfig,
    DedupConfig,
    PipelineConfig,
    StageToggles,
    default_config,
    load_config,
    validate_config,
)
from .corpus import FileStats, LanguageMap, SourceFile, compute_file_stats, detect_language
from .decontam import (
    ContaminationIndex,
    ContaminationReport,
    build_contamination_index,
    is_contaminated,
)
from .dedup import (
    DuplicateCluster,
    MinHashSignature,
    find_near_duplicates,
    minhash_signature,
)
from .deps import (
    DependencyGraph,
    RepoSample,
    build_graph,
    concatenate_with_paths,
    extract_dependencies,
    topological_sort,
)
from .filters import (
    FilterThresholds,
    FilterVerdict,
    apply_base_filters,
    apply_quality_heuristics,
    filter_data_file,
    filter_html,
)
from .fim import DEFAULT_SENTINELS, FimConfig, SentinelSet, fim_split, fim_transform
from .packing import ByteTokenizer, PackResult, Tokenizer, pack_entries
from .pipeline import RunSummary, StageFailure, emit_stats, run_pipeline, run_stage
from .stats import CorpusStats, compute_corpus_stats, render_stats_table

__version__ = "0.1.0"

__all__ = [
    "BuildConfig",
    "ByteTokenizer",
    "ConfigError",
    "ContaminationIndex",
    "ContaminationReport",
    "CorpusStats",
    "DEFAULT_SENTINELS",
    "DecontamConfig",
    "DedupConfig",
    "DependencyGraph",
    "DuplicateCluster",
    "FileStats",
    "FilterThresholds",
    "FilterVerdict",
    "FimConfig",
    "LanguageMap",
    "MinHashSignature",
    "PackResult",
    "PipelineConfig",
    "RepoSample",
    "RunSummary",
    "SentinelSet",
    "SourceFile",
    "StageFailure",
    "StageToggles",
    "Tokenizer",
    "apply_base_filters",
    "apply_quality_heuristics",
    "build_contamination_index",
    "build_graph",
    "compute_corpus_stats",
    "compute_file_stats",
    "concatenate_with_paths",
    "default_config",
    "detect_language",
    "emit_stats",
    "extract_dependencies",
    "filter_data_file",
    "filter_html",
    "find_near_duplicates",
    "fim_split",
    "fim_transform",
    "is_contaminated",
    "load_config",
    "minhash_signature",
    "pack_entries",
    "render_stats_table",
    "run_pipeline",
    "run_stage",
    "topological_sort",
    "validate_config",
]
