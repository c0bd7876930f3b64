"""pathmine: grounded multi-hop concept path mining over knowledge graphs.

The package root exports what the README documents; each stage's helpers
stay in their modules (``pathmine.grounding``, ``pathmine.scoring``,
``pathmine.selector``, ``pathmine.tree``).
"""

from .kg import (
    IndexChecksumError,
    IndexFormatError,
    IndexTruncatedError,
    IndexVersionError,
    IngestError,
    KnowledgeGraph,
    PathmineError,
    WalkStats,
    graph_from_triples,
    ingest_csv,
    load_index,
    save_index,
)
from .pipeline import Config, ExtractionRequest, ExtractionResult, Extractor, ground_pair, run_batch
from .scoring import SCORE_SENTINEL, ScoredTree, score_tree
from .selector import PathSelection, realize_selection, select_paths
from .tree import BuildConfig, PathTree, build_tree

__version__ = "0.1.0"

__all__ = [
    "BuildConfig",
    "Config",
    "ExtractionRequest",
    "ExtractionResult",
    "Extractor",
    "IndexChecksumError",
    "IndexFormatError",
    "IndexTruncatedError",
    "IndexVersionError",
    "IngestError",
    "KnowledgeGraph",
    "PathSelection",
    "PathTree",
    "PathmineError",
    "SCORE_SENTINEL",
    "ScoredTree",
    "WalkStats",
    "build_tree",
    "graph_from_triples",
    "ground_pair",
    "ingest_csv",
    "load_index",
    "realize_selection",
    "run_batch",
    "save_index",
    "score_tree",
    "select_paths",
]
