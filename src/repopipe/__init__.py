"""repopipe: deterministic curation of repository-level pretraining data.

Stages: rule-based quality filtering, dependency-ordered repo
concatenation, repo-level MinHash/LSH near-deduplication, n-gram
benchmark decontamination, and FIM + fixed-length packing.

The package root exports nothing: import each name from the module
that defines it, such as `repopipe.pipeline.run_pipeline`.
"""

__version__ = "0.1.0"
