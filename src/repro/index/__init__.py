"""The index coprocessor: hash, skiplist and B+ tree pipelines."""

from .bptree.pipeline import BPTreePipeline
from .common import DbRequest, IndexError_, PipelineBase, sdbm_hash
from .hash.pipeline import HashIndexPipeline
from .skiplist.pipeline import SkiplistPipeline, compute_level_ranges

__all__ = [
    "DbRequest", "IndexError_", "PipelineBase", "sdbm_hash",
    "HashIndexPipeline", "SkiplistPipeline", "compute_level_ranges",
    "BPTreePipeline",
]
