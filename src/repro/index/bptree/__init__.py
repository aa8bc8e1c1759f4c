"""Batched level-wise B+ tree index coprocessor (an extension)."""

from .pipeline import BPTreePipeline, compute_level_ranges

__all__ = ["BPTreePipeline", "compute_level_ranges"]
