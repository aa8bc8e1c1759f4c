"""Batched level-wise B+ tree index coprocessor (an extension)."""

from .pipeline import BPTreePipeline, BPTreeTimings, compute_level_ranges

__all__ = ["BPTreePipeline", "BPTreeTimings", "compute_level_ranges"]
