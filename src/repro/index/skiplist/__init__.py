"""Skiplist index pipeline for range scans."""

from .pipeline import SkiplistPipeline, SkiplistTimings, compute_level_ranges

__all__ = ["SkiplistPipeline", "SkiplistTimings", "compute_level_ranges"]
