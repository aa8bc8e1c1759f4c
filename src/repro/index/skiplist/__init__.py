"""Skiplist index pipeline for range scans."""

from .pipeline import SkiplistPipeline, compute_level_ranges

__all__ = ["SkiplistPipeline", "compute_level_ranges"]
