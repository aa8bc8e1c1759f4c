"""Hash index pipeline for point access."""

from .pipeline import HashIndexPipeline

__all__ = ["HashIndexPipeline"]
