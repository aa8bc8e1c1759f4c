"""Hash index pipeline for point access."""

from .pipeline import HashIndexPipeline, HashTimings

__all__ = ["HashIndexPipeline", "HashTimings"]
