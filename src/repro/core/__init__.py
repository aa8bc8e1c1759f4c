"""BionicDB core: system assembly, configuration, run reports."""

from .config import BionicConfig
from .system import BionicDB, RunReport

__all__ = ["BionicConfig", "BionicDB", "RunReport"]
