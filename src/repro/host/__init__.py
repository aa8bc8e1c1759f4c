"""Host-CPU duties: durable clients, command logging, recovery."""

from .client import DurableClient
from .command_log import CommandLog, LogRecord
from .durable import FrameAppender
from .recovery import Checkpoint, RecoveryError, RecoveryManager, take_checkpoint

__all__ = [
    "DurableClient", "CommandLog", "LogRecord", "FrameAppender",
    "Checkpoint", "RecoveryError", "RecoveryManager", "take_checkpoint",
]
