"""Durable-file plumbing for the host's recovery artifacts (§4.8).

The command log and checkpoint are the *only* state that survives a
crash, so they get the treatment real recovery files get:

* **Atomic replace** — content is written to a temporary file in the
  same directory, flushed and fsynced, then ``os.replace``d over the
  destination.  A crash mid-save leaves the previous artifact intact,
  never a half-written one.
* **Framing + checksums** — a magic/version header followed by
  length-prefixed, CRC32-guarded frames.  Corruption (bit flips,
  truncation) is *detected* and reported as
  :class:`~repro.errors.CorruptionError` with the failing frame, and a
  truncated tail can be salvaged up to the last intact frame — exactly
  the semantics a write-ahead-style log needs after losing power
  mid-append.

The format is deliberately simple::

    MAGIC(4) VERSION(1)
    repeat: LEN(4, big-endian) CRC32(4, of payload) PAYLOAD(LEN)

Both write paths — whole-artifact :func:`write_frames` and the
incremental :class:`FrameAppender` — accept an optional
:class:`~repro.faults.FaultPlan`; when one is armed, a save can be
killed before or after the atomic rename and an append can be torn at
an arbitrary byte or bit-flipped, which is exactly the damage the
salvage side of :func:`read_frames` exists to survive.
"""

from __future__ import annotations

import os
import pickle
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Any, List, Tuple

from ..errors import CorruptionError, FaultError

__all__ = [
    "atomic_write_bytes", "write_frames", "read_frames", "FrameAppender",
    "FORMAT_VERSION",
]

FORMAT_VERSION = 1
_FRAME_HEADER = struct.Struct(">II")  # length, crc32


def atomic_write_bytes(path, data: bytes, faults=None) -> None:
    """Write ``data`` to ``path`` atomically (tmp + fsync + replace).

    With a fault plan armed, the save can crash *before* the rename
    (the previous artifact survives; the tmp file is left behind, as a
    real crash would leave it) or *after* it (the new artifact is
    already in place)."""
    path = Path(path)
    if faults is not None:
        faults.check_alive()
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".",
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if faults is not None:
        from ..faults.plan import CRASH_AFTER_RENAME, CRASH_BEFORE_RENAME
        if faults.fires(CRASH_BEFORE_RENAME):
            raise faults.crash(CRASH_BEFORE_RENAME, artifact=path.name)
        os.replace(tmp, path)
        if faults.fires(CRASH_AFTER_RENAME):
            raise faults.crash(CRASH_AFTER_RENAME, artifact=path.name)
        return
    os.replace(tmp, path)


def _pack_frame(obj: Any) -> bytes:
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME_HEADER.pack(len(payload),
                              zlib.crc32(payload) & 0xFFFFFFFF) + payload


def write_frames(path, magic: bytes, objects: List[Any],
                 faults=None) -> None:
    """Pickle each object into a CRC-guarded frame and atomically write
    the whole artifact."""
    if len(magic) != 4:
        raise ValueError("magic must be 4 bytes")
    parts = [magic, bytes([FORMAT_VERSION])]
    parts.extend(_pack_frame(obj) for obj in objects)
    atomic_write_bytes(path, b"".join(parts), faults=faults)


class FrameAppender:
    """Incremental framed writer: one flushed frame per append.

    Unlike :func:`write_frames` (which rewrites the whole artifact), an
    appender persists records as they happen, so a crash mid-append
    tears at most the frame being written — the salvage mode of
    :func:`read_frames` recovers everything before it.  This is the
    write-side discipline a command log needs.

    The appender owns the file from creation: it refuses to append to
    an existing non-empty file (whose tail it cannot vouch for) unless
    ``overwrite=True`` truncates it first.

    ``fsync`` controls whether every append also fsyncs; the simulated
    fault model only needs the flush (the host process never actually
    dies), so it defaults off.
    """

    def __init__(self, path, magic: bytes, faults=None,
                 overwrite: bool = True, fsync: bool = False):
        if len(magic) != 4:
            raise ValueError("magic must be 4 bytes")
        self.path = Path(path)
        self.magic = magic
        self.faults = faults
        self.fsync = fsync
        if not overwrite and self.path.exists() and self.path.stat().st_size:
            raise FaultError(
                "appender refuses an existing non-empty file: its tail "
                "may be torn; load + rewrite instead",
                artifact=self.path.name)
        self._f = open(self.path, "wb")
        self._f.write(magic + bytes([FORMAT_VERSION]))
        self._f.flush()
        if fsync:
            os.fsync(self._f.fileno())
        self.closed = False

    def append(self, obj: Any) -> None:
        """Serialise one frame and flush it to disk.

        Fault sites: ``durable.torn_append`` cuts the frame at a drawn
        byte offset and crashes; ``durable.append_bit_flip`` flips a
        drawn bit (header or payload — CRC or parse catches it at load)
        and crashes."""
        if self.closed:
            raise FaultError("append on a closed appender",
                             artifact=self.path.name)
        faults = self.faults
        if faults is not None:
            faults.check_alive()
        frame = _pack_frame(obj)
        if faults is not None:
            from ..faults.plan import APPEND_BIT_FLIP, TORN_APPEND
            if faults.fires(TORN_APPEND):
                cut = faults.draw_int(0, len(frame) - 1)
                self._f.write(frame[:cut])
                self._f.flush()
                raise faults.crash(TORN_APPEND, artifact=self.path.name,
                                   cut_at=cut, frame_bytes=len(frame))
            if faults.fires(APPEND_BIT_FLIP):
                bit = faults.draw_int(0, len(frame) * 8 - 1)
                damaged = bytearray(frame)
                damaged[bit // 8] ^= 1 << (bit % 8)
                self._f.write(bytes(damaged))
                self._f.flush()
                raise faults.crash(APPEND_BIT_FLIP, artifact=self.path.name,
                                   flipped_bit=bit)
        self._f.write(frame)
        self._f.flush()
        if self.fsync:
            os.fsync(self._f.fileno())

    def close(self) -> None:
        if not self.closed:
            self._f.flush()
            if self.fsync:
                os.fsync(self._f.fileno())
            self._f.close()
            self.closed = True

    def __enter__(self) -> "FrameAppender":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_frames(path, magic: bytes,
                strict: bool = True) -> Tuple[List[Any], bool]:
    """Read back a framed artifact.

    Returns ``(objects, intact)``.  With ``strict=True`` any defect —
    bad magic, unsupported version, truncated frame, CRC mismatch,
    unpicklable payload — raises :class:`CorruptionError`.  With
    ``strict=False`` a *tail* defect (truncation / corruption after at
    least the header) salvages the intact prefix and returns
    ``intact=False``; a bad header still raises, since nothing is
    salvageable.
    """
    path = Path(path)
    blob = path.read_bytes()
    artifact = path.name
    if len(blob) < 5 or blob[:4] != magic:
        raise CorruptionError("bad magic: not a BionicDB durable artifact",
                              artifact=artifact,
                              expected=magic, got=bytes(blob[:4]))
    version = blob[4]
    if version != FORMAT_VERSION:
        raise CorruptionError("unsupported artifact format version",
                              artifact=artifact, version=version,
                              supported=FORMAT_VERSION)
    objects: List[Any] = []
    offset = 5
    index = 0
    while offset < len(blob):
        def defect(message: str, **details) -> Tuple[List[Any], bool]:
            if strict:
                raise CorruptionError(message, artifact=artifact,
                                      frame=index, offset=offset, **details)
            return objects, False

        if offset + _FRAME_HEADER.size > len(blob):
            return defect("truncated frame header")
        length, crc = _FRAME_HEADER.unpack_from(blob, offset)
        start = offset + _FRAME_HEADER.size
        end = start + length
        if end > len(blob):
            return defect("truncated frame payload",
                          expected_bytes=length,
                          available=len(blob) - start)
        payload = blob[start:end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            return defect("frame checksum mismatch")
        try:
            objects.append(pickle.loads(payload))
        except Exception as exc:
            return defect(f"frame does not unpickle: {exc}")
        offset = end
        index += 1
    return objects, True
