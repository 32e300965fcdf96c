"""The append-only, CRC-checked write-ahead log.

One committed transaction is one *record*.  The on-disk format is a
text header line followed by the payload bytes::

    W1 <lsn> <crc32:08x> <payload-length>\\n
    <payload bytes>\\n

The payload is the transaction's effective delta as canonical JSON
(the :mod:`repro.store.codec` type-directed encoding), so the log is
human-inspectable with ``less`` and replayable with nothing but a JSON
parser.  The CRC covers the payload bytes; the header's length field
frames them — together they make every record self-validating.

**Durability contract.**  ``append`` writes the record and (with
``sync=True``, the default) fsyncs before returning: a transaction is
*durable* exactly when ``append`` returned.  **Torn-tail tolerance:**
a crash mid-append leaves a final record with a short payload, a
missing terminator, or a CRC mismatch; :func:`read_records` stops at
the first invalid byte and reports the length of the valid prefix, and
recovery truncates the file there — the log never yields a partial or
corrupt transaction, only the state at the last durable commit.

**Failed appends leave nothing behind.**  If the write, flush or fsync
of a record raises, ``append`` truncates the log back to where the
record began and raises :class:`WalError`, so the next commit cannot
land beside a record its caller was told had failed.  A failed fsync
is never retried (the kernel may already have dropped the dirty pages
it could not write), so it, or a truncation that itself fails,
*fail-stops* the log: every later ``append`` or ``reset`` raises
:class:`WalError` until the store is reopened and recovered.
"""

from __future__ import annotations

import json
import os
import pathlib
import zlib

from ..errors import ReproError

__all__ = ["WalError", "WalRecord", "WriteAheadLog", "read_records"]

#: Record-format magic; bump on incompatible layout changes.
MAGIC = b"W1"


class WalError(ReproError):
    """The log cannot be appended to (never raised for torn tails)."""


class WalRecord:
    """One decoded WAL record: ``lsn``, parsed JSON ``payload``, and the
    byte offset just past the record (``end``)."""

    __slots__ = ("lsn", "payload", "end")

    def __init__(self, lsn: int, payload: dict, end: int):
        self.lsn = lsn
        self.payload = payload
        self.end = end

    def __repr__(self) -> str:
        return f"WalRecord(lsn={self.lsn}, end={self.end})"


def encode_record(lsn: int, payload: dict) -> bytes:
    """One record's bytes (header line + payload + terminator)."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(body) & 0xFFFFFFFF
    header = b"%s %d %08x %d\n" % (MAGIC, lsn, crc, len(body))
    return header + body + b"\n"


def read_records(path: pathlib.Path | str) -> tuple:
    """``(records, valid_length)`` — every valid record from the start
    of the file, and the byte length of the valid prefix.

    Reading stops at the first malformed header, short payload,
    missing terminator, or CRC mismatch; everything before it is
    durable, everything from it on is a torn tail to be truncated.  A
    missing file reads as an empty log.
    """
    path = pathlib.Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return [], 0
    records: list = []
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            break  # torn header
        header = data[offset:newline]
        parts = header.split(b" ")
        if len(parts) != 4 or parts[0] != MAGIC:
            break
        try:
            lsn = int(parts[1])
            crc = int(parts[2], 16)
            length = int(parts[3])
        except ValueError:
            break
        if lsn < 0 or length < 0:
            break
        start = newline + 1
        end = start + length + 1  # payload + terminating newline
        if end > len(data) or data[end - 1 : end] != b"\n":
            break  # torn payload
        body = data[start : start + length]
        if (zlib.crc32(body) & 0xFFFFFFFF) != crc:
            break  # corrupt payload
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            break
        if not isinstance(payload, dict):
            break
        records.append(WalRecord(lsn, payload, end))
        offset = end
    return records, offset


class WriteAheadLog:
    """The append end of one database's log.

    *sync* selects the durability point: ``True`` fsyncs every append
    (a record is durable when ``append`` returns — the default and the
    contract the recovery tests prove); ``False`` leaves flushing to
    the OS, trading the last few commits for throughput.
    """

    __slots__ = ("path", "sync", "appends", "bytes_written", "_handle", "_failure")

    def __init__(self, path: pathlib.Path | str, sync: bool = True):
        self.path = pathlib.Path(path)
        self.sync = sync
        self.appends = 0
        self.bytes_written = 0
        self._handle = None
        #: Why the log fail-stopped, or ``None`` while it is usable.
        self._failure: str | None = None

    def open(self, truncate_at: int | None = None) -> None:
        """Open for appending; *truncate_at* drops a torn tail first."""
        if self._handle is not None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(self.path, "ab")
        if truncate_at is not None and handle.tell() > truncate_at:
            handle.truncate(truncate_at)
            handle.seek(truncate_at)
        self._handle = handle

    def _writable(self):
        if self._handle is None:
            raise WalError(f"log {self.path} is not open")
        if self._failure is not None:
            raise WalError(
                f"log {self.path} fail-stopped ({self._failure}); reopen the store"
            )
        return self._handle

    def _fail(self, cause: Exception, truncate_at: int | None, stop: bool):
        """Undo a failed operation and raise :class:`WalError`: cut the
        file back to *truncate_at* and, when *stop* is set or the cut
        fails, fail-stop the log."""
        reason = f"{type(cause).__name__}: {cause}"
        if truncate_at is not None:
            try:
                self._handle.truncate(truncate_at)
                self._handle.seek(truncate_at)
            except Exception:  # noqa: BLE001 — the log can no longer be trusted
                stop = True
        if stop:
            self._failure = reason
        raise WalError(f"log {self.path}: {reason}") from cause

    def append(self, lsn: int, payload: dict) -> int:
        """Append one record; returns its byte size.  Durable on return
        when ``sync`` is set; on failure nothing is appended (see the
        module docstring)."""
        handle = self._writable()
        record = encode_record(lsn, payload)
        start = handle.tell()
        stage = "write"
        try:
            handle.write(record)
            handle.flush()
            if self.sync:
                stage = "fsync"
                os.fsync(handle.fileno())
        except Exception as exc:  # noqa: BLE001 — re-raised as WalError
            self._fail(exc, start, stop=stage == "fsync")
        self.appends += 1
        self.bytes_written += len(record)
        return len(record)

    def size(self) -> int:
        if self._handle is not None:
            return self._handle.tell()
        try:
            return self.path.stat().st_size
        except FileNotFoundError:
            return 0

    def reset(self) -> None:
        """Truncate to empty (compaction: the snapshot now carries
        everything the log held).  Any failure fail-stops the log."""
        handle = self._writable()
        try:
            handle.truncate(0)
            handle.seek(0)
            handle.flush()
            if self.sync:
                os.fsync(handle.fileno())
        except Exception as exc:  # noqa: BLE001 — re-raised as WalError
            self._fail(exc, None, stop=True)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
