"""Crash-safe storage primitives shared by the cache and state files.

Everything the engine persists — content-addressed cache entries
(:mod:`repro.engine.cache`) and the incremental project state
(:mod:`repro.engine.state`) — goes through this module, which supplies
the two properties a multi-process store needs to survive power cuts
and ``SIGKILL`` mid-write:

* **Sealed envelopes.**  :func:`seal` stamps an envelope dict with the
  SHA-256 of its canonical JSON rendering under :data:`CHECKSUM_KEY`;
  :func:`seal_intact` re-derives and compares it on read.  Atomic
  rename alone is not enough: on filesystems without data journaling a
  crash can persist the rename but not the data blocks, leaving a
  *torn-but-valid* JSON payload in place.  The checksum turns that
  silent wrong-content read into a detected corruption, which the
  self-healing readers then treat like any other bad entry.

* **Atomic writes with injectable failures.**  :func:`atomic_write_text`
  is the single temp-file + ``os.replace`` implementation, with
  :mod:`repro.engine.faults` sync points (``store-write`` after the
  payload is written, ``store-rename`` just before the replace) so the
  chaos harness can tear the payload, fill the disk, fail the rename,
  or ``SIGKILL`` the process at exactly the worst moments.

A writer killed between ``mkstemp`` and ``os.replace`` leaves an
orphaned ``.tmp-*`` file behind; :func:`gc_tmp_files` sweeps those
(age-gated, so live writers are never raced) and backs the startup GC
and ``repro cache gc``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.engine import faults

#: Envelope key carrying the content checksum.
CHECKSUM_KEY = "sha256"

#: Every interrupted writer leaves files with this prefix behind.
TMP_PREFIX = ".tmp-"

#: The daemon's start-up sweep ignores temp files younger than this (a
#: concurrent writer may legitimately own them); ``repro cache gc``
#: sweeps every age unless told otherwise.
DEFAULT_TMP_GC_MIN_AGE = 3600.0


def canonical_bytes(obj: Any) -> bytes:
    """The canonical JSON rendering checksums are computed over."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def payload_digest(obj: Any) -> str:
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


def seal(envelope: dict[str, Any]) -> dict[str, Any]:
    """Stamp ``envelope`` with the checksum of its other fields."""
    body = {k: v for k, v in envelope.items() if k != CHECKSUM_KEY}
    return {**body, CHECKSUM_KEY: payload_digest(body)}


def seal_intact(envelope: Any) -> bool:
    """Does the envelope's recorded checksum match its content?"""
    if not isinstance(envelope, dict):
        return False
    recorded = envelope.get(CHECKSUM_KEY)
    if not isinstance(recorded, str):
        return False
    body = {k: v for k, v in envelope.items() if k != CHECKSUM_KEY}
    return recorded == payload_digest(body)


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------

def atomic_write_text(
    path: str | Path,
    text: str,
    *,
    fault_key: str | None = None,
    fsync: bool = False,
) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    Concurrent readers see the whole old file or the whole new file,
    never a partial write.  ``fsync=True`` additionally flushes the data
    blocks to disk before the rename — the state file pays that cost
    (one file per run), bulk cache entries do not.

    ``fault_key`` names the write for fault injection: the
    ``store-write`` site fires after the payload lands in the temp file
    and ``store-rename`` fires just before the replace, both receiving
    the temp path.  Any :class:`OSError` (injected or real) propagates
    to the caller after a best-effort cleanup of the temp file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=TMP_PREFIX, suffix=".json"
    )
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(text)
            if fsync:
                stream.flush()
                os.fsync(stream.fileno())
        if fault_key is not None:
            faults.fire("store-write", fault_key, temp_name)
            faults.fire("store-rename", fault_key, temp_name)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# Orphaned temp files
# ----------------------------------------------------------------------

def orphan_tmp_files(root: str | Path) -> list[Path]:
    """Every ``.tmp-*`` file under ``root``, sorted for determinism."""
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(root.rglob(f"{TMP_PREFIX}*"))


def gc_tmp_files(
    root: str | Path,
    *,
    min_age_seconds: float = DEFAULT_TMP_GC_MIN_AGE,
    now: float | None = None,
) -> int:
    """Remove orphaned temp files older than ``min_age_seconds``.

    Returns how many were removed.  The age gate keeps a sweep from
    racing a live writer: a crashed writer's orphan only ages, while a
    healthy writer renames its temp file away within milliseconds.
    """
    now = time.time() if now is None else now
    removed = 0
    for orphan in orphan_tmp_files(root):
        try:
            age = now - orphan.stat().st_mtime
        except OSError:
            continue  # already renamed or swept by a racing process
        if age < min_age_seconds:
            continue
        try:
            orphan.unlink()
            removed += 1
        except OSError:
            pass
    return removed
