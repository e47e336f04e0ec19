"""The classic on-disk cache tree as a :class:`CacheBackend`.

This is the sealed-store behavior that used to live inline in
:class:`~repro.engine.cache.InferenceCache`, extracted so the same
directory layout and fault sites sit behind the backend protocol:

* entries at ``<root>/class/<key[:2]>/<key>.json``;
* a ``CACHEDIR.TAG`` marker written atomically (a torn tag can never be
  published half-written);
* every entry write through :func:`repro.engine.store.atomic_write_text`
  with fault key ``class/<key>`` and the ``cache-put`` fault site fired
  after a successful persist;
* an entry whose bytes are not UTF-8 reads as unreadable (``OSError``),
  so the cache heals it like any other corrupt entry.

Writes take no lock: entries are content-addressed, so concurrent
writers of one key write identical bytes, and the atomic rename
publishes whole files.  A tree written by an older build may still
hold ``method/`` entries and a ``locks/`` directory; nothing reads
them, and both are safe to delete.

The server side of ``repro cache serve`` reuses this class unbound
(no owning cache): counters and events are simply skipped.
"""

from __future__ import annotations

from pathlib import Path

from repro.engine import faults, store
from repro.engine.backends.base import CacheBackend

_CACHEDIR_TAG = (
    "Signature: 8a477f597d28d172789f06886806bc55\n"
    "# This directory is a cache managed by repro; safe to delete.\n"
)


class LocalDirBackend(CacheBackend):
    """Sealed envelopes in a sharded local directory tree."""

    def __init__(self, root: Path | str) -> None:
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        tag = self.root / "CACHEDIR.TAG"
        if not tag.exists():
            try:
                store.atomic_write_text(tag, _CACHEDIR_TAG, fault_key="cachedir-tag")
            except OSError:
                # The tag is advisory (it tells backup tools to skip the
                # tree); a full disk must not take the cache down.
                pass

    @property
    def local_root(self) -> Path:
        return self.root

    def entry_path(self, key: str) -> Path:
        return self.root / "class" / key[:2] / f"{key}.json"

    def get_text(self, key: str) -> str | None:
        try:
            return self.entry_path(key).read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except UnicodeDecodeError as error:
            raise OSError(f"cache entry {key} is not UTF-8: {error}") from error

    def put_text(self, key: str, text: str) -> None:
        path = self.entry_path(key)
        fault_key = f"class/{key}"
        store.atomic_write_text(path, text, fault_key=fault_key)
        faults.fire("cache-put", fault_key, path)

    def delete(self, key: str) -> bool:
        try:
            self.entry_path(key).unlink()
            return True
        except FileNotFoundError:
            return False
        except OSError:
            # Read-only media: leave the entry in place; callers already
            # treat healing as best-effort.
            return False
