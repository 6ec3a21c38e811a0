"""Disk-backed, content-addressed artifact store (the cache's L2 tier).

The pipeline's memo keeps each node kind in an in-process LRU, which
makes repeated work free *within* one process, but the paper's
amortization claim — profile once, optimize many times — spans process
boundaries: ``_fan_out`` worker processes and every fresh CLI
invocation would recompute compilation, simulation and extraction from
scratch. The :class:`ArtifactStore` is the memo's disk tier: it keeps
each node under its key, in its kind's namespace, so any process
pointed at the same cache directory serves it from disk.

Design constraints (concurrent workers share one directory):

* **Atomic writes** — entries are written to a temp file in the target
  directory and published with :func:`os.replace`, so a reader never
  observes a torn entry.
* **Integrity** — every entry embeds a magic tag, a schema-version word
  and a SHA-256 of its payload. A corrupted, truncated or
  version-mismatched entry reads as a miss (and is unlinked best-effort);
  the caller silently recomputes.
* **Code binding** — entries live under a directory named by the schema
  version *and* a fingerprint of the ``repro`` package's own source
  code, so artifacts never outlive a semantic change to the
  compiler/extractor (no stale tables after an upgrade) and checkouts at
  different versions sharing one cache directory occupy disjoint
  subtrees instead of thrashing each other's entries.
* **Statistics** — each store object counts its own hits, misses and
  stores. A ``_fan_out`` pool process hands back what it counted with
  each result and the parent adds it to its own store object, so a
  command's counters are exact with or without workers. Each CLI
  invocation adds its counts once to the root's one tally file, under
  an exclusive :func:`fcntl.flock` that the OS releases if the process
  dies; ``repro cache stats`` reads it.

Layout::

    <root>/                          created mode 0700 when absent
      v<schema>-<code fp>/
        compile/<k[:2]>/<key>.art    entries, one file per content key
        extraction/...  exploration/...  validation/...  hierarchy/...
        fuzz/...
      tally.json                     counts of every recorded invocation

What an entry holds is up to its producer; two pickle part of
themselves lazily through :class:`LazyFields`. A compile entry's program
and detector result are one nested pickle, unpickled on first access,
next to the detector's Table II node ids; an extraction entry's
``TraceStats`` sets are another, next to the four sizes Table III
prints. A warm suite run reads only those summaries, so it unpickles no
AST, detector or address set.

Trust model: entries are pickles. The integrity hash detects torn or
bit-rotted files, **not** hostile ones — anyone who can write to the
cache directory can execute code in every process that reads from it.
Keep the store on a private, same-trust-domain filesystem (the default
``~/.cache/repro`` is created ``0700``); do not point ``--cache-dir``
at world-writable locations or restore it from untrusted archives.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Callable

#: Bump when any persisted artifact's shape changes incompatibly; every
#: entry written under another version reads as a miss (recompute).
#: Version 3: the lazily unpickled compile and extraction entries.
SCHEMA_VERSION = 3

#: The namespaces the pipeline persists (one per node kind).
NAMESPACES = ("compile", "extraction", "exploration", "validation",
              "hierarchy", "fuzz")

_MAGIC = b"RPROART\0"
_ENTRY_SUFFIX = ".art"
_TALLY_FILE = "tally.json"
_COUNTER_FIELDS = ("hits", "misses", "stores")

_CODE_FINGERPRINT: str | None = None


def code_fingerprint() -> str:
    """Digest of the ``repro`` package's own source code (memoized).

    Persisted artifacts are bound to it: any edit to the compiler,
    engines, extractor or allocators lands entries in a fresh subtree,
    so a warm run can never serve results computed by different code —
    without anyone having to remember to bump :data:`SCHEMA_VERSION`
    (which remains for *format* changes at a fixed code version).
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        digest = hashlib.sha256()
        package_root = os.path.dirname(os.path.realpath(__file__))
        # os.walk, not Path.rglob: every process with a store pays this
        # walk, and rglob takes twice as long.
        sources = sorted(
            os.path.relpath(os.path.join(folder, name), package_root)
            for folder, _dirs, names in os.walk(package_root)
            for name in names if name.endswith(".py"))
        for relative in sources:
            try:
                with open(os.path.join(package_root, relative), "rb") as fh:
                    blob = fh.read()
            except OSError:
                continue
            digest.update(relative.encode())
            digest.update(b"\0")
            digest.update(blob)
            digest.update(b"\0")
        _CODE_FINGERPRINT = digest.hexdigest()
    return _CODE_FINGERPRINT


def default_cache_dir() -> str:
    """The cache directory used when none is given explicitly:
    ``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


_MISSING = object()
#: Instance-dict keys of a :class:`LazyFields` instance's pickled state.
_LAZY_BLOB = "_lazy_blob"
_LAZY_SUMMARY = "_lazy_summary"


class LazyFields:
    """Attributes of ``cls`` pickled as one nested pickle, unpickled on
    first access, next to a summary read without unpickling them.

    ``cls.__getstate__`` returns :meth:`getstate`, which pickles
    ``names`` together — one pickle, so objects they share stay shared —
    and stores ``summarize(instance)`` beside them. An unpickled instance
    answers :meth:`summary` from that state and unpickles ``names`` only
    when one of them is read. Each name becomes a descriptor on ``cls``
    that the instance dict shadows, so reading a loaded (or never
    pickled) attribute costs nothing extra; a class-level default, such
    as a dataclass field's, is kept for instances that never set it.
    """

    def __init__(self, cls: type, names: tuple[str, ...],
                 summarize: Callable[[Any], object]) -> None:
        self.names = names
        self.summarize = summarize
        for name in names:
            setattr(cls, name, _LazyAttribute(
                self, name, cls.__dict__.get(name, _MISSING)))

    def _pending(self, obj: object) -> bool:
        """Whether ``names`` are still pickled; a name reassigned in the
        meantime unpickles the others, so the summary cannot go stale."""
        state = obj.__dict__
        if _LAZY_BLOB not in state:
            return False
        if any(name in state for name in self.names):
            self.load(obj)
            return False
        return True

    def load(self, obj: object) -> None:
        """Unpickle ``names`` into ``obj`` (a reassigned one is kept)."""
        state = obj.__dict__
        values = pickle.loads(state.pop(_LAZY_BLOB))
        del state[_LAZY_SUMMARY]
        for name, value in zip(self.names, values):
            state.setdefault(name, value)

    def summary(self, obj: object) -> Any:
        """``summarize(obj)``, from the pickled state while ``names`` are
        still pickled."""
        if self._pending(obj):
            return obj.__dict__[_LAZY_SUMMARY]
        return self.summarize(obj)

    def getstate(self, obj: object) -> dict:
        """``obj.__dict__`` with ``names`` replaced by their pickle and the
        summary; a still-pickled instance is passed on as it is."""
        if self._pending(obj):
            return dict(obj.__dict__)
        values = tuple(getattr(obj, name) for name in self.names)
        state = {key: value for key, value in obj.__dict__.items()
                 if key not in self.names}
        state[_LAZY_BLOB] = pickle.dumps(values,
                                         protocol=pickle.HIGHEST_PROTOCOL)
        state[_LAZY_SUMMARY] = self.summarize(obj)
        return state


class _LazyAttribute:
    """One name of a :class:`LazyFields`; looked up only while the
    instance dict lacks it."""

    def __init__(self, fields: LazyFields, name: str, default: object):
        self.fields = fields
        self.name = name
        self.default = default

    def __get__(self, obj: object, owner: type | None = None) -> Any:
        if obj is not None and _LAZY_BLOB in obj.__dict__:
            self.fields.load(obj)
            return obj.__dict__[self.name]
        if self.default is _MISSING:
            raise AttributeError(self.name)
        return self.default


def _encode(artifact: object) -> bytes:
    payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
    return (
        _MAGIC
        + SCHEMA_VERSION.to_bytes(4, "little")
        + hashlib.sha256(payload).digest()
        + payload
    )


def _decode(blob: bytes) -> tuple[object] | None:
    """``(artifact,)`` on success, ``None`` on any integrity failure."""
    header_len = len(_MAGIC) + 4 + 32
    if len(blob) < header_len or not blob.startswith(_MAGIC):
        return None
    version = int.from_bytes(blob[len(_MAGIC):len(_MAGIC) + 4], "little")
    if version != SCHEMA_VERSION:
        return None
    digest = blob[len(_MAGIC) + 4:header_len]
    payload = blob[header_len:]
    if hashlib.sha256(payload).digest() != digest:
        return None
    try:
        return (pickle.loads(payload),)
    except Exception:
        return None


def _atomic_write(path: Path, blob: bytes) -> None:
    """Publish ``blob`` at ``path`` via temp file + ``os.replace``, so a
    concurrent reader sees the old content or the new — never a torn
    file. The temp file is cleaned up on any failure."""
    import tempfile

    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _add_counts(into: dict[str, list[int]],
                counters: dict[str, list[int]]) -> None:
    """Add raw ``[hits, misses, stores]`` counts by namespace into
    ``into``."""
    for namespace, counts in counters.items():
        total = into.setdefault(namespace, [0, 0, 0])
        for slot, count in enumerate(counts):
            total[slot] += count


def _named(counters: dict[str, list[int]]) -> dict[str, dict[str, int]]:
    """Raw counts as ``{namespace: {"hits": …, "misses": …, "stores": …}}``."""
    return {namespace: dict(zip(_COUNTER_FIELDS, counts))
            for namespace, counts in counters.items()}


def _parse_tally(blob: bytes) -> dict[str, list[int]]:
    """The tally file's raw totals; an empty, torn or foreign file counts
    as no traffic (the store never fails a run)."""
    try:
        return {namespace: [int(fields.get(name, 0))
                            for name in _COUNTER_FIELDS]
                for namespace, fields in json.loads(blob).items()}
    except (ValueError, TypeError, AttributeError):
        return {}


class ArtifactStore:
    """A content-addressed artifact directory shared across processes.

    Keys are the pipeline's node keys; ``namespace`` is the node's kind.
    All methods degrade gracefully: I/O or integrity failures read as
    misses and failed writes are dropped, so the store can never make a
    pipeline run fail — only make it recompute.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self._counters: dict[str, list[int]] = {}

    @property
    def path(self) -> Path:
        return self.root

    def _tree(self) -> Path:
        """The subtree owned by this schema version + code fingerprint;
        other versions sharing the root occupy disjoint subtrees."""
        return self.root / f"v{SCHEMA_VERSION}-{code_fingerprint()[:12]}"

    def _entry_path(self, namespace: str, key: str) -> Path:
        return self._tree() / namespace / key[:2] / (key + _ENTRY_SUFFIX)

    def _ensure_root(self) -> None:
        """Create the root when absent — private to the user (0700),
        since entries are pickles and the directory is a trust boundary.
        A pre-existing directory's permissions are left alone."""
        if self.root.exists():
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            os.chmod(self.root, 0o700)
        except OSError:
            pass

    def _bump(self, namespace: str, slot: int) -> None:
        counters = self._counters.setdefault(namespace, [0, 0, 0])
        counters[slot] += 1

    def get(self, namespace: str, key: str) -> object | None:
        """The stored artifact, or ``None`` (miss) when absent/corrupt."""
        path = self._entry_path(namespace, key)
        try:
            blob = path.read_bytes()
        except OSError:
            self._bump(namespace, 1)
            return None
        decoded = _decode(blob)
        if decoded is None:
            # Corrupted / truncated / schema-mismatched: silently fall
            # back to recompute (the next put republishes the entry).
            try:
                path.unlink()
            except OSError:
                pass
            self._bump(namespace, 1)
            return None
        self._bump(namespace, 0)
        return decoded[0]

    def put(self, namespace: str, key: str, artifact: object) -> bool:
        """Persist ``artifact`` atomically; ``False`` when it could not
        be (unpicklable artifact or I/O failure) — the entry simply stays
        memory-only."""
        try:
            blob = _encode(artifact)
        except Exception:
            return False
        path = self._entry_path(namespace, key)
        try:
            self._ensure_root()
            path.parent.mkdir(parents=True, exist_ok=True)
            _atomic_write(path, blob)
        except OSError:
            return False
        self._bump(namespace, 2)
        return True

    # -- statistics ---------------------------------------------------

    def session_counters(self) -> dict[str, dict[str, int]]:
        """The counts made through this object since it was opened or
        last zeroed, pool processes' included, by namespace."""
        return _named(self._counters)

    def take_counters(self) -> dict[str, list[int]]:
        """This object's raw counts, zeroing them."""
        counters, self._counters = self._counters, {}
        return counters

    def add_counters(self, counters: dict[str, list[int]]) -> None:
        """Add raw counts made elsewhere (a pool process's
        :meth:`take_counters`) to this object's."""
        _add_counts(self._counters, counters)

    def record_counters(self) -> None:
        """Add this object's counts to the tally file, once per
        invocation: read, add and rewrite it in place under an exclusive
        ``flock``, which serializes concurrent invocations and which the
        OS releases if the process dies."""
        if not self._counters:
            return
        import fcntl

        try:
            self._ensure_root()
            fd = os.open(self.root / _TALLY_FILE, os.O_RDWR | os.O_CREAT,
                         0o600)
            with open(fd, "r+b") as handle:
                fcntl.flock(handle, fcntl.LOCK_EX)
                totals = _parse_tally(handle.read())
                _add_counts(totals, self._counters)
                handle.seek(0)
                handle.write(json.dumps(_named(totals)).encode())
                handle.truncate()
        except OSError:
            pass

    def tally(self) -> dict[str, dict[str, int]]:
        """Hit/miss/store totals by namespace over every invocation
        recorded since the store was last cleared."""
        import fcntl

        try:
            with open(self.root / _TALLY_FILE, "rb") as handle:
                fcntl.flock(handle, fcntl.LOCK_SH)
                return _named(_parse_tally(handle.read()))
        except OSError:
            return {}

    def entry_stats(self) -> dict[str, tuple[int, int]]:
        """``{namespace: (entry_count, total_bytes)}`` for this code
        version's entries on disk."""
        stats: dict[str, tuple[int, int]] = {}
        tree = self._tree()
        for namespace in NAMESPACES:
            count = size = 0
            for path in (tree / namespace).glob(f"*/*{_ENTRY_SUFFIX}"):
                try:
                    size += path.stat().st_size
                except OSError:
                    continue
                count += 1
            stats[namespace] = (count, size)
        return stats

    def clear(self) -> int:
        """Remove every entry — all code versions' subtrees — and the
        tally; returns how many entries were removed.

        Only store-owned content (``v*-*`` version trees and the tally
        file) is touched: pointing ``--cache-dir`` at a directory that
        also holds other files must never delete them.
        """
        import shutil

        removed = 0
        for tree in self.root.glob("v*-*"):
            if not tree.is_dir():
                continue
            removed += sum(
                1 for _ in tree.glob(f"*/*/*{_ENTRY_SUFFIX}")
            )
            shutil.rmtree(tree, ignore_errors=True)
        try:
            (self.root / _TALLY_FILE).unlink()
        except OSError:
            pass
        try:
            self.root.rmdir()  # only when nothing else lives there
        except OSError:
            pass
        self._counters = {}
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.root)!r})"


#: One ArtifactStore instance per cache directory, shared by every run
#: in this process; its counters take in what fan-out workers count.
_open_stores: dict[str, ArtifactStore] = {}


def open_store(root: str) -> ArtifactStore:
    """This process's store object for the directory ``root``."""
    store = _open_stores.get(root)
    if store is None:
        store = _open_stores[root] = ArtifactStore(root)
    return store


def take_store_counters() -> dict[str, dict[str, list[int]]]:
    """Every open store's raw counts by root, zeroing them (also what a
    fan-out worker hands back with each result)."""
    return {root: store.take_counters()
            for root, store in _open_stores.items()}


def reset_store_counters() -> None:
    """Zero every open store's counters, so that ``session_counters()``
    counts from here on."""
    take_store_counters()


def record_store_counters() -> None:
    """Add every open store's counters to its tally file."""
    for store in _open_stores.values():
        store.record_counters()
