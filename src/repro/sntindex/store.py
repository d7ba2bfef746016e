"""Pluggable shard storage: the :class:`ShardStore` protocol.

The persistence layer (``persistence.py`` / ``sharded.py``) never talks
to the filesystem directly any more — every save, load, and manifest
read routes through a store:

:class:`LocalDirStore`
    Today's layout, byte for byte: the store root *is* the index
    directory, ``localize()`` is the identity, and ``install()`` is the
    existing sibling-tempdir atomic swap.  ``as_store`` wraps any bare
    path (or ``file:`` URI) in one of these, so existing call sites and
    on-disk trees are untouched.

The protocol is the seam another backend (or a fault-injecting
wrapper) plugs into: every loader and saver accepts a
:class:`ShardStore` instance wherever it accepts a path.

Store URIs (accepted everywhere a path was: ``EngineConfig.store``,
CLI ``--store``/``--index``/``--out``, ``open_db``):

- ``/path/to/index`` or ``file:/path/to/index`` — :class:`LocalDirStore`

Crash safety: :func:`atomic_install_dir` (moved here from
``persistence.py``, still re-exported there) stages a writer's output
in a sibling temp dir and swaps it in, so a reader finds either the old
tree, the new one, or none.
"""

from __future__ import annotations

import os
import shutil
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Callable, List, Union
from urllib.parse import unquote

from ..errors import PersistenceError, StoreError

__all__ = [
    "ShardStore",
    "LocalDirStore",
    "as_store",
    "is_store_uri",
    "atomic_install_dir",
]

StoreSource = Union[str, "os.PathLike[str]", "ShardStore"]
Writer = Callable[[Path], None]


def atomic_install_dir(
    final: Path,
    marker_file: str,
    writer: Writer,
    what: str = "saved SNT-index",
) -> Path:
    """Stage ``writer(target)`` in a sibling temp dir and swap it in.

    Shared by the monolithic index format (marker ``meta.json``) and the
    sharded manifest format (marker ``manifest.json``).  ``writer`` is
    called with a fresh staging directory and must fully populate it —
    including the marker file, which is how a later save recognises the
    target as safe to replace.
    """
    if final.exists():
        # The swap deletes whatever sits at the target; only a prior
        # saved index (or an empty directory) is fair game — a mistaken
        # --out must not destroy user data.
        if not final.is_dir():
            raise PersistenceError(
                f"cannot save index to {final}: exists and is not a "
                "directory"
            )
        if any(final.iterdir()) and not (final / marker_file).is_file():
            raise PersistenceError(
                f"refusing to overwrite {final}: directory exists and is "
                f"not a {what}"
            )
    final.parent.mkdir(parents=True, exist_ok=True)
    # Sweep staging/graveyard leftovers of *crashed* saves only: a
    # pid-suffixed dir whose owner is still alive belongs to a
    # concurrent saver and must not be touched.  A dead saver's
    # graveyard may hold the only surviving copy of the index (crash
    # between the two swap renames) — restore it, never delete it,
    # when no index is installed.
    for pattern in (f".{final.name}.tmp-*", f".{final.name}.old-*"):
        for stale in final.parent.glob(pattern):
            pid_text = stale.name.rsplit("-", 1)[-1]
            if pid_text.isdigit() and _pid_alive(int(pid_text)):
                continue
            if ".old-" in stale.name and not final.exists():
                try:
                    os.rename(stale, final)
                    continue
                except OSError:
                    pass
            shutil.rmtree(stale, ignore_errors=True)
    target = final.parent / f".{final.name}.tmp-{os.getpid()}"
    if target.exists():  # our own leftover; the sweep skips live pids
        shutil.rmtree(target)
    target.mkdir()
    try:
        writer(target)
    except BaseException:
        shutil.rmtree(target, ignore_errors=True)
        raise

    graveyard = None
    try:
        if final.exists():
            graveyard = final.parent / f".{final.name}.old-{os.getpid()}"
            if graveyard.exists():
                shutil.rmtree(graveyard)
            os.rename(final, graveyard)
        os.rename(target, final)
    except OSError as error:
        # Most likely two savers racing for the same target: the loser's
        # rename finds the directory already moved.  Put the old index
        # back if the failure left none installed.
        shutil.rmtree(target, ignore_errors=True)
        if (
            graveyard is not None
            and graveyard.exists()
            and not final.exists()
        ):
            try:
                os.rename(graveyard, final)
            except OSError:
                pass  # the sweep of a later save will restore it
        raise PersistenceError(
            f"could not install saved index at {final} (concurrent save "
            f"to the same path?): {error}"
        ) from error
    if graveyard is not None:
        # The new index is installed; a failed graveyard cleanup is not
        # a failed save (the next save's sweep collects it).
        shutil.rmtree(graveyard, ignore_errors=True)
    return final


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for staging-dir owners."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # alive, owned by another user
    except OSError:
        return True  # unknown: err on the side of not deleting
    return True


class ShardStore(ABC):
    """Where a saved index (or one shard of one) lives.

    Keys are ``/``-separated relative paths into the store's namespace
    (``"meta.json"``, ``"shard_0003/payload/users.npy"``); the empty
    prefix ``""`` denotes the whole store.  Two access planes:

    - **object plane** — ``get``/``put``/``list``/``exists``
      for small control files (manifests, staged pickles).
    - **directory plane** — ``localize(prefix)`` returns a real local
      directory holding that prefix's objects so the ``np.load(...,
      mmap_mode="r")`` payload loaders work unchanged, and
      ``install(prefix, ...)`` atomically replaces a prefix with a
      writer's staged output.
    """

    @property
    @abstractmethod
    def uri(self) -> str:
        """Canonical URI, round-trippable through :func:`as_store`."""

    @abstractmethod
    def get(self, key: str) -> bytes:
        """Read one object; :class:`StoreError` when absent."""

    @abstractmethod
    def put(self, key: str, data: bytes) -> None:
        """Write one object (atomically replacing any previous value)."""

    @abstractmethod
    def list(self, prefix: str = "") -> List[str]:
        """All object keys under ``prefix``, sorted."""

    @abstractmethod
    def exists(self, key: str) -> bool:
        """Whether object ``key`` is present."""

    @abstractmethod
    def localize(self, prefix: str = "") -> Path:
        """A local directory holding ``prefix``'s objects (paged in and
        validated if the store is remote; the backing directory itself
        if it is local)."""

    @abstractmethod
    def install(
        self,
        prefix: str,
        marker_file: str,
        writer: Writer,
        what: str = "saved SNT-index",
    ) -> Path:
        """Atomically replace ``prefix`` with ``writer``'s staged tree.

        Same contract as :func:`atomic_install_dir`: the writer fully
        populates a fresh staging directory including ``marker_file``,
        and a non-empty existing target lacking the marker is refused.
        Returns the local directory the installed tree is reachable at
        (for a remote store: the not-yet-paged-in cache path).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.uri!r})"


def _check_key(key: str) -> str:
    """Reject keys that escape the store namespace."""
    if key.startswith("/") or key.startswith("\\"):
        raise StoreError(f"store keys are relative, got {key!r}")
    parts = [part for part in key.split("/") if part not in ("", ".")]
    if any(part == ".." for part in parts):
        raise StoreError(f"store key {key!r} escapes the store root")
    return "/".join(parts)


class LocalDirStore(ShardStore):
    """The store backing today's on-disk layout, byte for byte.

    The root *is* the saved-index directory; every operation is a plain
    filesystem operation under it and ``install`` is the pre-existing
    :func:`atomic_install_dir` swap, so directories written through
    this store are indistinguishable from ones written before stores
    existed (the sharded-equivalence suite pokes files at fixed
    relative paths to prove exactly that).
    """

    def __init__(self, root: Union[str, "os.PathLike[str]"]) -> None:
        self._root = Path(root)

    @property
    def root(self) -> Path:
        return self._root

    @property
    def uri(self) -> str:
        return str(self._root)

    def _path(self, key: str) -> Path:
        checked = _check_key(key)
        return self._root / checked if checked else self._root

    def get(self, key: str) -> bytes:
        target = self._path(key)
        try:
            return target.read_bytes()
        except OSError as error:
            raise StoreError(
                f"no object {key!r} in store {self.uri}: {error}"
            ) from error

    def put(self, key: str, data: bytes) -> None:
        target = self._path(key)
        target.parent.mkdir(parents=True, exist_ok=True)
        staged = target.parent / f".{target.name}.put-{os.getpid()}"
        staged.write_bytes(data)
        os.replace(staged, target)

    def list(self, prefix: str = "") -> List[str]:
        base = self._path(prefix)
        if not base.is_dir():
            return []
        return sorted(
            str(item.relative_to(self._root))
            for item in base.rglob("*")
            if item.is_file()
        )

    def exists(self, key: str) -> bool:
        return self._path(key).is_file()

    def localize(self, prefix: str = "") -> Path:
        return self._path(prefix)

    def install(
        self,
        prefix: str,
        marker_file: str,
        writer: Writer,
        what: str = "saved SNT-index",
    ) -> Path:
        return atomic_install_dir(self._path(prefix), marker_file, writer, what)


def is_store_uri(text: str) -> bool:
    """Whether ``text`` is a store URI rather than a plain path.

    Recognised schemes only — a Windows-style drive or a path that
    merely contains ``:`` is not a URI.
    """
    return text.startswith("file:")


def as_store(source: StoreSource) -> ShardStore:
    """Normalise a path, store URI, or store instance to a store.

    The universal entry point of the persistence layer: every loader
    and saver calls this on its ``path`` argument, which is how bare
    ``Path`` call sites and ``file:`` URIs reach the same
    :class:`LocalDirStore`, and how a caller-built :class:`ShardStore`
    substitutes for it.
    """
    if isinstance(source, ShardStore):
        return source
    if isinstance(source, os.PathLike):
        return LocalDirStore(Path(source))
    if not isinstance(source, str):
        raise StoreError(
            f"cannot interpret {source!r} as a store (expected a path, "
            "store URI, or ShardStore)"
        )
    if source.startswith("file://"):
        return LocalDirStore(Path(unquote(source[len("file://"):]) or "/"))
    if source.startswith("file:"):
        return LocalDirStore(Path(unquote(source[len("file:"):])))
    if ":" in source.split("/", 1)[0] and "://" in source:
        raise StoreError(
            f"unknown store URI scheme in {source!r} (knows: file:)"
        )
    return LocalDirStore(Path(source))
