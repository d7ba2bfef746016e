"""Unit tests for the shard-store backends (ISSUE 9 tentpole).

The store layer must be testable without building a single index:
everything here exercises byte-level contracts — URI dispatch, key
hygiene, and the local directory store's atomic install.
"""

import json

import pytest

from repro.errors import PersistenceError, StoreError
from repro.sntindex.store import LocalDirStore, as_store, is_store_uri


# --------------------------------------------------------------------- #
# URI dispatch
# --------------------------------------------------------------------- #


class TestAsStore:
    def test_bare_path_is_local(self, tmp_path):
        store = as_store(tmp_path / "index")
        assert isinstance(store, LocalDirStore)
        assert store.localize("") == tmp_path / "index"

    def test_file_uri_is_local(self, tmp_path):
        store = as_store(f"file://{tmp_path}/index")
        assert isinstance(store, LocalDirStore)
        assert store.localize("") == tmp_path / "index"

    def test_file_colon_form(self, tmp_path):
        store = as_store(f"file:{tmp_path}/index")
        assert isinstance(store, LocalDirStore)
        assert store.localize("") == tmp_path / "index"

    def test_store_passthrough(self, tmp_path):
        store = LocalDirStore(tmp_path)
        assert as_store(store) is store

    def test_unknown_scheme_rejected(self):
        for uri in ("s3://bucket/prefix", "object:///remote?cache=/c"):
            with pytest.raises(StoreError, match=r"\(knows: file:\)"):
                as_store(uri)

    def test_store_error_is_persistence_error(self):
        # CLI/main() catches ReproError; the store taxonomy must sit
        # under PersistenceError so a bad URI exits 1, not a traceback.
        assert issubclass(StoreError, PersistenceError)

    def test_is_store_uri(self, tmp_path):
        assert is_store_uri("file:/x")
        assert not is_store_uri("object://x")
        assert not is_store_uri(str(tmp_path))
        assert not is_store_uri("plain/relative/dir")


class TestKeyHygiene:
    @pytest.mark.parametrize("key", ["/abs/path", "../escape", "a/../.."])
    def test_traversal_rejected(self, tmp_path, key):
        store = LocalDirStore(tmp_path)
        with pytest.raises(StoreError):
            store.get(key)


# --------------------------------------------------------------------- #
# LocalDirStore
# --------------------------------------------------------------------- #


class TestLocalDirStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = LocalDirStore(tmp_path / "root")
        store.put("a/b.txt", b"payload")
        assert store.get("a/b.txt") == b"payload"
        assert store.exists("a/b.txt")
        assert not store.exists("missing")

    def test_list_prefix(self, tmp_path):
        store = LocalDirStore(tmp_path / "root")
        store.put("x/1", b"1")
        store.put("x/2", b"2")
        store.put("y/3", b"3")
        assert sorted(store.list("x")) == ["x/1", "x/2"]
        assert len(store.list("")) == 3

    def test_localize_is_identity(self, tmp_path):
        store = LocalDirStore(tmp_path / "root")
        store.put("sub/file", b"z")
        assert store.localize("sub") == tmp_path / "root" / "sub"

    def test_install_refuses_foreign_directory(self, tmp_path):
        target = tmp_path / "occupied"
        target.mkdir()
        (target / "precious.txt").write_text("user data")
        store = LocalDirStore(target)
        with pytest.raises(PersistenceError, match="refusing"):
            store.install(
                "",
                marker_file="meta.json",
                writer=lambda d: (d / "meta.json").write_text("{}"),
                what="saved SNT-index",
            )
        assert (target / "precious.txt").exists()

    def test_install_swaps_atomically(self, tmp_path):
        target = tmp_path / "index"
        store = LocalDirStore(target)

        def writer(directory):
            (directory / "meta.json").write_text('{"v": 1}')
            (directory / "blob").write_bytes(b"abc")

        store.install("", marker_file="meta.json", writer=writer,
                      what="saved SNT-index")
        assert json.loads((target / "meta.json").read_text()) == {"v": 1}

        def writer2(directory):
            (directory / "meta.json").write_text('{"v": 2}')

        store.install("", marker_file="meta.json", writer=writer2,
                      what="saved SNT-index")
        assert json.loads((target / "meta.json").read_text()) == {"v": 2}
        assert not (target / "blob").exists()  # old payload fully gone
