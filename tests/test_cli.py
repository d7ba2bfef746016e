"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("world")
    code = main(["generate", "--scale", "tiny", "--seed", "0",
                 "--out", str(path)])
    assert code == 0
    return path


class TestGenerate:
    def test_files_written(self, world_dir):
        assert (world_dir / "network.json").exists()
        assert (world_dir / "trajectories.txt").exists()

    def test_output_mentions_counts(self, world_dir, capsys):
        main(["generate", "--scale", "tiny", "--seed", "1",
              "--out", str(world_dir.parent / "second")])
        out = capsys.readouterr().out
        assert "edges" in out and "trajectories" in out


class TestInfo:
    def test_info_reports_stats(self, world_dir, capsys):
        assert main(["info", "--world", str(world_dir)]) == 0
        out = capsys.readouterr().out
        assert "network:" in out
        assert "trajectories:" in out
        assert "days" in out


class TestQuery:
    def path_from_world(self, world_dir, length=3):
        from repro.network import load_trajectories

        trajectories = load_trajectories(world_dir / "trajectories.txt")
        trajectory = max(trajectories, key=len)
        return ",".join(str(e) for e in trajectory.path[:length])

    def test_fixed_interval_query(self, world_dir, capsys):
        path = self.path_from_world(world_dir)
        assert main(["query", "--world", str(world_dir),
                     "--path", path]) == 0
        out = capsys.readouterr().out
        assert "estimated mean" in out
        assert "sub-queries" in out

    def test_periodic_query(self, world_dir, capsys):
        path = self.path_from_world(world_dir)
        assert main(["query", "--world", str(world_dir), "--path", path,
                     "--tod", "08:00", "--window-min", "30",
                     "--beta", "5"]) == 0
        out = capsys.readouterr().out
        assert "estimated mean" in out

    def test_unknown_edge_rejected(self, world_dir):
        with pytest.raises(SystemExit):
            main(["query", "--world", str(world_dir), "--path", "99999"])

    def test_bad_path_format(self, world_dir):
        with pytest.raises(SystemExit):
            main(["query", "--world", str(world_dir), "--path", "a,b"])

    def test_non_contiguous_path_rejected(self, world_dir):
        from repro.network import load_network

        network = load_network(world_dir / "network.json")
        edges = list(network.edge_ids())
        # Find two edges that do not connect.
        first = network.edge(edges[0])
        second = next(
            e for e in edges
            if network.edge(e).source != first.target and e != edges[0]
        )
        with pytest.raises(SystemExit):
            main(["query", "--world", str(world_dir),
                  "--path", f"{edges[0]},{second}"])

    def test_bad_tod(self, world_dir):
        path = self.path_from_world(world_dir)
        with pytest.raises(SystemExit):
            main(["query", "--world", str(world_dir), "--path", path,
                  "--tod", "25:99x"])

    def test_user_filter_query(self, world_dir, capsys):
        from repro.network import load_trajectories

        trajectories = load_trajectories(world_dir / "trajectories.txt")
        trajectory = max(trajectories, key=len)
        path = ",".join(str(e) for e in trajectory.path[:2])
        assert main(["query", "--world", str(world_dir), "--path", path,
                     "--user", str(trajectory.user_id),
                     "--tod", "08:00", "--beta", "2"]) == 0


class TestIndexCommand:
    def test_build_save_and_query_from_saved(
        self, world_dir, tmp_path, capsys
    ):
        index_dir = tmp_path / "index"
        assert main(["index", "--world", str(world_dir),
                     "--out", str(index_dir)]) == 0
        out = capsys.readouterr().out
        assert "built index" in out
        assert (index_dir / "meta.json").exists()
        assert (index_dir / "payload").is_dir()
        assert (index_dir / "payload" / "users.npy").exists()

        path = TestQuery().path_from_world(world_dir)
        assert main(["query", "--world", str(world_dir),
                     "--index", str(index_dir), "--path", path]) == 0
        assert "estimated mean" in capsys.readouterr().out

    def test_wrong_world_index_rejected_by_digest(
        self, world_dir, tmp_path, capsys
    ):
        other = tmp_path / "other_world"
        main(["generate", "--scale", "tiny", "--seed", "9",
              "--out", str(other)])
        index_dir = tmp_path / "index"
        main(["index", "--world", str(other), "--out", str(index_dir)])
        capsys.readouterr()
        path = TestQuery().path_from_world(world_dir)
        with pytest.raises(SystemExit, match="different world"):
            main(["query", "--world", str(world_dir),
                  "--index", str(index_dir), "--path", path])

    def test_swapped_network_rejected_on_digest_path(
        self, world_dir, tmp_path, capsys
    ):
        """The world digest covers trajectories only; a swapped
        network.json must still be caught."""
        import shutil

        clone = tmp_path / "clone"
        clone.mkdir()
        shutil.copy(world_dir / "network.json", clone / "network.json")
        shutil.copy(
            world_dir / "trajectories.txt", clone / "trajectories.txt"
        )
        index_dir = tmp_path / "index"
        main(["index", "--world", str(clone), "--out", str(index_dir)])
        capsys.readouterr()
        # Swap in a bigger network: same trajectories, different alphabet.
        main(["generate", "--scale", "small", "--seed", "5",
              "--out", str(tmp_path / "big")])
        shutil.copy(tmp_path / "big" / "network.json", clone / "network.json")
        # Edge 1 exists in both networks, so path validation passes and
        # the engine's alphabet guard fires; main converts the
        # ReproError to a one-line error and exit code 1.
        assert main(["query", "--world", str(clone),
                     "--index", str(index_dir), "--path", "1"]) == 1
        err = capsys.readouterr().err
        assert "alphabet size" in err

    def test_library_saved_index_uses_parsed_fallback(
        self, world_dir, tmp_path, capsys
    ):
        """A save() without the CLI's world digest still loads, via the
        parsed trajectory fingerprint."""
        from repro import SNTIndex
        from repro.network import load_network, load_trajectories

        network = load_network(world_dir / "network.json")
        trajectories = load_trajectories(world_dir / "trajectories.txt")
        index = SNTIndex.build(trajectories, network.alphabet_size)
        index.save(tmp_path / "libindex")  # no extra digest
        path = TestQuery().path_from_world(world_dir)
        assert main(["query", "--world", str(world_dir),
                     "--index", str(tmp_path / "libindex"),
                     "--path", path]) == 0
        assert "estimated mean" in capsys.readouterr().out

    def test_saved_and_built_answers_agree(self, world_dir, tmp_path, capsys):
        index_dir = tmp_path / "index"
        main(["index", "--world", str(world_dir), "--out", str(index_dir)])
        capsys.readouterr()
        path = TestQuery().path_from_world(world_dir)
        main(["query", "--world", str(world_dir), "--path", path])
        built = capsys.readouterr().out
        main(["query", "--world", str(world_dir), "--index", str(index_dir),
              "--path", path])
        loaded = capsys.readouterr().out
        # Identical output bar the (timing) first line.
        assert built.splitlines()[1:] == loaded.splitlines()[1:]


class TestBatchCommand:
    def paths_arg(self, world_dir, n=3, length=4):
        from repro.network import load_trajectories

        trajectories = load_trajectories(world_dir / "trajectories.txt")
        longest = sorted(trajectories, key=len, reverse=True)[:n]
        return ";".join(
            ",".join(str(e) for e in tr.path[:length]) for tr in longest
        )

    def test_inline_paths(self, world_dir, capsys):
        paths = self.paths_arg(world_dir)
        assert main(["batch", "--world", str(world_dir), "--paths", paths,
                     "--tod", "08:00", "--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert "answered 6 queries" in out
        assert "cache:" in out
        # The repeat pass was answered by the trip memo, one probe each.
        assert re.search(r"trips: [1-9]\d* hits / [1-9]\d* misses", out)

    def test_paths_file_with_comments_and_tod(
        self, world_dir, tmp_path, capsys
    ):
        paths = self.paths_arg(world_dir, n=2).split(";")
        query_file = tmp_path / "queries.txt"
        query_file.write_text(
            "# repeated commute\n"
            f"{paths[0]} 08:30\n"
            "\n"
            f"{paths[1]}\n"
        )
        assert main(["batch", "--world", str(world_dir),
                     "--paths-file", str(query_file)]) == 0
        out = capsys.readouterr().out
        assert "answered 2 queries" in out

    def test_stream_flag_matches_batched_output(self, world_dir, capsys):
        paths = self.paths_arg(world_dir)
        args = ["batch", "--world", str(world_dir), "--paths", paths,
                "--tod", "08:00", "--repeat", "2"]
        assert main(args) == 0
        batched = capsys.readouterr().out
        assert main(args + ["--stream"]) == 0
        streamed = capsys.readouterr().out
        # Identical per-query lines in identical (submission) order, and
        # the same cache and dedup totals: three paths fit one stream
        # window, so both runs answer each pass as one batch.  Only the
        # wall-clock line is dropped.
        def answer_lines(text):
            return [line for line in text.splitlines() if " ms " not in line]

        assert answer_lines(streamed) == answer_lines(batched)

    def test_no_cache_flag(self, world_dir, capsys):
        paths = self.paths_arg(world_dir, n=1)
        assert main(["batch", "--world", str(world_dir), "--paths", paths,
                     "--no-cache"]) == 0
        assert "cache:" not in capsys.readouterr().out

    def test_cache_dir_flag_is_gone(self, world_dir, tmp_path):
        # The in-process cache is the only one: no on-disk tier to name.
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", "--world", str(world_dir), "--paths", "1,2",
                  "--cache-dir", str(tmp_path / "tier")])
        assert excinfo.value.code == 2

    def test_empty_batch_rejected(self, world_dir):
        with pytest.raises(SystemExit):
            main(["batch", "--world", str(world_dir), "--paths", ";;"])

    def test_bad_query_line_rejected(self, world_dir, tmp_path):
        query_file = tmp_path / "queries.txt"
        query_file.write_text("1,2 08:00 extra\n")
        with pytest.raises(SystemExit):
            main(["batch", "--world", str(world_dir),
                  "--paths-file", str(query_file)])

    def test_invalid_workers_rejected(self, world_dir):
        # Every batch is one run_batch on the calling thread: the fan-out
        # width and the dedup switch are no longer flags at all.
        for flag in (["--workers", "2"], ["--no-dedup"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["batch", "--world", str(world_dir), "--paths", "1",
                      *flag])
            assert excinfo.value.code == 2


class TestShardedIndexCommand:
    def test_build_workers_flag_is_gone(self, world_dir, tmp_path):
        # Shards build one after another: two worker processes lost to
        # the inline build on the whole-array build kernels.
        with pytest.raises(SystemExit) as excinfo:
            main(["index", "--world", str(world_dir),
                  "--out", str(tmp_path / "sharded"),
                  "--partition-days", "7", "--shards", "3",
                  "--build-workers", "2"])
        assert excinfo.value.code == 2

    def test_build_sharded_and_query_transparently(
        self, world_dir, tmp_path, capsys
    ):
        index_dir = tmp_path / "sharded-index"
        assert main(["index", "--world", str(world_dir),
                     "--out", str(index_dir),
                     "--partition-days", "7", "--shards", "3"]) == 0
        out = capsys.readouterr().out
        assert "shard(s)" in out
        assert (index_dir / "manifest.json").exists()
        assert (index_dir / "shard_0000" / "meta.json").exists()

        path = TestQuery().path_from_world(world_dir)
        # query and batch detect the sharded layout without extra flags.
        assert main(["query", "--world", str(world_dir),
                     "--index", str(index_dir), "--path", path]) == 0
        assert "estimated mean" in capsys.readouterr().out
        assert main(["batch", "--world", str(world_dir),
                     "--index", str(index_dir), "--paths", path]) == 0
        out = capsys.readouterr().out
        assert "answered" in out
        assert "shards:" in out  # router statistics line

    def test_sharded_and_monolithic_answers_agree(
        self, world_dir, tmp_path, capsys
    ):
        mono_dir = tmp_path / "mono"
        shard_dir = tmp_path / "sharded"
        assert main(["index", "--world", str(world_dir),
                     "--out", str(mono_dir),
                     "--partition-days", "7"]) == 0
        assert main(["index", "--world", str(world_dir),
                     "--out", str(shard_dir),
                     "--partition-days", "7", "--shards", "3"]) == 0
        capsys.readouterr()
        path = TestQuery().path_from_world(world_dir, length=4)
        assert main(["query", "--world", str(world_dir),
                     "--index", str(mono_dir), "--path", path,
                     "--tod", "08:00", "--beta", "5"]) == 0
        mono_out = capsys.readouterr().out
        assert main(["query", "--world", str(world_dir),
                     "--index", str(shard_dir), "--path", path,
                     "--tod", "08:00", "--beta", "5"]) == 0
        shard_out = capsys.readouterr().out

        def histogram_lines(text):
            # Drop the wall-clock line; every answer line must agree.
            return [line for line in text.splitlines() if " ms" not in line]

        assert histogram_lines(mono_out) == histogram_lines(shard_out)

    def test_shards_without_partition_days_fails_one_line(
        self, world_dir, tmp_path, capsys
    ):
        code = main(["index", "--world", str(world_dir),
                     "--out", str(tmp_path / "bad"),
                     "--shards", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "partition_days" in err

    def test_wrong_world_sharded_index_rejected(
        self, world_dir, tmp_path, capsys
    ):
        other = tmp_path / "other_world"
        main(["generate", "--scale", "tiny", "--seed", "9",
              "--out", str(other)])
        index_dir = tmp_path / "sharded"
        main(["index", "--world", str(other), "--out", str(index_dir),
              "--partition-days", "7", "--shards", "2"])
        capsys.readouterr()
        path = TestQuery().path_from_world(world_dir)
        with pytest.raises(SystemExit, match="different world"):
            main(["query", "--world", str(world_dir),
                  "--index", str(index_dir), "--path", path])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_no_args_prints_usage_and_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "a command is required" in err

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_unknown_partitioner_rejected(self, world_dir):
        with pytest.raises(SystemExit):
            main(["query", "--world", str(world_dir), "--path", "1",
                  "--partitioner", "pi_fancy"])


class TestServe:
    def test_bind_failure_exits_1_with_one_line(self, world_dir, capsys):
        """A port already in use is a ReproError exit, not a traceback."""
        import socket

        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            busy_port = blocker.getsockname()[1]
            code = main(
                ["serve", "--world", str(world_dir),
                 "--port", str(busy_port)]
            )
        finally:
            blocker.close()
        assert code == 1
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot bind 127.0.0.1:")

    @pytest.mark.parametrize(
        "flag",
        (["--cache-dir", "tier"], ["--cache-ttl-s", "60"]),
        ids=("cache-dir", "cache-ttl-s"),
    )
    def test_shared_tier_flags_are_gone(self, world_dir, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--world", str(world_dir), "--port", "0",
                  *flag])
        assert excinfo.value.code == 2

    @staticmethod
    def _serve_without_binding(monkeypatch, argv):
        """Run ``serve`` with ``run_server`` faked out; returns the
        session and the ServerConfig it was handed."""
        from repro import cli

        captured = {}

        def fake_run_server(db, config, on_started=None):
            captured["db"] = db
            captured["config"] = config

        monkeypatch.setattr(cli, "run_server", fake_run_server, raising=False)
        import repro.server

        monkeypatch.setattr(repro.server, "run_server", fake_run_server)
        assert main(["serve", *argv]) == 0
        return captured["db"], captured["config"]

    def test_serve_wires_flags_into_configs(self, world_dir, monkeypatch):
        """The serve command translates CLI flags into ServerConfig and
        the session's EngineConfig (without actually binding)."""
        db, config = self._serve_without_binding(
            monkeypatch,
            ["--world", str(world_dir), "--port", "0",
             "--window-ms", "12", "--max-batch", "8",
             "--max-inflight", "32", "--serve-workers", "3"],
        )
        assert config.window_s == pytest.approx(0.012)
        assert config.max_batch == 8
        assert config.max_inflight == 32
        assert config.executor_workers == 3
        assert db.config.dedup_subqueries is True
        assert db.engine.cache is not None

    def test_no_cache_turns_the_config_cache_off(
        self, world_dir, monkeypatch
    ):
        """``--no-cache`` is one switch: the session has no cross-query
        cache."""
        db, _ = self._serve_without_binding(
            monkeypatch,
            ["--world", str(world_dir), "--port", "0", "--no-cache"],
        )
        assert db.engine.cache is None
        assert "cache='off'" in repr(db)

    def test_engine_workers_flag_is_gone(self, world_dir):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--world", str(world_dir), "--port", "0",
                  "--workers", "2"])
        assert excinfo.value.code == 2


def _all_repro_error_types():
    """Every concrete ReproError subclass the library defines."""
    import inspect

    from repro import errors as errors_module
    from repro.errors import ReproError

    return sorted(
        (
            obj
            for obj in vars(errors_module).values()
            if inspect.isclass(obj) and issubclass(obj, ReproError)
        ),
        key=lambda cls: cls.__name__,
    )


def _instantiate(error_type):
    for args in (("boom boom",), (1,)):
        try:
            return error_type(*args)
        except TypeError:
            continue
    raise AssertionError(f"cannot instantiate {error_type}")


class TestErrorExitCodes:
    """Table-driven CLI error contract: every ReproError subclass maps
    to exactly one ``error: ...`` stderr line and exit code 1."""

    @pytest.mark.parametrize(
        "error_type", _all_repro_error_types(),
        ids=lambda cls: cls.__name__,
    )
    def test_every_repro_error_exits_1_with_one_line(
        self, monkeypatch, capsys, error_type
    ):
        from repro import cli

        error = _instantiate(error_type)

        def explode(args):
            raise error

        monkeypatch.setattr(cli, "_cmd_info", explode)
        assert cli.main(["info", "--world", "ignored"]) == 1
        err = capsys.readouterr().err
        lines = err.strip().splitlines()
        assert len(lines) == 1, f"expected one line, got {lines!r}"
        assert lines[0].startswith("error: ")

    def test_multiline_error_collapsed_to_one_line(
        self, monkeypatch, capsys
    ):
        from repro import cli
        from repro.errors import RequestValidationError

        monkeypatch.setattr(
            cli,
            "_cmd_info",
            lambda args: (_ for _ in ()).throw(
                RequestValidationError("bad\nrequest\npayload")
            ),
        )
        assert cli.main(["info", "--world", "ignored"]) == 1
        err = capsys.readouterr().err
        assert err.strip() == "error: bad request payload"

    def test_request_validation_error_from_real_command(
        self, world_dir, capsys
    ):
        # End to end: an unknown estimator mode can also arrive through
        # the library (not argparse choices); it must exit 1, not crash.
        from repro import cli

        path = TestQuery().path_from_world(world_dir)
        code = cli.main(
            ["query", "--world", str(world_dir), "--path", path,
             "--beta", "0"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "beta" in err


class TestShardLifecycleCommands:
    """``compact``, and the saved index named only by ``--index``."""

    def _histogram_lines(self, text):
        return [line for line in text.splitlines() if " ms" not in line]

    def _build_sharded(self, world_dir, index_dir, shards=4):
        assert main(["index", "--world", str(world_dir),
                     "--out", str(index_dir),
                     "--partition-days", "7",
                     "--shards", str(shards)]) == 0

    def test_store_and_index_mutually_exclusive(self, world_dir, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "--world", str(world_dir),
                  "--index", str(tmp_path), "--store", f"file:{tmp_path}",
                  "--path", "1"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "command, required",
        [("batch", ["--paths", "1"]), ("serve", [])],
    )
    def test_store_flag_is_unknown(
        self, world_dir, tmp_path, capsys, command, required
    ):
        # A saved index is a directory: --index is the one way to name it.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--world", str(world_dir),
                  "--store", str(tmp_path), *required])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --store" in capsys.readouterr().err

    def test_compact_reduces_shards_same_answers(
        self, world_dir, tmp_path, capsys
    ):
        index_dir = tmp_path / "sharded"
        self._build_sharded(world_dir, index_dir)
        path = TestQuery().path_from_world(world_dir)
        capsys.readouterr()
        assert main(["query", "--world", str(world_dir),
                     "--index", str(index_dir), "--path", path,
                     "--tod", "08:00"]) == 0
        before = capsys.readouterr().out

        assert main(["compact", str(index_dir)]) == 0
        out = capsys.readouterr().out
        assert "compacted" in out
        assert "4 -> 1" in out
        import json

        manifest = json.loads((index_dir / "manifest.json").read_text())
        assert len(manifest["shards"]) == 1
        assert manifest["epoch"] == 1

        assert main(["query", "--world", str(world_dir),
                     "--index", str(index_dir), "--path", path,
                     "--tod", "08:00"]) == 0
        after = capsys.readouterr().out
        assert self._histogram_lines(before) == self._histogram_lines(after)

    def test_compact_policy_flags_and_noop(self, world_dir, tmp_path,
                                           capsys):
        index_dir = tmp_path / "sharded"
        self._build_sharded(world_dir, index_dir)
        capsys.readouterr()
        # Compaction has no policy: the old tuning flags are usage errors.
        for flag in (["--max-group", "2"], ["--min-run", "2"],
                     ["--small-traversals", "0"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["compact", str(index_dir), *flag])
            assert excinfo.value.code == 2
        assert main(["compact", str(index_dir)]) == 0
        assert "4 -> 1" in capsys.readouterr().out
        # One sealed shard is left: nothing to merge.
        assert main(["compact", str(index_dir)]) == 0
        assert "nothing to compact" in capsys.readouterr().out

    def test_compact_monolithic_fails_one_line(self, world_dir, tmp_path,
                                               capsys):
        mono_dir = tmp_path / "mono"
        assert main(["index", "--world", str(world_dir),
                     "--out", str(mono_dir),
                     "--partition-days", "7"]) == 0
        capsys.readouterr()
        assert main(["compact", str(mono_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "monolithic" in err
