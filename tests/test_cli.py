"""Tests for the command-line interface."""

from __future__ import annotations

import csv

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def graph_csv(tmp_path):
    path = tmp_path / "graph.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["left", "right", "weight"])
        writer.writerows(
            [[0, 0, 0.9], [1, 1, 0.8], [0, 1, 0.3], [2, 2, 0.7]]
        )
    return path


@pytest.fixture
def truth_csv(tmp_path):
    path = tmp_path / "truth.csv"
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["left", "right"])
        writer.writerows([[0, 0], [1, 1], [2, 2]])
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_match_defaults(self):
        args = build_parser().parse_args(["match", "g.csv"])
        assert args.algorithm == "UMC"
        assert args.threshold == 0.5

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["match", "g.csv", "-a", "XYZ"])

    @pytest.mark.parametrize(
        "command", [["match", "g.csv"], ["stream", "d1"]]
    )
    @pytest.mark.parametrize("value", ["nan", "NaN"])
    def test_nan_threshold_fails_at_parse_time(self, command, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--threshold", value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--threshold" in err
        assert "Traceback" not in err


class TestMatchCommand:
    def test_prints_pairs(self, graph_csv, capsys):
        exit_code = main(["match", str(graph_csv), "-a", "UMC", "-t", "0.5"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "0,0" in out
        assert "1,1" in out
        assert "0,1" not in out  # below-threshold edge

    def test_threshold_filters(self, graph_csv, capsys):
        main(["match", str(graph_csv), "-t", "0.85"])
        out = capsys.readouterr().out
        assert "0,0" in out
        assert "1,1" not in out


class TestGenerateCommand:
    def test_writes_csvs(self, tmp_path, capsys):
        exit_code = main(
            [
                "generate", "d1", "--scale", "0.03",
                "--out", str(tmp_path / "data"),
            ]
        )
        assert exit_code == 0
        assert (tmp_path / "data" / "d1_left.csv").exists()
        assert (tmp_path / "data" / "d1_right.csv").exists()
        truth = (tmp_path / "data" / "d1_truth.csv").read_text()
        assert truth.startswith("left,right")

    def test_generated_files_parse(self, tmp_path):
        main(["generate", "d2", "--scale", "0.03", "--out", str(tmp_path)])
        with (tmp_path / "d2_left.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "id"
        assert len(rows) > 1


class TestSweepCommand:
    def test_single_algorithm(self, graph_csv, truth_csv, capsys):
        exit_code = main(
            ["sweep", str(graph_csv), str(truth_csv), "-a", "UMC"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "UMC" in out
        assert "F1" in out

    def test_all_algorithms(self, graph_csv, truth_csv, capsys):
        main(["sweep", str(graph_csv), str(truth_csv)])
        out = capsys.readouterr().out
        for code in ("CNC", "RSR", "RCA", "BAH", "BMC", "EXC", "KRC", "UMC"):
            assert code in out

    def test_bmc_keeps_its_better_basis(self, tmp_path, capsys):
        # Square graph, so BMC's default basis is the left side.  Left
        # node 0 grabs right node 0 first, which caps the left basis
        # at F1 0.667 (t = 0.85: only (1, 0)); the right basis finds
        # both true pairs below t = 0.7.  The protocol keeps the right.
        graph = tmp_path / "graph.csv"
        graph.write_text("left,right,weight\n0,0,0.8\n0,1,0.7\n1,0,0.9\n")
        truth = tmp_path / "truth.csv"
        truth.write_text("left,right\n0,1\n1,0\n")
        assert main(["sweep", str(graph), str(truth), "-a", "BMC"]) == 0
        row = next(
            [cell.strip() for cell in line.split("|")]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("BMC")
        )
        assert row[1:5] == ["0.65", "1.000", "1.000", "1.000"]

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--artifact-store", "store"),
            ("--blocking", "tokens"),
            ("--max-memory", "64M"),
        ],
    )
    def test_rejects_corpus_only_flags(self, flag, value, capsys):
        # sweep reads a prebuilt graph: no artifacts, candidates or
        # shards to configure.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["sweep", "g.csv", "t.csv", flag, value])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err


class TestStreamCommand:
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_batch_size_must_be_positive(self, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["stream", "d1", "--batch-size", value])
        assert exit_info.value.code == 2
        assert "--batch-size" in capsys.readouterr().err

    def test_unknown_measure_exits_before_any_work(self, monkeypatch):
        import repro.datasets

        def generate_dataset(*args, **kwargs):
            raise AssertionError("dataset generated before the check")

        monkeypatch.setattr(
            repro.datasets, "generate_dataset", generate_dataset
        )
        with pytest.raises(SystemExit) as exit_info:
            main(["stream", "d4", "--measure", "bogus"])
        # A string code: Python prints it on stderr and exits 1.
        message = exit_info.value.code
        assert message.startswith("unknown measure 'bogus'; known: ")
        assert "levenshtein" in message and "monge_elkan" in message


class TestDatasetFlags:
    """``--scale``, ``--max-pairs`` and ``--seed`` of the commands that
    generate one catalog dataset, bounds checked at parse time."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["block", "d1", "--scale", "0"], "--scale"),
            (["block", "d1", "--scale", "-1"], "--scale"),
            (["block", "d1", "--scale", "nan"], "--scale"),
            (["block", "d1", "--max-pairs", "0"], "--max-pairs"),
            (["shard", "plan", "d1", "--max-pairs", "-5"], "--max-pairs"),
            (["stream", "d1", "--max-pairs", "-1"], "--max-pairs"),
            (["generate", "d1", "--scale", "nan"], "--scale"),
        ],
    )
    def test_out_of_range_value_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [["block", "d1"], ["shard", "plan", "d1"], ["serve", "d1"],
         ["stream", "d1"]],
    )
    def test_every_dataset_command_checks_the_flags(self, command, capsys):
        parser = build_parser()
        args = parser.parse_args(
            [*command, "--scale", "0.5", "--max-pairs", "100"]
        )
        assert (args.scale, args.max_pairs, args.seed) == (0.5, 100, 42)
        for flag, value in (("--scale", "nan"), ("--max-pairs", "0")):
            with pytest.raises(SystemExit) as exit_info:
                parser.parse_args([*command, flag, value])
            assert exit_info.value.code == 2
            assert flag in capsys.readouterr().err


class TestEnvironmentDefaults:
    """``REPRO_SCALE`` and ``REPRO_MAX_PAIRS`` stand in for absent
    dataset flags; a value that is not a positive number exits 2 with
    one line naming the variable."""

    @pytest.mark.parametrize(
        "command",
        [["block", "d1"], ["stream", "d1"], ["serve", "d1", "--port", "0"]],
        ids=["block", "stream", "serve"],
    )
    @pytest.mark.parametrize(
        "variable, value, expected",
        [
            ("REPRO_SCALE", value, "a positive number")
            for value in ("nan", "0", "-1", "abc")
        ]
        + [
            ("REPRO_MAX_PAIRS", value, "a positive integer")
            for value in ("nan", "0", "-5", "abc", "1.5")
        ],
    )
    def test_bad_value_is_a_usage_error(
        self, command, variable, value, expected, monkeypatch, capsys
    ):
        monkeypatch.setenv(variable, value)
        assert main(command) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"error: {variable} must be {expected}, got {value!r}"
        ]


class TestShardCommand:
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_shard_count_must_be_positive(self, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["shard", "plan", "d1", "--shards", value])
        assert exit_info.value.code == 2
        assert "--shards" in capsys.readouterr().err


_WORKERS_COMMANDS = pytest.mark.parametrize(
    "command",
    [["sweep", "g.csv", "t.csv"], ["experiments"], ["corpus"], ["dirty-er"]],
    ids=["sweep", "experiments", "corpus", "dirty-er"],
)


class TestWorkersFlag:
    """``--workers`` counts process workers: a count below 1 exits 2
    at parse time, naming the value.  Only parsing is tested, so no
    worker process starts."""

    @_WORKERS_COMMANDS
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_count_below_one_is_a_usage_error(self, command, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*command, "--workers", value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--workers" in err
        assert f"got {value}" in err

    @_WORKERS_COMMANDS
    def test_non_integer_count_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*command, "-j", "1.5"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--workers" in err
        assert "invalid int value: '1.5'" in err

    @_WORKERS_COMMANDS
    def test_count_parses_to_an_int(self, command):
        parser = build_parser()
        assert parser.parse_args([*command, "-j", "2"]).workers == 2
        assert parser.parse_args(command).workers is None


class TestServeCommand:
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_max_batch_must_be_a_positive_int(self, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["serve", "d1", "--max-batch", value])
        assert exit_info.value.code == 2
        assert "--max-batch" in capsys.readouterr().err


class TestExperimentsCommand:
    def test_smoke_profile(self, tmp_path, capsys):
        exit_code = main(
            ["experiments", "--profile", "smoke", "--cache", str(tmp_path)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Table 4" in out
        assert "Nemenyi" in out


class TestArtifactStoreFlags:
    def test_all_pipeline_commands_accept_the_flag(self):
        parser = build_parser()
        for argv in (
            ["corpus", "--artifact-store", "store"],
            ["experiments", "--artifact-store", "store"],
        ):
            args = parser.parse_args(argv)
            assert str(args.artifact_store) == "store"

    def test_flag_defaults_to_disabled(self):
        args = build_parser().parse_args(["corpus"])
        assert args.artifact_store is None


class TestProfileConfig:
    def test_corpus_flags_fold_into_the_config(self):
        from repro.cli import _profile_config
        from repro.pipeline.store import parse_size_budget

        args = build_parser().parse_args(
            [
                "corpus", "--workers", "3", "--max-memory", "64M",
                "--blocking", "tokens", "--artifact-store", "s",
                "--store-read-tier", "t",
            ]
        )
        corpus = _profile_config(args).corpus
        assert corpus.workers == 3
        assert corpus.max_memory == parse_size_budget("64M")
        assert corpus.blocking == args.blocking
        assert (corpus.artifact_store, corpus.store_read_tier) == ("s", "t")

    def test_unset_flags_keep_the_profile(self):
        from repro.cli import _profile_config
        from repro.experiments import SMOKE_CONFIG

        args = build_parser().parse_args(["dirty-er"])
        assert _profile_config(args) == SMOKE_CONFIG


class TestStoreCommand:
    @pytest.fixture
    def filled_store(self, tmp_path):
        import numpy as np

        from repro.pipeline.store import ArtifactStore, dataset_store_key

        store = ArtifactStore(tmp_path / "artifacts")
        key = dataset_store_key("d1", 0.05, None, 42)
        for n in (1, 2, 3):
            store.save(key, ("graph_ratio", "token", n), np.full(64, float(n)))
        return store

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store"])

    def test_ls_lists_entries(self, filled_store, capsys):
        exit_code = main(
            ["store", "ls", "--artifact-store", str(filled_store.root)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "3 entries" in out
        assert "graph_ratio" in out
        assert "d1" in out

    def test_gc_honors_budget(self, filled_store, capsys):
        per_entry = filled_store.entries()[0].nbytes
        exit_code = main(
            [
                "store", "gc",
                "--artifact-store", str(filled_store.root),
                "--budget", str(per_entry),
            ]
        )
        assert exit_code == 0
        assert "evicted 2 entries" in capsys.readouterr().out
        assert len(filled_store.entries()) == 1

    def test_purge_empties(self, filled_store, capsys):
        exit_code = main(
            ["store", "purge", "--artifact-store", str(filled_store.root)]
        )
        assert exit_code == 0
        assert "purged 3 entries" in capsys.readouterr().out
        assert filled_store.entries() == []

    def test_ls_empty_store_is_fine(self, tmp_path, capsys):
        exit_code = main(["store", "ls", "--artifact-store", str(tmp_path)])
        assert exit_code == 0
        assert "0 entries" in capsys.readouterr().out

    def test_gc_rejects_garbage_budget_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["store", "gc", "--budget", "huge"])
        assert excinfo.value.code == 2  # argparse usage error
        assert "unparseable size budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["store", "gc", "--budget", "inf"],
            ["shard", "plan", "d1", "--max-memory", "1e400"],
        ],
    )
    def test_infinite_budget_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2  # argparse usage error
        assert "unparseable size budget" in capsys.readouterr().err

    def test_corpus_reports_store_usage(self, tmp_path, capsys, monkeypatch):
        # Shrink the smoke corpus to one dataset to keep the test fast.
        import dataclasses

        from repro.experiments import SMOKE_CONFIG

        tiny = dataclasses.replace(
            SMOKE_CONFIG,
            corpus=dataclasses.replace(
                SMOKE_CONFIG.corpus, datasets=("d1",), max_pairs=1_000
            ),
        )
        monkeypatch.setattr(
            "repro.experiments.SMOKE_CONFIG", tiny, raising=True
        )
        exit_code = main(
            [
                "corpus",
                "--profile", "smoke",
                "--cache", str(tmp_path / "cache"),
                "--artifact-store", str(tmp_path / "store"),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "corpus ready" in out
        assert "artifact store:" in out


class TestDirtyErCommand:
    def test_smoke_profile(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        exit_code = main(
            ["dirty-er", "--profile", "smoke", "--cache", str(tmp_path)]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Dirty-ER clustering" in out
        for code in ("CC", "MCC", "EMCC", "GECG"):
            assert code in out

    def test_single_algorithm(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        exit_code = main(
            [
                "dirty-er", "--profile", "smoke",
                "--cache", str(tmp_path),
                "--algorithm", "cc",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "CC" in out
        assert "GECG" not in out

    def test_rejects_unknown_algorithm(self, tmp_path, capsys):
        exit_code = main(
            [
                "dirty-er", "--cache", str(tmp_path),
                "--algorithm", "nope",
            ]
        )
        assert exit_code == 2
        assert "unknown dirty-ER algorithm" in capsys.readouterr().err

    def test_blocked_resume_ignores_dense_sweeps(
        self, tmp_path, capsys, monkeypatch
    ):
        # A dense run dies in its sweep stage with every graph but the
        # last journaled; resuming with --blocking must not splice
        # those dense sweeps into the blocked table.
        import dataclasses

        from repro.experiments import SMOKE_CONFIG
        from repro.testing import faults

        tiny = dataclasses.replace(
            SMOKE_CONFIG,
            corpus=dataclasses.replace(SMOKE_CONFIG.corpus, datasets=("d1",)),
        )
        monkeypatch.setattr("repro.experiments.SMOKE_CONFIG", tiny)
        monkeypatch.chdir(tmp_path)

        def table(cache, *flags):
            assert main(["dirty-er", "--cache", str(cache), *flags]) == 0
            rows = capsys.readouterr().out.splitlines()
            # Drop the wall-clock column; every other cell is exact.
            return [row.rsplit("|", 1)[0] for row in rows if "|" in row]

        faults.inject(
            monkeypatch,
            {"match": ":sa-sem:", "action": "error", "attempts": None},
        )
        assert main(["dirty-er", "--cache", str(tmp_path / "c")]) == 1
        monkeypatch.delenv(faults.ENV_VAR)
        capsys.readouterr()
        resumed = table(
            tmp_path / "c", "--blocking", "tokens", "--resume"
        )
        fresh = table(tmp_path / "fresh", "--blocking", "tokens")
        assert resumed == fresh


class TestStoreReadTierFlag:
    def test_pipeline_commands_accept_the_flag(self):
        parser = build_parser()
        for argv in (
            ["corpus", "--artifact-store", "s", "--store-read-tier", "t"],
            ["experiments", "--artifact-store", "s",
             "--store-read-tier", "t"],
            ["dirty-er", "--artifact-store", "s", "--store-read-tier", "t"],
        ):
            args = parser.parse_args(argv)
            assert str(args.store_read_tier) == "t"

    def test_tier_without_store_is_an_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="artifact-store"):
            main(
                [
                    "corpus", "--cache", str(tmp_path),
                    "--store-read-tier", str(tmp_path / "tier"),
                ]
            )

    def test_corpus_reads_through_the_tier(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        tier = tmp_path / "tier"
        assert main(
            [
                "corpus", "--profile", "smoke",
                "--cache", str(tmp_path / "c1"),
                "--artifact-store", str(tier),
            ]
        ) == 0
        tier_files = sorted(p.name for p in tier.iterdir())
        assert main(
            [
                "corpus", "--profile", "smoke",
                "--cache", str(tmp_path / "c2"),
                "--artifact-store", str(tmp_path / "local"),
                "--store-read-tier", str(tier),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "corpus ready" in out
        # Tier untouched; local store stayed empty (every artifact hit).
        assert sorted(p.name for p in tier.iterdir()) == tier_files
        local = tmp_path / "local"
        assert not local.exists() or list(local.iterdir()) == []
