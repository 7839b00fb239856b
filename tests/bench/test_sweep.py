"""The sweep harness: config validation, determinism, stats isolation,
and the regression gate's verdicts.

The expensive end-to-end properties (byte-identical reruns, gate
self-compare, injected-slowdown detection) run on a deliberately tiny
matrix so the whole module stays in the fast tier.
"""

import copy
import json

import pytest

from repro.bench import runner
from repro.bench.schema import write_artifact_file
from repro.bench.sweep import (
    CellSpec,
    SweepConfig,
    canonical_bytes,
    canonicalize,
    compare_sweeps,
    load_artifact,
    run_sweep,
    run_sweep_cell,
)
from repro.errors import ArtifactError, ConfigurationError
from repro.gpu.stats import MachineStats

TINY = {
    "engines": ["digraph"],
    "algorithms": ["pagerank"],
    "graphs": ["cnr"],
    "scale": 0.1,
    "seeds": [3],
}


@pytest.fixture(autouse=True)
def _isolate_cell_cache():
    runner.clear_cache()
    yield
    runner.clear_cache()


@pytest.fixture(scope="module")
def tiny_report():
    """One shared tiny sweep; tests must not mutate it."""
    return run_sweep(SweepConfig.from_dict(dict(TINY)))


class TestConfigValidation:
    def test_valid_round_trips(self):
        config = SweepConfig.from_dict(dict(TINY))
        again = SweepConfig.from_dict(config.as_dict())
        assert again == config

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError, match="unknown sweep config"):
            SweepConfig.from_dict({**TINY, "bogus": 1})

    def test_unknown_engine(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            SweepConfig.from_dict({**TINY, "engines": ["warp9"]})

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            SweepConfig.from_dict({**TINY, "algorithms": ["mincut"]})

    def test_unknown_dataset(self):
        with pytest.raises(ConfigurationError, match="unknown dataset"):
            SweepConfig.from_dict({**TINY, "graphs": ["facebook"]})

    def test_empty_axis(self):
        with pytest.raises(ConfigurationError, match="non-empty"):
            SweepConfig.from_dict({**TINY, "engines": []})

    def test_unknown_knob(self):
        with pytest.raises(ConfigurationError, match="unknown run-mode knob"):
            SweepConfig.from_dict({**TINY, "knobs": {"turbo": [1]}})

    def test_knob_names_per_mode_are_pinned(self):
        """The table derives these; the derivation must not add, drop
        or rename a knob the committed configs and baselines key on."""
        from repro.bench.sweep import MODE_KNOBS

        assert {mode: set(table) for mode, table in MODE_KNOBS.items()} == {
            "run": {
                "num_gpus", "n_workers", "use_vectorized_kernels",
                "checkpoint_interval", "incremental_checkpoints",
                "full_checkpoint_period", "redistribution",
            },
            "stream": {
                "num_gpus", "stream_batches", "stream_batch_size",
                "stream_mix",
            },
            "serve": {
                "num_gpus", "query_lanes", "tenant_count",
                "max_concurrent", "tenant_quota", "num_queries",
                "mean_interarrival_us", "kill_launch", "deadline_ms",
                "deadline_policy", "max_queue", "brownout", "max_replays",
                "replay_backoff_us", "arrival_model", "mean_think_time_us",
            },
        }

    def test_stream_mode_rejects_non_digraph(self):
        with pytest.raises(ConfigurationError, match="digraph engine only"):
            SweepConfig.from_dict(
                {**TINY, "mode": "stream", "engines": ["bulk-sync"]}
            )

    def test_stream_knob_rejected_in_run_mode(self):
        with pytest.raises(ConfigurationError, match="unknown run-mode knob"):
            SweepConfig.from_dict({**TINY, "knobs": {"stream_batches": [2]}})

    def test_bad_repeats(self):
        with pytest.raises(ConfigurationError, match="repeats"):
            SweepConfig.from_dict({**TINY, "repeats": 0})

    def test_non_integer_seed(self):
        with pytest.raises(ConfigurationError, match="seeds"):
            SweepConfig.from_dict({**TINY, "seeds": ["three"]})

    def test_checkpoint_knobs_exclude_sequential(self):
        with pytest.raises(ConfigurationError, match="sequential"):
            SweepConfig.from_dict(
                {
                    **TINY,
                    "engines": ["sequential"],
                    "knobs": {"checkpoint_interval": [2]},
                }
            )

    def test_bad_inject_slowdown(self):
        with pytest.raises(ConfigurationError, match="inject_slowdown"):
            SweepConfig.from_dict(
                {**TINY, "inject_slowdown": {"digraph/*": -2.0}}
            )

    def test_generator_graph_spec_needs_sizes(self):
        with pytest.raises(ConfigurationError, match="positive num_vertices"):
            SweepConfig.from_dict(
                {**TINY, "graphs": [{"generator": "random_directed"}]}
            )

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            SweepConfig.from_json(str(tmp_path / "nope.json"))

    def test_invalid_json_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            SweepConfig.from_json(str(path))


class TestMatrixExpansion:
    def test_full_cross_product(self):
        config = SweepConfig.from_dict(
            {
                "engines": ["bulk-sync", "digraph"],
                "algorithms": ["pagerank", "sssp"],
                "graphs": ["cnr", "dblp"],
                "knobs": {"use_vectorized_kernels": [False, True]},
                "seeds": [0],
            }
        )
        cells = config.expand()
        assert len(cells) == 2 * 2 * 2 * 2
        assert len({cell.cell_id for cell in cells}) == len(cells)

    def test_cell_id_format(self):
        spec = CellSpec(
            engine="digraph",
            algorithm="sssp",
            graph="cnr",
            mode="run",
            scale=0.5,
            knobs={"use_vectorized_kernels": True, "num_gpus": 2},
        )
        assert spec.cell_id == (
            "digraph/sssp/cnr/num_gpus=2,use_vectorized_kernels=True"
        )


class TestDeterminism:
    def test_same_config_same_canonical_bytes(self, tiny_report):
        again = run_sweep(SweepConfig.from_dict(dict(TINY)))
        assert canonical_bytes(tiny_report) == canonical_bytes(again)

    def test_canonicalize_strips_volatile_fields(self, tiny_report):
        canon = canonicalize(tiny_report)
        blob = json.dumps(canon)
        assert "wall_seconds" not in blob
        assert "environment" not in blob
        # ... but the model evidence stays.
        assert "processing_time_s" in blob
        assert "digests" in blob

    def test_repeats_flagged_deterministic(self):
        report = run_sweep(
            SweepConfig.from_dict({**TINY, "repeats": 2})
        )
        for cell in report["cells"]:
            assert cell["deterministic"]
            assert cell["converged"]
            assert cell["runs"] == 2

    def test_artifact_round_trip(self, tiny_report, tmp_path):
        path = str(tmp_path / "sweep.json")
        write_artifact_file(tiny_report, path)
        loaded = load_artifact(path)
        assert canonical_bytes(loaded) == canonical_bytes(tiny_report)

    def test_load_rejects_non_sweep(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "repro-bench-kernels"}))
        with pytest.raises(ArtifactError):
            load_artifact(str(path))


class TestStatsIsolation:
    """Two identical cells must report identical, unaliased stats."""

    def test_identical_cells_identical_stats(self):
        spec = CellSpec(
            engine="digraph", algorithm="pagerank", graph="cnr",
            mode="run", scale=0.1, knobs={},
        )
        first = run_sweep_cell(spec, seeds=(3,))
        second = run_sweep_cell(spec, seeds=(3,))
        assert first["stats"] == second["stats"]
        assert first["metrics"] == second["metrics"]
        assert first["digests"] == second["digests"]

    def test_recorded_stats_do_not_alias(self):
        spec = CellSpec(
            engine="digraph", algorithm="pagerank", graph="cnr",
            mode="run", scale=0.1, knobs={},
        )
        first = run_sweep_cell(spec, seeds=(3,))
        pristine = copy.deepcopy(first["stats"])
        second = run_sweep_cell(spec, seeds=(3,))
        second["stats"]["vertex_updates"] = -1
        second["stats"]["partition_processed"]["999"] = 1
        assert first["stats"] == pristine

    def test_machine_stats_reset(self):
        stats = MachineStats(vertex_updates=5, compute_time_s=1.5)
        stats.note_partition_processed(2)
        stats.note_pair_transfer(0, 1, 64)
        stats.reset()
        assert stats == MachineStats()
        assert stats.partition_processed == {}
        assert stats.replica_pair_bytes == {}

    def test_machine_stats_snapshot_is_deep(self):
        stats = MachineStats(vertex_updates=5)
        stats.note_partition_processed(2)
        snap = stats.snapshot()
        stats.note_partition_processed(2)
        stats.vertex_updates = 99
        assert snap.vertex_updates == 5
        assert snap.partition_processed == {2: 1}

    def test_machine_stats_as_dict_is_frozen_and_json_safe(self):
        stats = MachineStats(vertex_updates=5)
        stats.note_pair_transfer(0, 1, 64)
        out = stats.as_dict()
        assert out["vertex_updates"] == 5
        assert out["replica_pair_bytes"] == {"0/1": 64}
        out["replica_pair_bytes"]["0/1"] = 0
        assert stats.replica_pair_bytes == {(0, 1): 64}
        json.dumps(out)  # must not raise

    def test_machine_stats_merge_adds_everything(self):
        a = MachineStats(vertex_updates=1, compute_time_s=0.5)
        a.note_partition_processed(0)
        b = MachineStats(vertex_updates=2, compute_time_s=0.25)
        b.note_partition_processed(0)
        b.note_partition_processed(1)
        a.merge(b)
        assert a.vertex_updates == 3
        assert a.compute_time_s == pytest.approx(0.75)
        assert a.partition_processed == {0: 2, 1: 1}


class TestGate:
    def test_gate_against_itself_passes(self, tiny_report):
        report = compare_sweeps(tiny_report, tiny_report)
        assert report.passed
        assert report.cells_checked == tiny_report["matrix_cells"]
        assert "PASS" in report.summary()

    def test_fresh_rerun_passes_gate(self, tiny_report):
        fresh = run_sweep(SweepConfig.from_dict(dict(TINY)))
        assert compare_sweeps(tiny_report, fresh).passed

    def test_injected_slowdown_fails_gate(self, tiny_report):
        slowed = run_sweep(
            SweepConfig.from_dict(
                {**TINY, "inject_slowdown": {"digraph/*": 2.0}}
            )
        )
        report = compare_sweeps(tiny_report, slowed, tolerance=0.15)
        assert not report.passed
        assert any(f.kind == "regression" for f in report.failures)
        assert "FAIL" in report.summary()

    def test_slowdown_within_tolerance_passes(self, tiny_report):
        slowed = run_sweep(
            SweepConfig.from_dict(
                {**TINY, "inject_slowdown": {"digraph/*": 1.05}}
            )
        )
        assert compare_sweeps(tiny_report, slowed, tolerance=0.15).passed

    def test_missing_cell_fails(self, tiny_report):
        fresh = copy.deepcopy(tiny_report)
        fresh["cells"] = []
        report = compare_sweeps(tiny_report, fresh)
        assert not report.passed
        assert report.failures[0].kind == "missing-cell"

    def test_new_cell_is_informational(self, tiny_report):
        fresh = copy.deepcopy(tiny_report)
        extra = copy.deepcopy(fresh["cells"][0])
        extra["cell_id"] = "digraph/pagerank/uk2002"
        fresh["cells"].append(extra)
        report = compare_sweeps(tiny_report, fresh)
        assert report.passed
        assert any(f.kind == "new-cell" for f in report.findings)

    def test_digest_mismatch_same_env_fails(self, tiny_report):
        fresh = copy.deepcopy(tiny_report)
        seed = next(iter(fresh["cells"][0]["digests"]))
        fresh["cells"][0]["digests"][seed] = "0" * 64
        report = compare_sweeps(tiny_report, fresh)
        assert not report.passed
        assert report.failures[0].kind == "digest-mismatch"

    def test_digest_mismatch_cross_env_is_note(self, tiny_report):
        fresh = copy.deepcopy(tiny_report)
        seed = next(iter(fresh["cells"][0]["digests"]))
        fresh["cells"][0]["digests"][seed] = "0" * 64
        fresh["environment"] = {"python": "0.0", "numpy": "0.0",
                                "platform": "plan9"}
        report = compare_sweeps(tiny_report, fresh)
        assert report.passed
        assert any(f.kind == "digest-mismatch" for f in report.findings)

    def test_nondeterministic_cell_fails(self, tiny_report):
        fresh = copy.deepcopy(tiny_report)
        fresh["cells"][0]["deterministic"] = False
        report = compare_sweeps(tiny_report, fresh)
        assert not report.passed
        assert report.failures[0].kind == "nondeterministic"

    def test_wall_clock_ignored_by_default(self, tiny_report):
        fresh = copy.deepcopy(tiny_report)
        fresh["cells"][0]["wall_seconds"]["mean"] *= 100.0
        assert compare_sweeps(tiny_report, fresh).passed

    def test_wall_clock_gated_on_request(self, tiny_report):
        fresh = copy.deepcopy(tiny_report)
        fresh["cells"][0]["wall_seconds"]["mean"] *= 100.0
        report = compare_sweeps(tiny_report, fresh, wall_tolerance=0.5)
        assert not report.passed
        assert report.failures[0].kind == "wall-regression"

    def test_negative_tolerance_rejected(self, tiny_report):
        with pytest.raises(ConfigurationError, match="tolerance"):
            compare_sweeps(tiny_report, tiny_report, tolerance=-0.1)


class TestStreamMode:
    def test_stream_sweep_certifies(self):
        config = SweepConfig.from_dict(
            {
                "engines": ["digraph"],
                "algorithms": ["pagerank"],
                "graphs": ["cnr"],
                "scale": 0.1,
                "mode": "stream",
                "seeds": [3],
                "knobs": {"stream_batches": [2], "stream_batch_size": [3]},
            }
        )
        report = run_sweep(config)
        assert report["matrix_cells"] == 1
        cell = report["cells"][0]
        assert cell["mode"] == "stream"
        assert cell["certified"]
        assert "incremental_s" in cell["metrics"]
        assert "vertices_reactivated" in cell["metrics"]
        # A stream sweep gates against itself like any other.
        assert compare_sweeps(report, report).passed


class TestGraphDirCells:
    """Sweep cells that read from a sharded on-disk graph store."""

    @pytest.fixture()
    def store_dir(self, tmp_path):
        from repro.bench import sweep as sweep_module
        from repro.graph import datasets
        from repro.storage import graph_chunk_source, partition_graph

        out = str(tmp_path / "shards")
        partition_graph(
            graph_chunk_source(datasets.load("cnr", scale=0.1)),
            3,
            out,
        )
        yield out
        sweep_module._GRAPH_DIR_CACHE.clear()

    def test_rejects_empty_graph_dir(self):
        with pytest.raises(ConfigurationError, match="non-empty path"):
            SweepConfig.from_dict(
                {**TINY, "graphs": [{"graph_dir": "  "}]}
            )

    def test_graph_dir_label(self, store_dir):
        config = SweepConfig.from_dict(
            {**TINY, "graphs": [{"graph_dir": store_dir}]}
        )
        cells = config.expand()
        assert len(cells) == 1
        assert cells[0].graph_label == "dir:shards"

    def test_graph_dir_cell_matches_in_ram_cell(self, store_dir):
        # The same dataset through the store and through the in-RAM
        # loader must produce identical determinism digests — sharding
        # is invisible to the engines.
        in_ram = run_sweep(SweepConfig.from_dict(dict(TINY)))
        on_disk = run_sweep(
            SweepConfig.from_dict(
                {**TINY, "graphs": [{"graph_dir": store_dir}]}
            )
        )
        ram_cell = in_ram["cells"][0]
        disk_cell = on_disk["cells"][0]
        assert ram_cell["digests"] == disk_cell["digests"]
