"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main
from repro.graph.generators import directed_path
from repro.graph.io import write_edge_list


class TestCLI:
    def test_datasets_table(self, capsys):
        assert main(["datasets", "--scale", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "dblp" in out
        assert "twitter" in out

    def test_run_on_builtin(self, capsys):
        code = main(
            ["run", "--dataset", "dblp", "--scale", "0.3",
             "--algorithm", "bfs", "--engine", "digraph"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "breakdown" in out

    def test_run_on_edge_list(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(directed_path(30), path)
        code = main(
            ["run", "--edge-list", str(path), "--algorithm", "pagerank"]
        )
        assert code == 0
        assert "converged" in capsys.readouterr().out

    def test_compare_lists_all_engines(self, capsys):
        code = main(
            ["compare", "--dataset", "dblp", "--scale", "0.3",
             "--algorithm", "bfs"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for engine in ("bulk-sync", "async", "digraph-t", "digraph-w"):
            assert engine in out

    def test_experiment_unknown_name(self, capsys):
        """A name outside the experiment table — including a module
        attribute that is not an experiment (``GRAPHS`` is a list,
        ``format_table`` a helper) — exits 2 with one error line that
        lists every experiment."""
        from repro.bench.experiments import EXPERIMENTS

        for name in ("fig99_nope", "GRAPHS", "format_table"):
            with pytest.raises(SystemExit) as exit_info:
                main(["experiment", name])
            assert exit_info.value.code == 2
            errors = [
                line
                for line in capsys.readouterr().err.splitlines()
                if "error:" in line
            ]
            assert len(errors) == 1 and repr(name) in errors[0]
            assert "overload_resilience" in EXPERIMENTS
            for known in EXPERIMENTS:
                assert known in errors[0]

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1", "--scale", "0.3"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_gpu_override(self, capsys):
        code = main(
            ["run", "--dataset", "dblp", "--scale", "0.3",
             "--algorithm", "bfs", "--gpus", "1"]
        )
        assert code == 0


class TestChaosCommand:
    def test_chaos_recovers_and_exits_zero(self, capsys):
        code = main(
            ["chaos", "--dataset", "dblp", "--scale", "0.15",
             "--algorithms", "bfs", "wcc", "--gpus", "2",
             "--kill-gpu", "1", "--kill-round", "0", "--seeds", "3"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 2
        assert "all cells recovered" in out

    def test_chaos_verbose_prints_digests(self, capsys):
        code = main(
            ["chaos", "--dataset", "dblp", "--scale", "0.15",
             "--algorithms", "bfs", "--seeds", "1", "--verbose"]
        )
        assert code == 0
        assert "digest:" in capsys.readouterr().out

    def test_chaos_no_recovery_fails_loudly(self, capsys):
        code = main(
            ["chaos", "--dataset", "dblp", "--scale", "0.15",
             "--algorithms", "pagerank", "--gpus", "2",
             "--sync-drop-rate", "0.5", "--no-recovery", "--seeds", "3"]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


class TestErrorHandling:
    def test_repro_error_exits_one_with_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3 4\n")
        code = main(["run", "--edge-list", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_debug_reraises(self, tmp_path):
        from repro.errors import GraphError

        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3 4\n")
        with pytest.raises(GraphError):
            main(["--debug", "run", "--edge-list", str(bad)])


class TestKernelsBench:
    """``repro kernels-bench`` certifies scalar == vectorized states
    through its exit code (the CI ``fast`` job runs it as a gate)."""

    ARGS = ["kernels-bench", "--vertices", "200", "--edges", "800",
            "--algorithms", "sssp", "kcore"]

    def test_equal_states_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(self.ARGS + ["--output", str(out)]) == 0
        assert out.exists()
        assert "NO" not in capsys.readouterr().out

    def test_unequal_states_exit_one_naming_the_algorithms(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.bench.runner as runner

        real = runner.run_kernel_microbench

        def unequal(**kwargs):
            report = real(**kwargs)
            report["results"][1]["states_equal"] = False
            return report

        monkeypatch.setattr(runner, "run_kernel_microbench", unequal)
        code = main(self.ARGS + ["--output", str(tmp_path / "bench.json")])
        assert code == 1
        captured = capsys.readouterr()
        assert "NO" in captured.out
        assert captured.err.startswith("error: ")
        assert "kcore" in captured.err and "sssp" not in captured.err


class TestSweepCommand:
    """Exit-code contract of ``repro sweep``: 0 on a clean run or a
    passing gate, 1 on any gate failure or malformed config — the
    contract the CI sweep-gate job relies on."""

    ARGS = ["sweep", "--engines", "digraph", "--algorithms", "pagerank",
            "--graphs", "cnr", "--scale", "0.1", "--seeds", "3"]

    def test_sweep_writes_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        code = main(self.ARGS + ["--output", str(out_path)])
        assert code == 0
        assert out_path.exists()
        out = capsys.readouterr().out
        assert "digraph/pagerank/cnr" in out
        assert "model=" in out

    def test_gate_against_itself_passes(self, tmp_path, capsys):
        out_path = tmp_path / "base.json"
        assert main(self.ARGS + ["--output", str(out_path)]) == 0
        code = main(
            self.ARGS + ["--output", "", "--gate", str(out_path)]
        )
        assert code == 0
        assert "gate PASS" in capsys.readouterr().out

    def test_gate_regression_exits_one(self, tmp_path, capsys):
        base_path = tmp_path / "base.json"
        assert main(self.ARGS + ["--output", str(base_path)]) == 0
        slowed = tmp_path / "slowed.json"
        slowed.write_text(
            """{
              "engines": ["digraph"], "algorithms": ["pagerank"],
              "graphs": ["cnr"], "scale": 0.1, "seeds": [3],
              "inject_slowdown": {"digraph/*": 3.0}
            }"""
        )
        code = main(
            ["sweep", "--config", str(slowed), "--output", "",
             "--gate", str(base_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "regression" in err

    def test_malformed_config_exits_one(self, tmp_path, capsys):
        """Unparseable JSON, and a knob *value* of the wrong type, outside
        its choices or out of range, all fail when the config loads —
        one ``error:`` line naming the knob, before any cell runs."""
        serve = '"mode": "serve", "engines": ["serve"], "algorithms": ["bfs"]'
        cases = {
            "{not json": "not valid JSON",
            '{"knobs": {"checkpoint_interval": [1, 0]}}':
                "checkpoint_interval must be >= 1",
            '{%s, "knobs": {"deadline_policy": ["bogus"]}}' % serve:
                "deadline_policy must be one of",
            '{%s, "knobs": {"query_lanes": [1, "eight"]}}' % serve:
                "query_lanes expects int",
        }
        bad = tmp_path / "bad.json"
        for text, message in cases.items():
            bad.write_text(text)
            code = main(["sweep", "--config", str(bad), "--verbose"])
            assert code == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ")
            assert message in captured.err
            assert "Traceback" not in captured.err
            assert "running" not in captured.out

    def test_committed_bad_value_config_runs_no_cell(self, capsys):
        """The committed must-fail config for load-time value validation."""
        code = main(
            ["sweep", "--config", "benchmarks/sweep_bad_value_ci.json",
             "--output", "", "--verbose"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: checkpoint_interval")
        assert "running" not in captured.out

    def test_unknown_engine_in_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad_engine.json"
        bad.write_text(
            '{"engines": ["warp9"], "algorithms": ["pagerank"],'
            ' "graphs": ["cnr"]}'
        )
        code = main(["sweep", "--config", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "unknown engine" in err

    def test_gate_missing_baseline_exits_one(self, tmp_path, capsys):
        code = main(
            self.ARGS
            + ["--output", "", "--gate", str(tmp_path / "nope.json")]
        )
        assert code == 1
        assert "error: " in capsys.readouterr().err


class TestTraceFlag:
    def test_run_with_trace(self, capsys):
        code = main(
            ["run", "--dataset", "dblp", "--scale", "0.3",
             "--algorithm", "pagerank", "--trace"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "processed" in out and "|" in out


class TestDurabilityCommands:
    """`repro run --durability` + `repro resume` + `repro scrub`."""

    def _durable_run(self, run_dir, capsys):
        code = main(
            ["run", "--dataset", "cnr", "--scale", "0.2",
             "--algorithm", "pagerank", "--engine", "digraph",
             "--durability", "durable", "--run-dir", run_dir]
        )
        assert code == 0
        return capsys.readouterr().out

    def test_run_resume_scrub_round_trip(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        out = self._durable_run(run_dir, capsys)
        assert "converged" in out

        code = main(["resume", "--run-dir", run_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
        assert "converged" in out

        code = main(["scrub", "--run-dir", run_dir])
        assert code == 0
        assert "intact" in capsys.readouterr().out

    def test_run_dir_required_for_durable(self, capsys):
        code = main(
            ["run", "--dataset", "cnr", "--scale", "0.2",
             "--algorithm", "pagerank", "--durability", "durable"]
        )
        assert code == 1
        assert "error: " in capsys.readouterr().err

    def test_scrub_detects_corruption_and_repairs(
        self, tmp_path, capsys
    ):
        import os

        run_dir = str(tmp_path / "run")
        self._durable_run(run_dir, capsys)
        # Bitrot one page of the newest checkpoint.
        dirs = sorted(
            d for d in os.listdir(run_dir) if d.startswith("ckpt-")
        )
        pages = [
            f for f in os.listdir(os.path.join(run_dir, dirs[-1]))
            if f.endswith(".page")
        ]
        path = os.path.join(run_dir, dirs[-1], pages[0])
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        open(path, "wb").write(bytes(data))

        code = main(["scrub", "--run-dir", run_dir])
        captured = capsys.readouterr()
        assert code == 1
        assert "bitrot" in captured.err

        code = main(["scrub", "--run-dir", run_dir, "--repair"])
        assert code == 0
        assert "repaired" in capsys.readouterr().out

        code = main(["scrub", "--run-dir", run_dir])
        assert code == 0

    def test_resume_missing_dir_structured_error(
        self, tmp_path, capsys
    ):
        code = main(
            ["resume", "--run-dir", str(tmp_path / "nope")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error: " in err
        assert "header" in err
        assert "Traceback" not in err

    def test_chaos_crash_restart_flag(self, capsys):
        code = main(
            ["chaos", "--crash-restart", "--dataset", "cnr",
             "--scale", "0.2", "--algorithms", "pagerank",
             "--engines", "digraph", "bulk-sync-vec", "--strict-digests"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out
        # Unseeded labels carry no seed, and a space always parts the
        # label from the status column.
        assert "seed=None" not in out
        assert re.search(r"^pagerank@round-boundary/digraph +PASS ", out, re.M)
        assert "\npagerank@round-boundary/bulk-sync-vec PASS  " in out


class TestPartitionCommand:
    def test_partition_then_run_graph_dir(self, tmp_path, capsys):
        store = str(tmp_path / "shards")
        assert main(
            ["partition", "--dataset", "cnr", "--scale", "0.3",
             "--num-parts", "3", "--out-dir", store]
        ) == 0
        out = capsys.readouterr().out
        assert "3 part(s)" in out
        assert "edge_cut" in out
        code = main(
            ["run", "--graph-dir", store,
             "--algorithm", "pagerank", "--engine", "digraph"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "converged" in out
        assert "peak_resident_bytes" in out

    def test_partition_synthetic_stream(self, tmp_path, capsys):
        store = str(tmp_path / "shards")
        assert main(
            ["partition", "--synthetic", "200,1500",
             "--num-parts", "4", "--policy", "random",
             "--out-dir", store]
        ) == 0
        assert "|E|=1500" in capsys.readouterr().out

    def test_partition_bad_synthetic_spec(self, capsys):
        assert main(
            ["partition", "--synthetic", "nope", "--out-dir", "/tmp/x"]
        ) == 1
        assert "VERTICES,EDGES" in capsys.readouterr().err

    def test_partition_edge_list(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(directed_path(30), path)
        store = str(tmp_path / "shards")
        assert main(
            ["partition", "--edge-list", str(path),
             "--num-parts", "2", "--out-dir", store]
        ) == 0
        assert main(
            ["run", "--graph-dir", store, "--algorithm", "bfs"]
        ) == 0

    def test_run_rejects_missing_store(self, tmp_path, capsys):
        code = main(
            ["run", "--graph-dir", str(tmp_path / "absent"),
             "--algorithm", "bfs"]
        )
        assert code == 1
        assert "manifest" in capsys.readouterr().err

    def test_graph_cache_bytes_flag(self, tmp_path, capsys):
        store = str(tmp_path / "shards")
        main(
            ["partition", "--dataset", "cnr", "--scale", "0.3",
             "--num-parts", "4", "--out-dir", store]
        )
        capsys.readouterr()
        code = main(
            ["run", "--graph-dir", store, "--graph-cache-bytes", "1",
             "--algorithm", "wcc", "--engine", "digraph"]
        )
        assert code == 0
        assert "converged" in capsys.readouterr().out
