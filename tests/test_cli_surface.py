"""The command-line surface, pinned.

``cli_surface.json`` holds, for every subcommand, every option's flags,
``dest``, type name, default, choices, ``nargs``, ``required`` and help
string, captured from the built parser — so a flag, default or help
string that moves when an ``add_argument`` block becomes table-derived
shows up here. The one entry not stored is the ``experiment`` name's
``choices``: it is the experiment table's keys, read from the table.
"""

import argparse
import json
from pathlib import Path

from repro.cli import build_parser
from tests.pinned import load_pinned

SURFACE_PATH = Path(__file__).with_name("cli_surface.json")


def capture_surface():
    """``{subcommand: {dest: option record}}`` of the built parser."""
    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    surface = {}
    for name, sub in subparsers.choices.items():
        surface[name] = {
            action.dest: {
                "flags": list(action.option_strings),
                "type": getattr(action.type, "__name__", None),
                "default": action.default,
                "choices": (
                    None if action.choices is None else list(action.choices)
                ),
                "nargs": action.nargs,
                "required": action.required,
                "help": action.help,
            }
            for action in sub._actions
            if not isinstance(action, argparse._HelpAction)
        }
    # Round-trip so tuples compare equal to the JSON lists they become.
    return json.loads(json.dumps(surface))


def _stored_surface():
    surface = capture_surface()
    surface["experiment"]["name"]["choices"] = None
    return surface


def test_cli_surface_matches_parent():
    from repro.bench.experiments import EXPERIMENTS

    expected = load_pinned(SURFACE_PATH, _stored_surface)
    expected["experiment"]["name"]["choices"] = list(EXPERIMENTS)
    actual = capture_surface()
    assert sorted(actual) == sorted(expected)
    for command in expected:
        assert actual[command] == expected[command], command


def test_serve_knobs_are_one_row_everywhere():
    """A `repro serve` flag, a serve-mode sweep knob and a
    `run_serve_cell` keyword of the same name are the same table row,
    so they cannot disagree on a default; the one deliberate CLI-side
    difference is written on the row."""
    from repro.bench.sweep import MODE_KNOBS
    from repro.knobs import field_values, knobs_of
    from repro.serve.query import TraceSpec
    from repro.serve.runner import KILL_LAUNCH
    from repro.serve.server import ServeConfig

    rows = {
        row.name: row
        for row in (*knobs_of(TraceSpec), *knobs_of(ServeConfig), KILL_LAUNCH)
    }
    # Sweep knobs: every one but the machine's GPU count is a row.
    sweep = dict(MODE_KNOBS["serve"])
    assert sweep.pop("num_gpus").field == ""
    assert sweep == {n: row for n, row in rows.items() if row.sweep}
    # run_serve_cell keywords: the configs' own defaults are the rows'.
    for cls in (TraceSpec, ServeConfig):
        for row in knobs_of(cls):
            assert getattr(cls(), row.field) == row.convert(row.default)
    assert field_values({}, TraceSpec, ServeConfig) == [{}, {}]
    # CLI flags: each knob option of `repro serve` is a row's flag and
    # parses to the row's default...
    options = capture_surface()["serve"]
    flagged = {row.dest: row for row in rows.values() if row.flag}
    workload = {"dataset", "scale", "gpus", "algorithm", "seed",
                "strict", "verbose"}
    assert set(options) == set(flagged) | workload
    cli_side = {}
    for dest, row in flagged.items():
        assert options[dest]["flags"] == [row.flag]
        if row.flag_sets is not None:
            assert options[dest]["default"] is False
            assert row.flag_sets != row.default
        elif options[dest]["default"] != row.default:
            cli_side[row.name] = options[dest]["default"]
    # ... except the interactive trace length, longer than a cell's.
    assert cli_side == {"num_queries": 64}
    assert [
        row.name
        for row in rows.values()
        if row.flag_default is not None
    ] == ["num_queries"]


def test_stream_knobs_are_one_row_everywhere():
    """A `repro stream` trace flag, a stream-mode sweep knob and a
    `run_stream_cell` keyword are the same row; the interactive
    defaults (a longer, mixed trace) are written on the rows."""
    from repro.bench.sweep import MODE_KNOBS
    from repro.graph.generators import TRACE_KNOBS

    sweep = dict(MODE_KNOBS["stream"])
    assert sweep.pop("num_gpus").field == ""
    assert sweep == {row.name: row for row in TRACE_KNOBS}
    options = capture_surface()["stream"]
    for row in TRACE_KNOBS:
        assert options[row.dest]["flags"] == [row.flag]
        assert options[row.dest]["default"] == row.flag_default
    assert {row.name: row.flag_default for row in TRACE_KNOBS} == {
        "stream_batches": 4, "stream_batch_size": 8, "stream_mix": "mixed",
    }
