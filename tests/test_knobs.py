"""The knob rows themselves, and the docs that list them.

``docs/benchmarking.md`` and ``docs/serving.md`` carry one generated
table per sweep mode between ``<!-- knob-table:MODE -->`` markers; the
test renders the same table from :data:`repro.bench.sweep.MODE_KNOBS`
and compares, so a knob's name, type, default and range are not
maintained by hand in the docs. Regenerate the blocks with:

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_knobs.py
"""

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.bench.sweep import MODE_KNOBS
from repro.errors import ConfigurationError
from repro.knobs import Knob, check_fields, field_values, knob, knobs_of

DOCS = Path(__file__).resolve().parent.parent / "docs"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"


def _accepts(row):
    if row.choices is not None:
        text = " / ".join(f"`{json.dumps(c)}`" for c in row.choices)
    elif row.type is bool:
        text = "`true` / `false`"
    elif row.positive:
        text = "> 0"
    elif row.minimum is not None:
        text = f"≥ {row.minimum}"
    else:
        text = "any"
    return text + (", or `null` (off)" if row.default is None else "")


def render(mode):
    """The markdown table of one mode's knobs."""
    lines = [
        "| knob | type | default | accepts | CLI flag |",
        "|---|---|---|---|---|",
    ]
    for row in MODE_KNOBS[mode].values():
        flag = "—"
        if row.flag and row.flag_sets is not None:
            flag = f"`{row.flag}` (sets `{json.dumps(row.flag_sets)}`)"
        elif row.flag:
            flag = f"`{row.flag}`"
            if row.flag_default is not None:
                flag += f" (CLI default `{json.dumps(row.flag_default)}`)"
        lines.append(
            f"| `{row.name}` | {row.type.__name__} "
            f"| `{json.dumps(row.default)}` | {_accepts(row)} | {flag} |"
        )
    return "\n".join(lines)


@pytest.mark.parametrize(
    "doc, mode",
    [
        ("benchmarking.md", "run"),
        ("benchmarking.md", "stream"),
        ("benchmarking.md", "serve"),
        ("serving.md", "serve"),
    ],
)
def test_docs_list_the_table(doc, mode):
    path = DOCS / doc
    block = re.compile(
        rf"(<!-- knob-table:{mode} -->\n)(.*?)(\n<!-- /knob-table -->)",
        re.DOTALL,
    )
    text = path.read_text()
    assert block.search(text), f"{doc} has no knob-table:{mode} block"
    if REGEN:
        path.write_text(
            block.sub(lambda m: m[1] + render(mode) + m[3], text)
        )
        return
    assert block.search(text)[2] == render(mode)


class TestKnobRow:
    ROW = Knob(
        "deadline_ms", float, None, scale=1e-3, positive=True
    )

    def test_convert_scales_after_checking(self):
        assert self.ROW.convert(2) == 2.0 * 1e-3
        assert self.ROW.convert(None) is None
        with pytest.raises(ConfigurationError, match="deadline_ms"):
            self.ROW.convert(0.0)

    @pytest.mark.parametrize(
        "row, value",
        [
            (Knob("lanes", int, 8), "eight"),
            (Knob("lanes", int, 8), 2.5),
            (Knob("lanes", int, 8), True),
            (Knob("lanes", int, 8), None),
            (Knob("brownout", bool, False), 1),
            (Knob("mix", str, "a", choices=("a", "b")), "c"),
            (Knob("rate", float, 1.0, minimum=0), float("nan")),
        ],
    )
    def test_convert_rejects_wrong_type_or_value(self, row, value):
        with pytest.raises(ConfigurationError, match=row.name):
            row.convert(value)

    def test_integral_floats_are_ints(self):
        assert Knob("lanes", int, 8).convert(96.0) == 96

    def test_field_values_splits_by_owner_and_names_strangers(self):
        @dataclass(frozen=True)
        class A:
            x_s: float = knob(float, 5.0, name="x_us", scale=1e-6)

        @dataclass(frozen=True)
        class B:
            y: int = knob(int, 1, minimum=1)

            def __post_init__(self):
                check_fields(self)

        assert A().x_s == 5.0 * 1e-6
        assert field_values({"y": 3, "x_us": 2}, A, B) == [
            {"x_s": 2.0 * 1e-6},
            {"y": 3},
        ]
        assert [row.name for row in knobs_of(B)] == ["y"]
        with pytest.raises(ConfigurationError, match="y must be >= 1"):
            B(y=0)
        with pytest.raises(ConfigurationError, match=r"unknown.*\['z'\]"):
            field_values({"z": 1}, A, B)
