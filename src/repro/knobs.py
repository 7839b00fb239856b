"""Knobs declared once, on the config field that owns the value.

A *knob* is a value a cell can be run with from outside the process: a
CLI flag, a sweep-config entry, a keyword of a cell runner. Its external
name, unit, type, default, range, flag and help text are declared in the
``metadata`` of the dataclass field it fills (:func:`knob` on
``ServeConfig``, ``RecoveryPolicy``, ``TraceSpec``), or as a
free-standing :class:`Knob` row for the few values that pick a machine
or an engine build rather than a config field. This module hides the
flag <-> sweep knob <-> field mapping and nothing else. Rows resolve at
import or parser build; nothing on a per-round or per-query path reads
them.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError


@dataclasses.dataclass(frozen=True)
class Knob:
    """One externally settable value. A ``None`` default means the
    feature is off unless set, and ``None`` is then a valid value. A
    scaled knob's range is about zero, so one :meth:`check` serves the
    external and the field unit alike."""

    name: str  #: external name: keyword and sweep-config key
    type: type  #: int, float, bool or str
    default: object = None  #: in external units
    field: str = ""  #: config field it fills; "" for a free row
    scale: float = 1.0  #: field value = external value * scale
    minimum: Optional[float] = None  #: inclusive lower bound
    positive: bool = False  #: must be > 0
    choices: Optional[Tuple] = None
    sweep: bool = False  #: a sweep-config knob of the owning mode
    flag: Optional[str] = None  #: CLI option, e.g. ``--max-queue``
    flag_default: object = None  #: CLI-side default, where it differs
    flag_sets: object = None  #: a ``store_true`` flag selects this value
    help: str = ""

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")

    def check(self, value, label: str = "") -> None:
        """Raise :class:`ConfigurationError` unless ``value`` is in range."""
        if value is None:
            problem = "" if self.default is None else "must not be None"
        elif self.choices is not None:
            problem = "" if value in self.choices else (
                f"must be one of {self.choices}, got {value!r}"
            )
        elif self.positive:
            problem = "" if value > 0 else "must be positive"
        elif self.minimum is not None:
            problem = "" if value >= self.minimum else (
                f"must be >= {self.minimum}"
            )
        else:
            problem = ""
        if problem:
            raise ConfigurationError(f"{label or self.name} {problem}")

    def convert(self, value):
        """External value -> config-field value: typed, in range, scaled."""
        if value is not None:
            if self.type in (bool, str):
                typed = isinstance(value, self.type)
            else:
                typed = (
                    isinstance(value, numbers.Real)
                    and not isinstance(value, bool)
                    and (self.type is float or float(value).is_integer())
                )
            if not typed:
                raise ConfigurationError(
                    f"{self.name} expects {self.type.__name__}, "
                    f"got {value!r}"
                )
            value = self.type(value)
        self.check(value)
        if value is None or self.scale == 1.0:
            return value
        return value * self.scale


def knob(type, default, **spec):
    """A dataclass field that is a knob; ``default`` is in external units."""
    row = Knob(spec.pop("name", ""), type, default, **spec)
    return dataclasses.field(
        default=row.convert(default), metadata={"knob": row}
    )


@functools.lru_cache(maxsize=None)
def knobs_of(cls, *names: str) -> Tuple[Knob, ...]:
    """The rows a config dataclass declares — all of them in field
    order, or the ``names`` (external) asked for, in that order."""
    rows = {}
    for f in dataclasses.fields(cls):
        if "knob" in f.metadata:
            row = f.metadata["knob"]
            row = dataclasses.replace(
                row, name=row.name or f.name, field=f.name
            )
            rows[row.name] = row
    return tuple(rows[name] for name in names or rows)


def check_fields(config) -> None:
    """Range-check every knob field of a config (its ``__post_init__``)."""
    for row in knobs_of(type(config)):
        row.check(getattr(config, row.field), label=row.field)


def field_values(knobs: Mapping[str, object], *classes) -> List[Dict]:
    """``knobs`` (external names and units) as one ``{field: value}``
    dict per config class; an unknown name is a ConfigurationError."""
    owner = {
        row.name: (index, row)
        for index, cls in enumerate(classes)
        for row in knobs_of(cls)
    }
    unknown = sorted(set(knobs) - set(owner))
    if unknown:
        raise ConfigurationError(
            f"unknown knob(s) {unknown}; known: {sorted(owner)}"
        )
    values: List[Dict] = [{} for _ in classes]
    for name, value in knobs.items():
        index, row = owner[name]
        values[index][row.field] = row.convert(value)
    return values


def add_flags(parser, rows: Sequence[Knob], help: Mapping = {}) -> None:
    """One argparse option per row; ``help`` overrides a row's text for
    a subcommand whose wording differs."""
    for row in rows:
        text = help.get(row.name, row.help)
        if row.flag_sets is not None:
            parser.add_argument(row.flag, action="store_true", help=text)
            continue
        parser.add_argument(
            row.flag,
            type=None if row.type is str else row.type,
            default=(
                row.default if row.flag_default is None else row.flag_default
            ),
            choices=row.choices,
            help=text,
        )


def from_args(args, rows: Sequence[Knob]) -> Dict[str, object]:
    """The external knob values a parsed command line carries."""
    values = {}
    for row in rows:
        value = getattr(args, row.dest)
        if row.flag_sets is not None:
            value = row.flag_sets if value else row.default
        values[row.name] = value
    return values
