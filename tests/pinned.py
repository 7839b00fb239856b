"""The one loader of the pinned fingerprint files.

With ``REPRO_REGEN_GOLDEN=1``, :func:`load_pinned` recomputes a file and
rewrites it in its committed format (indent and key order, new keys
appended), so regenerating an unchanged tree rewrites the same bytes.
"""

import json
import os
from pathlib import Path

import pytest


def _ordered(value, committed):
    """``value`` with each object's keys in the order ``committed`` has
    at the same place, keys it lacks appended."""
    if isinstance(value, dict):
        old = committed if isinstance(committed, dict) else {}
        keys = [k for k in old if k in value]
        keys += [k for k in value if k not in old]
        return {k: _ordered(value[k], old.get(k)) for k in keys}
    if isinstance(value, list):
        old = committed if isinstance(committed, list) else []
        return [
            _ordered(item, old[i] if i < len(old) else None)
            for i, item in enumerate(value)
        ]
    return value


def dump_pinned(value, committed_text=None):
    """The text of a pinned file holding ``value``, in the format of
    ``committed_text`` (indent 1 and ``value``'s order without one)."""
    if committed_text is None:
        return json.dumps(value, indent=1) + "\n"
    second_line = committed_text.split("\n", 2)[1]
    indent = len(second_line) - len(second_line.lstrip(" "))
    ordered = _ordered(value, json.loads(committed_text))
    return json.dumps(ordered, indent=indent) + "\n"


def load_pinned(path, compute):
    """The parsed pinned file at ``path``; under ``REPRO_REGEN_GOLDEN=1``
    ``compute()``'s result, written there first."""
    path = Path(path)
    committed = path.read_text() if path.exists() else None
    if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
        # The round trip makes tuples lists and keys strings, as parsed.
        text = dump_pinned(json.loads(json.dumps(compute())), committed)
        path.write_text(text)
        return json.loads(text)
    if committed is None:
        module = compute.__module__.replace(".", "/")
        pytest.fail(
            f"{path.name} is missing; regenerate it with REPRO_REGEN_GOLDEN=1 "
            f"PYTHONPATH=src python -m pytest {module}.py"
        )
    return json.loads(committed)
