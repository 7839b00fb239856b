"""Schema validation for every ``BENCH_*.json`` benchmark artifact.

All perf evidence this repo commits — the kernel microbenchmark, sweep
artifacts, CI gate baselines — must carry a schema/version header and
contain only physically sensible measurements: no NaN or infinite
floats anywhere, no negative timings, byte counts, or counters.  The
validator walks the whole document, so a bad number cannot hide in a
nested cell record.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Tuple

from repro.errors import ArtifactError

#: Required top-level keys per schema kind.
REQUIRED_KEYS: Dict[str, Tuple[str, ...]] = {
    "repro-sweep": (
        "schema",
        "schema_version",
        "config",
        "matrix_cells",
        "cells",
    ),
    "repro-bench-kernels": (
        "schema",
        "schema_version",
        "benchmark",
        "engine",
        "graph",
        "machine",
        "results",
    ),
    # Durability benchmark: crash-restart certification cells plus the
    # modeled cost of durable vs in-memory checkpointing and the
    # on-disk store/compaction footprint (BENCH_durability.json).
    "repro-durability": (
        "schema",
        "schema_version",
        "config",
        "cells",
        "overhead",
    ),
    # Out-of-core storage scaling: per-size partition/scan cells proving
    # peak resident bytes stay bounded while edges scale ~100x, plus
    # bit-identity certification vs the in-RAM path on overlap sizes
    # (BENCH_storage.json).
    "repro-storage": (
        "schema",
        "schema_version",
        "config",
        "cells",
        "identity",
        "scaling",
    ),
}

#: Key suffixes whose float/int values must be non-negative — timings,
#: traffic, counts.  ``speedup`` and ``mean``/``std`` aggregates are
#: covered by the suffix rules where applicable.
NON_NEGATIVE_SUFFIXES = (
    "_s",
    "_seconds",
    "_ms",
    "_us",
    "_bytes",
    "_cycles",
    "_per_second",
    "_per_s",
    "_per_round",
)

NON_NEGATIVE_KEYS = frozenset(
    {
        "rounds",
        "repeats",
        "runs",
        "matrix_cells",
        "speedup",
        "vertex_updates",
        "edge_traversals",
        "num_vertices",
        "num_edges",
        "num_gpus",
        "mean",
        "std",
        "min",
        "max",
        "scale",
        # serve-mode cells (repro.serve): query counts, scheduler
        # counters, and their sweep knobs are all non-negative.
        "queries",
        "completed",
        "queries_total",
        "queries_completed",
        "queries_failed",
        "queries_replayed",
        "batches",
        "launches",
        "edge_lane_work",
        "peak_concurrency",
        "faults_injected",
        "replays",
        "query_lanes",
        "tenant_count",
        "max_concurrent",
        "tenant_quota",
        "num_queries",
        "kill_launch",
        # overload-resilience cells: shed/degrade/deadline outcomes and
        # their knobs.
        "queries_degraded",
        "queries_shed",
        "queries_rejected",
        "deadline_misses",
        "goodput_queries",
        "residual_bound_max",
        "max_queue",
        "max_replays",
        "overload_factor",
        "offered_per_s",
        "capacity_per_s",
        "goodput_fraction",
        "on_time_fraction",
        # durability cells: store footprint and checkpoint lifecycle.
        "checkpoints_taken",
        "store_overhead_fraction",
        "compaction_ratio",
        # out-of-core storage cells: partitioner/shard-cache counters
        # and the memory-growth certification ratios.
        "num_parts",
        "edge_cut",
        "edge_cut_fraction",
        "chunk_edges",
        "clusters",
        "shard_loads",
        "shard_evictions",
        "cache_hits",
        "edge_growth",
        "memory_growth",
        "sublinearity",
        "num_paths",
        "covered_edges",
    }
)


def _iter_numbers(node: object, path: str) -> Iterable[Tuple[str, str, float]]:
    """Yield ``(json_path, key, value)`` for every numeric leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _iter_numbers(value, f"{path}.{key}")
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _iter_numbers(value, f"{path}[{index}]")
    elif isinstance(node, bool):
        return
    elif isinstance(node, (int, float)):
        key = path.rsplit(".", 1)[-1].split("[", 1)[0]
        yield path, key, float(node)


def _is_measurement(key: str) -> bool:
    return key in NON_NEGATIVE_KEYS or any(
        key.endswith(suffix) for suffix in NON_NEGATIVE_SUFFIXES
    )


def validate_artifact(
    data: object, kind: Optional[str] = None, path: str = "<artifact>"
) -> str:
    """Validate one parsed benchmark artifact; return its schema kind.

    ``kind`` pins the expected schema; when ``None`` the artifact's own
    ``schema`` field selects it.  Raises :class:`ArtifactError` on any
    violation.
    """
    if not isinstance(data, dict):
        raise ArtifactError(f"{path}: artifact must be a JSON object")
    schema = data.get("schema")
    if schema is None:
        raise ArtifactError(f"{path}: missing required 'schema' field")
    if kind is not None and schema != kind:
        raise ArtifactError(
            f"{path}: schema is {schema!r}, expected {kind!r}"
        )
    if schema not in REQUIRED_KEYS:
        raise ArtifactError(
            f"{path}: unknown schema {schema!r}; known: "
            f"{sorted(REQUIRED_KEYS)}"
        )
    version = data.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool) or version < 1:
        raise ArtifactError(
            f"{path}: schema_version must be an integer >= 1, "
            f"got {version!r}"
        )
    missing = [key for key in REQUIRED_KEYS[schema] if key not in data]
    if missing:
        raise ArtifactError(
            f"{path}: missing required key(s) {missing} for {schema!r}"
        )

    for json_path, key, value in _iter_numbers(data, path):
        if math.isnan(value) or math.isinf(value):
            raise ArtifactError(
                f"{json_path}: non-finite measurement {value!r}"
            )
        if value < 0 and _is_measurement(key):
            raise ArtifactError(
                f"{json_path}: negative measurement {value!r}"
            )
    return schema


def validate_artifact_file(path: str, kind: Optional[str] = None) -> str:
    """Load a JSON file and validate it; return its schema kind."""
    import json

    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArtifactError(
            f"artifact {path!r} is not valid JSON: {exc}"
        ) from exc
    return validate_artifact(data, kind=kind, path=path)


def write_artifact_file(data: Dict, path: Optional[str]) -> None:
    """Validate an artifact and write it to ``path`` as JSON (``None``:
    validate only) — the inverse of :func:`validate_artifact_file`."""
    import json

    validate_artifact(data, path=path or "<artifact>")
    if path is not None:
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
