"""Pass protocol, span recorder and result assembly of the e2e benchmark.

One workload run is: set-up (several times, for a median) -> one untimed
*verification pass* that certifies every operation and pins the state
digests and model metrics -> timed passes with tracing off, each checked
against the pinned values -> optionally one *traced pass* that records a
span around every call into a layer.  Everything here is independent of
``repro``; the workloads (``workloads.py``) own every call into it.

Two clocks, never mixed: a *model* number is read off a result object of
the simulator and repeats exactly for a seed; a *host* number is wall
time of this Python process and does not.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import time
from typing import Callable, Dict, Iterable, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def load_contract() -> Dict:
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def array_digest(array) -> str:
    """sha256 over the exact bytes of a numpy array (bit-equality)."""
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def quartiles(samples: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles the way the driver takes them."""
    median = statistics.median(samples)
    if len(samples) < 2:
        return {"median": median, "q1": median, "q3": median}
    q1, _q2, q3 = statistics.quantiles(samples, n=4)
    return {"median": median, "q1": q1, "q3": q3}


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.record = {"name": name, "scope": tracer.scope}

    def __enter__(self):
        tracer = self.tracer
        self.record["parent"] = tracer._open[-1] if tracer._open else None
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record["start"] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._open.pop()
        return False


class Tracer:
    """In-memory span recorder; costs one attribute test while disabled.

    A span is ``{name, start, end, parent, scope}``: ``parent`` indexes
    the enclosing span in :attr:`spans` (the span that caused it) and
    ``scope`` is the ``workload/pass`` identifier its siblings share.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.scope = ""
        self.spans: List[Dict] = []
        self._open: List[int] = []

    def span(self, name: str):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)


def summarize_spans(
    spans: Sequence[Dict], scope: str
) -> Dict[str, Dict[str, float]]:
    """Per span name within one scope: count, total and self seconds.

    Self time is a span's duration minus what its direct children cover.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        if span["scope"] != scope:
            continue
        entry = out.setdefault(
            span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        duration = span["end"] - span["start"]
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time[index]
    return out


def chrome_trace(spans: Sequence[Dict], workload: str) -> Dict:
    """Chrome ``trace_event`` JSON (open in chrome://tracing or Perfetto)."""
    origin = min((s["start"] for s in spans), default=0.0)
    events = []
    for index, span in enumerate(spans):
        events.append(
            {
                "name": span["name"],
                "cat": span["name"].rsplit(".", 1)[0],
                "ph": "X",
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "id": index,
                    "parent": span["parent"],
                    "scope": span["scope"],
                    "clock": "host",
                },
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"workload": workload},
    }


# ----------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------
class PassContext:
    """What a workload's ``run_pass`` reports through.

    ``verify`` is true on the verification pass only: that is where the
    expensive certification runs and where operations are counted.
    """

    def __init__(self, kind: str, tracer: Tracer) -> None:
        self.verify = kind == "verify"
        self.traced = kind == "traced"
        self.span = tracer.span
        self.attempted = 0
        self.failures: List[str] = []
        self.models: Dict[str, float] = {}
        self.digests: Dict[str, str] = {}
        #: Host seconds of ``run_pass`` alone, filled in by the harness.
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def op(self, label: str, ok: bool, detail: str = "") -> None:
        """Count one certified operation."""
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}" if detail else label)

    def model(self, name: str, value: float) -> None:
        """Report a deterministic number.  A name starting with ``_`` is
        an intermediate for ``derive`` and the harness, not a metric."""
        self.models[name] = value

    def digest(self, label: str, hexdigest: str) -> None:
        self.digests[label] = hexdigest


def _assert_memos_empty() -> None:
    """A pass that hits a memo measures nothing: the three process-wide
    caches must be empty because the workloads never go through them."""
    from repro.bench import runner as bench_runner
    from repro.serve import runner as serve_runner

    leaked = {
        "bench.runner._CACHE": len(bench_runner._CACHE),
        "bench.runner._GRAPH_CACHE": len(bench_runner._GRAPH_CACHE),
        "serve.runner._CONTEXT_CACHE": len(serve_runner._CONTEXT_CACHE),
    }
    if any(leaked.values()):
        raise AssertionError(f"memo cache populated during a pass: {leaked}")


def _reproduces(pinned: Dict, later: Dict) -> List[str]:
    """Names a later pass reports differently from the verification pass
    (a later pass may omit what only certification computes)."""
    return sorted(
        name
        for name, value in later.items()
        if name not in pinned or pinned[name] != value
    )


def environment_header() -> Dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def layer_wall_metrics(
    contract: Dict,
    workload,
    models: Dict[str, float],
    traced_wall: float,
    setup_layers: List[Dict],
    pass_spans: Dict,
    probe_spans: Dict,
) -> Dict[str, float]:
    """Host seconds per layer: every listed ``<span>_wall_s`` whose span
    was recorded, plus what the workload derives from them.

    Spans of the traced pass and the probes count as they are; spans of
    set-up count with the median over its repeats.
    """
    span_seconds = {
        span: statistics.median(s[span]["total_s"] for s in setup_layers)
        for span in setup_layers[0]
    }
    for layers in (pass_spans, probe_spans):
        span_seconds.update(
            {span: entry["total_s"] for span, entry in layers.items()}
        )
    host = {}
    for spec in contract["per_layer"]:
        span = spec["name"][: -len("_wall_s")]
        if spec["name"].endswith("_wall_s") and span in span_seconds:
            host[spec["name"]] = span_seconds[span]
    host.update(
        workload.derive(
            lambda span: span_seconds.get(span, 0.0), models, traced_wall
        )
    )
    return host


def run_workload(
    build: Callable,
    name: str,
    quick: bool,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: str,
    log: Callable[[str], None],
) -> Dict:
    """Run one workload end to end and return its result record.

    ``build(name, quick)`` makes the workload object; it is called after
    the first ``import repro`` has been timed, because it imports it too.
    """
    contract = load_contract()
    min_timed_passes = 2 if quick else 3
    tracer = Tracer()
    tracer.enabled = True  # set-up is always spanned: a handful of spans

    # -- set-up ---------------------------------------------------------
    started = time.perf_counter()
    import repro  # noqa: F401  (part of what a user waits for)

    import_s = time.perf_counter() - started
    workload = build(name, quick)
    setup_walls: List[float] = []
    setup_layers: List[Dict[str, Dict[str, float]]] = []
    inputs = None
    for repeat in range(SETUP_REPEATS):
        inputs = None
        gc.collect()
        tracer.scope = f"{name}/setup-{repeat}"
        t0 = time.perf_counter()
        inputs = workload.setup(seed, tracer.span)
        setup_walls.append(import_s + time.perf_counter() - t0)
        setup_layers.append(summarize_spans(tracer.spans, tracer.scope))
    tracer.enabled = False
    log(f"set-up x{SETUP_REPEATS}: {statistics.median(setup_walls):.3f} s")

    # Scratch files of a pass live under the output directory, inside
    # the checkout.  Deleting them is not the program's work, so it is
    # kept out of the timed region.
    work_root = os.path.join(out_dir, f"work-{name}-{os.getpid()}")

    def one_pass(kind: str, index: int) -> PassContext:
        gc.collect()
        tracer.scope = f"{name}/{kind}-{index}"
        ctx = PassContext(kind, tracer)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            workload.run_pass(inputs, ctx, os.path.join(work_root, f"{kind}-{index}"))
            ctx.wall_s = time.perf_counter() - t0
            ctx.cpu_s = time.process_time() - cpu0
        finally:
            shutil.rmtree(work_root, ignore_errors=True)
        _assert_memos_empty()
        return ctx

    # -- verification pass (untimed; doubles as warm-up) ----------------
    pinned = one_pass("verify", 0)
    attempted = pinned.attempted
    failures = list(pinned.failures)
    log(f"verification pass: {attempted} operations, {len(failures)} failed")

    def check_later(ctx: PassContext, label: str) -> None:
        nonlocal attempted
        attempted += 1
        drift = _reproduces(pinned.models, ctx.models) + _reproduces(
            pinned.digests, ctx.digests
        )
        if drift or ctx.failures:
            failures.append(
                f"{label} does not reproduce the verification pass: "
                f"{drift + ctx.failures}"
            )

    # -- timed passes (tracing off) -------------------------------------
    walls: List[float] = []
    cpus: List[float] = []
    budget_start = time.perf_counter()
    while (
        len(walls) < min_timed_passes
        or time.perf_counter() - budget_start < seconds
    ):
        ctx = one_pass("timed", len(walls))
        walls.append(ctx.wall_s)
        cpus.append(ctx.cpu_s)
        check_later(ctx, f"timed pass {len(walls) - 1}")
    wall = quartiles(walls)
    log(
        f"{len(walls)} timed passes: median {wall['median']:.3f} s "
        f"[{wall['q1']:.3f}, {wall['q3']:.3f}]"
    )

    models = pinned.models
    work = models["_sim_work"]
    metrics: Dict[str, Dict] = {}

    def put(name, value, clock, samples=None):
        if hasattr(value, "item"):  # numpy scalar -> JSON number
            value = value.item()
        metrics[name] = {"value": value, "clock": clock}
        if samples is not None:
            metrics[name]["samples"] = list(samples)

    put("setup_s", statistics.median(setup_walls), "host", setup_walls)
    put("wall_s", wall["median"], "host", walls)
    put("sim_work_per_wall_s", work / wall["median"], "host",
        [work / w for w in walls])
    for metric, value in models.items():
        if not metric.startswith("_"):
            put(metric, value, "model")

    # -- traced pass and probes -----------------------------------------
    if trace:
        tracer.enabled = True
        ctx = one_pass("traced", 0)
        traced_wall = ctx.wall_s
        check_later(ctx, "traced pass")
        pass_spans = summarize_spans(tracer.spans, tracer.scope)
        tracer.scope = f"{name}/probes"
        host = workload.probes(inputs, tracer.span)
        probe_spans = summarize_spans(tracer.spans, tracer.scope)
        tracer.enabled = False

        host.update(
            layer_wall_metrics(
                contract, workload, models, traced_wall,
                setup_layers, pass_spans, probe_spans,
            )
        )
        host["host.cpu_s"] = statistics.median(cpus)
        host["host.wall_iqr_fraction"] = (
            (wall["q3"] - wall["q1"]) / wall["median"]
        )
        host["host.trace_overhead_fraction"] = (
            traced_wall / wall["median"] - 1.0
        )
        for metric, value in host.items():
            put(metric, value, "host")
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{name}.json")
        with open(trace_path, "w") as fh:
            json.dump(chrome_trace(tracer.spans, name), fh)
        log(f"traced pass: {traced_wall:.3f} s, spans -> {trace_path}")

    # ru_maxrss is KiB on Linux.
    put("peak_rss_mb",
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "host")
    put("ok_fraction", 1.0 - len(failures) / attempted, "model")

    return finish_result(
        contract, name, seed, trace, metrics, attempted, failures,
        dict(pinned.digests, inputs=inputs["digest"]), len(walls),
    )


def finish_result(
    contract: Dict,
    workload: str,
    seed: int,
    traced: bool,
    metrics: Dict[str, Dict],
    attempted: int,
    failures: List[str],
    digests: Dict[str, str],
    timed_passes: int,
) -> Dict:
    """Attach units from the contract and fill bypassed layers with 0.

    An untraced run keeps the end-to-end metrics only: the per-layer host
    numbers need the traced pass, and half a layer's metrics would read
    as that layer bypassed.
    """
    listed = list(contract["end_to_end"])
    if traced:
        listed += contract["per_layer"]
    else:
        wanted = {spec["name"] for spec in listed}
        metrics = {k: v for k, v in metrics.items() if k in wanted}
    known = {spec["name"] for spec in listed}
    unknown = sorted(set(metrics) - known)
    if unknown:
        raise AssertionError(f"metrics not in BENCHMARK.json: {unknown}")
    missing = sorted(
        spec["name"] for spec in contract["end_to_end"]
        if spec["name"] not in metrics
    )
    if missing:
        raise AssertionError(f"end-to-end metrics not measured: {missing}")
    for spec in listed:
        # A layer this workload bypasses did no work and took no time.
        entry = metrics.setdefault(
            spec["name"], {"value": 0.0, "clock": "bypassed"}
        )
        entry["unit"] = spec["unit"]
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "timed_passes": timed_passes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digests": digests,
        "header": environment_header(),
        "metrics": metrics,
    }


def driver_line(contract: Dict, result: Dict) -> str:
    """The one-line JSON the benchmark contract asks for."""
    wanted = contract["per_layer"] if result["traced"] else contract["end_to_end"]
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                spec["name"]: {
                    "value": result["metrics"][spec["name"]]["value"],
                    "unit": spec["unit"],
                }
                for spec in wanted
            },
        }
    )


def format_metrics(contract: Dict, result: Dict) -> Iterable[str]:
    """Every metric by name with its unit and clock, bypassed layers left out."""
    sections = [("end to end", contract["end_to_end"])]
    if result["traced"]:
        sections.append(("per layer", contract["per_layer"]))
    for title, specs in sections:
        yield f"-- {result['workload']}: {title} --"
        for spec in specs:
            entry = result["metrics"][spec["name"]]
            if entry["clock"] == "bypassed":
                continue
            line = (
                f"{spec['name']:<46} {entry['value']:>16.6g} "
                f"{spec['unit']:<6} [{entry['clock']}]"
            )
            samples = entry.get("samples")
            if samples:
                q = quartiles(samples)
                line += (
                    f"  median of {len(samples)}, "
                    f"quartiles {q['q1']:.6g}..{q['q3']:.6g}"
                )
            yield line
