"""Cross-engine equivalence oracle.

Every engine implements the same pull-style GAS semantics, so all of
them must reach the same fixed point (the premise behind Fig. 11's
update-count comparison). The oracle runs an algorithm through several
engines and certifies two things per engine, both grounded in
:mod:`repro.model.validate`:

- the final states satisfy the program's own update equations
  (:func:`~repro.model.validate.residuals` is the ground truth — the
  engine's convergence flag only says *it* stopped);
- the states agree with the reference engine's: **exactly** for
  discrete programs (min/level/count lattices, where every engine must
  land on the identical values) and within a **tolerance band** for
  contractions (different relaxation orders stop at slightly different
  points inside the same tolerance basin).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.algorithms import ALGORITHMS, make_program
from repro.bench.results import ExecutionResult
from repro.bench.runner import make_engine
from repro.core.engine import DiGraphEngine
from repro.errors import ReproError
from repro.gpu.config import SCALED_MACHINE, MachineSpec
from repro.verify.report import CheckResult, VerificationReport
from repro.verify.structural import check_fixed_point_reached

#: Programs whose states live on discrete lattices (distances, levels,
#: core numbers, component labels, reachability flags): every engine
#: must produce bit-identical fixed points.
DISCRETE_ALGORITHMS = frozenset(
    {"sssp", "kcore", "bfs", "wcc", "reachability"}
)

#: Contraction programs (damped linear iterations): engines stop inside
#: the same tolerance basin, not on identical bits.
CONTRACTION_ALGORITHMS = frozenset({"pagerank", "adsorption", "ppr"})

#: The eight conformance algorithms.
ALL_ALGORITHMS = tuple(sorted(ALGORITHMS))

#: Default engine panel: the sequential reference first (it anchors the
#: comparison), then one of each parallel execution model.
DEFAULT_ENGINES = ("sequential", "bulk-sync", "async", "digraph")


def equivalence_band(program, graph) -> float:
    """Per-vertex |a - b| bound for two converged contraction runs.

    Each run can sit up to the in-degree-aware fixed-point tolerance
    away from the true fixed point (see
    :func:`~repro.model.validate.check_fixed_point`), so two runs can
    differ by twice that, with slack for the contraction's error
    amplification near the fixed point.
    """
    max_in = int(graph.in_degree().max()) if graph.num_vertices else 0
    return max(program.tolerance, 1e-12) * max(max_in, 1) * 8


def states_equivalent(
    a: np.ndarray,
    b: np.ndarray,
    band: float,
) -> CheckResult:
    """Compare two state vectors: infinity patterns must match exactly,
    finite values within ``band`` (``band=0`` demands exact equality)."""
    if a.shape != b.shape:
        return CheckResult(
            name="oracle.states",
            passed=False,
            detail=f"shape {a.shape} != {b.shape}",
        )
    finite_a, finite_b = np.isfinite(a), np.isfinite(b)
    if not np.array_equal(finite_a, finite_b):
        differing = int((finite_a != finite_b).sum())
        return CheckResult(
            name="oracle.states",
            passed=False,
            detail=f"{differing} vertices differ in finiteness",
        )
    diff = np.abs(a[finite_a] - b[finite_b])
    worst = float(diff.max()) if diff.size else 0.0
    passed = worst <= band
    return CheckResult(
        name="oracle.states",
        passed=passed,
        detail=(
            f"max |a-b| = {worst:.3g} "
            f"{'<=' if passed else '>'} band {band:.3g}"
        ),
    )


def cross_engine_check(
    graph,
    algo: str,
    engine_names: Sequence[str] = DEFAULT_ENGINES,
    machine: Optional[MachineSpec] = None,
    graph_name: str = "graph",
    verify_digraph: bool = True,
    program_kwargs: Optional[Dict] = None,
) -> VerificationReport:
    """Run ``algo`` through every engine and certify equivalence.

    With ``verify_digraph`` the DiGraph-family engines also run their
    built-in structural and conservation checks
    (:attr:`~repro.core.engine.DiGraphConfig.verify_invariants`); a
    violation there surfaces as a failed check here, not an exception.
    """
    machine = machine or SCALED_MACHINE
    kwargs = dict(program_kwargs or {})
    report = VerificationReport()

    results: List[ExecutionResult] = []
    labels: List[str] = []
    for name in engine_names:
        # Fresh program per engine: programs cache graph-derived arrays
        # and engines must not share them.
        program = make_program(algo, graph, **kwargs)
        engine = make_engine(name, machine)
        if verify_digraph and isinstance(engine, DiGraphEngine):
            engine.config = replace(engine.config, verify_invariants=True)
        try:
            result = engine.run(graph, program, graph_name=graph_name)
        except ReproError as exc:
            report.add(
                CheckResult(
                    name=f"oracle.{algo}.{name}.run",
                    passed=False,
                    detail=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        fixed = check_fixed_point_reached(program, graph, result.states)
        report.add(
            CheckResult(
                name=f"oracle.{algo}.{name}.fixed-point",
                passed=fixed.passed,
                detail=fixed.detail,
            )
        )
        results.append(result)
        labels.append(name)

    if len(results) < 2:
        return report

    reference, ref_label = results[0], labels[0]
    band = 0.0
    if algo in CONTRACTION_ALGORITHMS:
        band = equivalence_band(
            make_program(algo, graph, **kwargs), graph
        )
    for result, label in zip(results[1:], labels[1:]):
        cmp = states_equivalent(reference.states, result.states, band)
        report.add(
            CheckResult(
                name=f"oracle.{algo}.{ref_label}-vs-{label}",
                passed=cmp.passed,
                detail=cmp.detail,
            )
        )
    return report
