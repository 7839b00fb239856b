"""Equivalence oracle for incremental (streaming) recomputation.

The streaming subsystem's whole claim is that delta recompute after a
mutation batch lands on the *same* fixpoint as throwing everything away
and rerunning from scratch. This module certifies that claim:

- :func:`certify_incremental` compares one incremental state vector
  against its from-scratch golden twin — bit-exact (``band=0``) for the
  discrete algorithms, within the in-degree-aware tolerance band for
  the contraction ones (the same band the cross-engine oracle uses);
- :func:`verify_stream` replays a whole mutation trace through a
  :class:`~repro.streaming.session.StreamingSession` with per-batch
  certification and aggregates everything into a
  :class:`~repro.verify.report.VerificationReport` (one check per
  batch, plus a final fixed-point check on the last incremental state).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.verify.oracle import states_equivalent
from repro.verify.report import CheckResult, VerificationReport


def certify_incremental(
    incremental: np.ndarray,
    golden: np.ndarray,
    band: float,
) -> CheckResult:
    """Certify one incremental run against its from-scratch golden run."""
    inner = states_equivalent(incremental, golden, band)
    return CheckResult(
        name="streaming.equivalence",
        passed=inner.passed,
        detail=inner.detail,
    )


def verify_stream(
    graph,
    algorithm: str,
    batches: Iterable,
    machine_spec=None,
    config=None,
    graph_name: str = "stream",
    verify_structure: bool = True,
) -> VerificationReport:
    """Replay ``batches`` with certification on; aggregate a report.

    Every batch is certified against a from-scratch golden run on the
    post-batch graph, and the final incremental state must be a genuine
    fixed point of the final graph — the end-to-end guarantee the CI
    stream sweep runs in strict mode.
    """
    from repro.algorithms import make_program
    from repro.streaming.session import run_stream_cell
    from repro.verify.structural import check_fixed_point_reached

    replay = run_stream_cell(
        algorithm,
        graph_name,
        graph=graph,
        machine=machine_spec,
        config=config,
        trace=batches,
        verify_structure=verify_structure,
    )
    report = VerificationReport()
    for outcome in replay.outcomes:
        report.add(
            CheckResult(
                name=f"streaming.equivalence.batch{outcome.batch_id}",
                passed=outcome.certification.passed,
                detail=(
                    f"{algorithm} {outcome.mode}: "
                    f"{outcome.certification.detail}"
                ),
            )
        )
    if replay.outcomes:
        session = replay.session
        program = make_program(
            algorithm, session.graph, **session.program_kwargs
        )
        program.initial_states(session.graph)  # prime caches
        report.add(
            check_fixed_point_reached(
                program, session.graph, session.values
            )
        )
    return report
