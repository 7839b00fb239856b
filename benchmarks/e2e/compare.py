#!/usr/bin/env python3
"""Check two result sets of ``run.py`` against the bounds in BENCHMARK.json.

    python benchmarks/e2e/compare.py A/results.json B/results.json

A is the base (the parent commit), B the change.  One row per workload
and metric, with both medians and B/A (base: A):

- a *model* metric must agree exactly when both runs used the same seed
  (``equal`` / ``differs``) -- a change meant only to speed up the host
  may not move it; state digests are held to the same rule;
- a *host* end-to-end metric may get worse by its bound (``unchanged`` /
  ``improved`` / ``regressed``); where the quartile spread of either side
  exceeds the bound the row reads ``unresolved``, not ``unchanged``,
  unless every sample of B is better (or every one worse) than every
  sample of A;
- per-layer host metrics have no bound and read ``info``.

Exits 1 when any row reads ``differs`` or ``regressed``.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional

from harness import load_contract, quartiles

FAILING = ("differs", "regressed")


def _spread(entry: Dict) -> float:
    samples = entry.get("samples")
    if not samples or len(samples) < 2:
        return 0.0
    q = quartiles(samples)
    return (q["q3"] - q["q1"]) / q["median"]


def _host_status(spec: Dict, a: Dict, b: Dict) -> str:
    bound = spec["bound"]
    sign = 1 if spec["better"] == "lower" else -1
    worse = sign * (b["value"] - a["value"]) / a["value"]
    if max(_spread(a), _spread(b)) > bound:
        # Too noisy for the medians alone: only samples that do not
        # overlap at all settle it.
        sa = [sign * s for s in a.get("samples", [])]
        sb = [sign * s for s in b.get("samples", [])]
        if sa and sb and max(sb) < min(sa):
            return "improved"
        if sa and sb and min(sb) > max(sa) and worse > bound:
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    return "improved" if worse < -bound else "unchanged"


def compare(result_a: Dict, result_b: Dict, contract: Optional[Dict] = None) -> List[Dict]:
    """Rows ``{workload, metric, clock, a, b, ratio, bound, status}``."""
    contract = contract or load_contract()
    specs = {s["name"]: s for s in contract["per_layer"]}
    specs.update({s["name"]: s for s in contract["end_to_end"]})
    same_seed = result_a["seed"] == result_b["seed"]
    rows: List[Dict] = []
    for workload, run_a in result_a["workloads"].items():
        run_b = result_b["workloads"].get(workload)
        if run_b is None:
            continue
        for name, spec in specs.items():
            a, b = run_a["metrics"].get(name), run_b["metrics"].get(name)
            if a is None or b is None:
                continue
            if a["clock"] == "bypassed" and b["clock"] == "bypassed":
                continue
            if a["clock"] == "model" and same_seed:
                status = "equal" if a["value"] == b["value"] else "differs"
            elif "bound" in spec:
                status = _host_status(spec, a, b)
            else:
                status = "info"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "clock": a["clock"],
                    "unit": spec["unit"],
                    "a": a["value"],
                    "b": b["value"],
                    "ratio": b["value"] / a["value"] if a["value"] else None,
                    "bound": spec.get("bound"),
                    "status": status,
                }
            )
        if same_seed:
            same = run_a["digests"] == run_b["digests"]
            rows.append(
                {
                    "workload": workload, "metric": "state digests",
                    "clock": "model", "unit": "", "a": len(run_a["digests"]),
                    "b": len(run_b["digests"]), "ratio": None, "bound": None,
                    "status": "equal" if same else "differs",
                }
            )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        rows = compare(json.load(fa), json.load(fb))
    print(f"{'workload':<13} {'metric':<44} {'clock':<6} {'A (base)':>14} "
          f"{'B':>14} {'B/A':>8} {'bound':>6}  status")
    for row in rows:
        ratio = f"{row['ratio']:.4f}" if row["ratio"] is not None else "-"
        bound = f"{row['bound']:.3f}" if row["bound"] is not None else "-"
        print(f"{row['workload']:<13} {row['metric']:<44} {row['clock']:<6} "
              f"{row['a']:>14.6g} {row['b']:>14.6g} {ratio:>8} {bound:>6}  "
              f"{row['status']}")
    failing = [r for r in rows if r["status"] in FAILING]
    unresolved = sum(r["status"] == "unresolved" for r in rows)
    print(f"{len(rows)} rows, {len(failing)} failing, {unresolved} unresolved")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
